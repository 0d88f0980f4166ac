//! Determinism guarantees: identical seeds produce identical outcomes, and
//! engine stepping is bit-identical at every pool width — the property that
//! makes every experiment in this repository reproducible from one u64.

use fast_broadcast::core::bfs::BfsProtocol;
use fast_broadcast::core::broadcast::{partition_broadcast, BroadcastInput};
use fast_broadcast::core::partition::{EdgePartition, PartitionParams};
use fast_broadcast::graph::generators::{harary, torus2d};
use fast_broadcast::sim::{run_protocol, EngineConfig};

#[test]
fn same_seed_same_broadcast_outcome() {
    let g = harary(16, 64);
    let input = BroadcastInput::random_spread(&g, 100, 5);
    let a = partition_broadcast(&g, &input, 16, 42).unwrap();
    let b = partition_broadcast(&g, &input, 16, 42).unwrap();
    assert_eq!(a.total_rounds, b.total_rounds);
    assert_eq!(a.subgraph_heights, b.subgraph_heights);
    assert_eq!(a.expected, b.expected);
    for (ra, rb) in a.per_node.iter().zip(b.per_node.iter()) {
        assert_eq!(ra, rb);
    }
}

#[test]
fn different_seed_different_partition() {
    let g = harary(16, 64);
    let p1 = EdgePartition::compute(&g, PartitionParams::explicit(4), 1);
    let p2 = EdgePartition::compute(&g, PartitionParams::explicit(4), 2);
    assert_ne!(p1.colors, p2.colors);
}

#[test]
fn parallel_and_serial_engines_agree_exactly() {
    let g = torus2d(8, 8);
    let par = run_protocol(
        &g,
        |v, _| BfsProtocol::new(0, v),
        EngineConfig::default().seed(9),
    )
    .unwrap();
    let ser = congest_par::with_threads(1, || {
        run_protocol(
            &g,
            |v, _| BfsProtocol::new(0, v),
            EngineConfig::with_seed(9),
        )
        .unwrap()
    });
    assert_eq!(par.stats, ser.stats);
    assert_eq!(par.outputs.len(), ser.outputs.len());
    for (a, b) in par.outputs.iter().zip(ser.outputs.iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn thread_count_does_not_change_results() {
    // Run the same protocol under thread pools of different widths.
    let g = harary(12, 72);
    let baseline = run_protocol(
        &g,
        |v, _| BfsProtocol::new(3, v),
        EngineConfig::default().seed(4),
    )
    .unwrap();
    for threads in [1usize, 2, 4] {
        let out = congest_par::with_threads(threads, || {
            run_protocol(
                &g,
                |v, _| BfsProtocol::new(3, v),
                EngineConfig::default().seed(4),
            )
            .unwrap()
        });
        assert_eq!(out.stats, baseline.stats, "threads = {threads}");
        for (a, b) in out.outputs.iter().zip(baseline.outputs.iter()) {
            assert_eq!(a, b, "threads = {threads}");
        }
    }
}
