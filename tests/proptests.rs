//! Cross-crate property-based tests (proptest): the paper's invariants
//! must hold for *arbitrary* valid inputs, not just the families the
//! experiments use.

use fast_broadcast::core::broadcast::{
    partition_broadcast_hosted, BroadcastConfig, BroadcastInput,
};
use fast_broadcast::core::partition::{edge_color, EdgePartition, PartitionParams};
use fast_broadcast::core::pipeline::expected_checksums;
use fast_broadcast::graph::algo::apsp::apsp_unweighted;
use fast_broadcast::graph::algo::connectivity::edge_connectivity;
use fast_broadcast::graph::generators::{gnp_connected, harary};
use fast_broadcast::graph::{Graph, GraphBuilder};
use fast_broadcast::sim::Session;
use proptest::prelude::*;

/// Arbitrary connected simple graph: a random spanning tree plus extra
/// random edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::HashSet::new();
        // Random spanning tree.
        for v in 1..n as u32 {
            let u = rng.gen_range(0..v);
            edges.insert((u.min(v), u.max(v)));
        }
        // Extra edges, density ~2 per node.
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        for &(u, v) in &edges {
            b.push_edge(u, v);
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2's partition always covers every edge exactly once, with
    /// colors agreed by both endpoints (it's a pure function).
    #[test]
    fn partition_covers_exactly_once(g in arb_connected_graph(60), seed in any::<u64>(), lp in 1usize..6) {
        let part = EdgePartition::compute(&g, PartitionParams::explicit(lp), seed);
        prop_assert_eq!(part.colors.len(), g.m());
        prop_assert!(part.colors.iter().all(|&c| (c as usize) < lp));
        prop_assert_eq!(part.class_sizes().iter().sum::<usize>(), g.m());
        for (_, u, v) in g.edge_list() {
            prop_assert_eq!(edge_color(seed, u, v, lp), edge_color(seed, v, u, lp));
        }
    }

    /// The broadcast checksum machinery never confuses different message
    /// multisets (up to the astronomically unlikely 128-bit collision).
    #[test]
    fn checksums_separate_multisets(
        mut msgs in proptest::collection::vec((any::<u32>(), any::<u64>()), 1..50),
        extra in (any::<u32>(), any::<u64>()),
    ) {
        let full = expected_checksums(msgs.iter());
        msgs.push(extra);
        let bigger = expected_checksums(msgs.iter());
        prop_assert_ne!(full, bigger);
    }

    /// BFS distances from the simulator's distributed BFS equal the
    /// centralized ones on arbitrary connected graphs.
    #[test]
    fn distributed_bfs_matches_centralized(g in arb_connected_graph(50)) {
        use fast_broadcast::core::bfs::BfsProtocol;
        use fast_broadcast::sim::{run_protocol, EngineConfig};
        let out = run_protocol(&g, |v, _| BfsProtocol::new(0, v), EngineConfig::default()).unwrap();
        let exact = apsp_unweighted(&g);
        for (v, info) in out.outputs.iter().enumerate() {
            prop_assert_eq!(info.depth, exact[0][v]);
        }
    }

    /// λ never exceeds δ on any graph (paper §2 preliminaries), and the
    /// flow-based implementation respects that.
    #[test]
    fn lambda_at_most_delta(g in arb_connected_graph(40)) {
        prop_assert!(edge_connectivity(&g) <= g.min_degree());
    }
}

proptest! {
    // The full-broadcast property test is expensive per case; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Theorem 1 delivers every message to every node for arbitrary
    /// placements on a well-connected base graph.
    #[test]
    fn broadcast_delivers_arbitrary_placements(
        placements in proptest::collection::vec((0u32..64, any::<u64>()), 1..120),
        seed in any::<u64>(),
    ) {
        let g = harary(16, 64);
        let input = BroadcastInput { messages: placements };
        let params = PartitionParams::from_lambda(64, 16, 2.0);
        let (out, _) = partition_broadcast_hosted(
            &mut Session::new(&g), &input, params, &BroadcastConfig::with_seed(seed), 30,
        ).unwrap();
        prop_assert!(out.all_delivered());
    }

    /// Random dense-enough G(n,p) graphs broadcast successfully with the
    /// measured λ.
    #[test]
    fn broadcast_on_random_graphs(seed in any::<u64>()) {
        let g = gnp_connected(72, 0.25, seed);
        let lambda = edge_connectivity(&g);
        prop_assume!(lambda >= 2);
        let input = BroadcastInput::one_per_node(&g);
        let params = PartitionParams::from_lambda(72, lambda, 2.0);
        let (out, _) = partition_broadcast_hosted(
            &mut Session::new(&g), &input, params, &BroadcastConfig::with_seed(seed ^ 0xF00), 30,
        ).unwrap();
        prop_assert!(out.all_delivered());
    }
}
