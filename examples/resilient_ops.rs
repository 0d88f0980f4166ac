//! Operating under attack: broadcast with a mobile edge adversary
//! (paper §1.2's secure-distributed-computing application).
//!
//! A monitoring fleet must distribute `k` alerts while an adversary
//! blackholes a few links every round. Replicating each alert over `r`
//! edge-disjoint trees of the Theorem 2 packing forces the adversary to
//! sever all `r` routes at once — watch starvation vanish as `r` grows.
//!
//! ```text
//! cargo run --release --example resilient_ops
//! ```

use fast_broadcast::core::broadcast::{BroadcastConfig, BroadcastInput};
use fast_broadcast::core::partition::PartitionParams;
use fast_broadcast::core::resilient::resilient_broadcast_hosted;
use fast_broadcast::graph::generators::harary;
use fast_broadcast::sim::{FaultPlan, Session};

fn main() {
    let lambda = 24;
    let n = 96;
    let g = harary(lambda, n);
    let input = BroadcastInput::random_spread(&g, 128, 1);
    let params = PartitionParams::explicit(4);
    let mut host = Session::new(&g);
    println!(
        "fleet: n = {n}, λ = {lambda}, {} alerts over 4 edge-disjoint trees\n",
        input.k()
    );

    println!(
        "{:>13} {:>13} {:>15} {:>13} {:>9}",
        "faults/round", "replication", "starved nodes", "msgs dropped", "rounds"
    );
    for f in [0usize, 3, 6] {
        for r in [1usize, 2, 4] {
            let faults = (f > 0).then(|| FaultPlan::new(f, 0xFA11));
            // Absorb the rare non-spanning partition with fresh seeds.
            let out = (0..20u64)
                .find_map(|a| {
                    resilient_broadcast_hosted(
                        &mut host,
                        &input,
                        params,
                        r,
                        faults,
                        &BroadcastConfig::with_seed(0x0BE5 + a * 0x9E37),
                    )
                    .ok()
                })
                .expect("partition");
            println!(
                "{:>13} {:>13} {:>15} {:>13} {:>9}",
                f,
                out.replication,
                out.starved_nodes().len(),
                out.dropped,
                out.total_rounds
            );
        }
        println!();
    }
    println!("replication across edge-disjoint trees is the resilience mechanism [FP23] build on.");
}
