//! E13 — §1.2 (secure distributed computing): resilience of the
//! tree-packing broadcast under a mobile edge adversary, as a function of
//! the replication factor across the packing's trees.
//!
//! \[FP23\] need exactly Theorem 2's packings to compile algorithms against
//! f-mobile adversaries. The broadcast instantiation: replicate each
//! message over r edge-disjoint trees; the adversary must sever all r
//! routes. Series: starved-node counts vs (fault budget f, replication r).

use congest_bench::Table;
use congest_core::broadcast::{BroadcastConfig, BroadcastInput};
use congest_core::partition::PartitionParams;
use congest_core::resilient::resilient_broadcast_hosted;
use congest_graph::generators::harary;
use congest_sim::{FaultPlan, Session};

fn main() {
    println!("# E13 — broadcast vs a mobile edge adversary (replication over the packing)");
    println!("paper context (§1.2/[FP23]): λ-tree packings enable f-mobile resilience, f = Θ̃(λ)");

    let g = harary(24, 96);
    let input = BroadcastInput::random_spread(&g, 96, 0xE13);
    let params = PartitionParams::explicit(4);
    let mut host = Session::new(&g);

    let mut t = Table::new(
        "starved nodes (out of 96) after routing under attack — 3 seeds each",
        &["faults/round", "r=1", "r=2", "r=4", "dropped msgs (r=4)"],
    );
    for f in [0usize, 2, 4, 8] {
        let mut starved = [0usize; 3];
        let mut dropped = 0u64;
        for (ri, r) in [1usize, 2, 4].iter().enumerate() {
            for seed in 0..3u64 {
                let faults = (f > 0).then(|| FaultPlan::new(f, 0xBAD ^ seed));
                // Retry over the (rare) Theorem 2 NotSpanning event with a
                // fresh partition seed, like the plain broadcast wrapper.
                let out = (0..20u64)
                    .find_map(|attempt| {
                        resilient_broadcast_hosted(
                            &mut host,
                            &input,
                            params,
                            *r,
                            faults,
                            &BroadcastConfig::with_seed(
                                (0xE13 ^ seed).wrapping_add(attempt * 0x9E37),
                            ),
                        )
                        .ok()
                    })
                    .expect("resilient broadcast (20 partition attempts)");
                starved[ri] += out.starved_nodes().len();
                if *r == 4 {
                    dropped += out.dropped;
                }
            }
        }
        t.row(vec![
            format!("{f}"),
            format!("{}", starved[0]),
            format!("{}", starved[1]),
            format!("{}", starved[2]),
            format!("{}", dropped / 3),
        ]);
    }
    t.print();
    println!("\nshape check: starvation grows with f and shrinks to zero as r grows — replication across");
    println!("edge-disjoint trees buys fault tolerance, the mechanism [FP23] industrialize.");
}
