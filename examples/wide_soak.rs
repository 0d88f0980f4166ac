//! Wide-batch soak: many independent instances through one sweep.
//!
//! Two acts, both on [`fast_broadcast::sim::Session::run_wide`] — the
//! bit-parallel round kernel that runs up to 64 instances of one
//! protocol on one graph in a single interleaved arc sweep:
//!
//! 1. **A nemesis per lane.** 24 flood-max elections run at once, each
//!    lane under its own adversarial fault plan derived from one base
//!    seed via [`FaultPlan::with_lane_seed`]. A few lanes are
//!    spot-verified bit-identical against plain sequential runs — the
//!    same oracle discipline `proptest_wide` enforces exhaustively.
//! 2. **A seed sweep per round.** Theorem 1's partition broadcast runs
//!    12 candidate partition seeds concurrently through
//!    `partition_broadcast_wide` on a borderline two-class split: the
//!    lanes whose partition fails Theorem 2's spanning event drop out
//!    and the rest finish — one sweep replaces the retry loop's
//!    one-seed-at-a-time search.
//!
//! ```text
//! cargo run --release --example wide_soak
//! ```

use fast_broadcast::core::broadcast::{
    partition_broadcast_wide, BroadcastConfig, BroadcastError, BroadcastInput,
};
use fast_broadcast::core::leader::FloodMax;
use fast_broadcast::core::partition::PartitionParams;
use fast_broadcast::graph::generators::{clique_chain, harary};
use fast_broadcast::sim::{EngineConfig, FaultPlan, LaneSpec, Session};

fn main() {
    // --- Act 1: one sweep, 24 nemeses. -------------------------------
    let n = 192;
    let g = harary(8, n);
    let w = 24usize;
    let base_faults = FaultPlan::new(3, 0xFA17);
    let lanes: Vec<LaneSpec> = LaneSpec::batch(0x50AC, w)
        .into_iter()
        .enumerate()
        .map(|(l, spec)| spec.with_faults(base_faults.with_lane_seed(l)))
        .collect();
    println!(
        "act 1: {w} flood-max elections on harary(8, {n}), each under its own \
         3-edges-per-round nemesis\n"
    );

    let mut wide = Session::new(&g);
    let cfg = EngineConfig::serial();
    let out = wide
        .run_wide(&lanes, |v, _, _| FloodMax::new(v), cfg.clone())
        .unwrap();

    let mut unanimous = 0usize;
    for l in 0..w {
        let outputs = out.outputs(l);
        let leader = outputs[0].leader;
        let agree = outputs.iter().filter(|o| o.leader == leader).count();
        if agree == outputs.len() {
            unanimous += 1;
        }
        let st = out.stats(l);
        if l < 6 {
            println!(
                "  lane {l:2}: {agree:3}/{} agree on node {leader:3}, \
                 {} rounds, {} messages dropped by the nemesis",
                outputs.len(),
                st.rounds,
                st.dropped_messages
            );
        }
    }
    println!("  ...\n  {unanimous}/{w} lanes elected unanimously despite the faults\n");

    // Spot-verify: a wide lane is bit-identical to a sequential run
    // under the same seed and the same nemesis.
    for l in [0usize, 7, 23] {
        let seq_cfg = EngineConfig::with_seed(lanes[l].seed).with_faults(lanes[l].faults.unwrap());
        let mut sess = Session::new(&g);
        let seq = sess.run(|v, _| FloodMax::new(v), seq_cfg).unwrap();
        assert_eq!(out.stats(l), seq.stats, "lane {l} stats diverged");
        assert_eq!(out.outputs(l), seq.outputs(), "lane {l} outputs diverged");
        println!("  lane {l:2} spot-verified bit-identical to its sequential run");
    }
    drop(out);

    // --- Act 2: Theorem 1 seed sweep, one sweep per phase. -----------
    let g2 = clique_chain(3, 12, 6);
    let input = BroadcastInput::random_spread(&g2, 40, 4);
    let params = PartitionParams::explicit(2);
    let cfg2 = BroadcastConfig::with_seed(0); // per-lane seeds supersede
    let seeds: Vec<u64> = (0..12u64)
        .map(|a| 77u64.wrapping_add(a * 0x9E37_79B9))
        .collect();
    println!(
        "\nact 2: partition broadcast on clique_chain(3, 12, 6), {} candidate \
         partition seeds in one wide sweep (2 classes, borderline)\n",
        seeds.len()
    );

    let results = partition_broadcast_wide(&g2, &input, params, &cfg2, &seeds).unwrap();
    let mut best: Option<(u64, u64)> = None; // (total_rounds, seed)
    for (l, r) in results.iter().enumerate() {
        match r {
            Ok(outcome) => {
                assert!(outcome.all_delivered());
                println!(
                    "  seed {:>10}: spans, {} rounds total, all {} messages delivered",
                    seeds[l], outcome.total_rounds, outcome.k
                );
                if best.is_none_or(|(rounds, _)| outcome.total_rounds < rounds) {
                    best = Some((outcome.total_rounds, seeds[l]));
                }
            }
            Err(BroadcastError::NotSpanning {
                subgraph,
                unreached,
            }) => println!(
                "  seed {:>10}: class {subgraph} left {unreached} nodes unreached — lane \
                 compacted out before routing",
                seeds[l]
            ),
            Err(e) => println!("  seed {:>10}: {e}", seeds[l]),
        }
    }
    let (rounds, seed) = best.expect("at least one seed spans");
    println!(
        "\n  cheapest spanning seed: {seed} at {rounds} rounds — found in one sweep \
         instead of {} sequential retries",
        seeds.len()
    );
}
