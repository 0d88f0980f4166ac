//! Integration tests for the extension modules: resilient broadcast under
//! injected faults, the congested-clique simulation, scheduled broadcast
//! over shared packings, and the Theorem 9 decode pipeline — each crossing
//! at least two crates.

use fast_broadcast::apsp::weighted_apsp_approx;
use fast_broadcast::core::broadcast::{BroadcastConfig, BroadcastInput};
use fast_broadcast::core::congested_clique::{simulate_bcc, simulate_bcc_round};
use fast_broadcast::core::partition::PartitionParams;
use fast_broadcast::core::resilient::resilient_broadcast_hosted;
use fast_broadcast::graph::generators::{decode_theorem9, harary, theorem9_instance};
use fast_broadcast::packing::matroid::exact_tree_packing;
use fast_broadcast::packing::scheduled_broadcast::scheduled_packing_broadcast;
use fast_broadcast::sim::{FaultPlan, Session};

#[test]
fn resilient_broadcast_full_matrix() {
    let g = harary(24, 72);
    let input = BroadcastInput::random_spread(&g, 72, 9);
    let params = PartitionParams::explicit(4);
    let run = |r: usize, f: usize, seed: u64| {
        (0..20u64)
            .find_map(|a| {
                resilient_broadcast_hosted(
                    &mut Session::new(&g),
                    &input,
                    params,
                    r,
                    (f > 0).then(|| FaultPlan::new(f, 0xF ^ seed)),
                    &BroadcastConfig::with_seed(seed.wrapping_add(a * 0x9E37)),
                )
                .ok()
            })
            .expect("partition must eventually span")
    };
    // No faults: every replication level delivers.
    for r in [1, 2, 4] {
        assert!(run(r, 0, 100 + r as u64).all_delivered(), "r = {r}, f = 0");
    }
    // Under attack, max replication must deliver; starvation is monotone
    // (statistically) in r — assert the endpoints.
    let heavy_single = run(1, 6, 7);
    let heavy_full = run(4, 6, 7);
    assert!(
        heavy_full.all_delivered(),
        "r = 4 must absorb 6 faults/round"
    );
    assert!(
        heavy_full.starved_nodes().len() <= heavy_single.starved_nodes().len(),
        "replication cannot hurt"
    );
}

#[test]
fn bcc_simulation_supports_iterated_computation() {
    // Two BCC rounds compute the global sum via tree-free aggregation:
    // round 0 shares values, round 1 shares the locally-computed sum.
    let g = harary(16, 64);
    let initial: Vec<u32> = (0..64u32).map(|v| v + 1).collect();
    let expected_sum: u64 = initial.iter().map(|&x| x as u64).sum();
    let out = simulate_bcc(&g, &initial, 16, 2, 5, |_, _, view| {
        view.iter().sum::<u64>() as u32
    })
    .unwrap();
    assert!(out.final_view.iter().all(|&x| x == expected_sum));
    assert_eq!(out.rounds_per_bcc_round.len(), 2);
    assert!(out.total_rounds > 0);
}

#[test]
fn bcc_round_cost_is_sublinear_in_k_over_lambda_regime() {
    // One BCC round = n-message broadcast; on a λ = 24 graph it must beat
    // the textbook's Ω(n + D) by a visible margin... at minimum, be within
    // the Õ(n/λ)·polylog envelope.
    let g = harary(24, 120);
    let values: Vec<u32> = (0..120).collect();
    let (_, cost, _) = simulate_bcc_round(&g, &values, 24, 3).unwrap();
    let n = 120f64;
    let envelope = (n * n.ln() / 24.0 + n.ln() * n.ln()) * 8.0 + n; // generous constants
    assert!(
        (cost as f64) < envelope,
        "BCC round cost {cost} outside Õ(n/λ) envelope {envelope:.0}"
    );
}

#[test]
fn scheduled_broadcast_over_exact_matroid_packing() {
    // End-to-end: exact Nash-Williams packing + Theorem 12 scheduling.
    let g = harary(8, 48);
    let packing = exact_tree_packing(&g, 4, 0).expect("⌊8/2⌋ = 4 trees");
    let input = BroadcastInput::random_spread(&g, 96, 2);
    let out = scheduled_packing_broadcast(&g, &packing, &input, 6, 11).unwrap();
    assert!(out.all_delivered());
    // 4 trees ⇒ per-tree share is k/4; rounds should sit well below the
    // single-tree cost of k + depth.
    assert!(
        out.stats.rounds < 96 + 40,
        "rounds {} suggest no parallelism",
        out.stats.rounds
    );
}

#[test]
fn theorem9_decoding_through_real_apsp_pipeline() {
    // Build the §4.4 lower-bound instance, run the real Theorem 5 APSP
    // (stretch 3), and recover every hidden digit from v1's estimates.
    let inst = theorem9_instance(28, 5, 3.0, 2.0, 17);
    let out = weighted_apsp_approx(&inst.graph, 2, 5, 21).expect("theorem 5");
    let decoded = decode_theorem9(&inst, &out.estimate[0]);
    assert_eq!(
        decoded[2..],
        inst.hidden_k[2..],
        "α-approximate APSP must reveal the adversarially hidden digits"
    );
}

#[test]
fn blackout_leaves_bfs_unreached_not_misdelivered() {
    // Sanity: under total blackout the BFS wave never leaves the root;
    // the run terminates (BFS is quiescence-tolerant by design) and the
    // outputs honestly report every other node as unreached — never a
    // fabricated tree.
    use fast_broadcast::core::bfs::BfsProtocol;
    use fast_broadcast::sim::{run_protocol, EngineConfig};
    let g = harary(8, 32);
    let out = run_protocol(
        &g,
        |v, _| BfsProtocol::new(0, v),
        EngineConfig::default()
            .max_rounds(100)
            .with_faults(FaultPlan::new(16 * g.m(), 1)),
    )
    .unwrap();
    assert!(out.stats.dropped_messages > 0);
    assert!(out.outputs[0].reached);
    for v in 1..g.n() {
        assert!(!out.outputs[v].reached, "node {v} cannot have been reached");
    }
}
