//! Integration tests for the §4 applications: (3,2)-APSP, spanner-based
//! weighted APSP, and all-cuts sparsification — each verified against
//! exact ground truth — and the pinned phase logs of the applications
//! whose tables no CLI golden prints.

use fast_broadcast::apsp::baswana_sen::{baswana_sen_spanner, corollary1_k};
use fast_broadcast::apsp::{unweighted_apsp_approx, weighted_apsp_approx};
use fast_broadcast::core::congested_clique::simulate_bcc;
use fast_broadcast::graph::algo::apsp::{
    apsp_unweighted, apsp_weighted, measure_stretch_unweighted, measure_stretch_weighted,
};
use fast_broadcast::graph::generators::{clique_chain, harary, random_regular, torus2d};
use fast_broadcast::graph::WeightedGraph;
use fast_broadcast::sim::PhaseLog;
use fast_broadcast::sparsify::cuts::theorem7_all_cuts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn theorem4_holds_on_heterogeneous_families() {
    for (g, lambda) in [
        (harary(12, 84), 12),
        (torus2d(7, 8), 4),
        (clique_chain(4, 18, 9), 9),
        (random_regular(80, 10, 3), 10),
    ] {
        let out = unweighted_apsp_approx(&g, lambda, 77).expect("theorem 4");
        let exact = apsp_unweighted(&g);
        let alpha = measure_stretch_unweighted(&exact, &out.estimate, 2)
            .expect("estimates must never underestimate");
        assert!(alpha <= 3.0 + 1e-9, "stretch {alpha} > 3");
    }
}

#[test]
fn theorem5_stretch_budget_across_k() {
    let base = harary(14, 70);
    let mut rng = SmallRng::seed_from_u64(21);
    let w: Vec<f64> = (0..base.m())
        .map(|_| rng.gen_range(1..200) as f64)
        .collect();
    let g = WeightedGraph::new(base, w);
    let exact = apsp_weighted(&g);
    let mut last_size = usize::MAX;
    for k in [1usize, 2, 3, corollary1_k(70)] {
        let out = weighted_apsp_approx(&g, k, 14, 5).expect("theorem 5");
        let stretch = measure_stretch_weighted(&exact, &out.estimate).expect("dominating");
        assert!(
            stretch <= (2 * k - 1) as f64 + 1e-9,
            "k = {k}: stretch {stretch} > {}",
            2 * k - 1
        );
        assert!(
            out.spanner_edges <= last_size,
            "k = {k}: spanner must shrink or hold as k grows"
        );
        last_size = out.spanner_edges;
    }
}

#[test]
fn spanner_subgraph_property() {
    // Every spanner edge must be a graph edge with its original weight.
    let base = harary(10, 50);
    let g = WeightedGraph::unit(base);
    let sp = baswana_sen_spanner(&g, 3, 9);
    for &e in &sp.edges {
        assert!((e as usize) < g.m());
    }
    let h = sp.as_graph(&g);
    assert_eq!(h.n(), g.n());
    assert!(h.m() <= g.m());
    for (e, u, v) in h.graph().edge_list() {
        assert!(g.graph().has_edge(u, v));
        assert_eq!(h.weight(e), 1.0);
    }
}

#[test]
fn theorem7_quality_improves_with_smaller_eps() {
    let g = WeightedGraph::unit(fast_broadcast::graph::generators::complete(128));
    let loose = theorem7_all_cuts(&g, 0.8, 127, 3).expect("eps 0.8");
    let tight = theorem7_all_cuts(&g, 0.3, 127, 3).expect("eps 0.3");
    // Smaller ε ⇒ bigger sparsifier.
    assert!(
        tight.sparsifier_edges >= loose.sparsifier_edges,
        "tighter ε must not shrink the sparsifier: {} vs {}",
        tight.sparsifier_edges,
        loose.sparsifier_edges
    );
    // And (statistically) better cut quality; allow equality.
    assert!(
        tight.quality.max_rel_error <= loose.quality.max_rel_error + 0.1,
        "tight ε quality {} ≫ loose {}",
        tight.quality.max_rel_error,
        loose.quality.max_rel_error
    );
}

#[test]
fn theorem7_rounds_scale_with_sparsifier_size() {
    let g = WeightedGraph::unit(harary(24, 96));
    let out = theorem7_all_cuts(&g, 0.5, 24, 1).expect("theorem 7");
    // Broadcast term should dominate: rounds at least sparsifier/λ'-ish,
    // at most a polylog multiple.
    let m_tilde = out.sparsifier_edges as f64;
    assert!(
        (out.total_rounds as f64) < 40.0 * m_tilde,
        "rounds {} look unbounded vs m̃ {m_tilde}",
        out.total_rounds
    );
    assert!(out.total_rounds as f64 >= m_tilde / 24.0);
}

/// `(name, rounds, messages, max edge congestion)` of one phase.
type Phase = (&'static str, u64, u64, u64);

/// `log` is exactly `expected`, phase by phase and in order; a mismatch
/// names the phase.
fn assert_phases(log: &PhaseLog, expected: &[Phase]) {
    let got: Vec<(&str, u64, u64, u64)> = log
        .phases()
        .map(|(name, st)| (name, st.rounds, st.total_messages, st.max_edge_congestion))
        .collect();
    for (i, (got, want)) in got.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "phase {i} ({}) differs", want.0);
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "phase count differs: {:?} vs {:?}",
        got.iter().map(|p| p.0).collect::<Vec<_>>(),
        expected.iter().map(|p| p.0).collect::<Vec<_>>()
    );
}

#[test]
fn theorem5_phase_log_is_pinned() {
    let base = harary(8, 32);
    let mut rng = SmallRng::seed_from_u64(4);
    let w: Vec<f64> = (0..base.m()).map(|_| rng.gen_range(1..50) as f64).collect();
    let out = weighted_apsp_approx(&WeightedGraph::new(base, w), 2, 8, 3).expect("theorem 5");
    assert_phases(
        &out.phases,
        &[
            ("baswana-sen (charged)", 4, 0, 0),
            ("broadcast-spanner: leader-election", 5, 712, 8),
            ("broadcast-spanner: bfs", 5, 256, 2),
            ("broadcast-spanner: numbering", 8, 62, 2),
            ("broadcast-spanner: edge-partition", 1, 128, 1),
            ("broadcast-spanner: subgraph-bfs", 5, 256, 2),
            ("broadcast-spanner: parallel-routing", 105, 3396, 140),
        ],
    );
}

#[test]
fn theorem7_phase_log_is_pinned() {
    let g = WeightedGraph::unit(harary(10, 60));
    let out = theorem7_all_cuts(&g, 0.5, 10, 7).expect("theorem 7");
    assert_phases(
        &out.phases,
        &[
            ("koutis-xu (charged)", 9, 0, 0),
            ("broadcast-sparsifier: leader-election", 7, 1940, 10),
            ("broadcast-sparsifier: bfs", 7, 600, 2),
            ("broadcast-sparsifier: numbering", 12, 118, 2),
            ("broadcast-sparsifier: edge-partition", 1, 300, 1),
            ("broadcast-sparsifier: subgraph-bfs", 7, 600, 2),
            ("broadcast-sparsifier: parallel-routing", 305, 18709, 425),
        ],
    );
}

#[test]
fn two_bcc_rounds_phase_log_is_pinned() {
    let g = harary(16, 48);
    let initial: Vec<u32> = (0..48).map(|v| (v * 37) % 101).collect();
    let out = simulate_bcc(&g, &initial, 16, 2, 3, |_, _, view| {
        view.iter().map(|&x| x as u32).max().unwrap()
    })
    .expect("two BCC rounds");
    assert_phases(
        &out.phases,
        &[
            ("bcc[0] leader-election", 4, 2096, 8),
            ("bcc[0] bfs", 4, 768, 2),
            ("bcc[0] numbering", 6, 94, 2),
            ("bcc[0] edge-partition", 1, 384, 1),
            ("bcc[0] subgraph-bfs", 5, 768, 2),
            ("bcc[0] parallel-routing", 28, 2369, 36),
            ("bcc[1] leader-election", 4, 2096, 8),
            ("bcc[1] bfs", 4, 768, 2),
            ("bcc[1] numbering", 6, 94, 2),
            ("bcc[1] edge-partition", 1, 384, 1),
            ("bcc[1] subgraph-bfs", 5, 768, 2),
            ("bcc[1] parallel-routing", 28, 2364, 38),
        ],
    );
}
