//! §4's applications: unweighted (E7) and weighted (E8) APSP, the cut
//! sparsifier (E9) and Theorem 9's weighted lower-bound family (E11).

use crate::{num, Claim, Row};
use congest_apsp::baswana_sen::corollary1_k;
use congest_apsp::{unweighted_apsp_approx, weighted_apsp_approx};
use congest_core::lower_bounds::theorem9_weighted_apsp_lb;
use congest_graph::algo::apsp::{
    apsp_unweighted, apsp_weighted, dijkstra, measure_stretch_unweighted, measure_stretch_weighted,
};
use congest_graph::generators::{complete, decode_theorem9, harary, theorem9_instance, torus2d};
use congest_graph::WeightedGraph;
use congest_sparsify::cuts::theorem7_all_cuts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// E7 — Theorem 4: (3, 2)-approximate unweighted APSP (every estimate
/// within `3d + 2`) in `Õ(n/λ)` rounds.
pub fn e7_apsp() -> Vec<Row> {
    let mut c = Claim::new("E7", "Theorem 4");
    for (name, g, lambda) in [
        ("harary(8, 64)", harary(8, 64), 8),
        ("harary(16, 96)", harary(16, 96), 16),
        ("harary(16, 160)", harary(16, 160), 16),
        ("harary(32, 160)", harary(32, 160), 32),
        ("torus2d(8, 8)", torus2d(8, 8), 4),
        ("complete(96)", complete(96), 95),
    ] {
        let out = unweighted_apsp_approx(&g, lambda, 0xE7).expect("apsp");
        let alpha = measure_stretch_unweighted(&apsp_unweighted(&g), &out.estimate, 2)
            .expect("estimates must dominate distances");
        c.on(name, "");
        c.row("clusters", out.cluster_graph.centers.len() as f64, None);
        c.row("worst stretch beyond +2 ÷ 3", alpha, Some(3.0))
            .within(0.0, 1.0 + 1e-9);
        let n = g.n() as f64;
        let scale = n * n.ln() / lambda as f64;
        c.row("rounds ÷ n·ln n/λ", out.total_rounds as f64, Some(scale));
    }
    c.rows
}

/// E8 — Theorem 5 / Corollary 1: (2k−1)-approximate weighted APSP by
/// broadcasting a spanner of `O(k·n^(1+1/k))` edges, over the distinct
/// stretch parameters k = 1…4 and Corollary 1's.
pub fn e8_spanner() -> Vec<Row> {
    let mut c = Claim::new("E8", "Theorem 5 / Corollary 1");
    let (lambda, n) = (16usize, 96usize);
    let base = harary(lambda, n);
    let mut rng = SmallRng::seed_from_u64(0xE8);
    let weights: Vec<f64> = (0..base.m())
        .map(|_| rng.gen_range(1..100) as f64)
        .collect();
    let g = WeightedGraph::new(base, weights);
    let family = format!("harary({lambda}, {n}), m={}, weights 1..99", g.m());
    let exact = apsp_weighted(&g);
    let c1k = corollary1_k(n);
    let mut ks = vec![1usize, 2, 3, 4, c1k];
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        let out = weighted_apsp_approx(&g, k, lambda, 0xE8).expect("apsp");
        let stretch = measure_stretch_weighted(&exact, &out.estimate)
            .expect("spanner distances must dominate");
        c.on(
            &family,
            &format!("k={k}{}", if k == c1k { " (Corollary 1)" } else { "" }),
        );
        c.row("stretch ÷ 2k−1", stretch, Some((2 * k - 1) as f64))
            .within(0.0, 1.0 + 1e-9);
        let law = k as f64 * (n as f64).powf(1.0 + 1.0 / k as f64);
        c.row(
            "spanner edges ÷ k·n^(1+1/k)",
            out.spanner_edges as f64,
            Some(law),
        );
        c.row("rounds", out.total_rounds as f64, None);
    }
    c.rows
}

/// E9 — Theorems 6–7: a sparsifier of `Õ(n/ε²)` edges keeps every cut within
/// (1 ± ε) and is broadcast in `Õ(n/(λ·ε²))` rounds. The cut error is the
/// worst over random, singleton and ball cuts.
pub fn e9_cuts() -> Vec<Row> {
    let mut c = Claim::new("E9", "Theorems 6–7");
    for (name, g, lambda) in [
        ("harary(24, 96)", WeightedGraph::unit(harary(24, 96)), 24),
        ("complete(96)", WeightedGraph::unit(complete(96)), 95),
        ("complete(160)", WeightedGraph::unit(complete(160)), 159),
    ] {
        for eps in [0.8, 0.5, 0.3] {
            let out = theorem7_all_cuts(&g, eps, lambda, 0xE9).expect("theorem 7");
            let q = out.quality;
            c.on(name, &format!("ε={}", num(eps)));
            c.row(
                "sparsifier edges ÷ m",
                out.sparsifier_edges as f64,
                Some(g.m() as f64),
            );
            c.row("cut error ÷ ε", q.empirical_eps(), Some(eps));
            c.row(
                "min cut of H ÷ min cut of G",
                q.min_cut_h,
                Some(q.min_cut_g),
            );
            c.row("rounds", out.total_rounds as f64, None);
        }
    }
    c.rows
}

/// E11 — Theorem 9: on the crafted instance any α-approximation at v₁
/// reveals `k_max` hidden digits per node, so α-approximate weighted APSP
/// needs `Ω(n/(λ·log α))` rounds. Decoding must succeed from exact and from
/// α-stretched distances, and from Theorem 5's real estimates at k = 2.
pub fn e11_theorem9() -> Vec<Row> {
    let mut c = Claim::new("E11", "Theorem 9");
    let (n, lambda) = (48usize, 6usize);
    for alpha in [1.5, 2.0, 3.0, 5.0, 9.0] {
        let inst = theorem9_instance(n, lambda, alpha, 2.0, 0xE11);
        let exact = dijkstra(&inst.graph, 0);
        let stretched: Vec<f64> = exact.iter().map(|&d| d * alpha).collect();
        for dist in [&exact, &stretched] {
            assert!(
                decode_theorem9(&inst, dist)[2..] == inst.hidden_k[2..],
                "α = {alpha}: the hidden digits must decode"
            );
        }
        c.on(
            &format!("theorem9_instance({n}, λ={lambda})"),
            &format!("α={}", num(alpha)),
        );
        c.row("base B", inst.base as f64, None);
        c.row("hidden digits per node (k_max)", inst.k_max as f64, None);
        let lb = theorem9_weighted_apsp_lb(n as u64, lambda as u64, alpha, 2.0);
        c.row("lower bound, rounds", lb, None);
    }

    let inst = theorem9_instance(32, 6, 3.0, 2.0, 0xE11 + 1);
    let out = weighted_apsp_approx(&inst.graph, 2, lambda, 0xE11).expect("theorem 5 run");
    assert!(
        decode_theorem9(&inst, &out.estimate[0])[2..] == inst.hidden_k[2..],
        "Theorem 5 estimates must decode the instance"
    );
    c.on("theorem9_instance(32, λ=6)", "α=3, Theorem 5 at k=2");
    c.row("spanner edges", out.spanner_edges as f64, None);
    let lb = theorem9_weighted_apsp_lb(32, 6, 3.0, 2.0);
    c.row("rounds ÷ lower bound", out.total_rounds as f64, Some(lb))
        .within(1.0, f64::INFINITY);
    c.rows
}
