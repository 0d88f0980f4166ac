//! E6 — §3.1 + Theorem 10 + Theorem 13: tree packings.
//!
//! Three sub-tables:
//! 1. Theorem 2 packings: λ′ edge-disjoint spanning trees with diameter
//!    `O(n·ln n/δ)` on standard families;
//! 2. Theorem 10 point: λ trees with congestion O(log n) via sampling;
//! 3. Theorem 13 tension on the GK13-style family: graph diameter
//!    O(log n) yet packing diameter Ω(n/λ).

use congest_bench::{f, Table};
use congest_graph::generators::{clique_chain, harary, thick_path};
use congest_graph::Graph;
use congest_packing::fractional::ghaffari_comparison;
use congest_packing::lower_bound_family::measure_gk13;
use congest_packing::random_partition::partition_packing_retrying;
use congest_packing::sampled::{lemma5_probability, sampled_packing};

fn main() {
    println!("# E6 — low-diameter tree packings");

    // --- Table 1: Theorem 2 edge-disjoint packings.
    println!("\npaper claim (§3.1): Ω(λ/log n) edge-disjoint spanning trees, diameter O(n·ln n/δ)");
    let cases: Vec<(&str, Graph, usize, usize)> = vec![
        ("harary λ=16 n=128", harary(16, 128), 16, 3),
        ("harary λ=32 n=128", harary(32, 128), 32, 4),
        ("harary λ=32 n=256", harary(32, 256), 32, 4),
        ("thick_path 12×16", thick_path(12, 16), 16, 2),
        ("clique_chain 5×24 b=12", clique_chain(5, 24, 12), 12, 2),
    ];
    let mut t1 = Table::new(
        "Theorem 2 packings",
        &[
            "family",
            "trees",
            "disjoint",
            "maxD",
            "D·δ/(n·lnn)",
            "ghaffari wr",
            "ghaffari dr",
        ],
    );
    for (name, g, lambda, trees) in &cases {
        let (packing, _, _) = partition_packing_retrying(g, *trees, 0, 0xE6, 30).expect("packing");
        packing.validate(g).unwrap();
        let stats = packing.stats(g);
        let n = g.n() as f64;
        let delta = g.min_degree() as f64;
        let cmp = ghaffari_comparison(&packing, g, 2 * g.n(), *lambda);
        t1.row(vec![
            name.to_string(),
            format!("{}", stats.num_trees),
            format!("{}", stats.edge_disjoint),
            format!("{}", stats.max_diameter),
            f(stats.max_diameter as f64 * delta / (n * n.ln())),
            f(cmp.weight_ratio),
            f(cmp.diameter_ratio),
        ]);
    }
    t1.print();

    // --- Table 2: Theorem 10 sampled packings.
    println!("\npaper claim (Thm 10): λ spanning trees, diameter O(n·ln n/δ), congestion O(log n)");
    let mut t2 = Table::new(
        "sampled packings (λ trees)",
        &[
            "family",
            "trees",
            "congestion",
            "ln n",
            "maxD",
            "D·δ/(n·lnn)",
        ],
    );
    for (name, g, lambda, _) in &cases {
        let p = lemma5_probability(g.n(), *lambda, 2.0);
        let report = sampled_packing(g, *lambda, p, 0, 0xE6).expect("sampled packing");
        let stats = report.packing.stats(g);
        let n = g.n() as f64;
        let delta = g.min_degree() as f64;
        t2.row(vec![
            name.to_string(),
            format!("{}", stats.num_trees),
            format!("{}", stats.congestion),
            f(n.ln()),
            format!("{}", stats.max_diameter),
            f(stats.max_diameter as f64 * delta / (n * n.ln())),
        ]);
    }
    t2.print();

    // --- Table 3: Theorem 13 tension on the GK13-style family (exact
    // matroid-union extraction — λ here is deliberately below the random
    // partition's log n regime).
    println!("\npaper claim (Thm 13/GK13): graph diameter O(log n) but packing diameter Ω(n/λ), with ≤ O(log n) short trees");
    let mut t3 = Table::new(
        "GK13-style lower-bound family (2 edge-disjoint trees, exact matroid-union packing)",
        &[
            "columns",
            "λ",
            "n",
            "graph D",
            "packing maxD",
            "short trees",
            "n/λ",
            "blowup",
        ],
    );
    for columns in [16usize, 32, 64, 96] {
        let lambda = 6;
        let report = measure_gk13(columns, lambda, 2, 0xE6).expect("gk13");
        t3.row(vec![
            format!("{columns}"),
            format!("{lambda}"),
            format!("{}", report.layout.n),
            format!("{}", report.graph_diameter),
            format!("{}", report.packing.max_diameter),
            format!("{}", report.short_trees),
            f(report.n_over_lambda),
            f(report.blowup),
        ]);
    }
    t3.print();
    println!("\nshape check: graph D grows ~log, packing maxD grows ~linearly with columns — the Θ̃(n/λ) wall;");
    println!(
        "at most ~1 tree stays short (the thin overlay serves one extraction, as GK13 predict)."
    );
}
