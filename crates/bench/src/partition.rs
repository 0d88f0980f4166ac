//! Sampling and partitioning: Observation 1, Lemma 5 (E1) and Theorem 2 (E2).

use crate::{num, Claim, Row};
use congest_core::bfs::SubgraphBfs;
use congest_core::partition::{
    sample_edges, EdgePartition, EdgePartitionProtocol, PartitionParams,
};
use congest_graph::algo::components::is_spanning_connected;
use congest_graph::algo::diameter::diameter_exact_restricted;
use congest_graph::generators::{clique_chain, complete, harary, thick_path};
use congest_graph::metrics::GraphParams;
use congest_graph::Graph;
use congest_sim::{EngineConfig, Session};

/// E1 — Lemma 5: sampling every edge with `p = C·ln n/λ` leaves a spanning
/// subgraph of diameter `O(C·n·ln n/δ)` w.h.p. Ten seeds per (family, C).
pub fn e1_sampling() -> Vec<Row> {
    let mut c = Claim::new("E1", "Lemma 5");
    let seeds = 10;
    for (name, g, lambda) in [
        ("harary(8, 128)", harary(8, 128), 8),
        ("harary(16, 128)", harary(16, 128), 16),
        ("harary(16, 256)", harary(16, 256), 16),
        ("harary(32, 256)", harary(32, 256), 32),
        ("thick_path(16, 12)", thick_path(16, 12), 12),
        ("clique_chain(6, 24, 8)", clique_chain(6, 24, 8), 8),
    ] {
        let n = g.n() as f64;
        let delta = g.min_degree() as f64;
        for cc in [1.0, 2.0, 4.0] {
            let p = (cc * n.ln() / lambda as f64).min(1.0);
            let mut spanned = 0usize;
            let mut diams = Vec::new();
            for s in 0..seeds {
                let mask = sample_edges(&g, p, 0xE1 ^ s);
                if is_spanning_connected(&g, |e| mask[e as usize]) {
                    spanned += 1;
                    if let Some(d) = diameter_exact_restricted(&g, &mask) {
                        diams.push(d as f64);
                    }
                }
            }
            let max_d = diams.iter().cloned().fold(0.0, f64::max);
            let mean_d = if diams.is_empty() {
                0.0
            } else {
                diams.iter().sum::<f64>() / diams.len() as f64
            };
            c.on(name, &format!("C={}, p={}, {seeds} seeds", num(cc), num(p)));
            c.row(
                "spanning samples, %",
                (spanned * 100 / seeds as usize) as f64,
                None,
            );
            let bound = cc * n * n.ln() / delta;
            c.row("max diameter ÷ C·n·ln n/δ", max_d, Some(bound));
            c.row("mean diameter", mean_d, None);
        }
    }
    c.rows
}

/// Observation 1: `D ≤ 3n/δ` on every connected graph.
pub fn observation1() -> Vec<Row> {
    let mut c = Claim::new("E1", "Observation 1");
    for (name, g) in [
        ("harary(8, 96)", harary(8, 96)),
        ("harary(24, 96)", harary(24, 96)),
        ("thick_path(10, 10)", thick_path(10, 10)),
        ("clique_chain(5, 16, 4)", clique_chain(5, 16, 4)),
    ] {
        let p = GraphParams::measure(&g);
        let d = p.diameter.expect("connected") as f64;
        c.on(name, "");
        c.row("diameter ÷ n/δ", d, Some(p.n as f64 / p.delta as f64))
            .within(0.0, 3.0);
    }
    c.rows
}

/// Lemma 5's failure probability `n^-Ω(C)`: over 30 samples, failures do
/// not rise from C = 0.5 to C = 3, and none are left at C = 3.
pub fn lemma5_failure_decay() -> Vec<Row> {
    let mut c = Claim::new("E1", "Lemma 5 failure decay");
    let lambda = 12;
    let g = harary(lambda, 144);
    let n = g.n() as f64;
    for cc in [0.5, 1.0, 3.0] {
        let p = (cc * n.ln() / lambda as f64).min(1.0);
        let failures = (0..30)
            .filter(|&s| {
                let mask = sample_edges(&g, p, 1000 + s);
                !is_spanning_connected(&g, |e| mask[e as usize])
            })
            .count();
        c.on(
            "harary(12, 144)",
            &format!("C={}, p={}, 30 seeds", num(cc), num(p)),
        );
        c.row("non-spanning samples", failures as f64, None);
    }
    let f: Vec<f64> = c.rows.iter().map(|r| r.measured).collect();
    assert!(
        f[2] <= f[0] && f[2] == 0.0,
        "Lemma 5: failures must not rise with C and must vanish at C = 3: {f:?}"
    );
    c.rows
}

/// E2 — Theorem 2: the communication-free partition into `λ′ = λ/(C·ln n)`
/// classes makes every class spanning with diameter `O(C·n·ln n/δ)` w.h.p.;
/// the distributed cost is one round plus the parallel class BFS.
pub fn e2_partition() -> Vec<Row> {
    let mut c = Claim::new("E2", "Theorem 2");
    let seeds = 10;
    for (name, g, lambda) in [
        ("harary(16, 128)", harary(16, 128), 16),
        ("harary(32, 128)", harary(32, 128), 32),
        ("harary(32, 256)", harary(32, 256), 32),
        ("complete(128)", complete(128), 127),
        ("thick_path(12, 16)", thick_path(12, 16), 16),
        ("clique_chain(5, 32, 12)", clique_chain(5, 32, 12), 12),
    ] {
        let n = g.n() as f64;
        let delta = g.min_degree() as f64;
        for cc in [2.0, 4.0] {
            let lp = PartitionParams::from_lambda(g.n(), lambda, cc).num_subgraphs;
            if lp < 2 {
                continue;
            }
            let mut all_span = 0usize;
            let mut worst_d = 0u32;
            let mut bfs_rounds = 0u64;
            for s in 0..seeds {
                let part = EdgePartition::compute(&g, PartitionParams::explicit(lp), 0xE2 ^ s);
                let diams = part.subgraph_diameters(&g);
                if diams.iter().all(|d| d.is_some()) {
                    all_span += 1;
                    worst_d = worst_d.max(
                        diams
                            .iter()
                            .flatten()
                            .copied()
                            .max()
                            .expect("λ' ≥ 2 classes"),
                    );
                }
                if s == 0 {
                    bfs_rounds = class_bfs_rounds(&g, lp, 0xE2 ^ s).unwrap_or(0);
                }
            }
            c.on(name, &format!("C={}, λ'={lp}, {seeds} seeds", num(cc)));
            c.row(
                "all classes span, % of seeds",
                (all_span * 100 / seeds as usize) as f64,
                None,
            );
            let bound = n * n.ln() / delta;
            c.row(
                "worst class diameter ÷ n·ln n/δ",
                worst_d as f64,
                Some(bound),
            );
            c.row("subgraph-bfs rounds", bfs_rounds as f64, None);
        }
    }
    c.rows
}

/// Theorem 1's stage c on a session of its own: the one-round partition
/// protocol under `seed`, then the per-class BFS from node 0. Its
/// `subgraph-bfs` rounds when every class reached every node, else `None`.
fn class_bfs_rounds(g: &Graph, lp: usize, seed: u64) -> Option<u64> {
    let mut host = Session::new(g);
    let colors = host
        .run(
            |v, g| EdgePartitionProtocol::new(v, seed, lp, g.degree(v)),
            EngineConfig::with_seed(seed ^ 0x9a),
        )
        .ok()?
        .take_outputs();
    let bfs = host
        .run(
            |v, _| SubgraphBfs::new(0, v, colors[v as usize].clone(), lp),
            EngineConfig::with_seed(seed ^ 0x9b),
        )
        .ok()?;
    let rounds = bfs.stats.rounds;
    let spans = bfs
        .take_outputs()
        .iter()
        .all(|v| v.iter().all(|c| c.reached));
    spans.then_some(rounds)
}

/// Theorem 2's envelope at one size: at C = 2 every class of five seeds
/// spans, with diameter within `2·n·ln n/δ`.
pub fn theorem2_envelope() -> Vec<Row> {
    let mut c = Claim::new("E2", "Theorem 2 diameter envelope");
    let g = harary(32, 256);
    let part = PartitionParams::from_lambda(256, 32, 2.0);
    assert!(part.num_subgraphs >= 2);
    let (n, delta) = (g.n() as f64, g.min_degree() as f64);
    let trials = 5;
    let mut spanned = 0;
    let mut worst = 0u32;
    for seed in 0..trials {
        let diams = EdgePartition::compute(&g, part, 500 + seed).subgraph_diameters(&g);
        if diams.iter().all(Option::is_some) {
            spanned += 1;
            worst = worst.max(
                diams
                    .iter()
                    .flatten()
                    .copied()
                    .max()
                    .expect("λ' ≥ 2 classes"),
            );
        }
    }
    c.on(
        "harary(32, 256)",
        &format!("C=2, λ'={}, {trials} seeds", part.num_subgraphs),
    );
    c.row(
        "spanning trials ÷ trials",
        spanned as f64,
        Some(trials as f64),
    )
    .within(1.0, 1.0);
    let bound = 2.0 * n * n.ln() / delta;
    c.row(
        "worst class diameter ÷ 2·n·ln n/δ",
        worst as f64,
        Some(bound),
    )
    .within(0.0, 1.0);
    c.rows
}
