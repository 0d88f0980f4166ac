//! Tree packings (E6: §3.1, Theorems 10 and 13) and the (k, d)-connectivity
//! tools of Appendix B (E10: Lemma 9, Theorem 12).

use crate::{Claim, Row};
use congest_graph::generators::{clique_chain, complete, harary, thick_path, torus2d};
use congest_graph::{Graph, Node};
use congest_packing::fractional::ghaffari_comparison;
use congest_packing::kd_connectivity::kd_certificates;
use congest_packing::lower_bound_family::measure_gk13;
use congest_packing::random_partition::partition_packing_retrying;
use congest_packing::sampled::{lemma5_probability, sampled_packing};
use congest_sim::sched::{random_delays, Multiplexed};
use congest_sim::{run_protocol, EngineConfig, NodeCtx, Protocol};

/// E6 — low-diameter tree packings: Theorem 2's `Ω(λ/log n)` edge-disjoint
/// trees of diameter `O(n·ln n/δ)` (with Ghaffari's fractional point for
/// k = 2n), Theorem 10's λ sampled trees at congestion `O(log n)`, and
/// Theorem 13's wall on the GK13-style family: graph diameter `O(log n)`,
/// packing diameter `Ω(n/λ)`.
pub fn e6_packing() -> Vec<Row> {
    let cases = [
        ("harary(16, 128)", harary(16, 128), 16, 3),
        ("harary(32, 128)", harary(32, 128), 32, 4),
        ("harary(32, 256)", harary(32, 256), 32, 4),
        ("thick_path(12, 16)", thick_path(12, 16), 16, 2),
        ("clique_chain(5, 24, 12)", clique_chain(5, 24, 12), 12, 2),
    ];
    let diameter_bound = |g: &Graph| {
        let n = g.n() as f64;
        Some(n * n.ln() / g.min_degree() as f64)
    };

    let mut c = Claim::new("E6", "Theorem 2 packing (§3.1)");
    for (name, g, lambda, trees) in &cases {
        let (packing, _, _) = partition_packing_retrying(g, *trees, 0, 0xE6, 30).expect("packing");
        packing.validate(g).expect("a valid packing");
        let stats = packing.stats(g);
        assert!(stats.edge_disjoint, "{name}: Theorem 2 trees share an edge");
        c.on(name, &format!("trees={}", stats.num_trees));
        let max_d = stats.max_diameter as f64;
        c.row("max tree diameter ÷ n·ln n/δ", max_d, diameter_bound(g));
        let cmp = ghaffari_comparison(&packing, g, 2 * g.n(), *lambda);
        c.row(
            "fractional weight ÷ λ/ln n",
            cmp.achieved_weight,
            Some(cmp.target_weight),
        );
        let frac_d = cmp.achieved_diameter as f64;
        c.row(
            "fractional diameter ÷ (k/λ)·ln n",
            frac_d,
            Some(cmp.target_diameter),
        );
    }
    let mut rows = c.rows;

    let mut c = Claim::new("E6", "Theorem 10");
    for (name, g, lambda, _) in &cases {
        let p = lemma5_probability(g.n(), *lambda, 2.0);
        let report = sampled_packing(g, *lambda, p, 0, 0xE6).expect("sampled packing");
        let stats = report.packing.stats(g);
        c.on(name, &format!("trees={}", stats.num_trees));
        let ln_n = (g.n() as f64).ln();
        c.row("congestion ÷ ln n", stats.congestion as f64, Some(ln_n));
        let max_d = stats.max_diameter as f64;
        c.row("max tree diameter ÷ n·ln n/δ", max_d, diameter_bound(g));
    }
    rows.append(&mut c.rows);

    // Exact matroid-union extraction: λ = 6 is deliberately below the
    // random partition's log n regime.
    let mut c = Claim::new("E6", "Theorem 13");
    for columns in [16usize, 32, 64, 96] {
        let lambda = 6;
        let report = measure_gk13(columns, lambda, 2, 0xE6).expect("gk13");
        let family = format!("gk13({columns} columns, λ={lambda})");
        c.on(&family, &format!("trees=2, n={}", report.layout.n));
        let graph_d = report.graph_diameter as f64;
        let packing_d = report.packing.max_diameter as f64;
        c.row("graph diameter", graph_d, None);
        c.row(
            "packing max diameter ÷ graph diameter",
            packing_d,
            Some(graph_d),
        );
        c.row(
            "packing max diameter ÷ n/λ",
            packing_d,
            Some(report.n_over_lambda),
        );
        c.row("short trees", report.short_trees as f64, None);
    }
    rows.append(&mut c.rows);
    rows
}

/// E10 — Lemma 9: every simple graph is `(λ/5, 16n/δ)`-connected (greedy
/// disjoint-path certificates on 24 node pairs); Theorem 12: q floods
/// multiplexed under random delays finish in `O(congestion + dilation·log² n)`
/// rounds, far below `q × dilation`.
pub fn e10_kd() -> Vec<Row> {
    let mut c = Claim::new("E10", "Lemma 9");
    for (name, g, lambda) in [
        ("harary(10, 80)", harary(10, 80), 10),
        ("harary(20, 120)", harary(20, 120), 20),
        ("complete(64)", complete(64), 63),
        ("torus2d(8, 8)", torus2d(8, 8), 4),
        ("thick_path(10, 12)", thick_path(10, 12), 12),
        ("clique_chain(4, 20, 10)", clique_chain(4, 20, 10), 10),
    ] {
        let r = kd_certificates(&g, lambda, 24, 0xE10);
        c.on(name, "24 pairs");
        c.row(
            "certified pairs, %",
            (r.certified * 100 / r.pairs) as f64,
            None,
        );
        let (k, d) = (r.claim.k as f64, r.claim.d as f64);
        c.row(
            "min disjoint paths within d ÷ k",
            r.min_paths_within_d as f64,
            Some(k),
        );
        c.row(
            "max needed path length ÷ d",
            r.max_needed_length as f64,
            Some(d),
        );
    }
    let mut rows = c.rows;

    let mut c = Claim::new("E10", "Theorem 12");
    let g = harary(8, 96);
    let solo = run_protocol(&g, |v, _| Flood::new(0, v), EngineConfig::default())
        .expect("solo flood")
        .stats
        .rounds;
    c.on("harary(8, 96)", "q=1");
    c.row("flood rounds (dilation)", solo as f64, None);
    for q in [4usize, 8, 16, 32] {
        let max_delay = (q as u64) / 2;
        let delays = random_delays(q, max_delay, 0xE10);
        let out = run_protocol(
            &g,
            |v, gr: &Graph| {
                let floods: Vec<Flood> = (0..q)
                    .map(|i| Flood::new((i * 7 % gr.n()) as Node, v))
                    .collect();
                // One-shot floods: per-edge congestion ≤ q (Theorem 12).
                Multiplexed::new(floods, &delays, gr.degree(v), q)
            },
            EngineConfig::default(),
        )
        .expect("multiplexed run");
        for (flags, _) in &out.outputs {
            assert!(flags.iter().all(|&x| x), "all floods must complete");
        }
        c.on("harary(8, 96)", &format!("q={q}, delays 0..={max_delay}"));
        let (naive, rounds) = ((q as u64 * solo) as f64, out.stats.rounds as f64);
        c.row("q × dilation ÷ multiplexed rounds", naive, Some(rounds));
    }
    rows.append(&mut c.rows);
    rows
}

/// A message-driven flood (delay-tolerant, as Theorem 12 requires).
struct Flood {
    informed: bool,
    relayed: bool,
}

impl Flood {
    fn new(source: Node, me: Node) -> Self {
        Flood {
            informed: source == me,
            relayed: false,
        }
    }
}

impl Protocol for Flood {
    type Msg = ();
    type Output = bool;
    fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        if ctx.inbox_len() > 0 {
            self.informed = true;
        }
        if self.informed && !self.relayed {
            ctx.send_all(());
            self.relayed = true;
        }
        ctx.set_done(self.relayed);
    }
    fn finish(self) -> bool {
        self.informed
    }
}
