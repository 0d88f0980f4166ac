//! Cut-quality evaluation and the full Theorem 7 driver.
//!
//! Theorem 7: broadcast the sparsifier (Õ(n/ε²) messages through the real
//! Theorem 1 broadcast ⇒ Õ(n/(λε²)) rounds), after which every node can
//! estimate **all** cut values locally. This module measures how good
//! those estimates are: random bisections, all singleton cuts, BFS-ball
//! cuts, and the global min cut (Stoer–Wagner on both graphs).

use crate::koutis_xu::{koutis_xu_sparsifier, SparsifierResult};
use congest_core::broadcast::{partition_broadcast, BroadcastError, BroadcastInput};
use congest_graph::algo::stoer_wagner::stoer_wagner_min_cut;
use congest_graph::{Node, WeightedGraph};
use congest_sim::rng::mix64;
use congest_sim::{PhaseLog, RunStats, Session};

/// How well the sparsifier preserves cuts.
#[derive(Debug, Clone)]
pub struct CutQualityReport {
    /// Number of cuts evaluated.
    pub num_cuts: usize,
    /// max |w_H(S) − w_G(S)| / w_G(S).
    pub max_rel_error: f64,
    /// mean relative error.
    pub mean_rel_error: f64,
    /// Global min cut of `G` (Stoer–Wagner).
    pub min_cut_g: f64,
    /// Global min cut of `H`.
    pub min_cut_h: f64,
}

impl CutQualityReport {
    /// The empirical ε: the largest observed relative deviation, including
    /// the min-cut comparison.
    pub fn empirical_eps(&self) -> f64 {
        let mc = if self.min_cut_g > 0.0 {
            (self.min_cut_h - self.min_cut_g).abs() / self.min_cut_g
        } else {
            0.0
        };
        self.max_rel_error.max(mc)
    }
}

/// Evaluate cut preservation between `g` and a sparsifier over
/// `num_random` random bisections + all singleton cuts + BFS-ball cuts.
pub fn evaluate_cuts(
    g: &WeightedGraph,
    h: &SparsifierResult,
    num_random: usize,
    seed: u64,
) -> CutQualityReport {
    let n = g.n();
    assert!(n >= 2);
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut eval = |in_s: &[bool]| {
        let wg = g.cut_weight(in_s);
        if wg <= 0.0 {
            return;
        }
        let wh = h.cut_weight(in_s);
        let rel = (wh - wg).abs() / wg;
        worst = worst.max(rel);
        sum += rel;
        count += 1;
    };

    // Random bisections.
    for i in 0..num_random {
        let mut in_s = vec![false; n];
        for (v, b) in in_s.iter_mut().enumerate() {
            let h64 = mix64(seed ^ mix64(((i as u64) << 32) | v as u64));
            *b = h64 & 1 == 1;
        }
        if in_s.iter().any(|&x| x) && in_s.iter().any(|&x| !x) {
            eval(&in_s);
        }
    }
    // Singleton cuts (= weighted degrees).
    for v in 0..n {
        let mut in_s = vec![false; n];
        in_s[v] = true;
        eval(&in_s);
    }
    // BFS-ball cuts of a few radii from a few sources.
    let dist0 = congest_graph::algo::bfs::bfs_distances(g.graph(), 0);
    let max_d = dist0
        .iter()
        .copied()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0);
    for r in 1..max_d {
        let in_s: Vec<bool> = dist0.iter().map(|&d| d <= r).collect();
        if in_s.iter().any(|&x| !x) {
            eval(&in_s);
        }
    }

    let hg = h.as_weighted_graph();
    let min_cut_g = stoer_wagner_min_cut(g).map(|(w, _)| w).unwrap_or(0.0);
    let min_cut_h = stoer_wagner_min_cut(&hg).map(|(w, _)| w).unwrap_or(0.0);

    CutQualityReport {
        num_cuts: count,
        max_rel_error: worst,
        mean_rel_error: if count > 0 { sum / count as f64 } else { 0.0 },
        min_cut_g,
        min_cut_h,
    }
}

/// Outcome of the full Theorem 7 pipeline.
#[derive(Debug, Clone)]
pub struct AllCutsOutcome {
    pub sparsifier_edges: usize,
    pub quality: CutQualityReport,
    pub phases: PhaseLog,
    pub total_rounds: u64,
}

/// Theorem 7 end to end: sparsify, broadcast the sparsifier with the real
/// Theorem 1 broadcast, measure cut quality.
pub fn theorem7_all_cuts(
    g: &WeightedGraph,
    eps: f64,
    lambda: usize,
    seed: u64,
) -> Result<AllCutsOutcome, BroadcastError> {
    let mut phases = PhaseLog::new();

    // 1. Sparsifier (local computation in KX16's distributed version is
    //    Õ(1/ε²) rounds of spanner constructions; charged here).
    let sp = koutis_xu_sparsifier(g, eps, seed);
    let charged = (sp.t * sp.iterations.max(1)) as u64;
    phases.record("koutis-xu (charged)", RunStats::charged(charged));

    // 2. Broadcast every sparsifier edge: payload (u:20, v:20, j:4, base).
    let input = BroadcastInput {
        messages: sp
            .edges
            .iter()
            .map(|e| {
                let holder = e.u.max(e.v);
                (holder, pack_sparse_edge(e.u, e.v, e.base_w, e.scale_pow4))
            })
            .collect(),
    };
    // The broadcast (and its retries) runs all six Theorem 1 phases on
    // one resident engine session.
    let bc = partition_broadcast(&mut Session::new(g.graph()), &input, lambda, seed ^ 0xC7)?;
    phases.append("broadcast-sparsifier: ", bc.phases);

    // 3. Quality measurement (what every node could now do locally).
    let quality = evaluate_cuts(g, &sp, 64, seed ^ EVAL_SEED);

    let total_rounds = phases.total_rounds();
    Ok(AllCutsOutcome {
        sparsifier_edges: sp.size(),
        quality,
        phases,
        total_rounds,
    })
}

const EVAL_SEED: u64 = 0xE7A1;

/// Pack a sparsifier edge into one broadcast payload word:
/// `u:20 | v:20 | scale_pow4:8 | base_w:16`.
pub fn pack_sparse_edge(u: Node, v: Node, base_w: f64, scale: u8) -> u64 {
    assert!(u < (1 << 20) && v < (1 << 20), "node ids must fit 20 bits");
    let wi = base_w as u64;
    assert!(
        wi < (1 << 16) && (wi as f64 - base_w).abs() < 1e-9,
        "base weights must be integers < 65536"
    );
    ((u as u64) << 44) | ((v as u64) << 24) | ((scale as u64) << 16) | wi
}

/// Inverse of [`pack_sparse_edge`].
pub fn unpack_sparse_edge(p: u64) -> (Node, Node, f64, u8) {
    (
        (p >> 44) as Node,
        ((p >> 24) & 0xF_FFFF) as Node,
        (p & 0xFFFF) as f64,
        ((p >> 16) & 0xFF) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::koutis_xu::koutis_xu_unit;
    use congest_graph::generators::{complete, harary};

    #[test]
    fn pack_roundtrip() {
        let (u, v, w, s) = unpack_sparse_edge(pack_sparse_edge(1000, 65535, 123.0, 7));
        assert_eq!((u, v, w, s), (1000, 65535, 123.0, 7));
    }

    #[test]
    fn pass_through_sparsifier_has_zero_error() {
        // Small graph ⇒ sparsifier = graph ⇒ all cuts exact.
        let g = harary(4, 20);
        let sp = koutis_xu_unit(&g, 0.3, 1);
        let report = evaluate_cuts(&WeightedGraph::unit(g), &sp, 32, 5);
        assert_eq!(report.max_rel_error, 0.0);
        assert_eq!(report.min_cut_g, report.min_cut_h);
        assert!(report.num_cuts > 0);
    }

    #[test]
    fn dense_graph_cuts_concentrate() {
        let g = complete(96);
        let sp = koutis_xu_unit(&g, 0.5, 3);
        let report = evaluate_cuts(&WeightedGraph::unit(g), &sp, 48, 9);
        // Random bisections of K_96 cut ~2300 edges; sampling noise should
        // land well within 50%. This is the *measured* ε of E9.
        assert!(
            report.max_rel_error < 0.5,
            "max relative error {} too large",
            report.max_rel_error
        );
        assert!(report.mean_rel_error <= report.max_rel_error);
    }

    #[test]
    fn theorem7_pipeline_runs() {
        let g = WeightedGraph::unit(harary(10, 60));
        let out = theorem7_all_cuts(&g, 0.5, 10, 7).unwrap();
        assert!(out.total_rounds > 0);
        assert!(out.sparsifier_edges > 0);
        let names: Vec<&str> = out.phases.phases().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n.contains("koutis-xu")));
        assert!(names.iter().any(|n| n.contains("broadcast-sparsifier")));
        assert!(out.quality.empirical_eps() < 1.0);
    }
}
