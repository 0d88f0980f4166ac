//! Theorem 5 / Corollary 1: `(2k−1)`-approximate **weighted** APSP in
//! `Õ(n^{1+1/k}/λ)` rounds.
//!
//! Proof recipe, reproduced: build a Baswana–Sen `(2k−1)`-spanner with
//! `m̃ = O(k·n^{1+1/k})` edges (charged `O(k²)` rounds per \[BS07\]), then
//! broadcast all `m̃` spanner edges to everyone with the **real Theorem 1
//! broadcast** (measured rounds — this is the dominant term), after which
//! every node solves APSP on the spanner locally.
//!
//! Each spanner edge is one broadcast message packing
//! `(u: 24 bits, v: 24 bits, weight: 16 bits)` — a constant number of
//! `O(log n)`-bit words, as the paper assumes.

use crate::baswana_sen::{baswana_sen_spanner, corollary1_k, SpannerResult};
use congest_core::broadcast::{partition_broadcast_at, BroadcastError, BroadcastInput};
use congest_graph::{Node, WeightedGraph};
use congest_sim::{PhaseLog, RunStats, Session};

/// Outcome of the full Theorem 5 pipeline.
#[derive(Debug, Clone)]
pub struct WeightedApspOutcome {
    /// The spanner that was broadcast.
    pub spanner_edges: usize,
    /// Stretch parameter used (stretch = 2k−1).
    pub k: usize,
    /// Distance estimates = exact APSP on the spanner.
    pub estimate: Vec<Vec<f64>>,
    pub phases: PhaseLog,
    pub total_rounds: u64,
}

/// Pack a spanner edge into a broadcast payload. Bounds asserted.
pub fn pack_edge(u: Node, v: Node, w: f64) -> u64 {
    assert!(u < (1 << 24) && v < (1 << 24), "node ids must fit 24 bits");
    let wi = w as u64;
    assert!(
        wi < (1 << 16) && (wi as f64 - w).abs() < 1e-9,
        "weights must be integers < 65536 for wire packing (got {w})"
    );
    ((u as u64) << 40) | ((v as u64) << 16) | wi
}

/// Inverse of [`pack_edge`].
pub fn unpack_edge(p: u64) -> (Node, Node, f64) {
    (
        (p >> 40) as Node,
        ((p >> 16) & 0xFF_FFFF) as Node,
        (p & 0xFFFF) as f64,
    )
}

/// Run Theorem 5 with explicit `k`.
pub fn weighted_apsp_approx(
    g: &WeightedGraph,
    k: usize,
    lambda: usize,
    seed: u64,
) -> Result<WeightedApspOutcome, BroadcastError> {
    let mut phases = PhaseLog::new();

    // 1. Spanner construction (charged O(k²) rounds per [BS07]).
    let spanner: SpannerResult = baswana_sen_spanner(g, k, seed);
    phases.record(
        "baswana-sen (charged)",
        RunStats::charged(spanner.charged_rounds),
    );

    // 2. Broadcast the spanner: one message per spanner edge, held by the
    //    higher-id endpoint (which locally knows the edge).
    let input = BroadcastInput {
        messages: spanner
            .edges
            .iter()
            .map(|&e| {
                let (u, v) = g.graph().endpoints(e);
                (u.max(v), pack_edge(u, v, g.weight(e)))
            })
            .collect(),
    };
    // The broadcast (and its retries) runs all six Theorem 1 phases on
    // one resident engine session.
    let bc = partition_broadcast_at(&mut Session::new(g.graph()), &input, lambda, seed ^ 0x5A)?;
    phases.append("broadcast-spanner: ", bc.phases);

    // 3. Local APSP on the received spanner (every node would run this on
    //    its local copy; we compute it once).
    let h = spanner.as_graph(g);
    let estimate = congest_graph::algo::apsp::apsp_weighted(&h);

    let total_rounds = phases.total_rounds();
    Ok(WeightedApspOutcome {
        spanner_edges: spanner.size(),
        k,
        estimate,
        phases,
        total_rounds,
    })
}

/// Corollary 1: `k = ⌈log n/log log n⌉` ⇒ `O(log n/log log n)`-approximate
/// weighted APSP in `Õ(n/λ)` rounds.
pub fn corollary1_apsp(
    g: &WeightedGraph,
    lambda: usize,
    seed: u64,
) -> Result<WeightedApspOutcome, BroadcastError> {
    weighted_apsp_approx(g, corollary1_k(g.n()), lambda, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::apsp::{apsp_weighted, measure_stretch_weighted};
    use congest_graph::generators::harary;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn weighted_harary(k: usize, n: usize, seed: u64) -> WeightedGraph {
        let g = harary(k, n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let w: Vec<f64> = (0..g.m()).map(|_| rng.gen_range(1..50) as f64).collect();
        WeightedGraph::new(g, w)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (u, v, w) = unpack_edge(pack_edge(123, 45678, 999.0));
        assert_eq!((u, v, w), (123, 45678, 999.0));
    }

    #[test]
    #[should_panic(expected = "weights must be integers")]
    fn pack_rejects_fractional_weight() {
        pack_edge(1, 2, 1.5);
    }

    #[test]
    fn theorem5_guarantee_k2() {
        let g = weighted_harary(10, 40, 1);
        let out = weighted_apsp_approx(&g, 2, 10, 7).unwrap();
        let exact = apsp_weighted(&g);
        let stretch = measure_stretch_weighted(&exact, &out.estimate).unwrap();
        assert!(stretch <= 3.0 + 1e-9, "stretch {stretch} > 2k-1 = 3");
        assert!(out.spanner_edges <= g.m());
        assert!(out.total_rounds > 0);
    }

    #[test]
    fn theorem5_guarantee_k3() {
        let g = weighted_harary(8, 48, 2);
        let out = weighted_apsp_approx(&g, 3, 8, 9).unwrap();
        let exact = apsp_weighted(&g);
        let stretch = measure_stretch_weighted(&exact, &out.estimate).unwrap();
        assert!(stretch <= 5.0 + 1e-9, "stretch {stretch} > 2k-1 = 5");
    }

    #[test]
    fn corollary1_runs() {
        let g = weighted_harary(10, 50, 3);
        let out = corollary1_apsp(&g, 10, 11).unwrap();
        let exact = apsp_weighted(&g);
        let stretch = measure_stretch_weighted(&exact, &out.estimate).unwrap();
        let k = corollary1_k(50);
        assert!(stretch <= (2 * k - 1) as f64 + 1e-9);
    }

    #[test]
    fn fewer_spanner_edges_for_larger_k() {
        let g = weighted_harary(12, 48, 4);
        let e2 = weighted_apsp_approx(&g, 2, 12, 5).unwrap().spanner_edges;
        let e4 = weighted_apsp_approx(&g, 4, 12, 5).unwrap().spanner_edges;
        assert!(
            e4 <= e2,
            "larger k must not enlarge the spanner: k=4 gives {e4}, k=2 gives {e2}"
        );
    }
}
