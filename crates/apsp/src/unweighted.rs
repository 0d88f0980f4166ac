//! Theorem 4: `(3,2)`-approximate unweighted APSP in `Õ(n/λ)` rounds.
//!
//! Pipeline (exactly the paper's proof of Theorem 4):
//!
//! 1. build the radius-1 clustering and the cluster graph `Gc`
//!    ([`crate::clustering`], 3 measured rounds);
//! 2. solve APSP on `Gc` via PRT12 ([`crate::prt12`], charged
//!    `3·virtual + #clusters` G-rounds per Lemma 6);
//! 3. every center broadcasts its distance vector to its own cluster —
//!    charged `#clusters` rounds (each member is adjacent to its center;
//!    pipelining one distance per round);
//! 4. every node broadcasts `s(v)` to the whole graph — **n messages
//!    through the real Theorem 1 broadcast** (measured rounds);
//! 5. everyone evaluates `d̃(u,v) = 3·d_Gc(s(u), s(v)) + 2` locally
//!    (Lemma 7 proves `d ≤ d̃ ≤ 3d + 2`).

use crate::clustering::{build_clustering, ClusterGraph, ClusteringError};
use crate::prt12::prt12_apsp;
use congest_core::broadcast::{partition_broadcast_at, BroadcastError, BroadcastInput};
use congest_graph::{Graph, Node};
use congest_sim::{PhaseLog, RunStats};

/// Outcome of the full Theorem 4 pipeline.
#[derive(Debug, Clone)]
pub struct UnweightedApspOutcome {
    /// The clustering used.
    pub cluster_graph: ClusterGraph,
    /// Distance estimates: `estimate[u][v]` (exactly 0 on the diagonal).
    pub estimate: Vec<Vec<u32>>,
    /// Per-phase accounting; "(charged)" phases follow Lemma 6/paper
    /// accounting rather than simulation.
    pub phases: PhaseLog,
    /// Total rounds (measured + charged).
    pub total_rounds: u64,
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum ApspError {
    Clustering(ClusteringError),
    Broadcast(BroadcastError),
}

impl std::fmt::Display for ApspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApspError::Clustering(e) => write!(f, "clustering: {e}"),
            ApspError::Broadcast(e) => write!(f, "broadcast: {e}"),
        }
    }
}

impl std::error::Error for ApspError {}

/// Run Theorem 4. `lambda` parameterizes the broadcast (learned via
/// Lemma 4 / exponential search in the full system; passed here so
/// experiments can sweep it).
pub fn unweighted_apsp_approx(
    g: &Graph,
    lambda: usize,
    seed: u64,
) -> Result<UnweightedApspOutcome, ApspError> {
    let n = g.n();
    // One resident engine serves the clustering phase and every phase of
    // the Theorem 1 broadcast below.
    let mut host = congest_sim::Session::new(g);
    let mut phases = PhaseLog::new();

    // 1. Clustering (3 measured rounds).
    let (cg, cluster_stats) =
        build_clustering(&mut host, 2.0, seed, 20).map_err(ApspError::Clustering)?;
    phases.record("clustering", cluster_stats);

    // 2. PRT12 on the cluster graph (charged per Lemma 6).
    let prt = prt12_apsp(&cg.graph);
    phases.record(
        "prt12-on-Gc (charged)",
        RunStats::charged(prt.charged_g_rounds),
    );

    // 3. Centers → members distance vectors (charged: one hop, pipelined).
    phases.record(
        "center-vectors (charged)",
        RunStats::charged(cg.centers.len() as u64),
    );

    // 4. Broadcast s(v) for all v with the real Theorem 1 broadcast.
    //    Payload packs (v, cluster_of(v)).
    let input = BroadcastInput {
        messages: (0..n as Node)
            .map(|v| (v, ((v as u64) << 32) | cg.cluster_of[v as usize] as u64))
            .collect(),
    };
    let bc = partition_broadcast_at(&mut host, &input, lambda, seed ^ 0xB0)
        .map_err(ApspError::Broadcast)?;
    phases.append("broadcast-s(v): ", bc.phases);

    // 5. Local evaluation of the (3,2) estimates.
    let mut estimate = vec![vec![0u32; n]; n];
    for (u, row) in estimate.iter_mut().enumerate() {
        let cu = cg.cluster_of[u] as usize;
        for (v, slot) in row.iter_mut().enumerate() {
            if u == v {
                continue;
            }
            let cv = cg.cluster_of[v] as usize;
            *slot = 3 * prt.dist[cu][cv] + 2;
        }
    }

    let total_rounds = phases.total_rounds();
    Ok(UnweightedApspOutcome {
        cluster_graph: cg,
        estimate,
        phases,
        total_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::apsp::{apsp_unweighted, measure_stretch_unweighted};
    use congest_graph::generators::{complete, harary, torus2d};

    fn verify_32_guarantee(g: &Graph, lambda: usize, seed: u64) {
        let out = unweighted_apsp_approx(g, lambda, seed).unwrap();
        let exact = apsp_unweighted(g);
        // d ≤ d̃ everywhere and d̃ ≤ 3d + 2.
        let alpha = measure_stretch_unweighted(&exact, &out.estimate, 2).unwrap();
        assert!(
            alpha <= 3.0 + 1e-9,
            "multiplicative stretch {alpha} exceeds 3"
        );
    }

    #[test]
    fn guarantee_on_harary() {
        verify_32_guarantee(&harary(10, 50), 10, 3);
    }

    #[test]
    fn guarantee_on_torus() {
        verify_32_guarantee(&torus2d(5, 6), 4, 7);
    }

    #[test]
    fn guarantee_on_complete() {
        verify_32_guarantee(&complete(40), 39, 1);
    }

    #[test]
    fn phases_include_measured_and_charged() {
        let g = harary(8, 40);
        let out = unweighted_apsp_approx(&g, 8, 5).unwrap();
        let names: Vec<&str> = out.phases.phases().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n.contains("clustering")));
        assert!(names.iter().any(|n| n.contains("charged")));
        assert!(names.iter().any(|n| n.contains("broadcast")));
        assert!(out.total_rounds > 0);
    }

    #[test]
    fn diagonal_is_zero_and_symmetric_inputs_behave() {
        let g = harary(6, 30);
        let out = unweighted_apsp_approx(&g, 6, 11).unwrap();
        for u in 0..g.n() {
            assert_eq!(out.estimate[u][u], 0);
        }
    }
}
