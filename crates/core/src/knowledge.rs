//! Learning the graph parameters δ and λ (paper Lemma 4).
//!
//! * **δ** is learned exactly as in the paper: a min-convergecast of node
//!   degrees over a BFS tree plus a broadcast back down — `O(D)` rounds
//!   ([`learn_min_degree`]).
//! * **λ**: the paper invokes the universally-optimal min-cut machinery of
//!   \[GZ22\] with \[CPT20\] shortcuts (an entire separate paper). Per the
//!   substitution rule (DESIGN.md §2) we provide instead
//!   (a) the paper's own *exponential search* fallback
//!   ([`crate::exp_search`]), which removes the need to know λ entirely at
//!   the same asymptotic cost, and
//!   (b) a centralized oracle ([`lambda_oracle`], capped unit max-flows
//!   from one vertex to the rest of a dominating set) used
//!   only to parameterize experiments.

use crate::bfs::BfsProtocol;
use crate::convergecast::{AggOp, Aggregate, TreeView};
use crate::leader::FloodMax;
use congest_graph::Graph;
use congest_sim::{EngineConfig, EngineError, PhaseLog, Session};

/// Distributed δ-learning: every node ends up knowing the global minimum
/// degree. Returns `(delta, phases)`. All three phases run on one
/// resident engine session.
pub fn learn_min_degree(g: &Graph, seed: u64) -> Result<(usize, PhaseLog), EngineError> {
    let mut session = Session::new(g);
    let mut phases = PhaseLog::new();
    let engine = |p: u64| EngineConfig::with_seed(congest_sim::rng::phase_seed(seed, 0xDE17A + p));

    let leaders = session.run(|v, _| FloodMax::new(v), engine(1))?;
    phases.record("leader-election", leaders.stats);
    let root = leaders.outputs()[0].leader;
    drop(leaders);

    let bfs = session.run(|v, _| BfsProtocol::new(root, v), engine(2))?;
    phases.record("bfs", bfs.stats);
    let views: Vec<TreeView> = bfs.outputs().iter().map(TreeView::from_bfs).collect();
    drop(bfs);

    let agg = session.run(
        |v, gr| Aggregate::new(views[v as usize].clone(), AggOp::Min, gr.degree(v) as u64),
        engine(3),
    )?;
    phases.record("min-convergecast", agg.stats);

    // Every node holds the same answer; sanity-check that.
    let delta = agg.outputs()[0];
    debug_assert!(agg.outputs().iter().all(|&d| d == delta));
    Ok((delta as usize, phases))
}

/// Centralized λ oracle (experiments only; see module docs).
pub fn lambda_oracle(g: &Graph) -> usize {
    congest_graph::algo::connectivity::edge_connectivity(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{clique_chain, harary, hypercube, torus2d};

    #[test]
    fn delta_matches_centralized() {
        for g in [
            harary(5, 20),
            torus2d(4, 5),
            clique_chain(3, 6, 2),
            hypercube(4),
        ] {
            let (delta, _) = learn_min_degree(&g, 1).unwrap();
            assert_eq!(delta, g.min_degree());
        }
    }

    #[test]
    fn rounds_are_order_d() {
        let g = congest_graph::generators::path(20); // D = 19
        let (delta, phases) = learn_min_degree(&g, 2).unwrap();
        assert_eq!(delta, 1);
        // 3 phases of O(D) each.
        assert!(phases.total_rounds() <= 6 * 19 + 12);
    }

    #[test]
    fn oracle_agrees_with_generators() {
        assert_eq!(lambda_oracle(&harary(6, 24)), 6);
        assert_eq!(lambda_oracle(&clique_chain(3, 8, 3)), 3);
    }
}
