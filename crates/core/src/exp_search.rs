//! Broadcast **without knowing λ** (paper §1.1, Remark).
//!
//! The paper: *"Compute the decomposition of Theorem 2 with
//! λ̃ = δ, δ/2, δ/4, … until it yields a desired tree packing. … Checking
//! the validity of a tree packing takes O((n log n)/δ) rounds, as we just
//! need to verify whether each Gᵢ is a connected subgraph with diameter
//! O((n log n)/δ)."*
//!
//! Implementation: learn δ (Lemma 4), then iterate guesses λ̃. Each
//! iteration pays one partition round, a parallel per-class BFS, and an
//! `O(D)` distributed AND-convergecast that tells every node whether all
//! classes reached everyone. The first valid guess proceeds to the routing
//! phase. Total extra cost is a geometric sum dominated by the last
//! (successful) iteration — the `O(log(δ/λ))` factor the paper notes.
//!
//! Leader + BFS, numbering, each iteration's partition + per-class BFS and
//! the routing phase are the shared stages of Theorem 1's composition
//! ([`crate::broadcast`]); only the learn-δ phase, the validity
//! convergecast and the halving loop live here.

use crate::broadcast::{
    BroadcastConfig, BroadcastError, BroadcastInput, BroadcastOutcome, ParallelPipeline,
    DEFAULT_PARTITION_C,
};
use crate::convergecast::{AggOp, Aggregate, TreeView};
use crate::partition::PartitionParams;
use crate::stages::Composition;
use congest_graph::Graph;
use congest_sim::Session;

/// Trace of the exponential search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpSearchReport {
    /// The δ learned distributedly.
    pub delta: usize,
    /// The guesses λ̃ tried, in order.
    pub tried: Vec<usize>,
    /// The accepted guess (last element of `tried`).
    pub accepted: usize,
    /// λ′ used for the final partition.
    pub num_subgraphs: usize,
}

/// k-broadcast with no knowledge of λ. The whole search — shared
/// prologue plus every halving iteration's partition/BFS/check — runs
/// on one phase host, so the dozens of phases reuse one preallocated
/// engine.
///
/// A disconnected `G` is [`BroadcastError::Disconnected`] after stage a;
/// otherwise only an engine error can end the search early, because
/// λ̃ = 1 gives λ′ = 1 (one class, the whole graph), which spans.
pub fn exp_search_broadcast(
    g: &Graph,
    input: &BroadcastInput,
    cfg: &BroadcastConfig,
) -> Result<(BroadcastOutcome, ExpSearchReport), BroadcastError> {
    let mut host = Session::new(g);
    let mut comp = Composition::new(&mut host, input, |phase| cfg.engine(0xE59 + phase));
    // Leader + BFS + learn δ + numbering (shared across iterations). A
    // convergecast phase tells every node what the root learned: read it
    // at node 0.
    comp.tree()?;
    comp.connected()?;
    let delta = comp.phases.run((3, "learn-delta"), |v, gr| {
        let view = TreeView::from_bfs(&comp.tree[v as usize]);
        Aggregate::new(view, AggOp::Min, gr.degree(v) as u64)
    })?[0] as usize;
    comp.number(4)?;

    // Exponential search over λ̃; iteration `i` owns phases 10+4i .. 13+4i.
    let mut tried = Vec::new();
    let mut lambda_tilde = delta.max(1);
    let mut iter = 0u64;
    loop {
        tried.push(lambda_tilde);
        let lp =
            PartitionParams::from_lambda(g.n(), lambda_tilde, DEFAULT_PARTITION_C).num_subgraphs;
        let part_seed = congest_sim::rng::phase_seed(cfg.seed, 0xA11CE + iter);
        let first = 10 + 4 * iter;
        let class_phases = [
            (first, &*format!("partition(λ̃={lambda_tilde})")),
            (first + 1, &*format!("subgraph-bfs(λ̃={lambda_tilde})")),
        ];
        comp.class_trees(class_phases, lp, part_seed)?;

        // Distributed validity check in place of the drivers' local one:
        // AND over "all my classes reached me" = Min over indicator bits,
        // convergecast on the main BFS tree.
        let check = (first + 2, &*format!("validity-check(λ̃={lambda_tilde})"));
        let valid = comp.phases.run(check, |v, _| {
            let ok = comp.class_trees[v as usize].iter().all(|i| i.reached);
            let view = TreeView::from_bfs(&comp.tree[v as usize]);
            Aggregate::new(view, AggOp::Min, ok as u64)
        })?[0]
            == 1;

        if valid {
            // Routing phase, identical to Theorem 1's phase 6.
            let per_node = comp.route(
                (first + 3, "parallel-routing"),
                1,
                cfg.record_payloads,
                |cores, _| ParallelPipeline::new(cores),
            )?;
            let report = ExpSearchReport {
                delta,
                accepted: lambda_tilde,
                tried,
                num_subgraphs: lp,
            };
            return Ok((comp.outcome(per_node), report));
        }

        // Halve and retry. λ̃ = 1 gives λ' = 1 = the whole graph, which
        // always spans (G connected), so the loop terminates.
        debug_assert!(lambda_tilde > 1, "λ̃ = 1 must always validate");
        lambda_tilde = (lambda_tilde / 2).max(1);
        iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{clique_chain, complete, harary, hypercube, path, torus2d};

    #[test]
    fn finds_valid_partition_without_lambda() {
        let g = harary(8, 40);
        let input = BroadcastInput::random_spread(&g, 60, 3);
        let (out, report) =
            exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(5)).unwrap();
        assert!(out.all_delivered());
        assert_eq!(report.delta, 8);
        assert_eq!(report.tried[0], 8, "search starts at δ");
        assert_eq!(*report.tried.last().unwrap(), report.accepted);
    }

    #[test]
    fn search_descends_when_delta_exceeds_lambda() {
        // clique_chain: δ = 11 but λ = 2 — starting guess δ overshoots and
        // the search must halve at least once whenever the δ-guess yields
        // an invalid (non-spanning) partition. With ln n ≈ 3.6 the first
        // guess already clamps λ' small, so we mainly check it terminates
        // and delivers.
        let g = clique_chain(3, 12, 2);
        let input = BroadcastInput::random_spread(&g, 30, 1);
        let (out, report) =
            exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(21)).unwrap();
        assert!(out.all_delivered());
        assert_eq!(report.delta, 11);
        assert!(!report.tried.is_empty());
    }

    #[test]
    fn complete_graph_accepts_first_guess() {
        let g = complete(40);
        let input = BroadcastInput::one_per_node(&g);
        let (out, report) =
            exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(2)).unwrap();
        assert!(out.all_delivered());
        assert_eq!(report.tried.len(), 1, "K_40 should validate at λ̃ = δ");
    }

    #[test]
    fn learned_delta_matches_min_degree() {
        for g in [
            harary(5, 20),
            torus2d(4, 5),
            clique_chain(3, 6, 2),
            hypercube(4),
        ] {
            let input = BroadcastInput::one_per_node(&g);
            let (_, report) =
                exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(1)).unwrap();
            assert_eq!(report.delta, g.min_degree());
        }
    }

    #[test]
    fn learning_delta_takes_order_d_rounds() {
        let g = path(20); // D = 19
        let input = BroadcastInput::one_per_node(&g);
        let (out, report) =
            exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(2)).unwrap();
        assert_eq!(report.delta, 1);
        // Leader election, BFS and the min-convergecast: 3 phases of O(D).
        let learning: u64 = ["leader-election", "bfs", "learn-delta"]
            .iter()
            .map(|name| out.phases.rounds_of(name).unwrap())
            .sum();
        assert!(learning <= 6 * 19 + 12, "{learning} rounds");
    }
}
