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

use crate::bfs::{BfsProtocol, SubgraphBfs};
use crate::broadcast::{BroadcastConfig, BroadcastInput, BroadcastOutcome, ParallelPipeline};
use crate::convergecast::{AggOp, Aggregate, Numbering, TreeView};
use crate::leader::FloodMax;
use crate::partition::{EdgePartitionProtocol, PartitionParams};
use crate::pipeline::{expected_checksums, PipeCore, PipeMsg};
use congest_graph::Graph;
use congest_sim::{EngineConfig, PhaseHost, PhaseLog};

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

/// Errors: only engine errors can escape — the search always terminates
/// because λ̃ = small enough eventually yields λ′ = 1 (one class = the
/// whole graph, which trivially spans).
pub type ExpSearchError = congest_sim::EngineError;

/// k-broadcast with no knowledge of λ. The whole search — shared
/// prologue plus every doubling iteration's partition/BFS/check — runs
/// on one phase host, so with a resident session the dozens of phases
/// reuse one preallocated engine.
pub fn exp_search_broadcast(
    g: &Graph,
    input: &BroadcastInput,
    cfg: &BroadcastConfig,
) -> Result<(BroadcastOutcome, ExpSearchReport), ExpSearchError> {
    let mut host = PhaseHost::resident(g);
    let n = g.n();
    let k = input.k() as u64;
    let mut phases = PhaseLog::new();
    let engine = |p: u64| {
        EngineConfig::with_seed(congest_sim::rng::phase_seed(cfg.seed, 0xE59 + p))
            .max_rounds(cfg.max_rounds)
    };

    // Leader + BFS + learn δ + numbering (shared across iterations).
    let leaders = host.run(|v, _| FloodMax::new(v), engine(1))?;
    phases.record("leader-election", leaders.stats);
    let root = leaders.outputs()[0].leader;
    drop(leaders);

    let bfs = host.run(|v, _| BfsProtocol::new(root, v), engine(2))?;
    phases.record("bfs", bfs.stats);
    let views: Vec<TreeView> = bfs.outputs().iter().map(TreeView::from_bfs).collect();
    drop(bfs);

    let delta_run = host.run(
        |v, gr| Aggregate::new(views[v as usize].clone(), AggOp::Min, gr.degree(v) as u64),
        engine(3),
    )?;
    phases.record("learn-delta", delta_run.stats);
    let delta = delta_run.outputs()[0] as usize;
    drop(delta_run);

    let payloads = input.payloads_by_node(n);
    let numbering = host.run(
        |v, _| Numbering::new(views[v as usize].clone(), payloads[v as usize].len() as u64),
        engine(4),
    )?;
    phases.record("numbering", numbering.stats);
    let ids_by_node: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let (start, _) = numbering.outputs()[v];
            (0..payloads[v].len() as u64)
                .map(|j| (start + j) as u32)
                .collect()
        })
        .collect();
    drop(numbering);

    // Exponential search over λ̃.
    let mut tried = Vec::new();
    let mut lambda_tilde = delta.max(1);
    let mut iter = 0u64;
    loop {
        tried.push(lambda_tilde);
        let params =
            PartitionParams::from_lambda(n, lambda_tilde, crate::broadcast::DEFAULT_PARTITION_C);
        let lp = params.num_subgraphs;
        let part_seed = congest_sim::rng::phase_seed(cfg.seed, 0xA11CE + iter);

        let part = host.run(
            |v, gr| EdgePartitionProtocol::new(v, part_seed, lp, gr.degree(v)),
            engine(10 + 4 * iter),
        )?;
        phases.record(format!("partition(λ̃={lambda_tilde})"), part.stats);
        let port_colors = part.take_outputs();

        let sub_bfs_run = host.run(
            |v, _| SubgraphBfs::new(root, v, port_colors[v as usize].clone(), lp),
            engine(11 + 4 * iter),
        )?;
        phases.record(format!("subgraph-bfs(λ̃={lambda_tilde})"), sub_bfs_run.stats);
        let sub_bfs = sub_bfs_run.take_outputs();

        // Distributed validity check: AND over "all my classes reached me"
        // = Min over indicator bits, convergecast on the main BFS tree.
        let ok_local: Vec<u64> = (0..n)
            .map(|v| sub_bfs[v].iter().all(|i| i.reached) as u64)
            .collect();
        let check = host.run(
            |v, _| Aggregate::new(views[v as usize].clone(), AggOp::Min, ok_local[v as usize]),
            engine(12 + 4 * iter),
        )?;
        phases.record(format!("validity-check(λ̃={lambda_tilde})"), check.stats);
        let valid = check.outputs()[0] == 1;
        drop(check);

        if valid {
            // Routing phase, identical to Theorem 1's phase 6.
            let cap = k.max(1).div_ceil(lp as u64);
            let color_of_id = |id: u32| ((id as u64 / cap).min(lp as u64 - 1)) as usize;
            let mut k_per_class = vec![0u64; lp];
            for ids in &ids_by_node {
                for &id in ids {
                    k_per_class[color_of_id(id)] += 1;
                }
            }
            let routing = host.run(
                |v, _| {
                    let vi = v as usize;
                    let cores = (0..lp)
                        .map(|c| {
                            let own: Vec<PipeMsg> = ids_by_node[vi]
                                .iter()
                                .zip(payloads[vi].iter())
                                .filter(|(&id, _)| color_of_id(id) == c)
                                .map(|(&id, &payload)| PipeMsg { id, payload })
                                .collect();
                            PipeCore::new(
                                TreeView::from_bfs(&sub_bfs[vi][c]),
                                k_per_class[c],
                                own,
                                cfg.record_payloads,
                            )
                        })
                        .collect();
                    ParallelPipeline::new(cores)
                },
                engine(13 + 4 * iter),
            )?;
            phases.record("parallel-routing", routing.stats);
            let per_node = routing.take_outputs();

            let subgraph_heights: Vec<u32> = (0..lp)
                .map(|c| (0..n).map(|v| sub_bfs[v][c].depth).max().unwrap_or(0))
                .collect();
            let all_msgs: Vec<(u32, u64)> = (0..n)
                .flat_map(|v| {
                    ids_by_node[v]
                        .iter()
                        .zip(payloads[v].iter())
                        .map(|(&id, &p)| (id, p))
                        .collect::<Vec<_>>()
                })
                .collect();
            let expected = expected_checksums(all_msgs.iter());
            let stats = phases.total();
            let outcome = BroadcastOutcome {
                total_rounds: phases.total_rounds(),
                phases,
                stats,
                num_subgraphs: lp,
                subgraph_heights,
                per_node,
                expected,
                k,
            };
            let report = ExpSearchReport {
                delta,
                accepted: lambda_tilde,
                tried,
                num_subgraphs: lp,
            };
            return Ok((outcome, report));
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
    use congest_graph::generators::{clique_chain, complete, harary};

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
}
