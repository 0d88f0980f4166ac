//! The textbook `O(D + k)` broadcast baseline (paper Lemma 1 applied to
//! one global BFS tree).
//!
//! This is the algorithm Theorem 1 is compared against: elect a leader,
//! build one BFS tree of `G`, and pipeline all `k` messages up and then
//! down that single tree. Round complexity `O(D + k)`, per-edge congestion
//! `O(k)`. In graphs with λ ≫ log n the paper's partition broadcast beats
//! it as soon as `k` dominates `D` — experiments E3/E4 locate the
//! crossover empirically.

use crate::broadcast::{BroadcastConfig, BroadcastInput};
use crate::convergecast::TreeView;
use crate::pipeline::{expected_checksums, PipeMsg, PipeResult, TreePipeline};
use crate::stages::Composition;
use congest_graph::Graph;
use congest_sim::{EngineError, PhaseLog, RunStats, Session};

/// Outcome of the baseline run (same verification interface as
/// [`crate::broadcast::BroadcastOutcome`]).
#[derive(Debug, Clone)]
pub struct TextbookOutcome {
    pub phases: PhaseLog,
    pub total_rounds: u64,
    pub stats: RunStats,
    /// Height of the single BFS tree (≈ D).
    pub tree_height: u32,
    pub per_node: Vec<PipeResult>,
    pub expected: (u64, u64),
    pub k: u64,
}

impl TextbookOutcome {
    pub fn all_delivered(&self) -> bool {
        self.per_node
            .iter()
            .all(|r| r.delivered == self.k && (r.xor_check, r.sum_check) == self.expected)
    }
}

/// Run the baseline: leader election + BFS + single-tree pipeline.
///
/// Message ids are the input indices — the baseline needs no distributed
/// numbering because a single tree assigns each message a unique path and
/// ids only feed the delivery checksums.
pub fn textbook_broadcast(
    g: &Graph,
    input: &BroadcastInput,
    seed: u64,
) -> Result<TextbookOutcome, EngineError> {
    let cfg = BroadcastConfig::with_seed(seed);
    let k = input.k() as u64;
    let mut host = Session::new(g);
    let mut comp = Composition::new(&mut host, input, |phase| cfg.engine(0x7B00 + phase));

    // Phases 1 and 2: leader election and the BFS tree — stage a of
    // Theorem 1's composition.
    comp.tree()?;
    let tree = &comp.tree;
    let tree_height = tree.iter().map(|i| i.depth).max().unwrap_or(0);

    // Phase 3: single-tree pipeline with all k messages.
    let mut own: Vec<Vec<PipeMsg>> = vec![Vec::new(); g.n()];
    for (i, &(v, payload)) in input.messages.iter().enumerate() {
        own[v as usize].push(PipeMsg {
            id: i as u32,
            payload,
        });
    }
    let per_node = comp.phases.run((3, "tree-pipeline"), |v, _| {
        let view = TreeView::from_bfs(&tree[v as usize]);
        TreePipeline::new(view, k, own[v as usize].clone(), cfg.record_payloads)
    })?;
    let phases = comp.take_log();

    let all: Vec<(u32, u64)> = input
        .messages
        .iter()
        .enumerate()
        .map(|(i, &(_, p))| (i as u32, p))
        .collect();
    let expected = expected_checksums(all.iter());

    let stats = phases.total();
    Ok(TextbookOutcome {
        total_rounds: phases.total_rounds(),
        phases,
        stats,
        tree_height,
        per_node,
        expected,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{barbell, cycle, harary, path};

    #[test]
    fn delivers_on_standard_families() {
        for g in [path(10), cycle(12), harary(4, 20)] {
            let input = BroadcastInput::random_spread(&g, 15, 2);
            let out = textbook_broadcast(&g, &input, 3).unwrap();
            assert!(out.all_delivered(), "on {:?}", g);
        }
    }

    #[test]
    fn rounds_are_order_d_plus_k() {
        let g = path(30); // D = 29
        let k = 40;
        let input = BroadcastInput::random_spread(&g, k, 1);
        let out = textbook_broadcast(&g, &input, 5).unwrap();
        let d = 29u64;
        // leader O(D) + bfs O(D) + pipeline O(D + k), small constants.
        let bound = 5 * d + 3 * k as u64 + 20;
        assert!(out.total_rounds <= bound, "{} > {bound}", out.total_rounds);
        assert!(out.total_rounds >= d + k as u64);
    }

    #[test]
    fn congestion_is_order_k() {
        let g = harary(4, 24);
        let k = 30;
        let input = BroadcastInput::at_single_node(&g, 0, k);
        let out = textbook_broadcast(&g, &input, 7).unwrap();
        assert!(
            out.phases.phases().last().unwrap().1.max_edge_congestion <= 2 * k as u64,
            "pipeline congestion must be O(k)"
        );
    }

    #[test]
    fn works_at_lambda_one() {
        // The motivating worst case: λ = 1 forces Ω(k) through the bridge.
        let g = barbell(6, 4);
        let input = BroadcastInput::random_spread(&g, 25, 9);
        let out = textbook_broadcast(&g, &input, 11).unwrap();
        assert!(out.all_delivered());
    }
}
