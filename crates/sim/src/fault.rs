//! Edge-fault injection: a mobile adversary that blocks a budget of edges
//! each round.
//!
//! Paper §1.2 ("An application to secure distributed computing"):
//! Fischer–Parter \[FP23\] compile any CONGEST algorithm into an
//! *f-mobile-resilient* one — correct even when an adversary controls a
//! (possibly different) set of `f` edges **every round** — given exactly
//! the kind of low-diameter tree packing Theorem 2 provides.
//!
//! Our adversary is *oblivious-random* rather than adaptive (it picks the
//! `f` blocked edges per round from a seeded stream, not from the
//! transcript); the substitution is documented in DESIGN.md §2. That is
//! the right tool for the empirical question the resilience experiment
//! asks: how much replication across the packing's trees does it take for
//! broadcast to survive a given fault rate?

use crate::rng::mix64;
use congest_graph::Edge;

/// A per-round edge-blocking plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Number of edges blocked per round (both directions).
    pub edges_per_round: usize,
    /// Stream seed; the blocked set in round `r` is a pure function of
    /// `(seed, r)`.
    pub seed: u64,
}

impl FaultPlan {
    pub fn new(edges_per_round: usize, seed: u64) -> Self {
        FaultPlan {
            edges_per_round,
            seed,
        }
    }

    /// The edges blocked in `round`: exactly `min(edges_per_round, m)`
    /// **distinct** edge ids (sorted ascending). Earlier revisions let
    /// seeded-stream collisions silently shrink the set, wasting adversary
    /// budget; now colliding draws are rejected and redrawn, so the
    /// adversary always spends its full budget.
    pub fn blocked_edges(&self, round: u64, m: usize) -> Vec<Edge> {
        let mut blocked = Vec::new();
        self.blocked_edges_into(round, m, &mut blocked);
        blocked
    }

    /// [`FaultPlan::blocked_edges`] into a caller-owned buffer — what the
    /// session's adversary phase and the reference interpreter
    /// ([`crate::baseline`]) both draw through. Duplicates are rejected by
    /// a linear scan of the drawn set, `O(budget²)` a round: every budget
    /// the crate's callers pass is a handful of edges.
    pub fn blocked_edges_into(&self, round: u64, m: usize, out: &mut Vec<Edge>) {
        out.clear();
        if self.edges_per_round == 0 || m == 0 {
            return;
        }
        let target = self.edges_per_round.min(m);
        // Rejection-sample distinct edges from the seeded stream. A
        // deterministic draw cap guards against the astronomically
        // unlikely degenerate stream; past it, fill with the smallest
        // unused ids so the budget promise still holds.
        let mut draw: u64 = 0;
        let draw_cap = 64 * (target as u64 + 16);
        while out.len() < target && draw < draw_cap {
            let e = (mix64(self.seed ^ mix64(round) ^ mix64(0xFA17 + draw)) % m as u64) as Edge;
            draw += 1;
            if !out.contains(&e) {
                out.push(e);
            }
        }
        let mut next = 0 as Edge;
        while out.len() < target {
            if !out.contains(&next) {
                out.push(next);
            }
            next += 1;
        }
        out.sort_unstable();
    }

    /// Membership mask over edge ids for one round.
    pub fn blocked_mask(&self, round: u64, m: usize) -> Vec<bool> {
        let mut mask = vec![false; m];
        for e in self.blocked_edges(round, m) {
            mask[e as usize] = true;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_respected_and_deterministic() {
        let plan = FaultPlan::new(3, 9);
        let a = plan.blocked_edges(5, 100);
        let b = plan.blocked_edges(5, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3, "full budget is spent");
        assert!(a.iter().all(|&e| (e as usize) < 100));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn small_graphs_block_every_edge() {
        // Budget larger than m: all m edges are blocked, exactly once.
        let plan = FaultPlan::new(10, 2);
        let a = plan.blocked_edges(0, 4);
        assert_eq!(a, vec![0, 1, 2, 3]);
    }

    #[test]
    fn different_rounds_differ() {
        let plan = FaultPlan::new(4, 1);
        assert_ne!(plan.blocked_edges(1, 1000), plan.blocked_edges(2, 1000));
    }

    #[test]
    fn zero_budget_blocks_nothing() {
        let plan = FaultPlan::new(0, 7);
        assert!(plan.blocked_edges(3, 10).is_empty());
    }
}
