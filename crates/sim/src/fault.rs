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

use crate::churn::Mutation;
use crate::rng::mix64;
use congest_graph::{Edge, Graph, Node};

/// Reusable epoch-stamped mark-bitset over edge ids: `O(1)` reset per
/// round, `O(1)` membership, one `u32` per edge. The session round loop
/// dedups fault draws through this instead of the legacy `O(budget²)`
/// linear scan, and it stays allocation-free once grown to `m` (enforced
/// by `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct EdgeMarks {
    /// `stamp[e] == epoch` means `e` is marked in the current round.
    stamp: Vec<u32>,
    epoch: u32,
}

impl EdgeMarks {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh empty mark set over `0..m` (bumps the epoch; only
    /// grows storage, and only when `m` exceeds every earlier round's).
    fn begin(&mut self, m: usize) {
        if self.stamp.len() < m {
            self.stamp.resize(m, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old stamps could alias. One flush per 2^32
            // rounds keeps the scheme exact.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `e`; returns whether it was already marked this round.
    #[inline]
    fn test_and_set(&mut self, e: Edge) -> bool {
        let s = &mut self.stamp[e as usize];
        if *s == self.epoch {
            true
        } else {
            *s = self.epoch;
            false
        }
    }
}

/// A per-round edge-blocking plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Number of edges blocked per round (both directions).
    pub edges_per_round: usize,
    /// Stream seed; the blocked set in round `r` is a pure function of
    /// `(seed, r)`.
    pub seed: u64,
    /// First round at which the adversary acts.
    pub start_round: u64,
}

impl FaultPlan {
    pub fn new(edges_per_round: usize, seed: u64) -> Self {
        FaultPlan {
            edges_per_round,
            seed,
            start_round: 0,
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

    /// [`FaultPlan::blocked_edges`] into a caller-owned buffer. Keeps the
    /// legacy `O(budget²)` linear dedup scan — fine at classic adversary
    /// scale, and what the reference interpreter ([`crate::baseline`])
    /// draws its blocked set through. The session engine uses
    /// [`FaultPlan::blocked_edges_into_marked`], which replaces the scan
    /// with an `O(1)`-per-draw mark-bitset; `proptest_fault` pins the two
    /// bit-identical.
    pub fn blocked_edges_into(&self, round: u64, m: usize, out: &mut Vec<Edge>) {
        out.clear();
        if round < self.start_round || self.edges_per_round == 0 || m == 0 {
            return;
        }
        let target = self.edges_per_round.min(m);
        // Rejection-sample distinct edges from the seeded stream. A
        // deterministic draw cap guards against the astronomically
        // unlikely degenerate stream; past it, fill with the smallest
        // unused ids so the budget promise still holds.
        let mut draw: u64 = 0;
        let draw_cap = Self::draw_cap(target);
        while out.len() < target && draw < draw_cap {
            let e = self.draw(round, draw, m);
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

    /// [`FaultPlan::blocked_edges_into`] with duplicate rejection through
    /// a reusable [`EdgeMarks`] scratch: `O(budget)` per round instead of
    /// `O(budget²)`, which is what makes churn-scale budgets affordable
    /// inside the round loop. Draw order and rejection decisions are
    /// identical to the legacy scan, so the output is bit-identical.
    pub fn blocked_edges_into_marked(
        &self,
        round: u64,
        m: usize,
        out: &mut Vec<Edge>,
        marks: &mut EdgeMarks,
    ) {
        out.clear();
        if round < self.start_round || self.edges_per_round == 0 || m == 0 {
            return;
        }
        let target = self.edges_per_round.min(m);
        marks.begin(m);
        let mut draw: u64 = 0;
        let draw_cap = Self::draw_cap(target);
        while out.len() < target && draw < draw_cap {
            let e = self.draw(round, draw, m);
            draw += 1;
            if !marks.test_and_set(e) {
                out.push(e);
            }
        }
        let mut next = 0 as Edge;
        while out.len() < target {
            if !marks.test_and_set(next) {
                out.push(next);
            }
            next += 1;
        }
        out.sort_unstable();
    }

    /// The `draw`-th candidate edge of `round` (shared by both dedup
    /// strategies so they cannot drift).
    #[inline]
    fn draw(&self, round: u64, draw: u64, m: usize) -> Edge {
        (mix64(self.seed ^ mix64(round) ^ mix64(0xFA17 + draw)) % m as u64) as Edge
    }

    #[inline]
    fn draw_cap(target: usize) -> u64 {
        64 * (target as u64 + 16)
    }

    /// Membership mask over edge ids for one round.
    pub fn blocked_mask(&self, round: u64, m: usize) -> Vec<bool> {
        let mut mask = vec![false; m];
        for e in self.blocked_edges(round, m) {
            mask[e as usize] = true;
        }
        mask
    }

    /// Convenience: does this plan block `edge` in `round`? (Test helper;
    /// the engine uses the mask.)
    pub fn blocks(&self, round: u64, edge: Edge, g: &Graph) -> bool {
        self.blocked_edges(round, g.m()).contains(&edge)
    }
}

/// A seeded **persistent-mutation** schedule — [`FaultPlan`] generalized
/// from per-round transient edge blocking to per-epoch topology churn.
/// Where `FaultPlan` masks edges for one round and forgets, a `ChurnPlan`
/// emits [`Mutation`]s that permanently rewire the graph at phase
/// boundaries (via [`crate::churn::ChurnSession`]). The same plan value
/// drives the churn proptests, the soak example, and the bench arm, so
/// every harness faces the same nemesis.
///
/// The schedule for epoch `k` is a pure function of `(seed, k)` **and the
/// graph it is asked about** — churn is path-dependent, so callers must
/// query epochs in order against the evolving topology. Budgets are
/// best-effort: a draw that would break an invariant (duplicate edge,
/// self-loop, crashed endpoint, a removal pushing an endpoint below
/// [`ChurnPlan::min_degree_floor`]) is rejected and redrawn up to a
/// deterministic cap, mirroring [`FaultPlan`]'s rejection sampling.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    /// Stream seed.
    pub seed: u64,
    /// Edge insertions attempted per epoch.
    pub adds_per_epoch: usize,
    /// Edge deletions attempted per epoch.
    pub removes_per_epoch: usize,
    /// Crash/revive ops attempted per epoch (coin-flip between the two;
    /// revives target the lowest-id crashed node).
    pub node_ops_per_epoch: usize,
    /// Deletions never drop an endpoint's degree below this floor (crash
    /// ops are exempt — a crash models a hard failure).
    pub min_degree_floor: usize,
    /// First epoch at which the nemesis acts.
    pub start_epoch: u64,
}

impl ChurnPlan {
    pub fn new(adds_per_epoch: usize, removes_per_epoch: usize, seed: u64) -> Self {
        ChurnPlan {
            seed,
            adds_per_epoch,
            removes_per_epoch,
            node_ops_per_epoch: 0,
            min_degree_floor: 1,
            start_epoch: 0,
        }
    }

    /// Enable crash/revive ops.
    pub fn node_ops(mut self, per_epoch: usize) -> Self {
        self.node_ops_per_epoch = per_epoch;
        self
    }

    /// Set the degree floor removals respect.
    pub fn degree_floor(mut self, floor: usize) -> Self {
        self.min_degree_floor = floor;
        self
    }

    /// The mutation batch for `epoch` against the current topology
    /// (`g` plus the `crashed` flags), appended to `out` in application
    /// order: removals, then insertions, then node ops.
    pub fn mutations_into(&self, epoch: u64, g: &Graph, crashed: &[bool], out: &mut Vec<Mutation>) {
        out.clear();
        if epoch < self.start_epoch {
            return;
        }
        let n = g.n();
        let m = g.m();
        debug_assert_eq!(crashed.len(), n);

        // --- removals (stream tag 0x0DE1) ------------------------------
        // Respect the degree floor *after* earlier draws this epoch: a
        // node's effective degree is its graph degree minus removals
        // already scheduled against it (linear scans — budgets are small).
        let eff_degree = |out: &[Mutation], v: Node| -> usize {
            let drawn = out
                .iter()
                .filter(|op| matches!(op, Mutation::RemoveEdge(a, b) if *a == v || *b == v))
                .count();
            g.degree(v) - drawn
        };
        let target = self.removes_per_epoch.min(m);
        let mut draw: u64 = 0;
        let cap = 64 * (target as u64 + 16);
        let mut scheduled = 0usize;
        while scheduled < target && draw < cap {
            let h = mix64(self.seed ^ mix64(epoch) ^ mix64(0x0DE1 + draw));
            draw += 1;
            let (u, v) = g.endpoints((h % m as u64) as Edge);
            let dup = out
                .iter()
                .any(|op| matches!(op, Mutation::RemoveEdge(a, b) if (*a, *b) == (u, v)));
            if dup
                || eff_degree(out, u) <= self.min_degree_floor
                || eff_degree(out, v) <= self.min_degree_floor
            {
                continue;
            }
            out.push(Mutation::RemoveEdge(u, v));
            scheduled += 1;
        }

        // --- insertions (stream tag 0x0ADD) ----------------------------
        let canon = |u: Node, v: Node| if u < v { (u, v) } else { (v, u) };
        let pending = |out: &[Mutation], c: (Node, Node)| {
            out.iter().any(|op| match op {
                Mutation::AddEdge(a, b) | Mutation::RemoveEdge(a, b) => canon(*a, *b) == c,
                _ => false,
            })
        };
        let target = self.adds_per_epoch;
        let mut draw: u64 = 0;
        let cap = 64 * (target as u64 + 16);
        let mut scheduled = 0usize;
        while scheduled < target && draw < cap {
            let h = mix64(self.seed ^ mix64(epoch) ^ mix64(0x0ADD + draw));
            draw += 1;
            let u = (h % n as u64) as Node;
            let v = ((h >> 32) % n as u64) as Node;
            if u == v || crashed[u as usize] || crashed[v as usize] {
                continue;
            }
            let c = canon(u, v);
            // Reject edges already present and edges this epoch already
            // touches either way (mutating the same pair twice per epoch
            // would make the net effect order-sensitive).
            if g.has_edge(u, v) || pending(out, c) {
                continue;
            }
            out.push(Mutation::AddEdge(c.0, c.1));
            scheduled += 1;
        }

        // --- crash / revive (stream tag 0x0C4A) ------------------------
        let crashed_now = |out: &[Mutation], v: Node| -> bool {
            let mut state = crashed[v as usize];
            for op in out {
                match op {
                    Mutation::Crash(w) if *w == v => state = true,
                    Mutation::Revive(w) if *w == v => state = false,
                    _ => {}
                }
            }
            state
        };
        for i in 0..self.node_ops_per_epoch {
            let h = mix64(self.seed ^ mix64(epoch) ^ mix64(0x0C4A + i as u64));
            let lowest_crashed = (0..n as Node).find(|&v| crashed_now(out, v));
            if h & 1 == 1 {
                if let Some(v) = lowest_crashed {
                    out.push(Mutation::Revive(v));
                    continue;
                }
            }
            let alive = (0..n as Node).filter(|&v| !crashed_now(out, v)).count();
            if alive <= 2 {
                continue; // refuse to depopulate the network
            }
            let mut sub: u64 = 0;
            while sub < 64 {
                let v = (mix64(h ^ mix64(sub)) % n as u64) as Node;
                sub += 1;
                if !crashed_now(out, v) {
                    out.push(Mutation::Crash(v));
                    break;
                }
            }
        }
    }

    /// Allocating convenience wrapper over [`ChurnPlan::mutations_into`].
    pub fn mutations(&self, epoch: u64, g: &Graph, crashed: &[bool]) -> Vec<Mutation> {
        let mut out = Vec::new();
        self.mutations_into(epoch, g, crashed, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::cycle;

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
    fn start_round_delays_the_adversary() {
        let plan = FaultPlan {
            edges_per_round: 2,
            seed: 3,
            start_round: 10,
        };
        assert!(plan.blocked_edges(9, 50).is_empty());
        assert!(!plan.blocked_edges(10, 50).is_empty());
    }

    #[test]
    fn zero_budget_blocks_nothing() {
        let plan = FaultPlan::new(0, 7);
        assert!(plan.blocked_edges(3, 10).is_empty());
        let g = cycle(5);
        assert!(!plan.blocks(3, 0, &g));
    }

    #[test]
    fn churn_plan_is_deterministic() {
        let g = congest_graph::generators::harary(4, 24);
        let plan = ChurnPlan::new(3, 3, 42).node_ops(1);
        let crashed = vec![false; g.n()];
        assert_eq!(
            plan.mutations(7, &g, &crashed),
            plan.mutations(7, &g, &crashed)
        );
        assert_ne!(
            plan.mutations(7, &g, &crashed),
            plan.mutations(8, &g, &crashed)
        );
    }

    #[test]
    fn churn_plan_respects_degree_floor() {
        let g = cycle(12); // every node has degree 2
        let plan = ChurnPlan::new(0, 6, 5).degree_floor(2);
        let crashed = vec![false; g.n()];
        assert!(
            plan.mutations(0, &g, &crashed).is_empty(),
            "no removal may drop a cycle node below degree 2"
        );
        let relaxed = ChurnPlan::new(0, 3, 5).degree_floor(1);
        let muts = relaxed.mutations(0, &g, &crashed);
        assert!(!muts.is_empty());
        for op in &muts {
            assert!(matches!(op, Mutation::RemoveEdge(_, _)));
        }
    }

    #[test]
    fn churn_plan_batches_apply_cleanly() {
        // The schedule's invariant-rejection must make every batch valid
        // against the topology it was drawn for: drive a ChurnSession for
        // many epochs and require apply_pending to never error.
        let g = congest_graph::generators::harary(4, 30);
        let plan = ChurnPlan::new(2, 2, 99).node_ops(1);
        let mut sess = crate::churn::ChurnSession::new(g);
        let mut batch = Vec::new();
        for epoch in 0..40u64 {
            plan.mutations_into(epoch, sess.graph(), sess.crashed(), &mut batch);
            sess.queue_mut().extend(batch.iter().copied());
            sess.apply_pending()
                .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
            assert!(sess.alive() > 2);
        }
        let stats = sess.stats();
        assert!(stats.edges_added > 0 && stats.edges_removed > 0);
        assert!(stats.crashes > 0, "node ops fired over 40 epochs");
    }

    #[test]
    fn churn_plan_start_epoch_delays() {
        let g = cycle(10);
        let plan = ChurnPlan {
            start_epoch: 5,
            ..ChurnPlan::new(2, 1, 3)
        };
        let crashed = vec![false; g.n()];
        assert!(plan.mutations(4, &g, &crashed).is_empty());
        assert!(!plan.mutations(5, &g, &crashed).is_empty());
    }
}
