//! Property-based tests for the fault adversary's edge-drawing stream,
//! plus the regression tests for the adversary's interaction with the
//! broadcast plane's adaptive scatter fallback in sparse rounds.

use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
use congest_sim::{run_protocol, EngineConfig, FaultPlan, NodeCtx, Protocol};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a large enough graph the adversary blocks *exactly*
    /// `edges_per_round` distinct edges, every round, for any seed — the
    /// budget is never silently wasted on stream collisions.
    #[test]
    fn full_budget_of_distinct_edges(
        budget in 1usize..40,
        m_extra in 0usize..5000,
        seed in any::<u64>(),
        round in 0u64..10_000,
    ) {
        let m = budget + m_extra;
        let plan = FaultPlan::new(budget, seed);
        let blocked = plan.blocked_edges(round, m);
        prop_assert_eq!(blocked.len(), budget);
        prop_assert!(blocked.windows(2).all(|w| w[0] < w[1]), "distinct + sorted");
        prop_assert!(blocked.iter().all(|&e| (e as usize) < m));
    }

    /// When the budget meets or exceeds the edge count, every edge is
    /// blocked exactly once.
    #[test]
    fn saturating_budget_blocks_all(
        m in 1usize..50,
        extra in 0usize..10,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(m + extra, seed);
        let blocked = plan.blocked_edges(3, m);
        let expect: Vec<u32> = (0..m as u32).collect();
        prop_assert_eq!(blocked, expect);
    }

    /// The stream is a pure function of (seed, round): same inputs, same
    /// set; different rounds (almost surely) differ.
    #[test]
    fn deterministic_per_round(seed in any::<u64>(), round in 0u64..1000) {
        let plan = FaultPlan::new(8, seed);
        prop_assert_eq!(plan.blocked_edges(round, 4096), plan.blocked_edges(round, 4096));
    }
}

/// A deliberately sparse broadcaster: after a few silent rounds (which
/// drive the engine's adaptive plane signal to "sparse"), a single node
/// re-broadcasts every round. Without faults this exercises `send_all`'s
/// scatter fallback in sparse rounds; with faults the plane is disabled
/// outright and the same fallback carries the traffic.
struct SparseBeacon {
    node: u32,
    until: u64,
    acc: u64,
}

impl SparseBeacon {
    fn speaks(&self, round: u64) -> bool {
        self.node == 0 && round >= 2 && round < self.until
    }
}

impl Protocol for SparseBeacon {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        for (p, m) in ctx.inbox() {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(m ^ p as u64);
        }
        if self.speaks(ctx.round) {
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(ctx.round >= self.until);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for SparseBeacon {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        for (p, &m) in ctx.inbox() {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(m ^ p as u64);
        }
        if self.speaks(ctx.round) {
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(ctx.round >= self.until);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Regression: a round that is **sparse and faulted** must take the
/// scatter fallback (the adversary disables the broadcast plane) and
/// still meter blocked arcs correctly — dropped messages are counted but
/// never metered as traffic, identically to the reference interpreter
/// under the same plan, with the sparse fast path forced on, forced off,
/// and on its heuristic.
#[test]
fn sparse_faulted_rounds_scatter_and_meter_blocked_arcs() {
    let g = congest_graph::generators::harary(6, 40);
    let until = 30u64;
    let mk = |v: u32| SparseBeacon {
        node: v,
        until,
        acc: 1,
    };
    for fault_budget in [1usize, 3] {
        let plan = FaultPlan::new(fault_budget, 0xFA_17);
        let base = run_baseline::<SparseBeacon, _>(&g, |v, _| mk(v), 10_000, Some(plan));
        assert!(
            base.stats.dropped_messages > 0,
            "the adversary must catch some staged broadcast arcs"
        );
        for thr in [Some(0), Some(usize::MAX), None] {
            let mut cfg = EngineConfig::with_seed(9).trace().with_faults(plan);
            cfg.sparse_threshold = thr;
            let live = run_protocol(&g, |v, _| mk(v), cfg).unwrap();
            assert_eq!(live.outputs, base.outputs, "thr {thr:?}");
            assert_eq!(live.stats, base.stats, "thr {thr:?}");
            assert_eq!(live.trace.as_ref(), Some(&base.trace), "thr {thr:?}");
            assert_eq!(
                live.edge_congestion, base.edge_congestion,
                "blocked arcs must meter identically (thr {thr:?})"
            );
        }
    }
}

/// Regression: the same sparse beacon **without** faults goes through the
/// adaptive fallback branch (`send_all` in a plane-disabled sparse round
/// scatters per arc) and must agree with the reference interpreter on
/// everything metered.
#[test]
fn sparse_unfaulted_broadcast_takes_adaptive_fallback() {
    let g = congest_graph::generators::harary(6, 40);
    let mk = |v: u32| SparseBeacon {
        node: v,
        until: 20,
        acc: 1,
    };
    let base = run_baseline::<SparseBeacon, _>(&g, |v, _| mk(v), 10_000, None);
    for thr in [Some(0), Some(usize::MAX), None] {
        let mut cfg = EngineConfig::with_seed(4).trace();
        cfg.sparse_threshold = thr;
        let live = run_protocol(&g, |v, _| mk(v), cfg).unwrap();
        assert_eq!(live.outputs, base.outputs, "thr {thr:?}");
        assert_eq!(live.stats, base.stats, "thr {thr:?}");
        assert_eq!(live.trace.as_ref(), Some(&base.trace), "thr {thr:?}");
        assert_eq!(live.edge_congestion, base.edge_congestion, "thr {thr:?}");
    }
}
