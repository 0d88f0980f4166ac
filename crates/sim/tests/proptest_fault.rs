//! Property-based tests for the fault adversary's edge-drawing stream, and
//! the regression tests for the adversary's demotion of plane broadcasters
//! to per-arc staging, in sparse rounds and in dense ones.

use congest_graph::generators::harary;
use congest_graph::{Graph, Node};
use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
use congest_sim::{run_protocol, EngineConfig, FaultPlan, NodeCtx, Protocol, Session};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A deliberately sparse broadcaster: after a few silent rounds a single
/// node re-broadcasts every round. With and without faults this exercises
/// a lone plane sender — a small fold, which lists its receivers — and,
/// under faults, its demotion in sparse rounds.
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

/// Regression: a round that is **sparse and faulted** demotes the lone
/// broadcaster behind a blocked edge to per-arc staging (it scatters as
/// `deg` sends would) and still meters blocked arcs correctly — dropped messages are counted but
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

/// A dense faulted broadcaster. Every node outside `quiet` calls
/// `send_all` in every round below `until`, so each of those rounds
/// follows one that delivered on most arcs and takes the broadcast plane,
/// and the adversary's blocked edges touch plane broadcasters. Inside
/// `quiet` only `lone[r]` speaks in round `r`: an endpoint of a blocked
/// edge of that round, so the shard that owns it has one broadcaster and
/// the adversary demotes it. In round `until` only `lone[until]` speaks,
/// after a dense round: a plane fold whose every sender was demoted.
#[derive(Clone)]
struct DemotedBeacon {
    node: Node,
    until: u64,
    quiet: std::ops::Range<Node>,
    lone: Arc<Vec<Option<Node>>>,
    acc: u64,
}

impl DemotedBeacon {
    fn speaks(&self, round: u64) -> bool {
        let lone = self.lone.get(round as usize).copied().flatten() == Some(self.node);
        lone || (round < self.until && !self.quiet.contains(&self.node))
    }

    fn hear(&mut self, port: u32, m: u64) {
        self.acc = self
            .acc
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(m ^ port as u64);
    }
}

impl Protocol for DemotedBeacon {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        for (p, m) in ctx.inbox() {
            self.hear(p, m);
        }
        if self.speaks(ctx.round) {
            ctx.send_all(self.acc ^ ctx.round);
        }
        ctx.set_done(ctx.round >= self.until);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for DemotedBeacon {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        for (p, &m) in ctx.inbox() {
            self.hear(p, m);
        }
        if self.speaks(ctx.round) {
            ctx.send_all(self.acc ^ ctx.round);
        }
        ctx.set_done(ctx.round >= self.until);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Per round below `rounds`, the lowest node of `inner` on a blocked edge
/// of that round, if any.
fn lone_speakers(
    g: &Graph,
    plan: &FaultPlan,
    rounds: u64,
    inner: &std::ops::Range<Node>,
) -> Vec<Option<Node>> {
    (0..rounds)
        .map(|r| {
            plan.blocked_edges(r, g.m())
                .into_iter()
                .flat_map(|e| {
                    let (u, v) = g.endpoints(e);
                    [u, v]
                })
                .filter(|v| inner.contains(v))
                .min()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense faulted `send_all` rounds keep the broadcast plane, and the
    /// adversary demotes each plane broadcaster behind a blocked edge to
    /// per-arc staging before it drops: outputs, `RunStats` (dropped
    /// messages included), the trace and every edge's congestion equal the
    /// reference interpreter's, and the state a warm session is left in
    /// hashes as a fresh session's does — at one, four and six shards, on
    /// one and on two pool lanes. `quiet` is shard 0 of the four-shard
    /// plan and `lone` speaks from shard 0 of the six-shard plan, which
    /// `quiet` covers, so at both counts that shard's one broadcaster is
    /// demoted.
    #[test]
    fn demoted_plane_broadcasters_match_the_reference(
        half_l in 2usize..5,
        n in 48usize..97,
        budget in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = harary(2 * half_l, n);
        let plan = FaultPlan::new(budget, seed);
        let quiet = g.shard_plan(4).nodes(0);
        let inner = g.shard_plan(6).nodes(0);
        prop_assert!(inner.start == quiet.start && inner.end <= quiet.end);
        let lone = lone_speakers(&g, &plan, 64, &inner);
        // The last round is one whose lone speaker the adversary demotes.
        let until = (16..64).find(|&r| lone[r].is_some()).expect("a blocked edge in shard 0") as u64;
        let lone = Arc::new(lone);
        let mk = |v: Node| DemotedBeacon {
            node: v,
            until,
            quiet: quiet.clone(),
            lone: lone.clone(),
            acc: v as u64 + 1,
        };
        let base = run_baseline::<DemotedBeacon, _>(&g, |v, _| mk(v), 10_000, Some(plan));
        prop_assert!(base.stats.dropped_messages > 0, "the adversary caught broadcasts");
        let cfg = EngineConfig::with_seed(seed).trace().with_faults(plan);
        let mut fresh = Session::new(&g);
        fresh.run(|v, _| mk(v), cfg.clone()).unwrap();
        let warm = DemotedBeacon { quiet: 0..0, lone: Arc::new(Vec::new()), ..mk(0) };
        for threads in [1, 2] {
            for shards in [1, 4, 6] {
                let (outputs, stats, trace, congestion, hash) = congest_par::with_threads(threads, || {
                    let mut session = Session::new(&g);
                    // A warm session: an unfaulted dense phase first.
                    session.run(|_, _| warm.clone(), EngineConfig::default()).unwrap();
                    let live = session
                        .run(|v, _| mk(v), cfg.clone().shards(shards))
                        .unwrap()
                        .into_owned();
                    (live.outputs, live.stats, live.trace, live.edge_congestion, session.state_hash())
                });
                let at = format!("threads {threads}, shards {shards}");
                prop_assert_eq!(&outputs, &base.outputs, "{}", at);
                prop_assert_eq!(stats, base.stats, "{}", at);
                prop_assert_eq!(trace.as_ref(), Some(&base.trace), "{}", at);
                prop_assert_eq!(&congestion, &base.edge_congestion, "{}", at);
                prop_assert_eq!(hash, fresh.state_hash(), "{}", at);
            }
        }
    }
}
