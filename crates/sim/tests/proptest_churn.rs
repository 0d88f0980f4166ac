//! The churn differential oracle: **mutate-then-run ≡ rebuild-then-run**.
//!
//! A [`ChurnSession`] applies a batch of topology mutations by splicing
//! the CSR arrays in place, renumbering edge ids, resizing the engine's
//! arc/edge-keyed buffers, and rebalancing the cached shard plan. The
//! claim this harness pins is that none of that is observable: after any
//! churn schedule, the repaired graph is **equal** (same CSR, same edge
//! ids) to a freshly built one, and a phase run on the repaired engine is
//! **bit-identical** — outputs, stats, traces, per-edge congestion — to
//! the same phase on a freshly constructed session over the rebuilt
//! graph, across shard counts × faulted and unfaulted phases.
//!
//! The rebuild arm tracks churn with an independent model (a plain edge
//! set plus crash/parked-edge bookkeeping), so a bug in the incremental
//! path cannot cancel against itself.

use congest_graph::{Graph, GraphBuilder, Node};
use congest_sim::rng::phase_seed;
use congest_sim::{
    ChurnPlan, ChurnSession, EngineConfig, FaultPlan, Mutation, NodeCtx, Protocol, RunStats,
    Session,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut b = GraphBuilder::new(n);
        let mut edges = BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for i in 0..3 * n as u64 {
            let u = (mix(seed ^ (i << 20)) % n as u64) as u32;
            let v = (mix(seed ^ (i << 21) ^ 7) % n as u64) as u32;
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        for (u, v) in edges {
            b.push_edge(u, v);
        }
        b.build().unwrap()
    })
}

/// Random mix of `send_all`, per-port `send`, and silence (the engine
/// oracle workload from `proptest_session`).
struct Chatter {
    rounds: u64,
    salt: u64,
    heard: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (p, m)| {
            a.wrapping_mul(17).wrapping_add(m ^ p as u64)
        });
        if ctx.round < self.rounds {
            use rand::Rng;
            let a = ctx.rng().gen_range(0..8u32);
            let m: u64 = ctx.rng().gen();
            if a == 0 {
                ctx.send_all(m ^ self.salt);
            } else if a < 5 {
                for p in 0..ctx.degree().min(64) as u32 {
                    if m >> p & 1 == 1 {
                        ctx.send(p, m.wrapping_add(self.salt ^ p as u64));
                    }
                }
            }
        }
        ctx.set_done(ctx.round >= self.rounds);
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

/// One phase's complete observable footprint.
#[derive(Debug, PartialEq)]
struct PhaseObs {
    outputs: Vec<u64>,
    stats: RunStats,
    trace: Vec<u64>,
    edge_congestion: Vec<u64>,
}

/// Independent mirror of the churn semantics: a plain edge set plus
/// crash flags and parked-edge sets, applied mutation by mutation.
struct Model {
    n: usize,
    edges: BTreeSet<(Node, Node)>,
    crashed: Vec<bool>,
    parked: Vec<BTreeSet<(Node, Node)>>,
}

impl Model {
    fn of(g: &Graph) -> Model {
        Model {
            n: g.n(),
            edges: g.edge_list().map(|(_, u, v)| (u, v)).collect(),
            crashed: vec![false; g.n()],
            parked: vec![BTreeSet::new(); g.n()],
        }
    }

    fn apply(&mut self, muts: &[Mutation]) {
        let canon = |u: Node, v: Node| if u < v { (u, v) } else { (v, u) };
        for &op in muts {
            match op {
                Mutation::AddEdge(u, v) => {
                    assert!(self.edges.insert(canon(u, v)), "plan emitted a dup add");
                }
                Mutation::RemoveEdge(u, v) => {
                    assert!(
                        self.edges.remove(&canon(u, v)),
                        "plan removed a missing edge"
                    );
                }
                Mutation::Crash(v) => {
                    assert!(!self.crashed[v as usize]);
                    self.crashed[v as usize] = true;
                    let incident: Vec<_> = self
                        .edges
                        .iter()
                        .copied()
                        .filter(|&(a, b)| a == v || b == v)
                        .collect();
                    for c in incident {
                        self.edges.remove(&c);
                        self.parked[v as usize].insert(c);
                    }
                }
                Mutation::Revive(v) => {
                    assert!(self.crashed[v as usize]);
                    self.crashed[v as usize] = false;
                    for c in std::mem::take(&mut self.parked[v as usize]) {
                        let other = if c.0 == v { c.1 } else { c.0 };
                        if self.crashed[other as usize] {
                            self.parked[other as usize].insert(c);
                        } else {
                            self.edges.insert(c);
                        }
                    }
                }
            }
        }
    }

    fn build(&self) -> Graph {
        GraphBuilder::new(self.n)
            .edges(self.edges.iter().copied())
            .build()
            .unwrap()
    }
}

fn engine(seed: u64, epoch: u64, shards: usize, faulted: bool) -> EngineConfig {
    let cfg = EngineConfig::serial()
        .seed(phase_seed(seed, epoch))
        .shards(shards)
        .trace();
    if faulted {
        cfg.with_faults(FaultPlan::new(2, seed ^ 0xFA17))
    } else {
        cfg
    }
}

fn observe(out: congest_sim::PhaseOutcome<'_, u64>) -> PhaseObs {
    PhaseObs {
        stats: out.stats,
        trace: out.trace().unwrap().to_vec(),
        edge_congestion: out.edge_congestion().to_vec(),
        outputs: out.take_outputs(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across random churn schedules (edge adds/removes + crash/revive),
    /// shard counts, and alternating faulted phases:
    /// after every epoch the incrementally repaired graph equals a fresh
    /// rebuild, and the phase run on the long-lived session is
    /// bit-identical to one on a fresh session over the rebuilt graph.
    #[test]
    fn mutate_then_run_matches_rebuild_then_run(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
        adds in 0usize..4,
        removes in 0usize..4,
        node_ops in 0usize..2,
    ) {
        let plan = ChurnPlan::new(adds, removes, seed ^ 0xC42).node_ops(node_ops);
        for &shards in &[1usize, 5] {
            let mut churn = ChurnSession::new(g.clone());
            let mut model = Model::of(&g);
            for epoch in 0..5u64 {
                let muts = plan.mutations(epoch, churn.graph(), churn.crashed());
                // Both arms consume the identical mutation batch.
                churn.queue_mut().extend(muts.iter().copied());
                model.apply(&muts);
                let faulted = epoch.is_multiple_of(2);
                let mk = || Chatter { rounds: 6, salt: 1 + epoch, heard: 0 };
                let live = observe(
                    churn
                        .run(|_, _| mk(), engine(seed, epoch, shards, faulted))
                        .unwrap(),
                );
                let rebuilt = model.build();
                prop_assert_eq!(
                    &rebuilt, churn.graph(),
                    "epoch {} (shards={}): repaired CSR diverged from rebuild",
                    epoch, shards
                );
                let mut fresh = Session::new(&rebuilt);
                let reference = observe(
                    fresh
                        .run(|_, _| mk(), engine(seed, epoch, shards, faulted))
                        .unwrap(),
                );
                prop_assert_eq!(
                    &live, &reference,
                    "epoch {} (shards={} faulted={})",
                    epoch, shards, faulted
                );
            }
        }
    }

    /// The same equivalence through `with_host`: a multi-phase hosted
    /// composition interleaved with churn batches stays bit-identical to
    /// rebuilt sessions phase for phase.
    #[test]
    fn hosted_phases_survive_interleaved_churn(
        g in arb_connected_graph(14),
        seed in any::<u64>(),
    ) {
        let plan = ChurnPlan::new(2, 2, seed ^ 0x40B);
        let mut churn = ChurnSession::new(g.clone());
        let mut model = Model::of(&g);
        for epoch in 0..4u64 {
            let muts = plan.mutations(epoch, churn.graph(), churn.crashed());
            churn.queue_mut().extend(muts.iter().copied());
            model.apply(&muts);
            churn.apply_pending().unwrap();
            let mk = || Chatter { rounds: 5, salt: epoch, heard: 0 };
            let live = churn.with_host(|host| {
                observe(host.run(|_, _| mk(), engine(seed, epoch, 3, false)).unwrap())
            });
            let rebuilt = model.build();
            prop_assert_eq!(&rebuilt, churn.graph(), "epoch {}", epoch);
            let mut fresh = Session::new(&rebuilt);
            let reference = observe(
                fresh
                    .run(|_, _| mk(), engine(seed, epoch, 3, false))
                    .unwrap(),
            );
            prop_assert_eq!(&live, &reference, "epoch {}", epoch);
        }
    }
}
