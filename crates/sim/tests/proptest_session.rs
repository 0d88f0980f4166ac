//! The session differential harness: a multi-phase composition executed
//! on one **resident** [`Session`] must be bit-identical — outputs,
//! stats, traces, per-edge congestion meters, and the accumulated
//! [`PhaseLog`] — to the same composition run on a **fresh engine per
//! phase** (one `run_protocol` call each, which builds and drops its own
//! session), sweeping shard counts × pool widths × fault plans, with the
//! sparse fast path forced both ways and a `u64` phase reusing a `u128`
//! phase's slab. Beside it, each phase of a `u32` → `u128` → `u64`
//! sequence on one session is held to the same phase on a fresh one: the
//! `u128` phase grows the slabs, and a growth keeps no old contents.
//!
//! Per-phase RNG seeds are derived through `phase_seed` exactly as the
//! drivers' `cfg.engine(k)` discipline derives them, so this is the
//! contract that nothing a phase leaves behind in a resident session
//! changes one bit of any later result.

use congest_graph::{Graph, GraphBuilder, Node};
use congest_sim::rng::phase_seed;
use congest_sim::{
    run_protocol, EngineConfig, FaultPlan, NodeCtx, PhaseLog, PhaseOutcome, Protocol, RunStats,
    Session,
};
use proptest::prelude::*;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for i in 0..2 * n as u64 {
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

/// Random mix of `send_all`, per-port `send`, and silence over `u64`
/// messages (the engine oracle workload).
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

/// Wide-message phase: `(u32, u64)` pairs in the `u128` slab, so the
/// composition exercises the width-keyed slab reuse in both hosts.
struct WideChatter {
    rounds: u64,
    heard: u64,
}

impl Protocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (_, (id, p))| {
            a.wrapping_mul(31).wrapping_add(id as u64 ^ p)
        });
        if ctx.round < self.rounds {
            ctx.send_all((ctx.node, self.heard | 1));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

/// Narrow-message phase: `u32` words, half of what a `u64` slab slot
/// holds, sent on every port in alternate rounds.
struct NarrowChatter {
    rounds: u64,
    heard: u64,
}

impl Protocol for NarrowChatter {
    type Msg = u32;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (p, m)| {
            a.wrapping_mul(13).wrapping_add(m as u64 ^ p as u64)
        });
        if ctx.round < self.rounds {
            if (ctx.node as u64 + ctx.round).is_multiple_of(2) {
                ctx.send_all(self.heard as u32 | 1);
            }
        } else {
            ctx.set_done(true);
        }
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

impl PhaseObs {
    /// Everything a session-hosted phase (run with a trace) lets one see.
    fn of(out: PhaseOutcome<'_, u64>) -> PhaseObs {
        PhaseObs {
            stats: out.stats,
            trace: out.trace().unwrap().to_vec(),
            edge_congestion: out.edge_congestion().to_vec(),
            outputs: out.take_outputs(),
        }
    }
}

/// Where a composition's phases get their engine: the one resident
/// session reused by every phase, or — with none — a fresh engine built
/// (and dropped) per phase by `run_protocol`, the reference that cannot
/// carry anything across a phase boundary.
struct Host<'g> {
    graph: &'g Graph,
    resident: Option<Session<'g>>,
}

impl<'g> Host<'g> {
    fn resident(graph: &'g Graph) -> Self {
        Host {
            graph,
            resident: Some(Session::new(graph)),
        }
    }

    fn fresh_each_phase(graph: &'g Graph) -> Self {
        Host {
            graph,
            resident: None,
        }
    }

    fn run<P, F>(&mut self, factory: F, config: EngineConfig) -> PhaseObs
    where
        P: Protocol<Output = u64>,
        F: FnMut(Node, &Graph) -> P,
    {
        match &mut self.resident {
            Some(host) => PhaseObs::of(host.run(factory, config).unwrap()),
            None => {
                let out = run_protocol(self.graph, factory, config).unwrap();
                PhaseObs {
                    outputs: out.outputs,
                    stats: out.stats,
                    trace: out.trace.unwrap(),
                    edge_congestion: out.edge_congestion,
                }
            }
        }
    }
}

/// Run the five-phase composition on `host` and capture everything
/// observable. Phase seeds follow the drivers' `cfg.engine(k)`
/// discipline (`phase_seed(seed, k)`); `base` pins the shard count, and
/// the caller's pool width says whether the phases fork.
fn run_composition(
    host: &mut Host<'_>,
    seed: u64,
    base: &EngineConfig,
    fault_budget: usize,
    fseed: u64,
) -> (Vec<PhaseObs>, PhaseLog) {
    let mut log = PhaseLog::new();
    let mut all = Vec::new();
    let engine = |k: u64| base.clone().seed(phase_seed(seed, k)).trace();
    let push = |name: &str, log: &mut PhaseLog, obs: PhaseObs| {
        log.record(name.to_string(), obs.stats);
        obs
    };
    // 1. dense-ish u64 chatter.
    let out = host.run(
        |_, _| Chatter {
            rounds: 6,
            salt: 1,
            heard: 0,
        },
        engine(1),
    );
    all.push(push("phase-1", &mut log, out));
    // 2. wide u128 phase.
    let out = host.run(
        |_, _| WideChatter {
            rounds: 5,
            heard: 1,
        },
        engine(2),
    );
    all.push(push("phase-2", &mut log, out));
    // 3. u64 phase straight after the u128 one, sparse path forced on.
    let out = host.run(
        |_, _| Chatter {
            rounds: 6,
            salt: 3,
            heard: 0,
        },
        engine(3).sparse_threshold(usize::MAX),
    );
    all.push(push("phase-3", &mut log, out));
    // 4. faulted phase (fast path forced off), when the plan has budget.
    let out = host.run(
        |_, _| Chatter {
            rounds: 7,
            salt: 4,
            heard: 0,
        },
        engine(4)
            .sparse_threshold(0)
            .with_faults(FaultPlan::new(fault_budget, fseed)),
    );
    all.push(push("phase-4", &mut log, out));
    // 5. mixed u64 phase on the default threshold.
    let out = host.run(
        |_, _| Chatter {
            rounds: 6,
            salt: 5,
            heard: 0,
        },
        engine(5),
    );
    all.push(push("phase-5", &mut log, out));
    (all, log)
}

fn logs_equal(a: &PhaseLog, b: &PhaseLog) -> bool {
    a.len() == b.len()
        && a.phases()
            .zip(b.phases())
            .all(|((na, sa), (nb, sb))| na == nb && sa == sb)
        && a.total() == b.total()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Resident-session composition ≡ fresh-engine-per-phase
    /// composition, across the config grid.
    #[test]
    fn session_composition_matches_a_fresh_engine_each_phase(
        g in arb_connected_graph(22),
        seed in any::<u64>(),
        fault_budget in 0usize..3,
        fseed in any::<u64>(),
    ) {
        for &shards in &[1usize, 5] {
            let base = EngineConfig::default().shards(shards);
            let mut resident = Host::resident(&g);
            let ((res, res_log), (per, per_log)) = congest_par::with_threads(1, || {
                (
                    run_composition(&mut resident, seed, &base, fault_budget, fseed),
                    run_composition(&mut Host::fresh_each_phase(&g), seed, &base, fault_budget, fseed),
                )
            });
            prop_assert_eq!(&res, &per, "shards={}", shards);
            prop_assert!(logs_equal(&res_log, &per_log), "phase logs diverge: shards={}", shards);
        }
    }

    /// Same equivalence with the step/deliver planes genuinely forked (a
    /// pinned shard count forks at any graph size): several pool widths,
    /// the resident arm forked vs the fresh-engine arm serial — engine
    /// reuse and execution mode are both irrelevant to results.
    #[test]
    fn session_composition_matches_across_pool_widths(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
    ) {
        let pinned = EngineConfig::default().shards(4);
        let (reference, ref_log) = congest_par::with_threads(1, || {
            run_composition(&mut Host::fresh_each_phase(&g), seed, &pinned, 1, seed ^ 0xF)
        });
        for threads in [2usize, 4] {
            let (par, par_log) = congest_par::with_threads(threads, || {
                let mut resident = Host::resident(&g);
                run_composition(&mut resident, seed, &pinned, 1, seed ^ 0xF)
            });
            prop_assert_eq!(&par, &reference, "threads={}", threads);
            prop_assert!(logs_equal(&par_log, &ref_log), "threads={}", threads);
        }
    }

    /// A slab or arena grows into a fresh zeroed buffer and keeps none of
    /// its old contents. A `u32` phase, then a `u128` phase (which grows
    /// the slabs), then a `u64` phase (which reuses the grown ones), all on
    /// one session: each phase observes exactly what it observes on a
    /// fresh session, and leaves the same state hash.
    #[test]
    fn phases_across_a_slab_growth_match_fresh_sessions(
        g in arb_connected_graph(22),
        seed in any::<u64>(),
    ) {
        let mut session = Session::new(&g);
        for k in 1..=3u64 {
            let cfg = EngineConfig::with_seed(phase_seed(seed, k)).trace();
            let mut fresh = Session::new(&g);
            let run = |s: &mut Session<'_>| match k {
                1 => s.run(|_, _| NarrowChatter { rounds: 5, heard: 1 }, cfg.clone()).map(PhaseObs::of),
                2 => s.run(|_, _| WideChatter { rounds: 5, heard: 1 }, cfg.clone()).map(PhaseObs::of),
                _ => s
                    .run(|_, _| Chatter { rounds: 6, salt: 3, heard: 0 }, cfg.clone())
                    .map(PhaseObs::of),
            };
            let (got, want) = (run(&mut session).unwrap(), run(&mut fresh).unwrap());
            prop_assert_eq!(got, want, "phase {}", k);
            prop_assert_eq!(session.state_hash(), fresh.state_hash(), "phase {}", k);
        }
    }

    /// A phase that fails (round-limit) must leave the session reusable:
    /// the next phase on the same session matches a fresh engine's run
    /// of that phase bit-for-bit (the dirty-scrub path).
    #[test]
    fn failed_phase_leaves_session_clean(
        g in arb_connected_graph(16),
        seed in any::<u64>(),
    ) {
        /// Never terminates: chatters forever.
        struct Forever;
        impl Protocol for Forever {
            type Msg = u64;
            type Output = u64;
            fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
                ctx.send_all(ctx.round | 1);
            }
            fn finish(self) -> u64 {
                0
            }
        }
        /// The quiescent case: node 0 pulses one port a round and is done
        /// only from round `linger` on, any other node relays the first
        /// mail it gets on every port, and everyone else is done throughout — so
        /// the rounds are listed ones, and with `linger = u64::MAX` the
        /// phase dies at the round limit with the list half-written.
        struct Pulse {
            linger: u64,
            heard: u64,
        }
        impl Protocol for Pulse {
            type Msg = u64;
            type Output = u64;
            const QUIESCENT: bool = true;
            fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
                let mail = ctx.inbox().fold(0u64, |a, (p, m)| a.wrapping_add(m ^ p as u64));
                if mail != 0 && self.heard == 0 && ctx.node != 0 {
                    for p in 0..ctx.degree() as u32 {
                        ctx.send(p, mail | 1);
                    }
                }
                self.heard = self.heard.wrapping_add(mail);
                if ctx.node == 0 {
                    if ctx.round < self.linger {
                        ctx.send((ctx.round % ctx.degree() as u64) as u32, ctx.round | 1);
                    }
                    ctx.set_done(ctx.round >= self.linger);
                } else {
                    ctx.set_done(true);
                }
            }
            fn finish(self) -> u64 {
                self.heard
            }
        }
        let limit = congest_sim::EngineError::RoundLimitExceeded { limit: 5 };
        let failing = || EngineConfig::with_seed(seed).max_rounds(5);
        let cfg = || EngineConfig::with_seed(phase_seed(seed, 9)).trace();
        let mk = || Chatter { rounds: 6, salt: 9, heard: 0 };
        let pulse = |linger| move |_: u32, _: &Graph| Pulse { linger, heard: 0 };
        for quiescent in [false, true] {
            let mut session = Session::new(&g);
            let err = if quiescent {
                session.run(pulse(u64::MAX), failing()).err()
            } else {
                session.run(|_, _| Forever, failing()).err()
            };
            prop_assert_eq!(err.as_ref(), Some(&limit), "the phase must exceed the round limit");
            let mut fresh = Session::new(&g);
            let after = session.run(|_, _| mk(), cfg()).unwrap().into_owned();
            let expect = fresh.run(|_, _| mk(), cfg()).unwrap().into_owned();
            prop_assert_eq!(after.outputs, expect.outputs);
            prop_assert_eq!(after.stats, expect.stats);
            prop_assert_eq!(after.trace, expect.trace);
            prop_assert_eq!(after.edge_congestion, expect.edge_congestion);
            prop_assert_eq!(session.state_hash(), fresh.state_hash());
            // And a listed phase after it, on both.
            let after = session.run(pulse(4), cfg()).unwrap().into_owned();
            let expect = fresh.run(pulse(4), cfg()).unwrap().into_owned();
            prop_assert_eq!(after.outputs, expect.outputs);
            prop_assert_eq!(after.stats, expect.stats);
            prop_assert_eq!(after.trace, expect.trace);
            prop_assert_eq!(after.edge_congestion, expect.edge_congestion);
            prop_assert_eq!(session.state_hash(), fresh.state_hash());
        }
    }
}
