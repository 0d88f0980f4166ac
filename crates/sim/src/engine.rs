//! The engine's outside: configuration ([`EngineConfig`]), what a run
//! reports ([`RunStats`], [`RunOutcome`], [`EngineError`]) and the
//! one-phase [`run_protocol`] entry point.
//!
//! The round loop itself lives in [`crate::session`], and so do its
//! invariants — data layout, the shard-owned step and deliver phases,
//! the skip / sparse / full deliver choice, the broadcast plane, the
//! congestion meter, determinism. A [`crate::Session`] owns all engine
//! state for a whole multi-phase algorithm; `run_protocol` builds a fresh
//! one per call.
//!
//! No configuration says how a round runs: the one parallelism switch is
//! the `congest_par` pool width (see [`EngineConfig::shards`]), a serial
//! run is one inside `congest_par::with_threads(1, ..)` or with
//! `CONGEST_PAR_THREADS=1`, and results are identical at every width.

use crate::protocol::Protocol;
use crate::session::Session;
use congest_graph::{Graph, Node};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seed from which all per-node RNGs derive.
    pub seed: u64,
    /// Hard stop: error out if the protocol has not terminated by then.
    /// At most `u32::MAX` — a per-arc congestion counter holds one count
    /// per round — and a phase asked for more panics before it starts.
    pub max_rounds: u64,
    /// Shard count for the step and deliver passes — the phase's one fork
    /// decision, made once before its first round. `None` derives four
    /// shards per pool lane (at most 64) on a pool wider than one lane and
    /// a graph of at least 2¹⁷ arcs (below that a round is less work than
    /// the fork-join; DESIGN.md §10 has the table), and one shard
    /// otherwise. A pinned count is honoured as given: on a wider pool it
    /// forks at any graph size — how the differential tests reach the
    /// forked passes on small graphs — and on a one-lane pool its shards
    /// run in order on the calling thread. Any value produces identical
    /// results; this only shapes parallel granularity.
    pub shards: Option<usize>,
    /// Sparse-round fast-path threshold: rounds whose staged per-arc send
    /// count is at most this take the worklist deliver path instead of
    /// the full shard-region sweep. `None` derives a heuristic from the
    /// arc count; `Some(0)` disables the fast path and `Some(usize::MAX)`
    /// forces it for every scattering round but one in which the fault
    /// adversary demoted a broadcaster, which takes the full sweep (the
    /// differential tests pin both extremes). The threshold picks the
    /// merge only, not who steps: a [`crate::Protocol::QUIESCENT`]
    /// protocol's next round lists the receivers either way (the sparse
    /// merge as it delivers, each shard's probe of its occupancy words
    /// after a full sweep), so the stepped nodes are the same at every
    /// value. Results are identical at every value — this is purely a
    /// performance policy.
    pub sparse_threshold: Option<usize>,
    /// Record per-round traffic (messages delivered per round) — the
    /// "traffic profile" figures of the experiment harness.
    pub collect_trace: bool,
    /// Optional mobile edge adversary (paper §1.2 / \[FP23\] model; see
    /// [`crate::fault::FaultPlan`]).
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x5EED_CAFE,
            max_rounds: 1_000_000,
            shards: None,
            sparse_threshold: None,
            collect_trace: false,
            faults: None,
        }
    }
}

impl EngineConfig {
    pub fn with_seed(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..Default::default()
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    pub fn trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Pin the shard count (otherwise derived from the pool width and the
    /// graph); see [`EngineConfig::shards`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Pin the sparse fast-path threshold (see
    /// [`EngineConfig::sparse_threshold`]).
    pub fn sparse_threshold(mut self, threshold: usize) -> Self {
        self.sparse_threshold = Some(threshold);
        self
    }

    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// What the run cost — the quantities the paper's theorems bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of CONGEST rounds until the last message was delivered.
    pub rounds: u64,
    /// Engine iterations executed (≥ rounds; trailing silent iterations
    /// in which nodes only finished local computation are not "rounds").
    pub iterations: u64,
    /// Total messages delivered over the whole run.
    pub total_messages: u64,
    /// Max messages crossing any single undirected edge (both directions
    /// summed) — the paper's "congestion".
    pub max_edge_congestion: u64,
    /// Bits per message: the protocol's [`crate::PackedMsg::WIDTH`] when the
    /// phase sent at least one message (delivered or dropped), else 0.
    /// Sequential phases ([`RunStats::then`]) take the maximum.
    pub max_message_bits: usize,
    /// Messages destroyed by the fault adversary (0 without faults).
    pub dropped_messages: u64,
}

impl RunStats {
    /// A phase charged by the paper's accounting rather than simulated:
    /// `rounds` rounds (and as many iterations), nothing sent.
    pub fn charged(rounds: u64) -> RunStats {
        RunStats {
            rounds,
            iterations: rounds,
            ..Default::default()
        }
    }

    /// Combine sequentially-composed phases: rounds add, congestion adds
    /// (worst case: the same edge is hot in both phases), bits take max.
    pub fn then(self, later: RunStats) -> RunStats {
        RunStats {
            rounds: self.rounds + later.rounds,
            iterations: self.iterations + later.iterations,
            total_messages: self.total_messages + later.total_messages,
            max_edge_congestion: self.max_edge_congestion + later.max_edge_congestion,
            max_message_bits: self.max_message_bits.max(later.max_message_bits),
            dropped_messages: self.dropped_messages + later.dropped_messages,
        }
    }
}

/// A completed run: per-node outputs (indexed by node id) plus costs.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    pub outputs: Vec<O>,
    pub stats: RunStats,
    /// Messages delivered per round, when
    /// [`EngineConfig::collect_trace`] was set.
    pub trace: Option<Vec<u64>>,
    /// Total messages that crossed each undirected edge (both directions
    /// summed), indexed by edge id — the per-edge congestion meters whose
    /// maximum is [`RunStats::max_edge_congestion`]. The differential
    /// harness asserts these bit-identical across engines and execution
    /// modes, not just their max.
    pub edge_congestion: Vec<u64>,
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `max_rounds` elapsed without global termination — either the
    /// protocol deadlocked or the budget was too small.
    RoundLimitExceeded { limit: u64 },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not terminate within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Run one protocol instance per node until global termination (all nodes
/// done and no message in flight) or the round limit.
///
/// This is a thin **one-phase wrapper** over [`crate::Session`]: it
/// builds a fresh session for `graph`, runs the protocol on it, and
/// returns an owned outcome. Multi-phase algorithms should build one
/// session and call [`Session::run`] per phase instead — the session
/// reuses every engine buffer across phases (zero heap allocation at
/// phase boundaries) where this wrapper re-allocates them per call.
pub fn run_protocol<P, F>(
    graph: &Graph,
    factory: F,
    config: EngineConfig,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: Protocol,
    F: FnMut(Node, &Graph) -> P,
{
    let mut session = Session::new(graph);
    let outcome = session.run(factory, config)?;
    Ok(outcome.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{NodeCtx, Protocol};
    use crate::session::FORK_MIN_ARCS;
    use congest_graph::generators::{cycle, harary, path};

    /// Flood a token from node 0; everyone records the round they heard it.
    struct Flood {
        heard_at: Option<u64>,
    }
    impl Protocol for Flood {
        type Msg = ();
        type Output = Option<u64>;
        fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
            let start = ctx.round == 0 && ctx.node == 0;
            let got = ctx.inbox_len() > 0;
            if (start || got) && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round);
                ctx.send_all(());
            }
            ctx.set_done(self.heard_at.is_some());
        }
        fn finish(self) -> Option<u64> {
            self.heard_at
        }
    }

    #[test]
    fn flood_takes_eccentricity_rounds() {
        let g = path(6);
        let out =
            run_protocol(&g, |_, _| Flood { heard_at: None }, EngineConfig::default()).unwrap();
        for v in 0..6 {
            assert_eq!(out.outputs[v], Some(v as u64));
        }
        // Node 5 hears in round 5 after the round-4 send... it still sends
        // once (wasted), so the last delivery is round 6's input = rounds 6.
        assert!(out.stats.rounds >= 5 && out.stats.rounds <= 6);
        assert_eq!(out.stats.max_message_bits, 0);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // At FORK_MIN_ARCS, so the default config genuinely forks on a
        // forced four-lane pool even on a 1-core machine, and runs one
        // shard on a one-lane pool.
        let g = harary(128, 1024);
        assert!(g.num_arcs() >= FORK_MIN_ARCS);
        let [par, ser] = [4, 1].map(|threads| {
            congest_par::with_threads(threads, || {
                run_protocol(&g, |_, _| Flood { heard_at: None }, EngineConfig::default()).unwrap()
            })
        });
        assert_eq!(par.outputs, ser.outputs);
        assert_eq!(par.stats, ser.stats);
    }

    #[test]
    fn shard_count_never_changes_results() {
        let g = harary(8, 300);
        let base =
            run_protocol(&g, |_, _| Flood { heard_at: None }, EngineConfig::default()).unwrap();
        // A pinned shard count forks at any size on the four-lane pool and
        // runs its shards in order on the one-lane pool.
        for shards in [1usize, 2, 3, 7, 64, 1000] {
            for threads in [1, 4] {
                let out = congest_par::with_threads(threads, || {
                    let config = EngineConfig::default().shards(shards);
                    run_protocol(&g, |_, _| Flood { heard_at: None }, config)
                })
                .unwrap();
                assert_eq!(
                    out.outputs, base.outputs,
                    "shards {shards} threads {threads}"
                );
                assert_eq!(out.stats, base.stats, "shards {shards} threads {threads}");
            }
        }
    }

    #[test]
    fn arc_counters_match_reference_counters_over_a_long_run() {
        use crate::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
        /// 150 rounds of chatter, two thirds of the nodes speaking in each.
        struct LongPulse;
        impl LongPulse {
            fn speaks(node: Node, round: u64) -> bool {
                !(node as u64 + round).is_multiple_of(3)
            }
        }
        impl Protocol for LongPulse {
            type Msg = u32;
            type Output = ();
            fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
                if ctx.round < 150 {
                    if Self::speaks(ctx.node, ctx.round) {
                        ctx.send_all(5);
                    }
                } else {
                    ctx.set_done(true);
                }
            }
            fn finish(self) {}
        }
        impl BaselineProtocol for LongPulse {
            type Msg = u32;
            type Output = ();
            fn round(&mut self, ctx: &mut BaselineCtx<'_, u32>) {
                if ctx.round < 150 {
                    if Self::speaks(ctx.node, ctx.round) {
                        ctx.send_all(5);
                    }
                } else {
                    ctx.set_done(true);
                }
            }
            fn finish(self) {}
        }
        // The engine meters per arc (`u32`) and per broadcasting node and
        // folds both into edges at phase exit; the reference interpreter
        // bumps one plain `u64` per edge per delivery.
        let g = harary(6, 64);
        let engine = run_protocol(&g, |_, _| LongPulse, EngineConfig::default()).unwrap();
        let reference = run_baseline::<LongPulse, _>(&g, |_, _| LongPulse, 1_000, None);
        assert_eq!(engine.edge_congestion, reference.edge_congestion);
        assert_eq!(engine.stats, reference.stats);
        assert!(engine.stats.max_edge_congestion > 63);
    }

    #[test]
    fn round_limit_errors() {
        /// Never terminates: ping-pongs forever.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u32;
            type Output = ();
            fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
                ctx.send_all(1);
            }
            fn finish(self) {}
        }
        let g = cycle(4);
        let err =
            run_protocol(&g, |_, _| Chatter, EngineConfig::default().max_rounds(10)).unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { limit: 10 });
    }

    #[test]
    #[should_panic(expected = "does not fit the u32 per-arc congestion counters")]
    fn a_round_budget_past_the_counters_is_refused_up_front() {
        let config = EngineConfig::default().max_rounds(u32::MAX as u64 + 1);
        let _ = run_protocol(&cycle(4), |_, _| Flood { heard_at: None }, config);
    }

    #[test]
    fn congestion_counts_both_directions() {
        /// Both endpoints of every edge send every round for 3 rounds.
        struct Pulse;
        impl Protocol for Pulse {
            type Msg = u32;
            type Output = ();
            fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
                if ctx.round < 3 {
                    ctx.send_all(7);
                } else {
                    ctx.set_done(true);
                }
            }
            fn finish(self) {}
        }
        let g = cycle(3);
        let out = run_protocol(&g, |_, _| Pulse, EngineConfig::default()).unwrap();
        // 3 rounds × 2 directions per edge.
        assert_eq!(out.stats.max_edge_congestion, 6);
        assert_eq!(out.stats.total_messages, 3 * 2 * 3);
        assert_eq!(out.stats.max_message_bits, 32);
    }

    #[test]
    fn immediate_termination() {
        struct Mute;
        impl Protocol for Mute {
            type Msg = ();
            type Output = u32;
            fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
                ctx.set_done(true);
            }
            fn finish(self) -> u32 {
                99
            }
        }
        let g = cycle(5);
        let out = run_protocol(&g, |_, _| Mute, EngineConfig::default()).unwrap();
        assert_eq!(out.stats.rounds, 0);
        assert!(out.outputs.iter().all(|&o| o == 99));
    }

    #[test]
    fn trace_records_per_round_traffic() {
        let g = path(5);
        let out = run_protocol(
            &g,
            |_, _| Flood { heard_at: None },
            EngineConfig::default().trace(),
        )
        .unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(trace.len() as u64, out.stats.rounds);
        assert_eq!(trace.iter().sum::<u64>(), out.stats.total_messages);
        assert!(
            trace.iter().all(|&t| t > 0),
            "trace trimmed to last traffic"
        );
    }

    #[test]
    fn faults_drop_messages_and_are_counted() {
        use crate::fault::FaultPlan;
        // Flood on a path with every edge blocked each round: the far side
        // must never hear it, so the run can only end by round limit.
        let g = path(4);
        let out = run_protocol(
            &g,
            |_, _| Flood { heard_at: None },
            EngineConfig::default()
                .max_rounds(50)
                .with_faults(FaultPlan::new(64, 3)),
        );
        assert!(out.is_err());

        // A *retransmitting* flood survives a light adversary: blocking one
        // edge per round can only delay a wave that is re-sent every round.
        struct StubbornFlood {
            informed: bool,
        }
        impl Protocol for StubbornFlood {
            type Msg = ();
            type Output = bool;
            fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
                if ctx.round == 0 && ctx.node == 0 {
                    self.informed = true;
                }
                if ctx.inbox_len() > 0 {
                    self.informed = true;
                }
                if self.informed && ctx.round < 40 {
                    ctx.send_all(());
                }
                ctx.set_done(ctx.round >= 40);
            }
            fn finish(self) -> bool {
                self.informed
            }
        }
        let g = cycle(8);
        let out = run_protocol(
            &g,
            |_, _| StubbornFlood { informed: false },
            EngineConfig::default()
                .max_rounds(200)
                .with_faults(FaultPlan::new(1, 5)),
        )
        .unwrap();
        assert!(
            out.outputs.iter().all(|&o| o),
            "stubborn flood must survive"
        );
        assert!(out.stats.dropped_messages > 0, "adversary must have acted");
    }

    #[test]
    fn stats_then_composes() {
        let a = RunStats {
            rounds: 3,
            iterations: 4,
            total_messages: 10,
            max_edge_congestion: 2,
            max_message_bits: 16,
            dropped_messages: 0,
        };
        let b = RunStats {
            rounds: 5,
            iterations: 5,
            total_messages: 1,
            max_edge_congestion: 1,
            max_message_bits: 32,
            dropped_messages: 0,
        };
        let c = a.then(b);
        assert_eq!(c.rounds, 8);
        assert_eq!(c.max_edge_congestion, 3);
        assert_eq!(c.max_message_bits, 32);
    }

    #[test]
    fn wide_u128_messages_roundtrip_through_the_slab() {
        /// Every node sends a 96-bit (id, payload) pair to all neighbors
        /// once; receivers verify exact field recovery.
        struct Collect {
            got: Vec<(u32, u64)>,
        }
        impl Protocol for Collect {
            type Msg = (u32, u64);
            type Output = Vec<(u32, u64)>;
            fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
                if ctx.round == 0 {
                    let m = (ctx.node ^ 0xABCD, 0xDEAD_BEEF_0000_0000 | ctx.node as u64);
                    ctx.send_all(m);
                    return;
                }
                self.got.extend(ctx.inbox().map(|(_, m)| m));
                ctx.set_done(true);
            }
            fn finish(self) -> Vec<(u32, u64)> {
                self.got
            }
        }
        let g = cycle(6);
        let out = run_protocol(
            &g,
            |_, _| Collect { got: Vec::new() },
            EngineConfig::default(),
        )
        .unwrap();
        for (v, got) in out.outputs.iter().enumerate() {
            let v = v as u32;
            let expect_from = |u: u32| (u ^ 0xABCD, 0xDEAD_BEEF_0000_0000 | u as u64);
            let mut want = vec![expect_from((v + 5) % 6), expect_from((v + 1) % 6)];
            want.sort_unstable();
            let mut got = got.clone();
            got.sort_unstable();
            assert_eq!(got, want, "node {v}");
        }
        assert_eq!(out.stats.max_message_bits, 96);
    }
}
