//! Property-based tests for the CONGEST engine: message conservation,
//! determinism across execution modes, metering consistency for
//! arbitrary (randomized) chatter protocols, and the **differential
//! harness** — the live engine held to the seed-style reference
//! interpreter over sparse/dense/mixed traffic × fault plans × shard
//! counts, with the sparse fast path forced both on and off, asserting
//! bit-identical inboxes (via the inbox-folding outputs) and identical
//! per-arc congestion meters.

use congest_graph::{Graph, GraphBuilder, Node};
use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineOutcome, BaselineProtocol};
use congest_sim::rng::node_rng;
use congest_sim::sched::{random_delays, Multiplexed};
use congest_sim::{
    check_quiescent, run_protocol, EngineConfig, FaultPlan, NodeCtx, Protocol, RunOutcome,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

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

/// A protocol that sends random subsets of ports random payloads for a
/// fixed number of rounds, counting everything it receives.
struct RandomChatter {
    rounds: u64,
    sent: u64,
    received: u64,
}

impl Protocol for RandomChatter {
    type Msg = u64;
    type Output = (u64, u64); // (sent, received)

    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.received += ctx.inbox_len() as u64;
        if ctx.round < self.rounds {
            for p in 0..ctx.degree() as u32 {
                if ctx.rng().gen_bool(0.5) {
                    let payload: u64 = ctx.rng().gen();
                    ctx.send(p, payload);
                    self.sent += 1;
                }
            }
        } else {
            ctx.set_done(true);
        }
    }

    fn finish(self) -> (u64, u64) {
        (self.sent, self.received)
    }
}

/// Traffic profiles for [`MixedChatter`]: which regime of the engine the
/// round-by-round action distribution exercises.
const PROFILE_SPARSE: u8 = 0;
const PROFILE_DENSE: u8 = 1;
const PROFILE_MIXED: u8 = 2;

/// A protocol that randomly mixes `send_all` (the broadcast plane),
/// per-port `send` (the arc scatter plane), and silence — the oracle
/// workload for the merged inbox. Receivers fold everything they hear.
/// The profile shapes the distribution (sparse trickle / dense saturation
/// / the original mix) while keeping the RNG call pattern identical, so
/// every engine sees the same per-node random stream.
struct MixedChatter {
    rounds: u64,
    sent: u64,
    heard: u64,
    profile: u8,
}

impl MixedChatter {
    /// Shared round body against any context (closures abstract the
    /// engines' APIs). Exactly two RNG draws per active round, in every
    /// profile and branch, so the streams stay aligned across engines.
    fn drive(
        &mut self,
        round: u64,
        degree: usize,
        inbox_fold: u64,
        inbox_count: u64,
        rng: &mut SmallRng,
    ) -> MixedAction {
        self.heard = self
            .heard
            .wrapping_mul(31)
            .wrapping_add(inbox_fold)
            .wrapping_add(inbox_count);
        if round >= self.rounds {
            return MixedAction::Quiet;
        }
        let a = rng.gen_range(0..16u32);
        let m: u64 = rng.gen();
        match self.profile {
            PROFILE_SPARSE => {
                // Mostly silence; occasional thin port masks; rare
                // broadcasts (small plane folds, which list their
                // receivers).
                if a == 0 {
                    self.sent += degree as u64;
                    MixedAction::Broadcast(m)
                } else if a < 4 {
                    MixedAction::Ports(m & m.rotate_left(17) & m.rotate_left(31))
                } else {
                    MixedAction::Quiet
                }
            }
            PROFILE_DENSE => {
                // Every node talks every round: broadcast or all ports.
                if a < 8 {
                    self.sent += degree as u64;
                    MixedAction::Broadcast(m)
                } else {
                    MixedAction::Ports(!0)
                }
            }
            _ => {
                if a < 4 {
                    self.sent += degree as u64;
                    MixedAction::Broadcast(m)
                } else if a < 12 {
                    MixedAction::Ports(m)
                } else {
                    MixedAction::Quiet
                }
            }
        }
    }
}

enum MixedAction {
    Broadcast(u64),
    /// Bitmask of ports to send distinct payloads on.
    Ports(u64),
    Quiet,
}

impl Protocol for MixedChatter {
    type Msg = u64;
    type Output = (u64, u64);
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let fold = ctx.inbox().fold(0u64, |a, (p, m)| {
            a.wrapping_mul(17).wrapping_add(m ^ p as u64)
        });
        let count = ctx.inbox_len() as u64;
        let deg = ctx.degree();
        match self.drive(ctx.round, deg, fold, count, ctx.rng()) {
            MixedAction::Broadcast(m) => ctx.send_all(m),
            MixedAction::Ports(mask) => {
                for p in 0..deg.min(64) as u32 {
                    if mask >> p & 1 == 1 {
                        ctx.send(p, mask.wrapping_add(p as u64));
                        self.sent += 1;
                    }
                }
            }
            MixedAction::Quiet => {}
        }
        ctx.set_done(ctx.round >= self.rounds);
    }
    fn finish(self) -> (u64, u64) {
        (self.sent, self.heard)
    }
}

/// The reference arm of the harness: the baseline context has no
/// engine-provided RNG, so this wrapper carries the node's own
/// [`node_rng`] stream — seeded exactly as the packed engine seeds its
/// own, so both arms draw identical per-node randomness.
struct BaselineMixed {
    inner: MixedChatter,
    rng: SmallRng,
}

impl BaselineProtocol for BaselineMixed {
    type Msg = u64;
    type Output = (u64, u64);
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let fold = ctx.inbox().fold(0u64, |a, (p, &m)| {
            a.wrapping_mul(17).wrapping_add(m ^ p as u64)
        });
        let count = ctx.inbox_len() as u64;
        let deg = ctx.degree();
        match self.inner.drive(ctx.round, deg, fold, count, &mut self.rng) {
            MixedAction::Broadcast(m) => ctx.send_all(m),
            MixedAction::Ports(mask) => {
                for p in 0..deg.min(64) as u32 {
                    if mask >> p & 1 == 1 {
                        ctx.send(p, mask.wrapping_add(p as u64));
                        self.inner.sent += 1;
                    }
                }
            }
            MixedAction::Quiet => {}
        }
        let done = ctx.round >= self.inner.rounds;
        ctx.set_done(done);
    }
    fn finish(self) -> (u64, u64) {
        (self.inner.sent, self.inner.heard)
    }
}

/// [`MixedChatter`] on the reference interpreter: what every live
/// configuration below must reproduce bit for bit.
fn reference(
    g: &Graph,
    seed: u64,
    mk: impl Fn() -> MixedChatter,
    faults: Option<FaultPlan>,
) -> BaselineOutcome<(u64, u64)> {
    run_baseline::<BaselineMixed, _>(
        g,
        |v, _| BaselineMixed {
            inner: mk(),
            rng: node_rng(seed, v),
        },
        10_000,
        faults,
    )
}

/// Every node broadcasts a `(u32, u64)` pair every round and folds all
/// it hears: `send_all` on the `u128` slab, the pipelined-broadcast
/// message shape.
struct PairChatter {
    rounds: u64,
    heard: u64,
}

impl Protocol for PairChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (p, (id, m))| {
            a.wrapping_mul(31).wrapping_add(m ^ id as u64 ^ p as u64)
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

/// Sub-protocol `i` of `k` under [`Multiplexed`]: speaks on virtual
/// rounds ≡ `i` (mod `k`), so the port queues work every round while
/// their depth stays bounded.
struct RotChatter {
    k: u64,
    i: u64,
    until: u64,
    acc: u64,
}

impl Protocol for RotChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.round < self.until && ctx.round % self.k == self.i {
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(ctx.round >= self.until);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// A `QUIESCENT` rumor with every kind of traffic the list has to carry:
/// the source announces with `send_all`, a node that hears the rumor for
/// the first time relays on a random subset of its ports (per-port sends,
/// RNG drawn only on arrival), later arrivals are folded and not relayed,
/// and the source stays not-done, pulsing one port a round, until round
/// `linger`. Everyone else is done from round 0 on.
struct SparseRumor {
    source: bool,
    linger: u64,
    heard: u64,
    acc: u64,
}

impl SparseRumor {
    fn new(source: bool, linger: u64) -> Self {
        SparseRumor {
            source,
            linger,
            heard: u64::MAX,
            acc: 0,
        }
    }
}

impl Protocol for SparseRumor {
    type Msg = u64;
    type Output = (u64, u64);
    /// Done and no mail: neither branch below is taken.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let (fold, count) = ctx.inbox().fold((self.acc, 0u64), |(a, c), (p, m)| {
            (a.wrapping_mul(17).wrapping_add(m ^ p as u64), c + 1)
        });
        self.acc = fold;
        if self.source {
            if ctx.round == 0 {
                self.heard = 0;
                ctx.send_all(1);
            } else if ctx.round < self.linger && ctx.degree() > 0 {
                ctx.send((ctx.round % ctx.degree() as u64) as u32, ctx.round);
            }
            ctx.set_done(ctx.round >= self.linger);
            return;
        }
        if count > 0 && self.heard == u64::MAX {
            self.heard = ctx.round;
            let mask: u64 = ctx.rng().gen::<u64>() | 1;
            for p in 0..ctx.degree().min(64) as u32 {
                if mask >> p & 1 == 1 {
                    ctx.send(p, self.acc | 1);
                }
            }
        }
        ctx.set_done(true);
    }
    fn finish(self) -> (u64, u64) {
        (self.heard, self.acc)
    }
}

/// Not quiescent, and says so: node 0 keeps the run alive, silent and
/// not done, until round `at + 2`; every other node is done from round 0
/// on and, with an empty inbox, sends its id on port 0 at round `at`. An
/// engine that skipped done nodes with empty inboxes here would lose
/// those messages.
struct LateSender {
    at: u64,
    heard: u64,
}

impl LateSender {
    fn step(&mut self, node: Node, round: u64, fold: u64) -> (bool, bool) {
        self.heard = self.heard.wrapping_add(fold);
        (
            node != 0 && round == self.at,
            node != 0 || round >= self.at + 2,
        )
    }
}

impl Protocol for LateSender {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let fold = ctx
            .inbox()
            .fold(0u64, |a, (p, m)| a.wrapping_add(m ^ p as u64));
        let (send, done) = self.step(ctx.node, ctx.round, fold);
        if send && ctx.degree() > 0 {
            ctx.send(0, ctx.node as u64 + 1);
        }
        ctx.set_done(done);
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

impl BaselineProtocol for LateSender {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let fold = ctx
            .inbox()
            .fold(0u64, |a, (p, &m)| a.wrapping_add(m ^ p as u64));
        let (send, done) = self.step(ctx.node, ctx.round, fold);
        if send && ctx.degree() > 0 {
            ctx.send(0, ctx.node as u64 + 1);
        }
        ctx.set_done(done);
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

/// What a [`ReadPaths`] node says in one round.
enum Say {
    All(u64),
    /// Per-port sends on the ports [`ReadPaths::picks`] names.
    Ports(u64),
    Nothing,
}

/// The inbox read paths held to each other and to the reference
/// interpreter: every node, every round, either `send_all`s, per-port
/// `send`s to a seeded subset of its ports, or stays silent, so one
/// occupancy word of a receiver mixes slab words, broadcast-plane words
/// and gaps. Every third round is thin, so the `send_all`s of the round
/// after it scatter and that round's inboxes are read with no plane.
/// The live arm reads its inbox every way [`NodeCtx`] offers and asserts
/// they agree; both arms digest what they heard.
struct ReadPaths {
    rounds: u64,
    digest: u64,
}

impl ReadPaths {
    /// Two RNG draws per talking round on either engine.
    fn say(&self, round: u64, rng: &mut SmallRng) -> Say {
        if round >= self.rounds {
            return Say::Nothing;
        }
        let a = rng.gen_range(0..8u32);
        let m: u64 = rng.gen();
        let (all, ports) = if round % 3 == 2 { (1, 2) } else { (3, 6) };
        if a < all {
            Say::All(m)
        } else if a < ports {
            Say::Ports(m)
        } else {
            Say::Nothing
        }
    }

    /// Is port `p` in the subset `m` seeds? (Degrees here pass 64.)
    fn picks(m: u64, p: u32) -> bool {
        (m ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).count_ones() & 1 == 1
    }

    fn hear(&mut self, heard: impl Iterator<Item = (u32, u64)>) {
        self.digest = heard.fold(self.digest.rotate_left(9) ^ 0xC0FFEE, |d, (p, m)| {
            d.wrapping_mul(0x100_0000_01B3).wrapping_add(m ^ p as u64)
        });
    }
}

impl Protocol for ReadPaths {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let at = format!("node {} round {}", ctx.node, ctx.round);
        let mut by_next = Vec::new();
        let mut it = ctx.inbox();
        #[allow(clippy::while_let_on_iterator)] // `next`, not whatever `for` may pick
        while let Some(item) = it.next() {
            by_next.push(item);
        }
        let by_fold = ctx.inbox().fold(Vec::new(), |mut v, item| {
            v.push(item);
            v
        });
        assert_eq!(by_fold, by_next, "fold vs next, {at}");
        for j in 0..=by_next.len() {
            let mut it = ctx.inbox();
            let mut got: Vec<(u32, u64)> = (0..j).map(|_| it.next().unwrap()).collect();
            got = it.fold(got, |mut v, item| {
                v.push(item);
                v
            });
            assert_eq!(got, by_next, "{j} by next, then fold, {at}");
        }
        assert_eq!(ctx.inbox_len(), by_next.len(), "inbox_len, {at}");
        let ports: Vec<u32> = by_next.iter().map(|&(p, _)| p).collect();
        assert!(
            ports.windows(2).all(|w| w[0] < w[1])
                && ports.iter().all(|&p| (p as usize) < ctx.degree()),
            "ports ascending and in range, {at}"
        );
        self.hear(by_next.into_iter());
        match self.say(ctx.round, ctx.rng()) {
            Say::All(m) => ctx.send_all(m),
            Say::Ports(m) => {
                for p in (0..ctx.degree() as u32).filter(|&p| Self::picks(m, p)) {
                    ctx.send(p, m.wrapping_add(p as u64));
                }
            }
            Say::Nothing => {}
        }
        ctx.set_done(ctx.round >= self.rounds);
    }
    fn finish(self) -> u64 {
        self.digest
    }
}

/// [`ReadPaths`] on the reference interpreter, carrying the node's own
/// RNG stream as [`BaselineMixed`] does.
struct BaselineReadPaths {
    inner: ReadPaths,
    rng: SmallRng,
}

impl BaselineProtocol for BaselineReadPaths {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let heard: Vec<(u32, u64)> = ctx.inbox().map(|(p, &m)| (p, m)).collect();
        self.inner.hear(heard.into_iter());
        match self.inner.say(ctx.round, &mut self.rng) {
            Say::All(m) => ctx.send_all(m),
            Say::Ports(m) => {
                for p in (0..ctx.degree() as u32).filter(|&p| ReadPaths::picks(m, p)) {
                    ctx.send(p, m.wrapping_add(p as u64));
                }
            }
            Say::Nothing => {}
        }
        let done = ctx.round >= self.inner.rounds;
        ctx.set_done(done);
    }
    fn finish(self) -> u64 {
        self.inner.digest
    }
}

/// Thresholds the differential harness and the shard sweep pin: fast
/// path off (`0`), fast path forced for every scattering round
/// (`usize::MAX`), and the default heuristic.
const THRESHOLDS: [Option<usize>; 3] = [Some(0), Some(usize::MAX), None];

/// One protocol through the shard sweep: at every shard count, runs on a
/// one-lane pool at each of [`THRESHOLDS`] and forked runs at two pool
/// widths must reproduce the one-shard run — outputs, stats, trace and
/// per-edge congestion.
fn shard_sweep<P, F>(what: &str, g: &Graph, seed: u64, make: F)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(Node, &Graph) -> P,
{
    let run = |cfg: EngineConfig| run_protocol(g, &make, cfg.trace()).unwrap();
    let reference = run(EngineConfig::with_seed(seed).shards(1));
    assert!(reference.stats.total_messages > 0, "{what}: no traffic");
    let check = |live: RunOutcome<P::Output>, at: String| {
        assert_eq!(live.outputs, reference.outputs, "{what}: {at}");
        assert_eq!(live.stats, reference.stats, "{what}: {at}");
        assert_eq!(live.trace, reference.trace, "{what}: {at}");
        assert_eq!(
            live.edge_congestion, reference.edge_congestion,
            "{what}: {at}"
        );
    };
    for shards in [1usize, 2, 5, 8, 64] {
        for thr in THRESHOLDS {
            let mut cfg = EngineConfig::with_seed(seed).shards(shards);
            cfg.sparse_threshold = thr;
            let serial = congest_par::with_threads(1, || run(cfg));
            check(serial, format!("serial shards={shards} thr={thr:?}"));
        }
        for threads in [2usize, 4] {
            let par = congest_par::with_threads(threads, || {
                run(EngineConfig::with_seed(seed).shards(shards))
            });
            check(par, format!("threads={threads} shards={shards}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The broadcast-plane oracle: random mixes of `send_all`, per-port
    /// `send`, and silence must produce results and stats **identical to
    /// the reference interpreter** (which has no broadcast plane at all),
    /// in serial and parallel.
    #[test]
    fn mixed_broadcast_traffic_matches_baseline(
        g in arb_connected_graph(24),
        seed in any::<u64>(),
    ) {
        let mk = || MixedChatter { rounds: 9, sent: 0, heard: 0, profile: PROFILE_MIXED };
        let base = reference(&g, seed, mk, None);
        let live = run_protocol(&g, |_, _| mk(), EngineConfig::with_seed(seed).trace()).unwrap();
        prop_assert_eq!(&live.outputs, &base.outputs);
        prop_assert_eq!(live.stats, base.stats);
        prop_assert_eq!(live.trace.as_ref(), Some(&base.trace));
        let par = congest_par::with_threads(4, || {
            run_protocol(
                &g,
                |_, _| mk(),
                EngineConfig::with_seed(seed).shards(5).trace(),
            )
            .unwrap()
        });
        prop_assert_eq!(&par.outputs, &base.outputs);
        prop_assert_eq!(par.stats, base.stats);
    }

    /// Same oracle on graphs wide enough for several node words per
    /// shard, forked (the shard count is pinned): the sharded parallel
    /// broadcast fold must match the reference interpreter bit-for-bit.
    #[test]
    fn mixed_broadcast_traffic_matches_baseline_parallel(
        n in 256usize..330,
        seed in any::<u64>(),
    ) {
        let g = congest_graph::generators::harary(8, n);
        let mk = || MixedChatter { rounds: 8, sent: 0, heard: 0, profile: PROFILE_MIXED };
        let base = reference(&g, seed, mk, None);
        for threads in [2usize, 4] {
            let par = congest_par::with_threads(threads, || {
                run_protocol(
                    &g,
                    |_, _| mk(),
                    EngineConfig::with_seed(seed).shards(2 * threads).trace(),
                )
                .unwrap()
            });
            prop_assert_eq!(&par.outputs, &base.outputs, "threads {}", threads);
            prop_assert_eq!(par.stats, base.stats, "threads {}", threads);
            prop_assert_eq!(par.trace.as_ref(), Some(&base.trace), "threads {}", threads);
        }
    }

    /// Conservation: every sent message is delivered exactly once (no
    /// faults configured), and the engine's totals agree with the nodes'
    /// own counts.
    #[test]
    fn message_conservation(g in arb_connected_graph(20), seed in any::<u64>()) {
        let out = run_protocol(
            &g,
            |_, _| RandomChatter { rounds: 6, sent: 0, received: 0 },
            EngineConfig::with_seed(seed),
        )
        .unwrap();
        let sent: u64 = out.outputs.iter().map(|&(s, _)| s).sum();
        let received: u64 = out.outputs.iter().map(|&(_, r)| r).sum();
        prop_assert_eq!(sent, received);
        prop_assert_eq!(out.stats.total_messages, sent);
        prop_assert_eq!(out.stats.dropped_messages, 0);
    }

    /// Bit-identical results across parallel and serial stepping, for
    /// protocols that use per-node randomness.
    #[test]
    fn parallel_serial_identical(g in arb_connected_graph(16), seed in any::<u64>()) {
        // Forked: a pinned shard count forks at any size on a real pool.
        let par = congest_par::with_threads(4, || {
            run_protocol(
                &g,
                |_, _| RandomChatter { rounds: 5, sent: 0, received: 0 },
                EngineConfig::with_seed(seed).shards(3),
            )
        })
        .unwrap();
        let ser = run_protocol(
            &g,
            |_, _| RandomChatter { rounds: 5, sent: 0, received: 0 },
            EngineConfig::with_seed(seed),
        )
        .unwrap();
        prop_assert_eq!(par.outputs, ser.outputs);
        prop_assert_eq!(par.stats, ser.stats);
    }

    /// Congestion metering: the max per-edge count can never exceed
    /// 2 × rounds, and total messages bound congestion from above.
    #[test]
    fn congestion_bounds(g in arb_connected_graph(16), seed in any::<u64>()) {
        let rounds = 5u64;
        let out = run_protocol(
            &g,
            |_, _| RandomChatter { rounds, sent: 0, received: 0 },
            EngineConfig::with_seed(seed),
        )
        .unwrap();
        prop_assert!(out.stats.max_edge_congestion <= 2 * rounds);
        prop_assert!(out.stats.max_edge_congestion <= out.stats.total_messages);
    }

    /// Trace sums to the total and never exceeds the arc capacity.
    #[test]
    fn trace_consistency(g in arb_connected_graph(16), seed in any::<u64>()) {
        let out = run_protocol(
            &g,
            |_, _| RandomChatter { rounds: 4, sent: 0, received: 0 },
            EngineConfig::with_seed(seed).trace(),
        )
        .unwrap();
        let trace = out.trace.unwrap();
        prop_assert_eq!(trace.iter().sum::<u64>(), out.stats.total_messages);
        let cap = g.num_arcs() as u64;
        prop_assert!(trace.iter().all(|&t| t <= cap));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline determinism guarantee of the packed engine: serial and
    /// forked execution — at several pool widths, on the shard count the
    /// default config derives from the width (pinned here, because these
    /// graphs sit far below `FORK_MIN_ARCS` and an unpinned phase would run
    /// serially; `engine::tests::parallel_and_serial_agree` is the unpinned
    /// case at the gate) — must produce byte-identical outputs, stats,
    /// *and* traces on random Harary graphs over arbitrary seeds, n, and δ.
    #[test]
    fn parallel_serial_identical_above_threshold(
        n in 256usize..400,
        half_delta in 2usize..6,
        seed in any::<u64>(),
    ) {
        let g = congest_graph::generators::harary(2 * half_delta, n);
        let run = |cfg: EngineConfig| {
            run_protocol(
                &g,
                |_, _| RandomChatter { rounds: 8, sent: 0, received: 0 },
                cfg.trace(),
            )
            .unwrap()
        };
        let ser = run(EngineConfig::with_seed(seed));
        for threads in [2usize, 4] {
            let par = congest_par::with_threads(threads, || {
                run(EngineConfig::with_seed(seed).shards(4 * threads))
            });
            prop_assert_eq!(&par.outputs, &ser.outputs, "threads = {}", threads);
            prop_assert_eq!(par.stats, ser.stats, "threads = {}", threads);
            prop_assert_eq!(&par.trace, &ser.trace, "threads = {}", threads);
        }
    }

    /// The sharded deliver+metering plane: byte-identical outputs, stats,
    /// traces and per-edge meters at every (pool width × shard count)
    /// combination and with the sparse fast path forced both ways,
    /// against the one-shard serial reference ([`shard_sweep`]). This is
    /// the determinism contract of the shard-owned round phases, held
    /// (forked, through the pinned shard counts) for each traffic shape
    /// the engine has a path for: random per-port sends, the three [`MixedChatter`]
    /// profiles (`send_all` dense, sparse and mixed, inbox folded and
    /// counted), `send_all` on the `u128` slab, and [`Multiplexed`]'s
    /// `Tagged` words with sub-protocols hosted on local out-slots.
    #[test]
    fn sharded_deliver_identical_at_every_width_and_shard_count(
        n in 256usize..380,
        half_delta in 2usize..6,
        seed in any::<u64>(),
        profile in 0u8..3,
    ) {
        let g = congest_graph::generators::harary(2 * half_delta, n);
        shard_sweep("per-port", &g, seed, |_, _| RandomChatter {
            rounds: 7,
            sent: 0,
            received: 0,
        });
        shard_sweep("mixed", &g, seed, |_, _| MixedChatter {
            rounds: 7,
            sent: 0,
            heard: 0,
            profile,
        });
        shard_sweep("u128 send_all", &g, seed, |_, _| PairChatter { rounds: 7, heard: 1 });
        // k rotating subs under random start delays ≤ 3: all k can land
        // on one phase, so a port queue holds at most k words plus what
        // the delay skew lets overlap.
        let k = 4u64;
        let delays = random_delays(k as usize, 3, seed);
        shard_sweep("multiplexed", &g, seed, |v, gr| {
            let subs = (0..k).map(|i| RotChatter { k, i, until: 12, acc: 1 }).collect();
            Multiplexed::new(subs, &delays, gr.degree(v), 2 * k as usize + 4)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The `QUIESCENT` oracle (`congest_sim::eager`): a run that steps only
    /// the listed nodes equals one that steps everyone — outputs, stats,
    /// trace, per-edge congestion, state hash — on circulants, tori, G(n,p)
    /// and arbitrary connected graphs, fault plans on and off, at shard
    /// counts 1 / 4 / 6 on a two-thread pool and with the sparse path
    /// forced off, forced on and on its heuristic.
    #[test]
    fn quiescent_runs_match_their_eager_twins(
        g in arb_connected_graph(24),
        family in 0u8..4,
        seed in any::<u64>(),
        source_pick in any::<u32>(),
        linger in 0u64..12,
        budget in 0usize..4,
    ) {
        use congest_graph::generators::{gnp_connected, harary, torus2d};
        let g = match family {
            0 => harary(4 + (seed % 3) as usize * 2, 20 + (seed % 17) as usize),
            1 => torus2d(3 + (seed % 4) as usize, 4 + (seed % 5) as usize),
            2 => gnp_connected(12 + (seed % 20) as usize, 0.2, seed),
            _ => g,
        };
        let source = source_pick % g.n() as u32;
        let base = EngineConfig {
            seed,
            faults: (budget > 0).then(|| FaultPlan::new(budget, seed ^ 0xFA17)),
            ..EngineConfig::default()
        };
        let verdict = check_quiescent(&g, |v, _| SparseRumor::new(v == source, linger), &base);
        prop_assert_eq!(verdict, Ok(()));
    }

    /// A protocol that does not declare `QUIESCENT` is stepped every
    /// round, list or no list: its done nodes act on empty inboxes at a
    /// fixed later round, and the reference interpreter sees the same run.
    #[test]
    fn a_protocol_that_is_not_quiescent_is_stepped_every_round(
        g in arb_connected_graph(20),
        at in 1u64..9,
        seed in any::<u64>(),
    ) {
        let base = run_baseline::<LateSender, _>(&g, |_, _| LateSender { at, heard: 0 }, 100, None);
        prop_assert_eq!(base.stats.total_messages, g.n() as u64 - 1);
        for &thr in &THRESHOLDS {
            for shards in [1usize, 4, 6] {
                let live = congest_par::with_threads(2, || {
                    let mut cfg = EngineConfig::with_seed(seed).shards(shards).trace();
                    cfg.sparse_threshold = thr;
                    run_protocol(&g, |_, _| LateSender { at, heard: 0 }, cfg).unwrap()
                });
                prop_assert_eq!(&live.outputs, &base.outputs, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.stats, base.stats, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.trace.as_ref(), Some(&base.trace));
                prop_assert_eq!(&live.edge_congestion, &base.edge_congestion);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The **differential harness**: the live engine (sparse fast path
    /// forced on, forced off, and on its heuristic; several shard counts;
    /// serial and parallel) vs the seed-style reference interpreter, over
    /// sparse, dense, and mixed traffic. Inboxes must be bit-identical
    /// (the outputs fold every delivered `(port, message)` pair) and the
    /// per-arc congestion meters must agree edge for edge, not just in
    /// their max.
    #[test]
    fn differential_harness(
        g in arb_connected_graph(22),
        seed in any::<u64>(),
        profile in 0u8..3,
    ) {
        let mk = || MixedChatter { rounds: 8, sent: 0, heard: 0, profile };
        let base = reference(&g, seed, mk, None);
        for &thr in &THRESHOLDS {
            for &shards in &[1usize, 5] {
                let mut cfg = EngineConfig::with_seed(seed).shards(shards).trace();
                cfg.sparse_threshold = thr;
                let live =
                    congest_par::with_threads(1, || run_protocol(&g, |_, _| mk(), cfg).unwrap());
                prop_assert_eq!(&live.outputs, &base.outputs, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.stats, base.stats, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.trace.as_ref(), Some(&base.trace),
                    "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(&live.edge_congestion, &base.edge_congestion,
                    "per-edge meters: thr={:?} shards={}", thr, shards);
            }
            // One parallel run per threshold (pool width 4, 6 shards).
            let par = congest_par::with_threads(4, || {
                let mut cfg = EngineConfig::with_seed(seed).shards(6).trace();
                cfg.sparse_threshold = thr;
                run_protocol(&g, |_, _| mk(), cfg).unwrap()
            });
            prop_assert_eq!(&par.outputs, &base.outputs, "parallel thr={:?}", thr);
            prop_assert_eq!(par.stats, base.stats, "parallel thr={:?}", thr);
            prop_assert_eq!(&par.edge_congestion, &base.edge_congestion,
                "parallel per-edge meters thr={:?}", thr);
        }
    }

    /// The faulted wing of the harness: the same profiles under a mobile
    /// edge adversary (which demotes a plane broadcaster behind a blocked
    /// edge to per-arc staging), against the reference
    /// interpreter under the same plan — identical drops and per-edge
    /// meters with the fast path forced both ways, serial and parallel.
    #[test]
    fn differential_harness_faulted(
        g in arb_connected_graph(20),
        seed in any::<u64>(),
        profile in 0u8..3,
        budget in 1usize..4,
        fseed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(budget, fseed);
        let mk = || MixedChatter { rounds: 8, sent: 0, heard: 0, profile };
        let base = reference(&g, seed, mk, Some(plan));
        for &thr in &THRESHOLDS {
            for &shards in &[1usize, 4] {
                let mut cfg = EngineConfig::with_seed(seed).shards(shards).trace().with_faults(plan);
                cfg.sparse_threshold = thr;
                let live =
                    congest_par::with_threads(1, || run_protocol(&g, |_, _| mk(), cfg).unwrap());
                prop_assert_eq!(&live.outputs, &base.outputs, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.stats, base.stats, "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(live.trace.as_ref(), Some(&base.trace),
                    "thr={:?} shards={}", thr, shards);
                prop_assert_eq!(&live.edge_congestion, &base.edge_congestion,
                    "per-edge meters: thr={:?} shards={}", thr, shards);
            }
            // One parallel run per threshold, as in the unfaulted wing.
            let par = congest_par::with_threads(4, || {
                let mut cfg = EngineConfig::with_seed(seed).shards(6).trace().with_faults(plan);
                cfg.sparse_threshold = thr;
                run_protocol(&g, |_, _| mk(), cfg).unwrap()
            });
            prop_assert_eq!(&par.outputs, &base.outputs, "parallel thr={:?}", thr);
            prop_assert_eq!(par.stats, base.stats, "parallel thr={:?}", thr);
            prop_assert_eq!(&par.edge_congestion, &base.edge_congestion,
                "parallel per-edge meters thr={:?}", thr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every way a node can read its inbox — `next`, `fold`, any number of
    /// `next`s then `fold`, `inbox_len` — yields the same messages in the
    /// same order, and they are the reference interpreter's, on graphs
    /// whose arc ranges start at odd offsets and straddle occupancy words:
    /// degree 69 throughout, degree 6 across the word seams, a 130-port hub
    /// at offset 5 among one-port leaves, and a clique chain's mixed
    /// degrees.
    #[test]
    fn inbox_read_paths_agree_at_every_alignment(seed in any::<u64>()) {
        use congest_graph::generators::{clique_chain, complete, harary};
        let mut star = GraphBuilder::new(131);
        for v in (0..131).filter(|&v| v != 5) {
            star.push_edge(5, v);
        }
        let graphs = [
            complete(70),
            harary(6, 40),
            star.build().unwrap(),
            clique_chain(3, 9, 2),
        ];
        for g in &graphs {
            let mk = || ReadPaths { rounds: 8, digest: 0 };
            let base = run_baseline::<BaselineReadPaths, _>(
                g,
                |v, _| BaselineReadPaths { inner: mk(), rng: node_rng(seed, v) },
                100,
                None,
            );
            let live = run_protocol(g, |_, _| mk(), EngineConfig::with_seed(seed)).unwrap();
            prop_assert_eq!(&live.outputs, &base.outputs, "n = {}", g.n());
            prop_assert_eq!(live.stats, base.stats, "n = {}", g.n());
        }
    }
}

/// Node 0 sends on port 0 and then broadcasts, in one round.
struct SendThenBroadcast;

impl Protocol for SendThenBroadcast {
    type Msg = u32;
    type Output = ();
    fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
        if ctx.round == 0 && ctx.node == 0 {
            ctx.send(0, 1);
            ctx.send_all(2);
        }
        ctx.set_done(true);
    }
    fn finish(self) {}
}

/// A `send_all` after a `send` would book port 0 twice in one round; it
/// panics in every build, as the reverse order does.
#[test]
#[should_panic(expected = "broadcast after sending")]
fn a_broadcast_after_a_send_panics() {
    let g = congest_graph::generators::cycle(8);
    let _ = run_protocol(&g, |_, _| SendThenBroadcast, EngineConfig::default());
}

/// The same on a multiplexed node's own plane, where `send_all` scatters.
#[test]
#[should_panic(expected = "broadcast after sending")]
fn a_multiplexed_broadcast_after_a_send_panics() {
    let g = congest_graph::generators::cycle(8);
    let _ = run_protocol(
        &g,
        |_, gr| Multiplexed::new(vec![SendThenBroadcast], &[0], gr.degree(0), 4),
        EngineConfig::default(),
    );
}
