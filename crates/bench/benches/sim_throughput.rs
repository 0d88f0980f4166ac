//! Engine-throughput bench. Sections, in run order:
//!
//! 1. **Shard scaling** — the live engine's ns-per-round curve at
//!    1/2/4/8 shards, `n = 10^6`, on dense, sparse, and multiplexed
//!    traffic; every timed configuration is first cross-checked against
//!    the one-shard serial run at a small scale.
//! 2. **Churn repair**, **wide batch**, **wide tail**, **serve** — each a
//!    ratio against a cross-checked arm with a `REGRESSION-MARKER` gate.
//! 3. **Packed plane vs. seed engine** — the packed message plane against
//!    the seed-style `Vec<Option<Msg>>` reference interpreter
//!    ([`congest_sim::baseline`]); full runs only.
//!
//! Workloads that race the reference interpreter implement its trait
//! alongside the live one with identical logic, so measured differences
//! are pure engine. Results are printed as criterion-style lines and
//! exported to `BENCH_sim.json` at the workspace root. End-to-end numbers
//! (Theorem 1 wall clock, serve jobs/s) live in `benchmark/`, measured
//! against the parent commit; the arms this file used to race inside one
//! binary are recorded in DESIGN.md, "Retired comparison arms".
//!
//! **Smoke mode** (`SIM_BENCH_SMOKE=1`): shrinks every dimension so CI can
//! execute the whole bench in seconds. Smoke runs keep all cross-checks
//! (panicking on any disagreement), print `REGRESSION-MARKER` if a gated
//! ratio falls below its bar, and do **not** rewrite `BENCH_sim.json`.

use congest_graph::generators::{complete, harary};
use congest_graph::{Graph, Node};
use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
use congest_sim::sched::{random_delays, Multiplexed};
use congest_sim::{run_protocol, EngineConfig, NodeCtx, Protocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::fmt::Write as _;
use std::time::Instant;

const ROUNDS: u64 = 200;

fn smoke() -> bool {
    std::env::var("SIM_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Dense traffic: every node sends a 64-bit counter on every port, every
/// round — the worst case for both planes (all arcs occupied).
#[derive(Clone)]
struct DenseChatter {
    acc: u64,
    until: u64,
}

impl DenseChatter {
    fn new(until: u64) -> Self {
        DenseChatter { acc: 1, until }
    }

    fn step(&mut self, round: u64, inbox_sum: u64) -> Option<u64> {
        self.acc = self.acc.wrapping_add(inbox_sum);
        (round < self.until).then_some(self.acc.wrapping_add(round))
    }
}

impl Protocol for DenseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        match self.step(ctx.round, sum) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for DenseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, &m)| m).fold(0u64, u64::wrapping_add);
        match self.step(ctx.round, sum) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Sparse traffic: ~1/16 of the nodes speak each round — the regime the
/// occupancy bitset is built for (quiescent arcs cost one bit, not an
/// `Option` clear + scan).
#[derive(Clone)]
struct SparseChatter {
    node: u32,
    acc: u64,
    until: u64,
}

impl SparseChatter {
    fn new(node: u32, until: u64) -> Self {
        SparseChatter {
            node,
            acc: 1,
            until,
        }
    }

    fn speaks(&self, round: u64) -> bool {
        (self.node as u64).wrapping_add(round).is_multiple_of(16)
    }
}

impl Protocol for SparseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                ctx.send_all(self.acc | 1);
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for SparseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, &m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                ctx.send_all(self.acc | 1);
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Truly sparse **per-port** traffic: ~1/128 of the nodes speak each
/// round, each on two rotating ports — the regime the engine's worklist
/// fast path owns (staged totals far below the sparse threshold, so the
/// deliver phase is O(traffic) instead of O(arcs)).
#[derive(Clone)]
struct SparsePorts {
    node: u32,
    acc: u64,
    until: u64,
}

impl SparsePorts {
    fn new(node: u32, until: u64) -> Self {
        SparsePorts {
            node,
            acc: 1,
            until,
        }
    }

    fn speaks(&self, round: u64) -> bool {
        (self.node as u64).wrapping_add(round).is_multiple_of(128)
    }

    fn ports(&self, round: u64, deg: usize) -> (u32, u32) {
        let p1 = (round % deg as u64) as u32;
        let p2 = ((round + deg as u64 / 2) % deg as u64) as u32;
        (p1, p2)
    }
}

impl Protocol for SparsePorts {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                let (p1, p2) = self.ports(ctx.round, ctx.degree());
                ctx.send(p1, self.acc | 1);
                if p2 != p1 {
                    ctx.send(p2, self.acc | 3);
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Dense wave traffic: every node broadcasts every round and reacts to
/// *presence* (inbox population count) rather than reading every payload —
/// the traffic shape of the paper's flooding waves and pipelined
/// broadcasts. This is the pattern the engine's broadcast plane makes
/// O(1) per sender.
#[derive(Clone)]
struct DenseWave {
    acc: u64,
    until: u64,
}

impl DenseWave {
    fn new(until: u64) -> Self {
        DenseWave { acc: 1, until }
    }

    fn step(&mut self, round: u64, inbox_len: u64) -> Option<u64> {
        self.acc = self.acc.wrapping_add(inbox_len).rotate_left(1);
        (round < self.until).then_some(self.acc | 1)
    }
}

impl Protocol for DenseWave {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        match self.step(ctx.round, ctx.inbox_len() as u64) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Wide dense broadcast: the pipelined-broadcast message shape — 96-bit
/// `(id, payload)` pairs in `u128` slabs — broadcast by every node every
/// round and fully read by receivers.
#[derive(Clone)]
struct WideBcast {
    node: u32,
    acc: u64,
    until: u64,
}

impl WideBcast {
    fn new(node: u32, until: u64) -> Self {
        WideBcast {
            node,
            acc: 1,
            until,
        }
    }

    fn step(&mut self, round: u64, inbox_fold: u64) -> Option<(u32, u64)> {
        self.acc = self.acc.wrapping_add(inbox_fold);
        (round < self.until).then_some((self.node, self.acc))
    }
}

impl Protocol for WideBcast {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        let fold = ctx
            .inbox()
            .fold(0u64, |a, (_, (id, p))| a.wrapping_add(id as u64 ^ p));
        match self.step(ctx.round, fold) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Multiplexed-dense traffic: `k` rotating chatter sub-protocols per node
/// (sub `i` speaks on virtual rounds ≡ `i` mod `k`), hosted by the
/// random-delay scheduler — the workload that exercises port queues every
/// round while keeping their depth bounded.
#[derive(Clone)]
struct RotChatter {
    k: u64,
    i: u64,
    until: u64,
    acc: u64,
}

impl RotChatter {
    fn step(&mut self, round: u64, inbox_sum: u64) -> Option<u64> {
        self.acc = self.acc.wrapping_add(inbox_sum);
        (round < self.until && round % self.k == self.i).then_some(self.acc | 1)
    }

    fn done(&self, round: u64) -> bool {
        round >= self.until
    }
}

impl Protocol for RotChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        if let Some(m) = self.step(ctx.round, sum) {
            ctx.send_all(m);
        }
        ctx.set_done(self.done(ctx.round));
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Wide 96-bit messages (the broadcast pipeline's `(id, payload)` shape),
/// dense — exercises the `u128` slab.
///
/// The inbox read goes through the engine's internal-iteration `fold`
/// like every other dense workload. This workload originally used an
/// external `for` loop, which was measured ~2.2× slower here: a `for`
/// loop drives `Iterator::next`'s per-item state machine, and on
/// broadcast-heavy rounds that rebuilds the presence word per word
/// advance *and* re-derives the neighbor per item — the fused
/// single-pass scan only exists on the `fold` override. That idiom gap,
/// not the `u128` slab itself, was the whole `wide_u128` deficit
/// (1.41× vs ~3× for the other dense workloads in earlier recordings).
#[derive(Clone)]
struct WideChatter {
    acc: u64,
}

impl Protocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        self.acc = ctx.inbox().fold(self.acc, |a, (_, (id, payload))| {
            a.wrapping_add(id as u64 ^ payload)
        });
        if ctx.round < ROUNDS {
            ctx.send_all((ctx.node, self.acc));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, (u32, u64)>) {
        let node = ctx.node;
        for (_, &(id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            ctx.send_all((node, self.acc));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// The broadcast algorithm's own traffic shape: wide `(id, payload)`
/// messages on a rotating ~1/8 of each node's ports — what pipelined
/// routing over λ′ edge-disjoint trees looks like on the wire.
#[derive(Clone)]
struct PipelineLike {
    node: u32,
    acc: u64,
}

impl PipelineLike {
    fn active(&self, port: u32, round: u64) -> bool {
        (self.node as u64 + port as u64 + round).is_multiple_of(8)
    }
}

impl Protocol for PipelineLike {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        for (_, (id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            for p in 0..ctx.degree() as u32 {
                if self.active(p, ctx.round) {
                    ctx.send(p, (p, self.acc));
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for PipelineLike {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, (u32, u64)>) {
        for (_, &(id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            for p in 0..ctx.degree() as u32 {
                if self.active(p, ctx.round) {
                    ctx.send(p, (p, self.acc));
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Lane-salted QUIESCENT rumor flood for the wide-batch arm: lane `l`'s
/// rumor starts at a lane-dependent source and floods the circulant,
/// each node relaying once in its adoption round. Every node is `done`
/// from round 0 on, so outside the O(degree)-wide frontier a lane's
/// nodes are done-and-silent — the regime where the wide kernel's
/// active-lane word skips the node step outright, while the sequential
/// engine still pays one step call per node per round. This is the
/// "many sparse runs" shape the wide kernel exists for.
#[derive(Clone)]
struct LaneRumor {
    me: u32,
    src: u32,
    heard: bool,
    acc: u64,
}

impl LaneRumor {
    fn new(node: u32, salt: u64, n: usize) -> Self {
        let h = congest_sim::rng::mix64(0xB47C ^ salt);
        LaneRumor {
            me: node,
            src: (h % n as u64) as u32,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for LaneRumor {
    type Msg = u64;
    type Output = u64;
    /// State mutates and sends happen only at round 0 (the source's
    /// announcement) or on message arrival (adoption + relay), so a
    /// done round with an empty inbox is a semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if ctx.round == 0 && self.me == self.src && !self.heard {
            self.heard = true;
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// [`LaneRumor`] with a staggered tail for the wide-tail bench: the
/// rumor floods as usual, then the *source* lingers, pulsing port 0
/// every round until its lane-local round reaches `linger`. Jobs get
/// lingers of very different lengths, so a chunked wide run holds its
/// full width hostage to each chunk's slowest lane — the regime lane
/// compaction (narrowing the sweep) and mid-sweep refill (retired slots
/// keep earning) exist for.
#[derive(Clone)]
struct TailRumor {
    me: u32,
    src: u32,
    linger: u64,
    heard: bool,
    acc: u64,
}

impl TailRumor {
    fn new(node: u32, salt: u64, n: usize, linger: u64) -> Self {
        let h = congest_sim::rng::mix64(0x7A11 ^ salt);
        TailRumor {
            me: node,
            src: (h % n as u64) as u32,
            linger,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for TailRumor {
    type Msg = u64;
    type Output = u64;
    /// Sends and state changes happen only at round 0, on message
    /// arrival, or at the lingering source — which stays not-done until
    /// its pulses stop — so a done round with an empty inbox is a
    /// semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if self.me == self.src {
            if ctx.round == 0 && !self.heard {
                self.heard = true;
                ctx.send_all(self.acc | 1);
            } else if ctx.round < self.linger {
                ctx.send(0, self.acc.wrapping_add(ctx.round) | 1);
            }
            ctx.set_done(ctx.round >= self.linger);
            return;
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

struct Measurement {
    workload: &'static str,
    graph: &'static str,
    arcs: usize,
    packed_serial_ns: u128,
    packed_parallel_ns: u128,
    baseline_ns: u128,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.packed_serial_ns as f64
    }
}

fn best_of<F: FnMut() -> u64>(samples: usize, mut f: F) -> u128 {
    let mut best = u128::MAX;
    let mut sink = 0u64;
    for _ in 0..samples {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos());
    }
    criterion::black_box(sink);
    best
}

fn measure<P>(
    name: &'static str,
    gname: &'static str,
    g: &Graph,
    make: impl Fn(u32) -> P + Copy,
) -> Measurement
where
    P: Protocol<Output = u64> + BaselineProtocol<Output = u64> + Clone,
{
    // Correctness cross-check before timing: both engines must agree.
    let packed = run_protocol(g, |v, _| make(v), EngineConfig::serial()).unwrap();
    let base = run_baseline::<P, _>(g, |v, _| make(v), 10 * ROUNDS, None);
    assert_eq!(
        packed.outputs, base.outputs,
        "{name}/{gname} outputs differ"
    );
    assert_eq!(packed.stats, base.stats, "{name}/{gname} stats differ");

    let samples = 7;
    let packed_serial_ns = best_of(samples, || {
        run_protocol(g, |v, _| make(v), EngineConfig::serial())
            .unwrap()
            .stats
            .total_messages
    });
    let packed_parallel_ns = best_of(samples, || {
        run_protocol(g, |v, _| make(v), EngineConfig::default())
            .unwrap()
            .stats
            .total_messages
    });
    let baseline_ns = best_of(samples, || {
        run_baseline::<P, _>(g, |v, _| make(v), 10 * ROUNDS, None)
            .stats
            .total_messages
    });
    Measurement {
        workload: name,
        graph: gname,
        arcs: g.num_arcs(),
        packed_serial_ns,
        packed_parallel_ns,
        baseline_ns,
    }
}

/// One workload row of the shard-scaling curve: the live engine at
/// several shard counts. All numbers are **ns per round**, measured as
/// the delta between two run horizons so per-node setup (protocol
/// construction, slab allocation) cancels out — the metric is the round
/// loop itself.
struct ScalingRow {
    workload: &'static str,
    graph: String,
    arcs: usize,
    /// `(shards, ns per round)` per shard count, ascending.
    ns_by_shards: Vec<(usize, u128)>,
}

fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for v in vals {
        sum += v.ln();
        count += 1;
    }
    (sum / count.max(1) as f64).exp()
}

/// Pool width the sharded engine gets for a given shard count: one lane
/// per shard, capped at the machine's parallelism (a 1-core runner
/// executes the sharded plane serially — same results, honest numbers).
fn pool_for(shards: usize) -> usize {
    shards.min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One timed configuration of the curve: `make(v, g, until)` on `g` at
/// `shards` shards under the pool width that shard count gets.
fn run_sharded<P, F>(
    g: &Graph,
    shards: usize,
    until: u64,
    make: F,
) -> congest_sim::RunOutcome<P::Output>
where
    P: Protocol,
    F: Fn(Node, &Graph, u64) -> P,
{
    congest_par::with_threads(pool_for(shards), || {
        run_protocol(
            g,
            |v, gr| make(v, gr, until),
            EngineConfig::default().shards(shards),
        )
        .unwrap()
    })
}

/// Cross-check one workload at small scale: every configuration the curve
/// times (shard count × its pool width), and the sparse fast path forced
/// off and on, must reproduce the one-shard serial run bit for bit. That
/// the engine computes the right thing at all is the proptests' job
/// (`proptest_engine.rs` holds it to the reference interpreter).
fn check_sharded<P, F>(workload: &str, g: &Graph, until: u64, make: F)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(Node, &Graph, u64) -> P + Copy,
{
    let run = |cfg: EngineConfig| run_protocol(g, |v, gr| make(v, gr, until), cfg).unwrap();
    let reference = run(EngineConfig::serial().shards(1));
    for shards in SHARD_SWEEP {
        let live = run_sharded(g, shards, until, make);
        assert_eq!(
            live.outputs, reference.outputs,
            "{workload}: {shards} shards"
        );
        assert_eq!(
            live.stats, reference.stats,
            "{workload}: {shards} shards stats"
        );
    }
    for thr in [0usize, usize::MAX] {
        let live = run(EngineConfig::serial().shards(4).sparse_threshold(thr));
        assert_eq!(live.outputs, reference.outputs, "{workload}: thr {thr}");
        assert_eq!(live.stats, reference.stats, "{workload}: thr {thr} stats");
    }
}

/// Time one workload across [`SHARD_SWEEP`]. Sampling is **interleaved
/// across configurations**: every sample pass times each shard count back
/// to back, so slow machine-level drift (DRAM contention on shared hosts
/// moves costs several-fold between minutes) hits all points of a row
/// equally and the curve's *shape* stays meaningful.
fn scaling_row<P, F>(
    workload: &'static str,
    graph: &str,
    g: &Graph,
    (hi, lo, samples): (u64, u64, usize),
    make: F,
) -> ScalingRow
where
    P: Protocol,
    F: Fn(Node, &Graph, u64) -> P + Copy,
{
    let time_once = |shards: usize, until: u64| -> u128 {
        let t = Instant::now();
        criterion::black_box(run_sharded(g, shards, until, make).stats.total_messages);
        t.elapsed().as_nanos()
    };
    let mut best_hi = [u128::MAX; SHARD_SWEEP.len()];
    let mut best_lo = [u128::MAX; SHARD_SWEEP.len()];
    for _ in 0..samples {
        for (ci, &shards) in SHARD_SWEEP.iter().enumerate() {
            best_hi[ci] = best_hi[ci].min(time_once(shards, hi));
            best_lo[ci] = best_lo[ci].min(time_once(shards, lo));
        }
    }
    ScalingRow {
        workload,
        graph: graph.to_string(),
        arcs: g.num_arcs(),
        ns_by_shards: SHARD_SWEEP
            .iter()
            .enumerate()
            .map(|(ci, &s)| {
                let per_round = best_hi[ci].saturating_sub(best_lo[ci]).max(1) / (hi - lo) as u128;
                (s, per_round)
            })
            .collect(),
    }
}

/// The shard-scaling section: each workload is cross-checked at a small
/// scale first (panicking on any mismatch — that is what CI's smoke lane
/// guards), then timed at the big one.
fn bench_shard_scaling() -> Vec<ScalingRow> {
    let (n_big, n_mux, rounds, samples) = if smoke() {
        (60_000usize, 20_000usize, 16u64, 2usize)
    } else {
        (1_000_000usize, 200_000usize, 24u64, 3usize)
    };
    let horizons = (rounds, rounds / 4, samples);
    let mux_k = 4usize;
    // Theorem-12 queue bound for this workload: one sub speaks per phase,
    // at most two land on the same phase after the random delays, so port
    // queues never exceed a few entries (the ring overflow assert, which
    // fires in the small-scale cross-check below, keeps this honest).
    let mux_cap = mux_k;
    let mux_delays = random_delays(mux_k, 3, 0xD31A);
    let mux = |_: Node, gr: &Graph, until: u64| {
        let subs = (0..mux_k as u64)
            .map(|i| RotChatter {
                k: mux_k as u64,
                i,
                until,
                acc: 1,
            })
            .collect();
        Multiplexed::new(subs, &mux_delays, gr.degree(0), mux_cap)
    };
    let dense = |_: Node, _: &Graph, until: u64| DenseChatter::new(until);
    let wave = |_: Node, _: &Graph, until: u64| DenseWave::new(until);
    let wide = |v: Node, _: &Graph, until: u64| WideBcast::new(v, until);
    let sparse = |v: Node, _: &Graph, until: u64| SparseChatter::new(v, until);
    let ports = |v: Node, _: &Graph, until: u64| SparsePorts::new(v, until);

    let g_check = harary(16, 1500);
    let check_rounds = 40u64;
    check_sharded("dense_u64", &g_check, check_rounds, dense);
    check_sharded("dense_wave", &g_check, check_rounds, wave);
    check_sharded("dense_wide_u128", &g_check, check_rounds, wide);
    check_sharded("sparse_u64", &g_check, check_rounds, sparse);
    check_sharded("sparse_ports", &g_check, check_rounds, ports);
    check_sharded("mux_dense", &g_check, check_rounds, mux);

    let gname = format!("harary16_{n_big}");
    let g_dense = harary(16, n_big);
    let gname_mux = format!("harary8_{n_mux}");
    let g_mux = harary(8, n_mux);
    vec![
        scaling_row("dense_u64", &gname, &g_dense, horizons, dense),
        scaling_row("dense_wave", &gname, &g_dense, horizons, wave),
        scaling_row("dense_wide_u128", &gname, &g_dense, horizons, wide),
        scaling_row("sparse_u64", &gname, &g_dense, horizons, sparse),
        scaling_row("sparse_ports", &gname, &g_dense, horizons, ports),
        scaling_row("mux_dense", &gname_mux, &g_mux, horizons, mux),
    ]
}

/// One row of the churn-repair race: a remove batch applied and then
/// re-added at a phase boundary, incremental arm vs full rebuild. Both
/// numbers are **ns per mutation batch** (one `apply_pending`, i.e. one
/// graph splice + engine repair, vs one `GraphBuilder::build` + one
/// `Session::new`).
struct ChurnRepairRow {
    graph: String,
    batch: usize,
    incremental_ns: u128,
    rebuild_ns: u128,
}

impl ChurnRepairRow {
    fn speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.incremental_ns as f64
    }
}

/// Incremental repair vs full rebuild at phase boundaries. The workload
/// alternates a remove batch with the matching re-add batch, so the
/// topology (and therefore every repair's work size) is identical cycle
/// after cycle. The rebuild arm is given its edge lists for free — only
/// `GraphBuilder::build` + `Session::new` are timed — so the comparison
/// is pure construct-vs-repair.
fn bench_churn_repair() -> (Vec<ChurnRepairRow>, f64) {
    use congest_graph::GraphBuilder;
    use congest_sim::{ChurnSession, Mutation, Session};

    let (configs, cycles, samples) = if smoke() {
        (vec![(2_000usize, 16usize)], 2u32, 2usize)
    } else {
        (
            vec![(20_000usize, 16usize), (20_000, 256), (200_000, 64)],
            4u32,
            3usize,
        )
    };
    let mut rows = Vec::new();
    for (n, batch) in configs {
        let g = harary(16, n);
        let full: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u, v)).collect();
        // A well-spread batch: every (m / batch)-th edge of the canonical list.
        let step = full.len() / batch;
        let picked: Vec<(u32, u32)> = (0..batch).map(|i| full[i * step]).collect();
        let removed: Vec<(u32, u32)> = full
            .iter()
            .copied()
            .filter(|e| !picked.contains(e))
            .collect();

        let mut churn = ChurnSession::new(g.clone());
        let cycle = |churn: &mut ChurnSession| {
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::RemoveEdge(u, v));
            }
            churn.apply_pending().unwrap();
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::AddEdge(u, v));
            }
            churn.apply_pending().unwrap();
        };
        // Cross-check before timing: a full cycle must restore the exact
        // CSR (edge ids included), and a phase on the long-lived repaired
        // session must be bit-identical to one on a fresh session.
        cycle(&mut churn);
        assert_eq!(
            churn.graph(),
            &g,
            "churn_repair: remove+readd did not restore the graph"
        );
        let cfg = || EngineConfig::serial().seed(0xC842);
        let live = churn
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        let fresh = Session::new(&g)
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        assert_eq!(live, fresh, "churn_repair: repaired session diverged");
        // Warm a second cycle so the repair scratch (which ping-pongs
        // between two buffer sets) reaches steady state before timing.
        cycle(&mut churn);

        let incremental_total = best_of(samples, || {
            for _ in 0..cycles {
                cycle(&mut churn);
            }
            churn.graph().num_arcs() as u64
        });
        let rebuild_total = best_of(samples, || {
            let mut acc = 0u64;
            for _ in 0..cycles {
                for list in [&removed, &full] {
                    let g2 = GraphBuilder::new(n)
                        .edges(list.iter().copied())
                        .build()
                        .unwrap();
                    let sess = Session::new(&g2);
                    criterion::black_box(&sess);
                    acc = acc.wrapping_add(g2.num_arcs() as u64);
                }
            }
            acc
        });
        let events = (cycles as u128) * 2;
        rows.push(ChurnRepairRow {
            graph: format!("harary16_{n}"),
            batch,
            incremental_ns: incremental_total / events,
            rebuild_ns: rebuild_total / events,
        });
    }
    let geo = geomean(rows.iter().map(ChurnRepairRow::speedup));
    (rows, geo)
}

struct WideBatchRow {
    w: usize,
    ns: u128,
    inst_rounds_per_sec: f64,
    speedup_vs_seq: f64,
}

/// Wide-batch throughput: W independent sparse instances through one
/// [`congest_sim::WideSession`] sweep vs the same instance on a
/// sequential `Session`, both single-core. Metric is instances·rounds
/// per second; the acceptance bar is W=32 ≥ 4× the sequential arm.
/// All 64 lanes are cross-checked bit-identical (outputs + stats)
/// against their per-lane sequential runs before any timing.
fn bench_wide_batch() -> (Vec<WideBatchRow>, f64) {
    use congest_sim::{LaneSpec, Session, WideSession};

    let (n, samples) = if smoke() {
        (1024usize, 2usize)
    } else {
        (4096usize, 5usize)
    };
    let g = harary(6, n);
    let lane_seed = |l: usize| congest_sim::rng::mix64(0x57ED_BA7C ^ l as u64);
    let wide_cfg = EngineConfig::serial();
    let seq_cfg = |l: usize| EngineConfig::serial().seed(lane_seed(l));
    let lanes_for =
        |w: usize| -> Vec<LaneSpec> { (0..w).map(|l| LaneSpec::new(lane_seed(l))).collect() };

    let mut wide = WideSession::new(&g);

    // Cross-check the full width bit-identical before timing anything,
    // and record each lane's true round count for the throughput metric
    // (sources sit at different eccentricities, so lanes can differ).
    let lanes64 = lanes_for(64);
    let lane_rounds: Vec<u64> = {
        let out = wide
            .run(
                &lanes64,
                |v, l, _| LaneRumor::new(v, l as u64, n),
                wide_cfg.clone(),
            )
            .unwrap();
        for l in 0..64 {
            let mut sess = Session::new(&g);
            let seq = sess
                .run(|v, _| LaneRumor::new(v, l as u64, n), seq_cfg(l))
                .unwrap();
            assert_eq!(
                out.stats(l),
                seq.stats,
                "wide_batch lane {l} stats diverged"
            );
            assert_eq!(
                out.outputs(l),
                seq.outputs(),
                "wide_batch lane {l} outputs diverged"
            );
        }
        (0..64).map(|l| out.stats(l).rounds).collect()
    };

    // Sequential arm: one instance per run on a resident Session.
    let seq_ns = {
        let mut sess = Session::new(&g);
        best_of(samples, || {
            let out = sess
                .run(|v, _| LaneRumor::new(v, 0, n), seq_cfg(0))
                .unwrap();
            out.outputs()[0]
        })
    };
    let seq_rate = lane_rounds[0] as f64 / (seq_ns as f64 / 1e9);

    let mut rows = Vec::new();
    for w in [1usize, 8, 32, 64] {
        let lanes = lanes_for(w);
        let ns = best_of(samples, || {
            let out = wide
                .run(
                    &lanes,
                    |v, l, _| LaneRumor::new(v, l as u64, n),
                    wide_cfg.clone(),
                )
                .unwrap();
            out.outputs(0)[0]
        });
        let inst_rounds: u64 = lane_rounds[..w].iter().sum();
        let rate = inst_rounds as f64 / (ns as f64 / 1e9);
        rows.push(WideBatchRow {
            w,
            ns,
            inst_rounds_per_sec: rate,
            speedup_vs_seq: rate / seq_rate,
        });
    }
    let at_32 = rows
        .iter()
        .find(|r| r.w == 32)
        .map(|r| r.speedup_vs_seq)
        .unwrap_or(0.0);
    (rows, at_32)
}

struct WideTailRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Staggered-termination job stream through the wide kernel: J
/// lane-salted rumor floods whose sources linger for staggered spans,
/// with each 32-job chunk anchored by one job that lingers ~64x the
/// flood itself. Two arms, both single-core on one resident
/// `WideSession`:
///
/// * `chunked` — 32-lane `run()` per chunk: the sweep narrows as lanes
///   retire, but each chunk still waits for its slowest lane.
/// * `refill_steady` — one `run_refill` drain over the whole queue:
///   mid-sweep refill, so retired slots keep earning while stragglers
///   linger.
///
/// Every job of both arms is cross-checked bit-identical (outputs +
/// stats) against its isolated sequential `Session` run before any
/// timing. The acceptance bar: continuous batching (the refill arm)
/// ≥ 1.5x the chunked arm.
fn bench_wide_tail() -> (Vec<WideTailRow>, f64) {
    use congest_sim::{LaneSpec, RunStats, Session, WideSession};

    let (n, jobs, samples) = if smoke() {
        (256usize, 96usize, 2usize)
    } else {
        (1024usize, 192usize, 5usize)
    };
    let w = 32usize;
    let g = harary(6, n);
    let job_seed = |j: usize| congest_sim::rng::mix64(0x7A11_C0DE ^ j as u64);
    let specs: Vec<LaneSpec> = (0..jobs).map(|j| LaneSpec::new(job_seed(j))).collect();
    let seq_cfg = |j: usize| EngineConfig::serial().seed(job_seed(j));

    // Tail lengths are keyed to the measured flood so the mix keeps its
    // shape across graph sizes: lane l of each chunk lingers l/8 floods
    // (staggered termination), and lane 0 anchors the chunk at 64
    // floods — the straggler the chunked arm must wait out chunk by
    // chunk, while the refill arm overlaps all the anchors.
    let flood_rounds = {
        let mut sess = Session::new(&g);
        let out = sess
            .run(|v, _| TailRumor::new(v, 1, n, 0), seq_cfg(1))
            .unwrap();
        out.stats.rounds
    };
    let linger = move |j: usize| {
        let lane = (j % w) as u64;
        if lane == 0 {
            64 * flood_rounds
        } else {
            lane * flood_rounds / 8
        }
    };
    let mk = move |v: u32, j: usize| TailRumor::new(v, j as u64, n, linger(j));

    // The isolated oracle, once per job: every arm below must reproduce
    // these outputs and stats bit-for-bit.
    let expected: Vec<(Vec<u64>, RunStats)> = (0..jobs)
        .map(|j| {
            let mut sess = Session::new(&g);
            let out = sess.run(|v, _| mk(v, j), seq_cfg(j)).unwrap();
            let stats = out.stats;
            (out.take_outputs(), stats)
        })
        .collect();

    let chunks: Vec<std::ops::Range<usize>> = (0..jobs)
        .step_by(w)
        .map(|lo| lo..(lo + w).min(jobs))
        .collect();
    let run_chunked = |wide: &mut WideSession<'_>, check: bool| -> u64 {
        let mut acc = 0u64;
        for chunk in &chunks {
            let lo = chunk.start;
            let out = wide
                .run(
                    &specs[chunk.clone()],
                    |v, l, _| mk(v, lo + l),
                    EngineConfig::serial(),
                )
                .unwrap();
            for l in 0..chunk.len() {
                if check {
                    let (outputs, stats) = &expected[lo + l];
                    assert_eq!(
                        out.outputs(l),
                        &outputs[..],
                        "wide_tail job {} outputs diverged",
                        lo + l
                    );
                    assert_eq!(
                        &out.stats(l),
                        stats,
                        "wide_tail job {} stats diverged",
                        lo + l
                    );
                }
                acc ^= out.outputs(l)[0] ^ out.stats(l).rounds;
            }
        }
        acc
    };
    let run_refill = |wide: &mut WideSession<'_>, scratch: &mut Vec<u64>, check: bool| -> u64 {
        let mut acc = 0u64;
        let admitted = wide.run_refill::<TailRumor, _, _, _>(
            &specs[..w],
            |v, j, _| mk(v, j),
            EngineConfig::serial(),
            |job| (job < jobs).then(|| specs[job].clone()),
            |mut r| {
                r.take_outputs_into(scratch);
                if check {
                    let (outputs, stats) = &expected[r.job];
                    assert_eq!(
                        &scratch[..],
                        &outputs[..],
                        "wide_tail refill job {} outputs diverged",
                        r.job
                    );
                    assert_eq!(
                        &r.stats, stats,
                        "wide_tail refill job {} stats diverged",
                        r.job
                    );
                }
                acc ^= scratch[0] ^ r.stats.rounds ^ r.job as u64;
            },
        );
        assert_eq!(admitted, jobs, "wide_tail refill queue must drain");
        acc
    };

    // Cross-check both arms bit-identical before timing anything.
    let mut wide = WideSession::new(&g);
    let mut scratch: Vec<u64> = Vec::new();
    run_chunked(&mut wide, true);
    run_refill(&mut wide, &mut scratch, true);

    let chunked_ns = best_of(samples, || run_chunked(&mut wide, false));
    let refill_ns = best_of(samples, || run_refill(&mut wide, &mut scratch, false));

    let rate = |ns: u128| jobs as f64 / (ns as f64 / 1e9);
    let rows = vec![
        WideTailRow {
            arm: "chunked",
            wall_ns: chunked_ns,
            jobs_per_sec: rate(chunked_ns),
        },
        WideTailRow {
            arm: "refill_steady",
            wall_ns: refill_ns,
            jobs_per_sec: rate(refill_ns),
        },
    ];
    (rows, chunked_ns as f64 / refill_ns as f64)
}

struct ServeRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Serving-layer throughput: one multi-tenant rumor job stream over two
/// highly-connected circulants (the paper's regime; per-job sources,
/// seeds, and tenants) pushed through the `PoolServer`'s batching drain
/// — warm pooled states, compatible jobs grouped onto wide lane sweeps —
/// vs the same stream run one fresh `Session` per job
/// (`run_job_isolated`, the pool's oracle). Every output and stat is
/// cross-checked bit-identical before anything is timed. Returns the two
/// arms plus the batched-vs-isolated speedup.
///
/// The mix is deliberately all wide-worthy: rumor's thin wavefront is
/// where lane batching amortizes the arc sweep (measured ~3.7x at 32
/// lanes on `harary(6, 1024)`), while dense-head families like flood-max
/// run every lane hot simultaneously and batch roughly latency-neutral —
/// the policy tradeoff documented on `JobSpec::wide_worthy`.
fn bench_serve() -> (Vec<ServeRow>, f64) {
    use congest_sim::rng::mix64;
    use congest_sim::{run_job_isolated, Job, JobOutput, JobSpec, JobStatus, PoolServer};

    let (n, jobs_n, samples) = if smoke() {
        (1024usize, 64usize, 2usize)
    } else {
        (4096usize, 128usize, 5usize)
    };
    let graphs = [harary(6, n), harary(6, 3 * n / 4)];
    let cfg = EngineConfig::serial();

    // The stream: alternating graphs (the batcher has to regroup), every
    // job its own source and seed, tenants interleaved.
    let stream: Vec<(usize, JobSpec, u64, u32)> = (0..jobs_n)
        .map(|j| {
            let graph = j % 2;
            let spec = JobSpec::Rumor {
                source: (mix64(0x5E11 ^ j as u64) % graphs[graph].n() as u64) as u32,
            };
            (
                graph,
                spec,
                mix64(0x0B_5EED ^ mix64(j as u64)),
                (j % 4) as u32,
            )
        })
        .collect();

    let mut server = PoolServer::new(cfg.clone(), jobs_n);
    let keys = [
        server.register_graph(graphs[0].clone()),
        server.register_graph(graphs[1].clone()),
    ];
    let serve_once = |server: &mut PoolServer, out: &mut Vec<JobOutput>| {
        out.clear();
        for (graph, spec, seed, tenant) in &stream {
            server
                .submit(
                    Job {
                        graph: keys[*graph],
                        protocol: spec.clone(),
                        seed: *seed,
                        faults: None,
                        tenant: *tenant,
                    },
                    out,
                )
                .expect("graph is registered");
        }
        server.drain(out);
        out.sort_by_key(|o| o.id);
    };

    // Cross-check the whole stream bit-identical against the isolated
    // oracle before timing anything.
    let mut out = Vec::new();
    serve_once(&mut server, &mut out);
    assert_eq!(out.len(), stream.len());
    for ((graph, spec, seed, tenant), o) in stream.iter().zip(&out) {
        let (outputs, stats) = run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
        assert_eq!(o.status, JobStatus::Done, "serve job {:?} failed", o.id);
        assert_eq!(o.tenant, *tenant);
        assert_eq!(o.outputs, outputs, "serve job {:?} outputs diverged", o.id);
        assert_eq!(o.stats, stats, "serve job {:?} stats diverged", o.id);
    }
    assert!(
        server.batched_jobs() > server.solo_jobs(),
        "the mix must actually exercise wide batching ({} batched, {} solo)",
        server.batched_jobs(),
        server.solo_jobs()
    );

    // Batched arm: the resident server (pool stays warm across samples,
    // as in steady-state serving).
    let pooled_ns = best_of(samples, || {
        serve_once(&mut server, &mut out);
        out.iter().fold(0u64, |a, o| {
            a ^ o.outputs.first().copied().unwrap_or(0) ^ o.stats.total_messages
        })
    });
    // Isolated arm: one fresh session per job, same configs, same order.
    let isolated_ns = best_of(samples, || {
        stream.iter().fold(0u64, |a, (graph, spec, seed, _)| {
            let (outputs, stats) =
                run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
            a ^ outputs.first().copied().unwrap_or(0) ^ stats.total_messages
        })
    });

    let rate = |ns: u128| jobs_n as f64 / (ns as f64 / 1e9);
    let rows = vec![
        ServeRow {
            arm: "pool_batched",
            wall_ns: pooled_ns,
            jobs_per_sec: rate(pooled_ns),
        },
        ServeRow {
            arm: "session_per_job",
            wall_ns: isolated_ns,
            jobs_per_sec: rate(isolated_ns),
        },
    ];
    let speedup = isolated_ns as f64 / pooled_ns as f64;
    (rows, speedup)
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    measurements: &[Measurement],
    scaling: &[ScalingRow],
    churn_repair: &[ChurnRepairRow],
    wide_batch: &[WideBatchRow],
    wide_tail: &[WideTailRow],
    serve: &[ServeRow],
    churn_repair_geomean: f64,
    wide_batch_speedup_32: f64,
    wide_tail_refill: f64,
    serve_speedup: f64,
    path: &std::path::Path,
) {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"sim_throughput\",");
    let _ = writeln!(s, "  \"rounds_per_run\": {ROUNDS},");
    let _ = writeln!(
        s,
        "  \"note\": \"packed slab engine vs seed-style Vec<Option<Msg>> baseline on one core; ns = best of 7 whole-run samples; headline metric is geomean_speedup across workloads\","
    );
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", m.workload);
        let _ = writeln!(s, "      \"graph\": \"{}\",", m.graph);
        let _ = writeln!(s, "      \"arcs\": {},", m.arcs);
        let _ = writeln!(s, "      \"packed_serial_ns\": {},", m.packed_serial_ns);
        let _ = writeln!(s, "      \"packed_parallel_ns\": {},", m.packed_parallel_ns);
        let _ = writeln!(s, "      \"baseline_ns\": {},", m.baseline_ns);
        let _ = writeln!(
            s,
            "      \"speedup_packed_vs_baseline\": {:.3}",
            m.speedup()
        );
        let _ = writeln!(
            s,
            "    }}{}",
            if i + 1 < measurements.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let min = measurements
        .iter()
        .map(Measurement::speedup)
        .fold(f64::INFINITY, f64::min);
    let geomean = (measurements.iter().map(|m| m.speedup().ln()).sum::<f64>()
        / measurements.len() as f64)
        .exp();
    let _ = writeln!(s, "  \"min_speedup\": {min:.3},");
    let _ = writeln!(s, "  \"geomean_speedup\": {geomean:.3},");
    // --- Shard-scaling section: the live engine's ns-per-round curve.
    let _ = writeln!(
        s,
        "  \"shard_scaling_note\": \"live engine (sharded deliver/metering plane, ring-buffer multiplexer) at 1/2/4/8 shards; values are ns per round via horizon differencing (setup cancels); pool width = min(shards, cores); every timed configuration cross-checked bit-identical to the one-shard serial run at small scale\","
    );
    let _ = writeln!(
        s,
        "  \"shard_scaling_cores\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(s, "  \"shard_scaling\": [");
    for (i, r) in scaling.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "      \"graph\": \"{}\",", r.graph);
        let _ = write!(s, "      \"arcs\": {}", r.arcs);
        for &(shards, ns) in &r.ns_by_shards {
            let _ = write!(s, ",\n      \"sharded_ns_per_round_{shards}\": {ns}");
        }
        let _ = writeln!(
            s,
            "\n    }}{}",
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    // --- Churn-repair section: incremental phase-boundary repair vs
    // full rebuild, the dynamic-graph acceptance bar.
    let _ = writeln!(
        s,
        "  \"churn_repair_note\": \"phase-boundary churn: a remove batch then the matching re-add batch; incremental arm = in-place CSR splice + engine repair on a live ChurnSession, rebuild arm = GraphBuilder::build + Session::new from a prepared edge list; ns per mutation batch, best of N; both arms cross-checked bit-identical before timing (geomean >= 1.0)\","
    );
    let _ = writeln!(s, "  \"churn_repair\": {{");
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in churn_repair.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "        \"batch_edges\": {},", r.batch);
        let _ = writeln!(
            s,
            "        \"incremental_ns_per_batch\": {},",
            r.incremental_ns
        );
        let _ = writeln!(s, "        \"rebuild_ns_per_batch\": {},", r.rebuild_ns);
        let _ = writeln!(s, "        \"speedup_incremental\": {:.3}", r.speedup());
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < churn_repair.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"geomean_incremental_vs_rebuild\": {churn_repair_geomean:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Wide-batch section: W instances through one interleaved sweep.
    let _ = writeln!(
        s,
        "  \"wide_batch_note\": \"W independent lane-salted QUIESCENT rumor floods on the harary(6, n) circulant through one WideSession sweep vs one instance per sequential Session run, both single-core; metric is instances*rounds/sec, whole-run wall clock, best of N; all 64 lanes cross-checked bit-identical (outputs + stats) against per-lane sequential runs before timing; acceptance bar: W=32 >= 4x sequential\","
    );
    let _ = writeln!(s, "  \"wide_batch\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in wide_batch.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"lanes\": {},", r.w);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.ns);
        let _ = writeln!(
            s,
            "        \"instances_rounds_per_sec\": {:.0},",
            r.inst_rounds_per_sec
        );
        let _ = writeln!(
            s,
            "        \"speedup_vs_sequential\": {:.3}",
            r.speedup_vs_seq
        );
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < wide_batch.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_vs_sequential_32_lanes\": {wide_batch_speedup_32:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Wide-tail section: continuous batching vs chunked full-width.
    let _ = writeln!(
        s,
        "  \"wide_tail_note\": \"staggered-termination rumor mix on harary(6, n): sources linger pulsing one port for staggered spans, each 32-job chunk anchored by a straggler lingering ~64 floods; chunked = 32-lane WideSession::run per chunk, refill_steady = one run_refill drain (mid-sweep refill from the job queue); single-core, whole-stream wall clock, best of N; every job of both arms cross-checked bit-identical (outputs + stats) against its isolated sequential Session run before timing; acceptance bar: refill_steady >= 1.5x chunked\","
    );
    let _ = writeln!(s, "  \"wide_tail\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in wide_tail.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"arm\": \"{}\",", r.arm);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(s, "        \"jobs_per_sec\": {:.0}", r.jobs_per_sec);
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < wide_tail.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_refill_vs_chunked\": {wide_tail_refill:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Serving layer: PoolServer batching drain vs session-per-job.
    let _ = writeln!(
        s,
        "  \"serve_throughput_note\": \"multi-tenant rumor job stream (2 highly-connected harary circulants, per-job sources/seeds/tenants, all wide-worthy) through the PoolServer batching drain (warm pooled states, compatible jobs grouped onto wide lane sweeps) vs one fresh Session per job (run_job_isolated); single-core, whole-stream wall clock, best of N; every job's outputs + stats cross-checked bit-identical against the isolated oracle before timing; acceptance bar: batched >= 2x session-per-job\","
    );
    let _ = writeln!(s, "  \"serve_throughput\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in serve.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"arm\": \"{}\",", r.arm);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(s, "        \"jobs_per_sec\": {:.0}", r.jobs_per_sec);
        let _ = writeln!(s, "      }}{}", if i + 1 < serve.len() { "," } else { "" });
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_batched_vs_session_per_job\": {serve_speedup:.3}"
    );
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    std::fs::write(path, s).expect("write BENCH_sim.json");
}

/// Print the wide-tail section and emit its regression marker; returns
/// the rows + speedups for the JSON export.
fn run_wide_tail_section() -> (Vec<WideTailRow>, f64) {
    let (wide_tail, wide_tail_refill) = bench_wide_tail();
    println!("\n| wide-tail arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &wide_tail {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!("wide-tail speedup, mid-sweep refill vs chunked runs: {wide_tail_refill:.2}x");
    // Continuous batching's acceptance bar: on a staggered-termination
    // mix, refilling retired slots from the queue must beat chunked
    // runs by a wide margin, smoke lane included.
    if wide_tail_refill < 1.5 {
        println!(
            "REGRESSION-MARKER: wide-tail speedup {wide_tail_refill:.3} < 1.5 — continuous \
             lane batching (mid-sweep refill) lost its advantage over chunked runs"
        );
    }
    (wide_tail, wide_tail_refill)
}

/// Print the serve section and emit its regression marker; returns the
/// rows + speedup for the JSON export.
fn run_serve_section() -> (Vec<ServeRow>, f64) {
    let (serve, serve_speedup) = bench_serve();
    println!("\n| serve arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &serve {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!("serve speedup (pool-batched vs one session per job): {serve_speedup:.2}x");
    // The serving layer's acceptance bar: batching compatible jobs onto
    // wide sweeps must at least double job throughput, smoke mix included.
    if serve_speedup < 2.0 {
        println!(
            "REGRESSION-MARKER: serve speedup {serve_speedup:.3} < 2.0 — pool batching lost \
             its advantage over one fresh session per job"
        );
    }
    (serve, serve_speedup)
}

fn bench_engine(c: &mut Criterion) {
    // `SIM_BENCH_SECTION=serve|wide_tail`: run only that section (CI's
    // smoke lanes), keep its cross-checks and marker, skip the rest.
    if let Ok(section) = std::env::var("SIM_BENCH_SECTION") {
        match section.as_str() {
            "serve" => {
                let _ = run_serve_section();
            }
            "wide_tail" => {
                let _ = run_wide_tail_section();
            }
            _ => panic!("unknown SIM_BENCH_SECTION `{section}`"),
        }
        println!("section mode: skipping remaining sections and BENCH_sim.json rewrite");
        return;
    }
    // --- Shard scaling (always runs; its cross-checks are the smoke
    // lane's guard).
    let scaling = bench_shard_scaling();
    println!("\nper-round cost (ms/round) of the live engine by shard count:");
    println!("\n| workload | graph | arcs | 1 shard | 2 shards | 4 shards | 8 shards |");
    println!("|---|---|---|---|---|---|---|");
    for r in &scaling {
        print!("| {} | {} | {} |", r.workload, r.graph, r.arcs);
        for &(_, ns) in &r.ns_by_shards {
            print!(" {:.3} |", ns as f64 / 1e6);
        }
        println!();
    }
    // --- Churn repair: incremental phase-boundary repair vs full rebuild.
    let (churn_repair, churn_repair_geomean) = bench_churn_repair();
    println!("\n| churn-repair graph | batch edges | incremental | rebuild | speedup |");
    println!("|---|---|---|---|---|");
    for r in &churn_repair {
        println!(
            "| {} | {} | {:.3} ms | {:.3} ms | {:.2}x |",
            r.graph,
            r.batch,
            r.incremental_ns as f64 / 1e6,
            r.rebuild_ns as f64 / 1e6,
            r.speedup()
        );
    }
    println!("churn-repair geomean speedup (incremental vs rebuild): {churn_repair_geomean:.2}x");
    // Incremental repair must never lose to a from-scratch rebuild; the
    // smoke lane gets slack for small-n noise on shared runners.
    let churn_bar = if smoke() { 0.9 } else { 1.0 };
    if churn_repair_geomean < churn_bar {
        println!(
            "REGRESSION-MARKER: churn-repair geomean {churn_repair_geomean:.3} < {churn_bar:.2} — \
             incremental repair lost to full engine rebuilds"
        );
    }
    // --- Wide batch: W instances through one interleaved sweep.
    let (wide_batch, wide_batch_speedup_32) = bench_wide_batch();
    println!("\n| wide-batch lanes | wall clock | instances·rounds/sec | vs sequential |");
    println!("|---|---|---|---|");
    for r in &wide_batch {
        println!(
            "| {} | {:.3} ms | {:.0} | {:.2}x |",
            r.w,
            r.ns as f64 / 1e6,
            r.inst_rounds_per_sec,
            r.speedup_vs_seq
        );
    }
    println!(
        "wide-batch speedup at 32 lanes vs one sequential instance: {wide_batch_speedup_32:.2}x"
    );
    // The whole point of the wide kernel: amortizing the arc sweep
    // across lanes must beat running the lanes one at a time by a wide
    // margin, in the smoke lane too.
    if wide_batch_speedup_32 < 4.0 {
        println!(
            "REGRESSION-MARKER: wide-batch speedup {wide_batch_speedup_32:.3} < 4.0 at 32 lanes \
             vs the sequential arm"
        );
    }
    // --- Wide tail: staggered-termination stream, chunked vs continuous.
    let (wide_tail, wide_tail_refill) = run_wide_tail_section();
    // --- Serving layer: pool-batched job stream vs session-per-job.
    let (serve, serve_speedup) = run_serve_section();
    if smoke() {
        println!("smoke mode: skipping baseline section and BENCH_sim.json rewrite");
        return;
    }

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(5);
    // The paper's regime is *highly connected* networks: high-degree
    // graphs, where per-arc message-plane costs dominate per-node
    // bookkeeping.
    let clique = complete(256);
    let hara = harary(16, 1024);

    let mut measurements = Vec::new();
    for (gname, g) in [("complete256", &clique), ("harary16_1024", &hara)] {
        measurements.push(measure("dense_u64", gname, g, |_| {
            DenseChatter::new(ROUNDS)
        }));
        measurements.push(measure("sparse_u64", gname, g, |v| {
            SparseChatter::new(v, ROUNDS)
        }));
        measurements.push(measure("wide_u128", gname, g, |_| WideChatter { acc: 1 }));
        measurements.push(measure("pipeline_u128", gname, g, |v| PipelineLike {
            node: v,
            acc: 1,
        }));
    }

    // Also surface the packed engine through the criterion harness for the
    // usual per-benchmark lines.
    for (gname, g) in [("complete256", &clique), ("harary16_1024", &hara)] {
        for parallel in [false, true] {
            let label = if parallel { "parallel" } else { "serial" };
            group.bench_with_input(BenchmarkId::new(gname, label), g, |b, g| {
                b.iter(|| {
                    let cfg = if parallel {
                        EngineConfig::default()
                    } else {
                        EngineConfig::serial()
                    };
                    run_protocol(g, |_, _| DenseChatter::new(ROUNDS), cfg).unwrap()
                })
            });
        }
    }
    group.finish();

    println!(
        "\n| workload | graph | arcs | packed serial | packed parallel | baseline | speedup |"
    );
    println!("|---|---|---|---|---|---|---|");
    for m in &measurements {
        println!(
            "| {} | {} | {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.2}x |",
            m.workload,
            m.graph,
            m.arcs,
            m.packed_serial_ns as f64 / 1e6,
            m.packed_parallel_ns as f64 / 1e6,
            m.baseline_ns as f64 / 1e6,
            m.speedup()
        );
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    write_json(
        &measurements,
        &scaling,
        &churn_repair,
        &wide_batch,
        &wide_tail,
        &serve,
        churn_repair_geomean,
        wide_batch_speedup_32,
        wide_tail_refill,
        serve_speedup,
        &root,
    );
    println!("\nwrote {}", root.display());
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
