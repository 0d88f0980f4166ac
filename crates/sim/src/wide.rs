//! Wide-batch bit-parallel round kernel: W independent instances of one
//! protocol on one graph, executed through a single interleaved sweep.
//!
//! ## Why
//!
//! The engine already stores arc occupancy as word-packed bitsets, but
//! [`Session::run`] sweeps those words for exactly one run at a time. The
//! representative
//! heavy-traffic workload for the paper's broadcast algorithms is *many
//! sparse runs* — seed sweeps, per-lane fault plans, future tenants — and
//! Fountoulakis–Huber–Panagiotou (PAPERS.md) says broadcast time is
//! governed by sparse per-round traffic regardless of density. So the
//! word-level parallelism left on the table is *across instances*, not
//! across arcs of one instance.
//!
//! ## Lane layout
//!
//! [`Session::run_wide`] runs `W ≤ 64` **lanes** (instances). Per-arc
//! occupancy becomes one **lane word** per arc: bit `l` of `in_lane[a]`
//! says "lane `l` has a message on arc `a`". Message slabs are
//! instance-major within each arc block — lane `l`'s word for arc `a`
//! lives at `words[a * W + l]` — so the W occupancy bits of one arc land
//! in a single `u64` and per-arc liveness checks and mask zeroing are one
//! word op shared by all W lanes:
//!
//! * the deliver sweep tests `in_lane[a] != 0` once for all lanes; each
//!   set bit of a live word bumps its lane's delivered count and
//!   `lane_traffic[a * W + l]` — the sequential loop's plain `u32` meter,
//!   one column per lane, drained into the job's per-edge row at retirement;
//! * the fault adversary clears one bit of one word per blocked lane-arc.
//!
//! Scalar per-instance work — the node `round` calls and the payload
//! gather/scatter — iterates lanes via `trailing_zeros` over an
//! **active-lane word**, so finished lanes cost nothing, and protocols
//! that opt into [`Protocol::QUIESCENT`] skip `(node, lane)` pairs that
//! are done with an empty inbox, which is where the W-way speedup on
//! sparse workloads comes from.
//!
//! ## Oracle discipline
//!
//! A wide run is **bit-identical, per lane, to W sequential
//! [`Session::run`]s**: outputs, [`RunStats`], traces, and
//! per-edge congestion all match the run lane `l` would produce alone
//! with `EngineConfig { seed: lanes[l].seed, faults: lanes[l].faults, ..config }`.
//! Wide mode always routes `send_all` through the per-arc scatter path
//! (never the broadcast plane) — the engine's adaptive plane fallback
//! already guarantees that substitution is result-identical, and
//! `tests/proptest_wide.rs` pins the equivalence across shard counts ×
//! per-lane fault plans.
//!
//! ## What a wide round costs
//!
//! Per round: one O(arcs) lane-word pass (the shared per-node inbox OR +
//! consume-and-zero), one O(arcs) deliver scan, and scalar work only for
//! the `(node, lane)` pairs actually stepped. A sequential batch pays
//! `W × O(n)` context builds per round even when every instance is idle;
//! the wide kernel pays the word passes once and skips idle lanes, which
//! is why the `wide_batch` bench arm requires W=32 ≥ 4× the sequential
//! arm on the sparse circulant.
//!
//! ## Continuous batching: compaction and refill
//!
//! Broadcast completion times concentrate with a long per-instance tail
//! (Fountoulakis–Huber–Panagiotou), so under staggered termination the
//! last live lanes of a sweep would otherwise keep paying full-width
//! slab strides, and a drain-to-empty batcher would keep whole sweeps
//! alive for one straggler each. Two mechanisms close that gap
//! (DESIGN.md §9):
//!
//! * **Lane compaction**: whenever at most half the current width is
//!   still live, live lanes are repacked into the low slot bits — slab
//!   blocks, lane words, per-slot RNG/fault state, and meter columns move
//!   from stride `W` to stride `W′` in place — so tail rounds index
//!   narrower strides. A slot→job remap keeps every result reported
//!   under its original admission id; no bit of a repack reaches a
//!   result (the per-lane sequential oracle pins it).
//! * **Lane refill** ([`Session::run_refill`]): a retiring lane frees
//!   its slot for the next job from a caller-supplied source, mid-sweep,
//!   with per-job seeds/faults from its [`LaneSpec`] and lane-*local*
//!   rounds (a job admitted at global round `r` sees `ctx.round = 0`
//!   there, and its round budget, trace, and stats count from its own
//!   admission). Each retired job is handed to a sink as a
//!   [`LaneRetire`] — still bit-identical to the job's isolated
//!   sequential run. Width never grows past the initial admission, and a
//!   job is only ever admitted into a pristine slot; nothing is migrated
//!   *between* sweeps.

use crate::engine::{EngineConfig, EngineError, RunStats};
use crate::fault::FaultPlan;
use crate::message::{MsgWord, PackedMsg};
use crate::protocol::{InSlot, NodeCtx, OutSlot, Protocol};
use crate::rng::mix64;
use crate::session::{
    drain_traffic_column, for_each_blocked_arc, Arena, ArenaRow, NodeCell, Session, SessionState,
};
use crate::slab;
use congest_graph::{Graph, Node};
use congest_par::RacyCells;

/// Maximum lanes per wide run: one bit per lane in a `u64` lane word.
pub const MAX_LANES: usize = 64;

/// One lane's identity: the RNG seed its nodes derive from and the fault
/// plan (if any) it runs under. Everything else — graph, protocol, round
/// limit, shard count — is shared across the batch.
#[derive(Debug, Clone, Default)]
pub struct LaneSpec {
    /// Per-node RNGs of this lane derive from this seed exactly as a
    /// sequential run derives them from [`EngineConfig::seed`].
    pub seed: u64,
    /// This lane's mobile adversary, applied to this lane's staged
    /// messages only. See [`FaultPlan::with_lane_seed`] for deriving W
    /// reproducible plans from one base seed.
    pub faults: Option<FaultPlan>,
}

impl LaneSpec {
    pub fn new(seed: u64) -> LaneSpec {
        LaneSpec { seed, faults: None }
    }

    /// Attach a fault plan to this lane.
    pub fn with_faults(mut self, plan: FaultPlan) -> LaneSpec {
        self.faults = Some(plan);
        self
    }

    /// `w` faultless lanes with seeds derived from `base_seed` (lane `l`
    /// gets `mix64(base ^ mix64(0x57ED ^ l))`) — the batch shape the
    /// bench and soak harnesses start from.
    pub fn batch(base_seed: u64, w: usize) -> Vec<LaneSpec> {
        (0..w)
            .map(|l| LaneSpec::new(mix64(base_seed ^ mix64(0x57ED ^ l as u64))))
            .collect()
    }
}

/// The wide kernel's session-resident buffers, embedded in
/// `SessionState` so sequential and wide phases on one session share
/// arenas, slabs, and the shard-plan cache. All-zero at rest (the same
/// breadcrumb discipline as the sequential buffers); a failed run leaves
/// them dirty and [`SessionState::scrub`] restores the invariant.
#[derive(Default)]
pub(crate) struct WideBuffers {
    /// Per-arc inbox lane words (bit `l` = lane `l` has a message).
    in_lane: Vec<u64>,
    /// Per-arc staging lane words (swapped with `in_lane` at delivery).
    out_lane: Vec<u64>,
    /// Per-node lane words: bit `l` set means lane `l`'s node is *not*
    /// done (the polarity makes the per-round all-done check one OR pass).
    undone: Vec<u64>,
    /// Per-shard gather/outbox scratch the per-(node, lane) contexts run
    /// against: `max_deg` message words per direction per shard…
    scratch_in: Arena,
    scratch_out: Arena,
    /// …plus `ceil(max_deg/64)` occupancy words per direction per shard.
    scratch_occ: Vec<u64>,
    /// The congestion meter: deliveries per (arc, lane), `a * W + l` —
    /// one column per slot, drained into the job's per-edge row when its
    /// lane retires.
    lane_traffic: Vec<u32>,
    /// Per-job per-edge congestion. Batch runs fill it as a job-major
    /// `job * m + e` matrix (one row per lane, written at that lane's
    /// retirement); streaming runs reuse the first `m` words as the
    /// retirement scratch row.
    per_edge: Vec<u64>,
    /// Per-*slot* round traces (reused across runs; inner capacity
    /// sticks). Compaction permutes these alongside the slots.
    trace_bufs: Vec<Vec<u64>>,
    /// Per-*job* traces for batch runs: a retiring slot's trace is
    /// swapped in here under its original lane id, so
    /// [`WideOutcome::trace`] is compaction-oblivious.
    job_traces: Vec<Vec<u64>>,
    /// Per-shard per-lane delivered counts for the round reduction,
    /// stride [`MAX_LANES`].
    shard_delivered: Vec<u64>,
    /// Per-shard OR of its nodes' `undone` words.
    shard_undone: Vec<u64>,
}

impl WideBuffers {
    /// Capacity-based heap footprint of the lane buffers, in bytes —
    /// the wide kernel's share of [`SessionState::warm_bytes`].
    pub(crate) fn warm_bytes(&self) -> usize {
        (self.in_lane.capacity()
            + self.out_lane.capacity()
            + self.undone.capacity()
            + self.scratch_occ.capacity()
            + self.per_edge.capacity()
            + self.shard_delivered.capacity()
            + self.shard_undone.capacity())
            * 8
            + self.lane_traffic.capacity() * 4
            + self.scratch_in.byte_capacity()
            + self.scratch_out.byte_capacity()
            + self
                .trace_bufs
                .iter()
                .chain(self.job_traces.iter())
                .map(|t| t.capacity() * 8)
                .sum::<usize>()
            + (self.trace_bufs.capacity() + self.job_traces.capacity())
                * std::mem::size_of::<Vec<u64>>()
    }

    /// Full scrub after a failed run (round-limit error or a panic inside
    /// a node program) — completed runs re-zero everything on the way out.
    pub(crate) fn scrub(&mut self) {
        self.in_lane.fill(0);
        self.out_lane.fill(0);
        self.undone.fill(0);
        self.scratch_occ.fill(0);
        self.lane_traffic.fill(0);
        for t in &mut self.trace_bufs {
            t.clear();
        }
        for t in &mut self.job_traces {
            t.clear();
        }
        // `scratch_in`/`scratch_out` words and `per_edge` need no scrub:
        // words are unreachable without occupancy bits, and `per_edge` is
        // rebuilt from zero by every run's final fold.
    }
}

/// One completed wide run, borrowing the session's buffers: per-lane
/// outputs (lane-major in the output arena), stats, traces, and per-edge
/// congestion. The wide analog of [`crate::PhaseOutcome`].
pub struct WideOutcome<'s, O> {
    /// Lane `l`'s outputs; `None` once moved out.
    rows: LaneRows<O>,
    n: usize,
    lanes: usize,
    m: usize,
    stats: [RunStats; MAX_LANES],
    traces: Option<&'s [Vec<u64>]>,
    per_edge: &'s [u64],
    _borrow: std::marker::PhantomData<&'s mut O>,
}

/// A batch run's harvest: job `j`'s outputs, written when its lane retires.
type LaneRows<O> = [Option<ArenaRow<O>>; MAX_LANES];

impl<'s, O> WideOutcome<'s, O> {
    /// Number of lanes this run executed.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Nodes per lane.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lane `l`'s run statistics — bit-identical to the [`RunStats`] a
    /// sequential run of that lane reports.
    #[inline]
    pub fn stats(&self, lane: usize) -> RunStats {
        assert!(lane < self.lanes);
        self.stats[lane]
    }

    /// Lane `l`'s per-node outputs, in the session arena.
    #[inline]
    pub fn outputs(&self, lane: usize) -> &[O] {
        assert!(lane < self.lanes);
        match &self.rows[lane] {
            Some(row) => row.as_slice(),
            None => panic!("lane {lane} outputs taken"),
        }
    }

    /// Lane `l`'s per-round trace, when the run collected traces.
    #[inline]
    pub fn trace(&self, lane: usize) -> Option<&'s [u64]> {
        assert!(lane < self.lanes);
        self.traces.map(|t| &t[lane][..])
    }

    /// Lane `l`'s per-edge congestion (indexed by edge id).
    #[inline]
    pub fn edge_congestion(&self, lane: usize) -> &'s [u64] {
        assert!(lane < self.lanes);
        &self.per_edge[lane * self.m..(lane + 1) * self.m]
    }

    /// Move lane `l`'s outputs out of the arena into an owned `Vec`.
    pub fn take_lane_outputs(&mut self, lane: usize) -> Vec<O> {
        assert!(lane < self.lanes);
        let Some(row) = self.rows[lane].take() else {
            panic!("lane {lane} outputs taken");
        };
        row.into_vec()
    }
}

/// One retired job of a streaming wide run, handed to the sink of
/// [`Session::run_refill`] the moment its lane deactivates. Every
/// borrowed field points into session scratch that is recycled for the
/// next retirement, so the sink must consume what it needs before
/// returning.
pub struct LaneRetire<'a, O> {
    /// Admission index of this job within the run — the same index the
    /// factory and refill closures saw (initial lanes are jobs
    /// `0..init.len()` in order).
    pub job: usize,
    /// Stats bit-identical to the job's isolated sequential run.
    /// [`RunStats::default`] when `limit` is set — the isolated run
    /// errors out without reporting stats.
    pub stats: RunStats,
    /// `Some(limit)` when this lane exceeded its per-lane round budget:
    /// the streaming equivalent of the isolated run's
    /// [`EngineError::RoundLimitExceeded`]. Only the offending lane
    /// fails — it retires with no outputs, trace, or congestion, exactly
    /// as the isolated error reports none, and the sweep carries on.
    pub limit: Option<u64>,
    /// Per-round delivered-message trace when the run collects traces.
    pub trace: Option<&'a [u64]>,
    /// Per-edge congestion, indexed by edge id (empty when `limit`).
    pub edge_congestion: &'a [u64],
    /// `None` once moved out.
    outputs: Option<ArenaRow<O>>,
}

/// What the one wide loop does with a job that retires, and with a lane
/// that runs out of rounds.
enum Mode<'a, O> {
    /// [`Session::run_wide`]: the jobs are the initial lanes; each
    /// retiring job's stats and outputs are harvested under its lane id
    /// (traces and congestion go to `job_traces` / the `per_edge` matrix),
    /// and a blown round limit fails the whole run.
    Batch {
        stats: &'a mut [RunStats; MAX_LANES],
        rows: &'a mut LaneRows<O>,
    },
    /// [`Session::run_refill`]: every retired job goes to `sink`, the
    /// round budget is lane-local, and `refill` tops freed slots up
    /// mid-sweep.
    Stream {
        refill: &'a mut dyn FnMut(usize) -> Option<LaneSpec>,
        sink: &'a mut dyn FnMut(LaneRetire<'_, O>),
    },
}

impl<O> LaneRetire<'_, O> {
    /// The job's per-node outputs (empty when `limit` is set).
    #[inline]
    pub fn outputs(&self) -> &[O] {
        match &self.outputs {
            Some(row) => row.as_slice(),
            None => panic!("job {} outputs taken", self.job),
        }
    }

    /// Move the outputs into `dst` (cleared first), allocating only if
    /// `dst`'s retained capacity is too small — the steady-state serving
    /// path stays allocation-free after warmup. If the sink never takes
    /// the outputs, they drop with the `LaneRetire`.
    pub fn take_outputs_into(&mut self, dst: &mut Vec<O>) {
        let Some(row) = self.outputs.take() else {
            panic!("job {} outputs taken", self.job);
        };
        row.move_into(dst);
    }
}

/// The wide kernel, on the one engine host: it shares the session's slabs,
/// arenas, shard-plan cache and fault scratch with [`Session::run`], in any
/// order, and repeated wide runs reuse everything earlier runs grew
/// (enforced by `tests/zero_alloc.rs`).
///
/// A wide phase leaves [`Session::state_hash`] where it found it — the
/// lane buffers are zero at rest and outside the hash, and it writes no
/// hashed buffer — whereas a sequential phase leaves its per-edge
/// congestion and trace in hashed ones. So the same phase run as one wide
/// lane and run through `run` ends on different hashes, which is why wide
/// lanes record no hash in their [`crate::PhaseLog`].
impl Session<'_> {
    /// Run `lanes.len()` independent instances of `P` to termination in
    /// one interleaved sweep. `factory(v, l, g)` builds lane `l`'s
    /// protocol state for node `v`; lane `l`'s RNGs and faults come from
    /// `lanes[l]`, so the run is bit-identical per lane to a sequential
    /// [`Session::run`] with
    /// `EngineConfig { seed: lanes[l].seed, faults: lanes[l].faults, ..config }`.
    ///
    /// Of the shared `config`, wide honors `max_rounds`, `collect_trace`,
    /// `parallel`, and `shards`; `seed` and `faults` are superseded by
    /// the per-lane specs, and `sparse_threshold` does not apply (the
    /// lane-word sweep has no separate sparse path — idleness is skipped
    /// per (node, lane) instead). If `max_rounds` elapses while *any*
    /// lane is still active the whole run fails, exactly as that lane's
    /// sequential run would.
    ///
    /// # Example
    ///
    /// Three seeded lanes of a randomized gossip through one sweep; lane 1
    /// is, bit for bit, the sequential run at lane 1's seed:
    ///
    /// ```
    /// use congest_graph::generators::harary;
    /// use congest_sim::{EngineConfig, LaneSpec, NodeCtx, Protocol, Session};
    /// use rand::Rng;
    ///
    /// /// Three rounds of mixing a coin into whatever the neighbors sent.
    /// struct Stir(u64);
    /// impl Protocol for Stir {
    ///     type Msg = u64;
    ///     type Output = u64;
    ///     fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
    ///         for (port, m) in ctx.inbox() {
    ///             self.0 = self.0.rotate_left(9) ^ m ^ port as u64;
    ///         }
    ///         if ctx.round < 3 {
    ///             self.0 ^= ctx.rng().gen::<u64>();
    ///             ctx.send_all(self.0);
    ///         }
    ///         ctx.set_done(ctx.round >= 3);
    ///     }
    ///     fn finish(self) -> u64 {
    ///         self.0
    ///     }
    /// }
    ///
    /// let g = harary(4, 12);
    /// let lanes = [LaneSpec::new(7), LaneSpec::new(8), LaneSpec::new(9)];
    /// let mut session = Session::new(&g);
    /// let (wide_stats, wide_outputs) = {
    ///     let mut wide = session
    ///         .run_wide(&lanes, |v, _lane, _| Stir(v as u64), EngineConfig::serial())
    ///         .unwrap();
    ///     assert_eq!(wide.lanes(), 3);
    ///     assert_ne!(wide.outputs(0), wide.outputs(1)); // the seeds matter
    ///     (wide.stats(1), wide.take_lane_outputs(1))
    /// };
    ///
    /// // The same host runs the sequential kernel next, on the same buffers.
    /// let solo = session
    ///     .run(|v, _| Stir(v as u64), EngineConfig::serial().seed(lanes[1].seed))
    ///     .unwrap();
    /// assert_eq!(wide_stats, solo.stats);
    /// assert_eq!(wide_outputs, solo.outputs());
    /// ```
    pub fn run_wide<'s, P, F>(
        &'s mut self,
        lanes: &[LaneSpec],
        mut factory: F,
        config: EngineConfig,
    ) -> Result<WideOutcome<'s, P::Output>, EngineError>
    where
        P: Protocol,
        F: FnMut(Node, usize, &Graph) -> P,
    {
        // Batch mode of the one wide loop: `lanes.len()` jobs admitted up
        // front, no refill, fail-fast on the round limit, results
        // harvested job-major into the session arenas.
        let (graph, state) = (self.graph, &mut self.state);
        let w = lanes.len();
        let mut stats = [RunStats::default(); MAX_LANES];
        let mut rows: LaneRows<P::Output> = std::array::from_fn(|_| None);
        state.run_stream_core::<P>(
            graph,
            lanes,
            &mut |v, l, g| factory(v, l, g),
            &config,
            Mode::Batch {
                stats: &mut stats,
                rows: &mut rows,
            },
        )?;
        let m = graph.m();
        let traces: Option<&'s [Vec<u64>]> =
            config.collect_trace.then_some(&state.wide.job_traces[..w]);
        Ok(WideOutcome {
            rows,
            n: graph.n(),
            lanes: w,
            m,
            stats,
            traces,
            per_edge: &state.wide.per_edge[..w * m],
            _borrow: std::marker::PhantomData,
        })
    }

    /// Continuously batched wide run: starts `init.len()` lanes, then
    /// keeps the sweep full by admitting one job from `refill` into every
    /// slot a retiring lane frees, mid-sweep — the serving analog of
    /// continuous batching. Returns the total number of jobs admitted.
    ///
    /// * `refill(job)` supplies the [`LaneSpec`] for admission index
    ///   `job`, or `None` when the source is dry (it is polled again
    ///   after later retirements, so a drained-then-empty source must
    ///   keep answering `None`). The factory is called with the same
    ///   `job` index right after, while the spec's slot is still
    ///   pristine.
    /// * `sink` receives every retired job as a [`LaneRetire`] —
    ///   bit-identical per job to an isolated sequential
    ///   [`Session::run`] with that job's seed and faults.
    /// * Rounds are lane-local: each job's `ctx.round`, fault schedule,
    ///   trace, stats, and `max_rounds` budget count from its own
    ///   admission. A job that blows the budget retires alone with
    ///   `limit: Some(..)` instead of failing the sweep, which is why
    ///   this returns a count, not a `Result`.
    ///
    /// Concurrency never exceeds `init.len()`; when the source runs dry
    /// the sweep narrows via lane compaction and drains.
    pub fn run_refill<P, F, R, S>(
        &mut self,
        init: &[LaneSpec],
        mut factory: F,
        config: EngineConfig,
        mut refill: R,
        mut sink: S,
    ) -> usize
    where
        P: Protocol,
        F: FnMut(Node, usize, &Graph) -> P,
        R: FnMut(usize) -> Option<LaneSpec>,
        S: FnMut(LaneRetire<'_, P::Output>),
    {
        self.state
            .run_stream_core::<P>(
                self.graph,
                init,
                &mut |v, job, g| factory(v, job, g),
                &config,
                Mode::Stream {
                    refill: &mut refill,
                    sink: &mut sink,
                },
            )
            .expect("streaming runs retire round-limit lanes instead of failing")
    }
}

impl SessionState {
    /// The wide round loop, shared by batch ([`Session::run_wide`]) and
    /// streaming ([`Session::run_refill`]) modes — see [`Mode`]. Lives on
    /// `SessionState` so it shares the sequential loop's slabs, arenas,
    /// shard-plan cache, and fault scratch. Returns the number of jobs
    /// admitted.
    ///
    /// Lane ids the caller sees are **admission indices** ("jobs");
    /// internally lanes live in **slots** whose stride `w_cur` narrows
    /// when compaction repacks live lanes into the low bits. All per-slot
    /// state — cells, lane words, meter columns, traces, fault plans,
    /// join rounds — is permuted together, so the slot→job remap is the
    /// only place the two namespaces meet.
    fn run_stream_core<P>(
        &mut self,
        graph: &Graph,
        init: &[LaneSpec],
        factory: &mut dyn FnMut(Node, usize, &Graph) -> P,
        config: &EngineConfig,
        mut mode: Mode<'_, P::Output>,
    ) -> Result<usize, EngineError>
    where
        P: Protocol,
    {
        let w0 = init.len();
        assert!(
            (1..=MAX_LANES).contains(&w0),
            "a wide run takes 1..={MAX_LANES} lanes, got {w0}"
        );
        debug_assert!(
            P::Msg::WIDTH <= <<P::Msg as PackedMsg>::Word as MsgWord>::BITS,
            "message WIDTH exceeds its storage word"
        );
        let fork = self.begin_phase(graph, config);
        let batch = matches!(mode, Mode::Batch { .. });

        let n = graph.n();
        let arcs = graph.num_arcs();
        let m = graph.m();

        let max_budget = init
            .iter()
            .filter_map(|l| l.faults.as_ref())
            .map(|fp| fp.edges_per_round)
            .max()
            .unwrap_or(0);
        self.blocked.reserve(max_budget);

        // --- Split the state into independently borrowed buffers.
        let SessionState {
            slab_a,
            slab_b,
            blocked,
            fault_marks,
            plan,
            cell_arena,
            out_arena,
            wide,
            clean,
            ..
        } = self;
        let WideBuffers {
            in_lane,
            out_lane,
            undone,
            scratch_in,
            scratch_out,
            scratch_occ,
            lane_traffic,
            per_edge,
            trace_bufs,
            job_traces,
            shard_delivered,
            shard_undone,
        } = wide;
        let plan = &plan.as_ref().expect("plan built above").1;
        let s_count = plan.num_shards();
        let max_deg = plan.max_degree();
        // Scratch occupancy words per direction per shard.
        let sow = max_deg.div_ceil(64);

        // --- Size the lane buffers (grow-only where the rest state is
        // zero either way; exact-size where indexing depends on it).
        in_lane.resize(arcs, 0);
        out_lane.resize(arcs, 0);
        if undone.len() < n {
            undone.resize(n, 0);
        }
        lane_traffic.resize(arcs * w0, 0);
        if scratch_occ.len() < s_count * 2 * sow {
            scratch_occ.resize(s_count * 2 * sow, 0);
        }
        shard_delivered.resize(s_count * MAX_LANES, 0);
        shard_undone.resize(s_count, 0);
        while trace_bufs.len() < w0 {
            trace_bufs.push(Vec::new());
        }
        for t in trace_bufs.iter_mut().take(w0) {
            t.clear();
        }
        if batch {
            // Job-major harvest matrices, filled row by row as lanes
            // retire (a job's id never moves, however slots compact).
            while job_traces.len() < w0 {
                job_traces.push(Vec::new());
            }
            for t in job_traces.iter_mut().take(w0) {
                t.clear();
            }
            per_edge.resize(w0 * m, 0);
        } else if per_edge.len() < m {
            // Streaming: the first m words are the per-retirement scratch
            // row.
            per_edge.resize(m, 0);
        }

        // --- Instance-major message slabs: the lane in slot l has its
        // word for arc a at `a * w_cur + l` (byte-capacity keyed, shared
        // with sequential runs). Views are sized for the initial width;
        // compaction only ever narrows the stride used to index them.
        let mut in_words: &mut [<P::Msg as PackedMsg>::Word] = slab_a.view(arcs * w0);
        let mut out_words: &mut [<P::Msg as PackedMsg>::Word] = slab_b.view(arcs * w0);
        let sw_in: &mut [<P::Msg as PackedMsg>::Word] = scratch_in.view(s_count * max_deg);
        let sw_out: &mut [<P::Msg as PackedMsg>::Word] = scratch_out.view(s_count * max_deg);

        // --- Node cells, node-major blocks of w_cur slots, plus the
        // batch output matrix (streaming retirements reuse the output
        // arena as a one-row scratch instead).
        let cells_ptr: *mut NodeCell<P> = cell_arena.alloc(n * w0);
        let out_mat: *mut P::Output = if batch {
            out_arena.alloc(n * w0)
        } else {
            std::ptr::NonNull::dangling().as_ptr()
        };

        // --- Per-slot lane state. Slots are positions in the lane words;
        // jobs are admission indices. Compaction permutes slots, never
        // jobs. All fixed-size Copy arrays — no allocation per admission.
        let full_mask = |w: usize| -> u64 {
            if w == 64 {
                !0
            } else {
                (1u64 << w) - 1
            }
        };
        let mut w_cur = w0;
        let mut active: u64 = 0;
        let mut slot_faults: [Option<FaultPlan>; MAX_LANES] = [None; MAX_LANES];
        let mut join_round = [0u64; MAX_LANES];
        let mut slot_job = [0usize; MAX_LANES];
        let mut slot_stats = [RunStats::default(); MAX_LANES];
        let mut jobs_admitted: usize = 0;
        let mut round: u64 = 0;

        // Admit one job into a pristine slot: cells written through the
        // factory, per-node RNGs from the spec's seed, undone bits set,
        // join round stamped so the lane's rounds count from here. A
        // panic in `factory` leaks only the written prefix (the dirty
        // flag covers the scrub).
        macro_rules! admit {
            ($slot:expr, $spec:expr) => {{
                let slot: usize = $slot;
                let spec: &LaneSpec = $spec;
                let job = jobs_admitted;
                for v in 0..n {
                    // Sound: the slot column is in-bounds and vacant.
                    unsafe {
                        cells_ptr.add(v * w_cur + slot).write(NodeCell::new(
                            factory(v as Node, job, graph),
                            spec.seed,
                            v as Node,
                        ));
                    }
                }
                for u in undone[..n].iter_mut() {
                    *u |= 1u64 << slot;
                }
                if let Some(fp) = &spec.faults {
                    blocked.reserve(fp.edges_per_round);
                }
                slot_faults[slot] = spec.faults;
                join_round[slot] = round;
                slot_job[slot] = job;
                slot_stats[slot] = RunStats::default();
                active |= 1u64 << slot;
                jobs_admitted += 1;
            }};
        }
        for spec in init {
            admit!(jobs_admitted, spec);
        }

        loop {
            // --- Per-lane round budget, counted from each lane's own
            // admission. Batch mode fails the whole run (all lanes joined
            // at round 0, so this is the sequential check verbatim);
            // streaming mode retires only the offending lanes.
            let mut blown = 0u64;
            {
                let mut b = active;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    b &= b - 1;
                    if round - join_round[l] >= config.max_rounds {
                        blown |= 1u64 << l;
                    }
                }
            }
            if blown != 0 {
                let Mode::Stream { sink, .. } = &mut mode else {
                    let mut b = active;
                    while b != 0 {
                        let l = b.trailing_zeros() as usize;
                        b &= b - 1;
                        for v in 0..n {
                            // Sound: live slots hold initialized cells.
                            unsafe { std::ptr::drop_in_place(cells_ptr.add(v * w_cur + l)) };
                        }
                    }
                    // Rows already harvested drop with the caller's `rows`.
                    return Err(EngineError::RoundLimitExceeded {
                        limit: config.max_rounds,
                    });
                };
                // Streaming: scrub each blown lane out of the sweep —
                // inbox bits, meter column, undone bits, cells — and
                // report it failed, exactly as its isolated run would
                // have errored.
                let mut b = blown;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    b &= b - 1;
                    for a in 0..arcs {
                        in_lane[a] &= !(1u64 << l);
                        lane_traffic[a * w_cur + l] = 0;
                    }
                    for (v, u) in undone[..n].iter_mut().enumerate() {
                        *u &= !(1u64 << l);
                        // Sound: the blown slot's cells are initialized.
                        unsafe { std::ptr::drop_in_place(cells_ptr.add(v * w_cur + l)) };
                    }
                    trace_bufs[l].clear();
                    active &= !(1u64 << l);
                    sink(LaneRetire {
                        job: slot_job[l],
                        stats: RunStats::default(),
                        limit: Some(config.max_rounds),
                        trace: None,
                        edge_congestion: &[],
                        outputs: Some(ArenaRow::empty()),
                    });
                }
            }
            // --- Step phase: each shard steps the active lanes of its own
            // nodes. One OR pass over the node's in-arc lane words serves
            // all W lanes' liveness at once; QUIESCENT protocols then step
            // only lanes with traffic or not-done nodes. Each node's
            // in-arc lane words are consumed and zeroed here, so after the
            // swap the staging side starts clean without any extra pass.
            {
                // Sound: live slots (tracked by `active` at stride
                // `w_cur`) hold initialized cells; vacant columns are
                // never read or written through this view.
                let cells: &mut [NodeCell<P>] =
                    unsafe { std::slice::from_raw_parts_mut(cells_ptr, n * w_cur) };
                let racy_cells = RacyCells::new(cells);
                let racy_out_words = RacyCells::new(&mut *out_words);
                let racy_out_lane = RacyCells::new(&mut out_lane[..arcs]);
                let racy_in_lane = RacyCells::new(&mut in_lane[..arcs]);
                let racy_undone = RacyCells::new(&mut undone[..n]);
                let racy_sw_in = RacyCells::new(&mut *sw_in);
                let racy_sw_out = RacyCells::new(&mut *sw_out);
                let racy_socc = RacyCells::new(&mut scratch_occ[..s_count * 2 * sow]);
                let racy_sh_undone = RacyCells::new(&mut shard_undone[..s_count]);
                let in_words = &in_words[..];
                let rev = graph.reverse_arcs();
                let step_shard = |s: usize| {
                    let nodes = plan.nodes(s);
                    let (v_lo, v_hi) = (nodes.start as usize, nodes.end as usize);
                    // Sound: shard s owns its nodes' cells and undone
                    // words, its scratch regions, and — through the
                    // reverse-arc bijection — every staging slot its
                    // nodes scatter into (each arc has one sender).
                    let gw = unsafe { racy_sw_in.slice_mut(s * max_deg, (s + 1) * max_deg) };
                    let ow = unsafe { racy_sw_out.slice_mut(s * max_deg, (s + 1) * max_deg) };
                    let gocc = unsafe { racy_socc.slice_mut(s * 2 * sow, s * 2 * sow + sow) };
                    let oocc = unsafe { racy_socc.slice_mut(s * 2 * sow + sow, (s + 1) * 2 * sow) };
                    let mut sh_undone = 0u64;
                    for v in v_lo..v_hi {
                        let lo = graph.arc_offset(v as Node);
                        let deg = graph.degree(v as Node);
                        let dw = deg.div_ceil(64);
                        // Shared liveness: which lanes have inbox traffic
                        // at this node — one word OR over deg arcs for all
                        // W lanes at once.
                        let mut inbox_lanes = 0u64;
                        for a in lo..lo + deg {
                            inbox_lanes |= unsafe { racy_in_lane.read(a) };
                        }
                        let undone_v = unsafe { racy_undone.read(v) };
                        let step_lanes = if P::QUIESCENT {
                            (inbox_lanes | undone_v) & active
                        } else {
                            active
                        };
                        // Skipped lanes keep their done state (QUIESCENT
                        // promises their round() is a no-op); stepped
                        // lanes rewrite their bit below.
                        let mut new_undone = undone_v & !step_lanes;
                        let cells_v = unsafe { racy_cells.slice_mut(v * w_cur, (v + 1) * w_cur) };
                        let mut b = step_lanes;
                        while b != 0 {
                            let l = b.trailing_zeros() as usize;
                            b &= b - 1;
                            // Gather lane l's inbox: occupancy bits from
                            // the lane words, payload words from the
                            // instance-major slab. (`gocc` is all-zero on
                            // entry and re-zeroed after the step, keeping
                            // the scratch at rest zero-filled.)
                            for p in 0..deg {
                                if unsafe { racy_in_lane.read(lo + p) } >> l & 1 == 1 {
                                    gocc[p >> 6] |= 1u64 << (p & 63);
                                    gw[p] = in_words[(lo + p) * w_cur + l];
                                }
                            }
                            let cell = &mut cells_v[l];
                            {
                                let mut ctx = NodeCtx {
                                    node: v as Node,
                                    // Refilled lanes count rounds from
                                    // their own admission.
                                    round: round - join_round[l],
                                    inbox: InSlot {
                                        words: &gw[..deg],
                                        occ: &gocc[..dw],
                                        bit0: 0,
                                        bcast: None,
                                    },
                                    outbox: OutSlot::Local {
                                        words: &mut ow[..deg],
                                        occ: &mut oocc[..dw],
                                        graph,
                                    },
                                    bcast_staged: false,
                                    rng: &mut cell.rng,
                                    done: &mut cell.done,
                                    max_bits: &mut cell.max_bits,
                                };
                                cell.state.round(&mut ctx);
                            }
                            if !cell.done {
                                new_undone |= 1u64 << l;
                            }
                            gocc[..dw].fill(0);
                            // Scatter lane l's sends through the
                            // reverse-arc permutation, consuming (and
                            // zeroing) the outbox scratch as we go.
                            for (wd, occ_word) in oocc[..dw].iter_mut().enumerate() {
                                let mut bits = *occ_word;
                                *occ_word = 0;
                                while bits != 0 {
                                    let p = (wd << 6) + bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    let dest = rev[lo + p] as usize;
                                    unsafe {
                                        let cur = racy_out_lane.read(dest);
                                        racy_out_lane.write(dest, cur | 1u64 << l);
                                        racy_out_words.write(dest * w_cur + l, ow[p]);
                                    }
                                }
                            }
                        }
                        // Consume this node's inbox lane words (the only
                        // reader was this step), leaving the future
                        // staging side zero.
                        for a in lo..lo + deg {
                            unsafe { racy_in_lane.write(a, 0) };
                        }
                        unsafe { racy_undone.write(v, new_undone) };
                        sh_undone |= new_undone;
                    }
                    unsafe { racy_sh_undone.write(s, sh_undone) };
                };
                fork.each_shard(s_count, step_shard);
            }
            // --- Adversary phase: each faulted lane's plan clears its own
            // bit of the blocked arcs' staging lane words, scheduled by
            // the lane's *local* round so a refilled lane sees the same
            // adversary an isolated run of its spec would.
            let mut fl = active;
            while fl != 0 {
                let l = fl.trailing_zeros() as usize;
                fl &= fl - 1;
                let Some(fault_plan) = &slot_faults[l] else {
                    continue;
                };
                let local_round = round - join_round[l];
                let dropped = &mut slot_stats[l].dropped_messages;
                for_each_blocked_arc(
                    graph,
                    fault_plan,
                    local_round,
                    blocked,
                    fault_marks,
                    |dest| {
                        if out_lane[dest] >> l & 1 == 1 {
                            out_lane[dest] &= !(1u64 << l);
                            *dropped += 1;
                        }
                    },
                );
            }
            // --- Deliver phase: swap staging to inbox, then one sharded
            // scan over the lane words — per-arc liveness is a single
            // word test for all W lanes, and each set bit bumps its
            // lane's delivered count and its (arc, lane) congestion counter.
            std::mem::swap(&mut in_words, &mut out_words);
            std::mem::swap(in_lane, out_lane);
            {
                let racy_in_lane = RacyCells::new(&mut in_lane[..arcs]);
                let racy_traffic = RacyCells::new(&mut lane_traffic[..arcs * w_cur]);
                let racy_sd = RacyCells::new(&mut shard_delivered[..s_count * MAX_LANES]);
                let deliver_shard = |s: usize| {
                    // Sound: shard arc regions are disjoint by plan
                    // construction; the per-shard delivered block is ours.
                    let sd = unsafe { racy_sd.slice_mut(s * MAX_LANES, (s + 1) * MAX_LANES) };
                    sd.fill(0);
                    let arcs_s = plan.arcs_of(s);
                    let traffic_s =
                        unsafe { racy_traffic.slice_mut(arcs_s.start * w_cur, arcs_s.end * w_cur) };
                    for (a, traffic_a) in arcs_s.zip(traffic_s.chunks_exact_mut(w_cur)) {
                        let mut b = unsafe { racy_in_lane.read(a) };
                        while b != 0 {
                            let l = b.trailing_zeros() as usize;
                            b &= b - 1;
                            sd[l] += 1;
                            traffic_a[l] += 1;
                        }
                    }
                };
                fork.each_shard(s_count, deliver_shard);
            }
            // --- Per-lane reduction and termination, mirroring the
            // sequential loop's bookkeeping lane by lane. A lane that
            // deactivates retires on the spot: its meter column is
            // drained, its cells are finished into outputs, and the
            // result is harvested under its job id — freeing the slot
            // for refill or compaction.
            let mut undone_any = 0u64;
            for &sh in shard_undone[..s_count].iter() {
                undone_any |= sh;
            }
            round += 1;
            let mut b = active;
            while b != 0 {
                let l = b.trailing_zeros() as usize;
                b &= b - 1;
                let mut delivered = 0u64;
                for s in 0..s_count {
                    delivered += shard_delivered[s * MAX_LANES + l];
                }
                slot_stats[l].total_messages += delivered;
                if config.collect_trace {
                    trace_bufs[l].push(delivered);
                }
                if delivered > 0 {
                    slot_stats[l].rounds = round - join_round[l];
                }
                if delivered > 0 || undone_any >> l & 1 == 1 {
                    continue;
                }
                // --- Retire slot l under job id slot_job[l].
                slot_stats[l].iterations = round - join_round[l];
                active &= !(1u64 << l);
                trace_bufs[l].truncate(slot_stats[l].rounds as usize);
                let job = slot_job[l];
                // The slot's traffic column drains into its per-edge row:
                // the job's own in a batch, the scratch row when streaming.
                let edge_row = if batch { job * m } else { 0 };
                slot_stats[l].max_edge_congestion = drain_traffic_column(
                    graph,
                    lane_traffic,
                    w_cur,
                    l,
                    &mut [],
                    &mut per_edge[edge_row..edge_row + m],
                );
                slot_stats[l].max_message_bits = (0..n)
                    // Sound: the live slot's cells are initialized.
                    .map(|v| unsafe { (*cells_ptr.add(v * w_cur + l)).max_bits })
                    .max()
                    .unwrap_or(0);
                // Consume the slot's cells into per-node outputs: the
                // job's row of the batch matrix, or the streaming scratch
                // row. A panic in `finish` leaks the tail (dirty flag).
                let row: *mut P::Output = if batch {
                    // Sound: job < w0, so the row is inside the matrix.
                    unsafe { out_mat.add(job * n) }
                } else {
                    out_arena.alloc::<P::Output>(n)
                };
                // SAFETY: the row is `n` vacant output slots this
                // retirement alone writes (a batch job's own row; in
                // streaming mode the scratch row, whose previous tenant
                // went with its `LaneRetire`), and each of the live slot's
                // initialized cells is moved out exactly once.
                let row = unsafe {
                    ArenaRow::fill(row, n, |v| {
                        cells_ptr.add(v * w_cur + l).read().state.finish()
                    })
                };
                match &mut mode {
                    Mode::Batch { stats, rows } => {
                        stats[job] = slot_stats[l];
                        rows[job] = Some(row);
                        if config.collect_trace {
                            std::mem::swap(&mut trace_bufs[l], &mut job_traces[job]);
                        }
                    }
                    Mode::Stream { sink, .. } => {
                        sink(LaneRetire {
                            job,
                            stats: slot_stats[l],
                            limit: None,
                            trace: if config.collect_trace {
                                Some(&trace_bufs[l][..])
                            } else {
                                None
                            },
                            edge_congestion: &per_edge[..m],
                            outputs: Some(row),
                        });
                    }
                }
                trace_bufs[l].clear();
            }
            // --- Refill: every freed slot admits the next job from the
            // source, mid-sweep — continuous batching. New lanes join at
            // the current global round with pristine slot state.
            if let Mode::Stream { refill: rf, .. } = &mut mode {
                let mut free = !active & full_mask(w_cur);
                while free != 0 {
                    let Some(spec) = rf(jobs_admitted) else { break };
                    let slot = free.trailing_zeros() as usize;
                    free &= free - 1;
                    admit!(slot, &spec);
                }
            }
            if active == 0 {
                break;
            }
            // --- Compaction: once at most half the width is live (and
            // the refill source could not top it up), repack live lanes
            // into the low slots so tail rounds index narrower strides.
            // In-place stride narrowing is safe because destinations
            // (a·w′ + j) are visited in strictly increasing order and
            // every source index is ≥ its destination.
            let live = active.count_ones() as usize;
            if live <= w_cur / 2 {
                let w_new = live;
                let live_mask = active;
                debug_assert!(
                    out_lane[..arcs].iter().all(|&x| x == 0),
                    "staging side must be clean at a compaction point"
                );
                for a in 0..arcs {
                    let bits = in_lane[a];
                    if bits != 0 {
                        let mut mj = live_mask;
                        let mut j = 0usize;
                        while mj != 0 {
                            let lj = mj.trailing_zeros() as usize;
                            mj &= mj - 1;
                            if bits >> lj & 1 == 1 {
                                in_words[a * w_new + j] = in_words[a * w_cur + lj];
                            }
                            j += 1;
                        }
                        in_lane[a] = slab::pext(bits, live_mask);
                    }
                    // Traffic counters travel unconditionally — counts
                    // are not occupancy-gated.
                    let mut mj = live_mask;
                    let mut j = 0usize;
                    while mj != 0 {
                        let lj = mj.trailing_zeros() as usize;
                        mj &= mj - 1;
                        lane_traffic[a * w_new + j] = lane_traffic[a * w_cur + lj];
                        j += 1;
                    }
                }
                // The narrowed matrix rewrote [0, arcs·w′); everything
                // between the new and old used extents is stale copies.
                lane_traffic[arcs * w_new..arcs * w_cur].fill(0);
                for (v, ud) in undone.iter_mut().enumerate().take(n) {
                    let mut mj = live_mask;
                    let mut j = 0usize;
                    while mj != 0 {
                        let lj = mj.trailing_zeros() as usize;
                        mj &= mj - 1;
                        // Sound: live columns are initialized; each cell
                        // moves to its (≤) new index exactly once.
                        unsafe {
                            let cell = cells_ptr.add(v * w_cur + lj).read();
                            cells_ptr.add(v * w_new + j).write(cell);
                        }
                        j += 1;
                    }
                    *ud = slab::pext(*ud, live_mask);
                }
                // Slot metadata follows the same permutation. Ascending
                // swaps are safe: every later source slot index is larger
                // than any position already written.
                {
                    let mut mj = live_mask;
                    let mut j = 0usize;
                    while mj != 0 {
                        let lj = mj.trailing_zeros() as usize;
                        mj &= mj - 1;
                        if lj != j {
                            slot_faults.swap(j, lj);
                            join_round.swap(j, lj);
                            slot_job.swap(j, lj);
                            slot_stats.swap(j, lj);
                            trace_bufs.swap(j, lj);
                        }
                        j += 1;
                    }
                }
                active = full_mask(w_new);
                w_cur = w_new;
            }
        }

        *clean = true;
        Ok(jobs_admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use congest_graph::generators::{cycle, harary};

    /// Flood-max: every node converges on the maximum node id. Quiescent:
    /// once done with an empty inbox, round() reads nothing and sends
    /// nothing.
    struct FloodMax {
        best: Node,
    }

    impl Protocol for FloodMax {
        type Msg = u32;
        type Output = Node;
        const QUIESCENT: bool = true;

        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if ctx.round == 0 {
                ctx.send_all(self.best);
                return;
            }
            let prior = self.best;
            self.best = ctx.inbox().fold(self.best, |b, (_, m)| b.max(m));
            if self.best > prior {
                ctx.send_all(self.best);
            }
            ctx.set_done(true);
        }

        fn finish(self) -> Node {
            self.best
        }
    }

    /// Sends a pulse to every neighbor for `remaining` rounds, then goes
    /// quiet — used to stagger lane termination times.
    struct Pulser {
        remaining: u64,
    }

    impl Protocol for Pulser {
        type Msg = u64;
        type Output = u64;
        const QUIESCENT: bool = true;

        fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send_all(self.remaining);
            }
            ctx.set_done(self.remaining == 0);
        }

        fn finish(self) -> u64 {
            self.remaining
        }
    }

    fn check_lane_oracle<P, F>(g: &Graph, lanes: &[LaneSpec], mut factory: F, config: EngineConfig)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug + Clone,
        F: FnMut(Node, usize, &Graph) -> P + Copy,
    {
        let mut wide = Session::new(g);
        let out = wide
            .run_wide(lanes, factory, config.clone())
            .expect("wide run terminates");
        for (l, spec) in lanes.iter().enumerate() {
            let seq_cfg = EngineConfig {
                seed: spec.seed,
                faults: spec.faults,
                ..config.clone()
            };
            let mut sess = Session::new(g);
            let seq = sess
                .run(|v, gr| factory(v, l, gr), seq_cfg)
                .expect("sequential lane terminates");
            assert_eq!(out.stats(l), seq.stats, "lane {l} stats");
            assert_eq!(out.outputs(l), seq.outputs(), "lane {l} outputs");
            assert_eq!(out.trace(l), seq.trace(), "lane {l} trace");
            assert_eq!(
                out.edge_congestion(l),
                seq.edge_congestion(),
                "lane {l} edge congestion"
            );
        }
    }

    #[test]
    fn wide_floodmax_matches_sequential_lanes() {
        let g = harary(4, 20);
        let lanes = LaneSpec::batch(7, 5);
        let config = EngineConfig::with_seed(0).trace();
        check_lane_oracle(&g, &lanes, |_, _, _| FloodMax { best: 0 }, config.clone());
        // Lane-distinct initial states: lane l floods id max over v+l.
        check_lane_oracle(
            &g,
            &lanes,
            |v, l, _| FloodMax {
                best: v + l as Node,
            },
            config,
        );
    }

    #[test]
    fn wide_faulted_lanes_match_sequential() {
        let g = harary(4, 16);
        let base = FaultPlan::new(2, 99);
        let lanes: Vec<LaneSpec> = (0..6)
            .map(|l| LaneSpec::new(l as u64 + 1).with_faults(base.with_lane_seed(l)))
            .collect();
        let config = EngineConfig::with_seed(0).trace();
        check_lane_oracle(
            &g,
            &lanes,
            |v, l, _| Pulser {
                remaining: (v as u64 + l as u64) % 5 + 1,
            },
            config,
        );
    }

    #[test]
    fn staggered_termination_leaves_lane_state_zero() {
        // Lanes terminate at very different rounds; after the run, every
        // lane's slab regions must be back to all-zero (the breadcrumb
        // exit contract the next phase relies on), and a rerun on the
        // same session must reproduce the first run exactly.
        let g = cycle(12);
        let lanes: Vec<LaneSpec> = (0..9).map(|l| LaneSpec::new(l as u64)).collect();
        let factory = |_: Node, l: usize, _: &Graph| Pulser {
            remaining: 3 * l as u64 + 1,
        };
        let mut wide = Session::new(&g);
        let first: Vec<RunStats> = {
            let out = wide
                .run_wide(&lanes, factory, EngineConfig::with_seed(3))
                .unwrap();
            (0..lanes.len()).map(|l| out.stats(l)).collect()
        };
        assert!(wide.state.wide.in_lane.iter().all(|&x| x == 0));
        assert!(wide.state.wide.out_lane.iter().all(|&x| x == 0));
        assert!(wide.state.wide.scratch_occ.iter().all(|&x| x == 0));
        assert!(wide.state.wide.lane_traffic.iter().all(|&x| x == 0));
        let out = wide
            .run_wide(&lanes, factory, EngineConfig::with_seed(3))
            .unwrap();
        for (l, st) in first.iter().enumerate() {
            assert_eq!(out.stats(l), *st, "rerun reproduces lane {l}");
        }
        // Staggering is real: later lanes pulse longer.
        assert!(first[8].rounds > first[0].rounds);
    }

    #[test]
    fn take_lane_outputs_moves_each_lane_once() {
        let g = cycle(6);
        let lanes = LaneSpec::batch(1, 3);
        let mut wide = Session::new(&g);
        let mut out = wide
            .run_wide(
                &lanes,
                |_, _, _| FloodMax { best: 1 },
                EngineConfig::with_seed(0),
            )
            .unwrap();
        let lane1 = out.take_lane_outputs(1);
        assert_eq!(lane1, vec![1; 6]);
        assert_eq!(out.outputs(0), &[1; 6]);
    }

    #[test]
    #[should_panic(expected = "outputs taken")]
    fn outputs_after_take_panics() {
        let g = cycle(4);
        let lanes = LaneSpec::batch(1, 2);
        let mut wide = Session::new(&g);
        let mut out = wide
            .run_wide(
                &lanes,
                |_, _, _| FloodMax { best: 1 },
                EngineConfig::with_seed(0),
            )
            .unwrap();
        let _ = out.take_lane_outputs(0);
        let _ = out.outputs(0);
    }

    /// A protocol that *may not* be skipped: it counts its own round()
    /// invocations — QUIESCENT = false keeps wide stepping it every
    /// round like the sequential engine does.
    struct Counter {
        calls: u64,
        quit_after: u64,
    }

    impl Protocol for Counter {
        type Msg = u64;
        type Output = u64;

        fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            self.calls += 1;
            if ctx.round == 0 {
                ctx.send(0, 1);
            }
            ctx.set_done(self.calls >= self.quit_after);
        }

        fn finish(self) -> u64 {
            self.calls
        }
    }

    #[test]
    fn non_quiescent_lanes_step_every_round() {
        let g = cycle(8);
        let lanes = LaneSpec::batch(2, 4);
        let config = EngineConfig::with_seed(0);
        check_lane_oracle(
            &g,
            &lanes,
            |_, l, _| Counter {
                calls: 0,
                quit_after: l as u64 + 2,
            },
            config,
        );
    }

    /// `send` on one port per round with `(u64, u64)` pair messages
    /// (u128 wire words) — exercises the wide slab's byte-keyed width
    /// handling beyond u64.
    struct RingPass {
        acc: u64,
        hops: u64,
    }

    impl Protocol for RingPass {
        type Msg = (u64, u64);
        type Output = u64;
        const QUIESCENT: bool = true;

        fn round(&mut self, ctx: &mut NodeCtx<'_, (u64, u64)>) {
            if ctx.round == 0 {
                ctx.send(0, (ctx.node as u64, 1));
                ctx.set_done(true);
                return;
            }
            let mut relay = None;
            for (_, (origin, hop)) in ctx.inbox() {
                self.acc ^= origin.rotate_left(hop as u32);
                if hop < self.hops {
                    relay = Some((origin, hop + 1));
                }
            }
            if let Some(msg) = relay {
                ctx.send(0, msg);
            }
            ctx.set_done(true);
        }

        fn finish(self) -> u64 {
            self.acc
        }
    }

    #[test]
    fn wide_u128_messages_match_sequential() {
        let g = cycle(10);
        let lanes = LaneSpec::batch(11, 5);
        check_lane_oracle(
            &g,
            &lanes,
            |_, l, _| RingPass {
                acc: 0,
                hops: l as u64 + 2,
            },
            EngineConfig::with_seed(0).trace(),
        );
    }
}
