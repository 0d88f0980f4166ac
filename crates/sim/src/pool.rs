//! Broadcast-as-a-service: a multi-tenant session pool with a job plane.
//!
//! ## The serving problem
//!
//! The engine amortizes state per graph ([`crate::Session`]), but it is a
//! *library*: every caller owns its own engine. Serving many concurrent
//! runs — the heavy-traffic workload PAPERS.md frames via
//! Paramonov–Wattenhofer's congested random graphs — needs the layer
//! above: warm state shared across callers.
//!
//! ## The pool
//!
//! A [`SessionPool`] holds one entry per graph, keyed by
//! [`Graph::fingerprint`] (a hash of the canonical CSR, so two tenants
//! registering equal graphs share one entry): the graph and at most one
//! warm `SessionState`. Checkout is closure-scoped:
//! [`SessionPool::with_session`] takes the warm state (or builds one on a
//! miss), marries it to the entry's graph as a [`Session`], runs the
//! closure, and parks the state back. Checkout borrows the pool mutably,
//! so no second state of a graph is ever out at once, and one parked
//! state is all a graph can use. A warm checkout cycle allocates
//! nothing (pinned by `tests/zero_alloc.rs`), so steady-state serving
//! builds no engine state at all. Warm state stays in its process: a
//! snapshot frame carries what a continuation reads, not a cache
//! ([`crate::snapshot`]).
//! A key the pool does not hold — never registered here, or aged out — is
//! [`PoolError::UnknownGraph`] from every keyed call, never a panic.
//!
//! ## The job plane
//!
//! A [`PoolServer`] admits [`Job`] submissions into a bounded queue and
//! executes them on [`PoolServer::drain`]: **every job, in submission
//! order, is one [`Session::run`] on its graph's warm session**, with its
//! own seed and fault plan. Nothing is coalesced: since [`Session::run`]
//! steps only a round's frontier, W jobs as lanes of one batched sweep
//! cost more than W warm runs on every graph and job count measured
//! (DESIGN.md §10 has the tables), so the batched kernel is gone.
//!
//! A warm session leaves no trace of the phases it ran, so **any
//! interleaving of submissions produces outputs bit-identical to running
//! each job alone on a fresh `Session`** ([`run_job_isolated`] is that
//! oracle; `tests/proptest_pool.rs` pins the equivalence). Backpressure is
//! bounded-queue: [`PoolServer::try_submit`] refuses when full,
//! [`PoolServer::submit`] drains the backlog first. Engine-level
//! parallelism still applies inside each run — sharded step/deliver on
//! the `congest-par` workers, decided by the pool width alone — so the
//! serving loop stays single-threaded and deterministic while the rounds
//! are not.
//!
//! The job plane is a *closed* protocol menu ([`JobSpec`]): `Protocol` is
//! generic over message and output types, and a job's outputs come back
//! as one `u64` per node whatever the family. Its flood-max is no protocol
//! of its own: [`JobSpec::FloodMax`] runs [`leader::FloodMax`], the
//! ranked election the Theorem 1 drivers elect their root with.
//!
//! ## Aging
//!
//! A long-lived server accumulates graph entries and warm states for
//! traffic that may never return. [`EvictionPolicy`] bounds both — live
//! graph count and total warm-state bytes — evicted LRU-first by a
//! logical clock stamped per checkout. [`PoolServer::drain`] enforces
//! the policy each time the queue empties; eviction counters sit next
//! to hit/miss ([`SessionPool::graph_evictions`],
//! [`SessionPool::warm_evictions`]), and `fastbcast serve` exposes the
//! budgets as `--max-graphs` / `--max-warm-bytes`.

use crate::engine::{EngineConfig, EngineError, RunStats};
use crate::fault::FaultPlan;
use crate::leader;
use crate::protocol::{NodeCtx, Protocol};
use crate::session::{Session, SessionState};
use congest_graph::{Graph, Node};
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifies a registered graph inside a pool: the
/// [`Graph::fingerprint`] of its canonical CSR. Equal graphs registered
/// by different tenants yield the same key and share warm state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphKey(u64);

impl GraphKey {
    /// The underlying CSR fingerprint.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.0
    }
}

/// Bounds on a [`SessionPool`]'s retained footprint, enforced by
/// [`SessionPool::enforce_eviction`] (a [`PoolServer`] enforces it at the
/// end of every drain). Both budgets evict **least-recently-used first**,
/// by a logical clock stamped at every checkout/registration — a
/// long-lived server sheds the graphs and warm states its traffic no
/// longer touches.
///
/// * `max_graphs` bounds live registered graphs. Evicting a graph drops
///   its entry *and* its warm state; the key becomes unregistered
///   (submissions for it get [`PoolError::UnknownGraph`]) until someone
///   re-registers the graph — which yields the **same key**, since keys
///   are content fingerprints.
/// * `max_warm_bytes` bounds the summed [estimated footprint] of parked
///   warm states across all entries. Only warm states are dropped for
///   this budget (oldest entry first), never registrations — the next
///   checkout of an affected graph is simply a cold build.
///
/// [estimated footprint]: SessionPool::warm_bytes
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Most registered graphs kept live. `usize::MAX` = unbounded.
    pub max_graphs: usize,
    /// Most bytes of parked warm state kept, summed over all entries.
    /// `usize::MAX` = unbounded.
    pub max_warm_bytes: usize,
}

impl Default for EvictionPolicy {
    /// Unbounded: nothing is ever evicted until a budget is set.
    fn default() -> EvictionPolicy {
        EvictionPolicy {
            max_graphs: usize::MAX,
            max_warm_bytes: usize::MAX,
        }
    }
}

/// A pool of warm, graph-keyed engine states. See the module docs for
/// the checkout discipline.
///
/// # Example
///
/// Two tenants registering equal graphs share one warm entry; every
/// checkout after the first reuses the state the previous one parked:
///
/// ```
/// use congest_graph::generators::complete;
/// use congest_sim::{EngineConfig, NodeCtx, Protocol, SessionPool};
///
/// struct Ping;
/// impl Protocol for Ping {
///     type Msg = u64;
///     type Output = u64;
///     fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
///         if ctx.round == 0 {
///             ctx.send_all(1);
///         } else {
///             ctx.set_done(true);
///         }
///     }
///     fn finish(self) -> u64 {
///         0
///     }
/// }
///
/// let mut pool = SessionPool::new();
/// let a = pool.register(complete(6));
/// let b = pool.register(complete(6)); // same canonical CSR, same key
/// assert_eq!(a, b);
/// for _ in 0..3 {
///     pool.with_session(a, |session| {
///         session.run(|_, _| Ping, EngineConfig::default()).unwrap();
///     })
///     .expect("registered above");
/// }
/// assert_eq!(pool.misses(), 1); // only the first checkout built state
/// assert_eq!(pool.hits(), 2);
/// ```
#[derive(Default)]
pub struct SessionPool {
    /// Slot-stable entry table: eviction tombstones a slot (`None`) and
    /// parks its index on `free` for the next registration, so live
    /// indices never move and the fingerprint map never rehashes in
    /// steady state.
    entries: Vec<Option<PoolEntry>>,
    free: Vec<usize>,
    /// fingerprint → index into `entries`.
    index: HashMap<u64, usize>,
    policy: EvictionPolicy,
    /// Logical LRU clock: bumped on every checkout/registration, stamped
    /// into the touched entry. No wall time — eviction order is a
    /// deterministic function of the access sequence.
    clock: u64,
    hits: u64,
    misses: u64,
    graph_evictions: u64,
    warm_evictions: u64,
}

struct PoolEntry {
    graph: Graph,
    /// The graph's warm state, if one is parked: at most one (checkout
    /// pops it, release pushes it back). A `Vec` rather than an
    /// `Option<SessionState>`, so that an entry, and a registration, does
    /// not grow with `SessionState`, and a release into the capacity the
    /// first park sized allocates nothing.
    warm: Vec<SessionState>,
    /// Clock stamp of the last checkout/registration of this entry.
    last_used: u64,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// Register `graph`, returning its key. Registering an equal graph
    /// again (any tenant) returns the same key and keeps the existing
    /// warm state; re-registering an **evicted** graph also returns the
    /// same key (keys are content fingerprints), just cold. Panics on a
    /// fingerprint collision between *unequal* graphs — with a 64-bit
    /// avalanche hash that is a program error, not an operational
    /// condition.
    pub fn register(&mut self, graph: Graph) -> GraphKey {
        let fp = graph.fingerprint();
        self.clock += 1;
        match self.index.get(&fp) {
            Some(&i) => {
                let entry = self.entries[i].as_mut().expect("indexed entries are live");
                assert!(
                    entry.graph == graph,
                    "graph fingerprint collision: unequal graphs hash to {fp:#x}"
                );
                entry.last_used = self.clock;
            }
            None => {
                let entry = PoolEntry {
                    graph,
                    // Sized by the first state parked here: a registration's
                    // allocations do not depend on `SessionState`'s size.
                    warm: Vec::new(),
                    last_used: self.clock,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.entries[i] = Some(entry);
                        i
                    }
                    None => {
                        self.entries.push(Some(entry));
                        self.entries.len() - 1
                    }
                };
                self.index.insert(fp, i);
            }
        }
        GraphKey(fp)
    }

    /// Replace the eviction policy. Takes effect at the next
    /// [`SessionPool::enforce_eviction`] — setting a tighter budget does
    /// not evict anything by itself.
    pub fn set_policy(&mut self, policy: EvictionPolicy) {
        self.policy = policy;
    }

    /// The current eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Does nothing: a pool keeps at most one warm state per graph,
    /// which is all a graph can use. Kept callable because `benchmark/`
    /// calls it with 1; goes with the benchmark PR.
    pub fn set_warm_limit(&mut self, _warm_limit: usize) {}

    /// Live (non-evicted) registered graphs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no graph is currently registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Estimated heap footprint of the warm state parked for `key`, in
    /// bytes (0 if none is) — capacity-based (slabs, arenas, scratch
    /// vectors), so it reflects what eviction would actually free.
    pub fn warm_bytes(&self, key: GraphKey) -> Result<usize, PoolError> {
        let entry = self.entry(self.entry_index(key)?);
        Ok(entry.warm.iter().map(SessionState::warm_bytes).sum())
    }

    /// Estimated heap footprint of all parked warm states, in bytes —
    /// the quantity [`EvictionPolicy::max_warm_bytes`] budgets.
    pub fn warm_bytes_total(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .flat_map(|e| e.warm.iter().map(SessionState::warm_bytes))
            .sum()
    }

    /// Graph entries evicted so far (the LRU `max_graphs` budget).
    pub fn graph_evictions(&self) -> u64 {
        self.graph_evictions
    }

    /// Warm states dropped by eviction so far — by the `max_warm_bytes`
    /// budget, or by riding on an evicted graph entry.
    pub fn warm_evictions(&self) -> u64 {
        self.warm_evictions
    }

    /// Apply the eviction policy now: drop least-recently-used graph
    /// entries until at most `max_graphs` remain, then drop warm states
    /// (oldest entry first) until the warm footprint fits
    /// `max_warm_bytes`. Under-budget pools pay one scan and allocate
    /// nothing. [`PoolServer::drain`] calls this after the
    /// queue empties, so a serving loop ages out cold graphs without any
    /// explicit management.
    pub fn enforce_eviction(&mut self) {
        while self.index.len() > self.policy.max_graphs {
            let (&fp, &i) = self
                .index
                .iter()
                .min_by_key(|(_, &i)| self.entry(i).last_used)
                .expect("len > max_graphs ≥ 0 entries");
            self.index.remove(&fp);
            let entry = self.entries[i].take().expect("indexed entries are live");
            self.free.push(i);
            self.graph_evictions += 1;
            self.warm_evictions += entry.warm.len() as u64;
        }
        let mut total = self.warm_bytes_total();
        while total > self.policy.max_warm_bytes {
            let Some(i) = self
                .index
                .values()
                .copied()
                .filter(|&i| !self.entry(i).warm.is_empty())
                .min_by_key(|&i| self.entry(i).last_used)
            else {
                break; // nothing warm left to shed
            };
            let entry = self.entries[i].as_mut().expect("indexed entries are live");
            let state = entry.warm.pop().expect("filtered on a parked state");
            total -= state.warm_bytes().min(total);
            self.warm_evictions += 1;
        }
    }

    /// Whether `key` is registered (and not evicted).
    pub fn contains(&self, key: GraphKey) -> bool {
        self.index.contains_key(&key.0)
    }

    /// The registered graph behind `key`.
    pub fn graph(&self, key: GraphKey) -> Result<&Graph, PoolError> {
        Ok(&self.entry(self.entry_index(key)?).graph)
    }

    /// Checkouts served from a warm state.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that had to build fresh state.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Where `key`'s entry lives, or [`PoolError::UnknownGraph`] for a
    /// key this pool does not hold — another pool's, or one whose graph
    /// aged out (re-registering the graph brings the same key back).
    fn entry_index(&self, key: GraphKey) -> Result<usize, PoolError> {
        self.index
            .get(&key.0)
            .copied()
            .ok_or(PoolError::UnknownGraph(key))
    }

    fn entry(&self, i: usize) -> &PoolEntry {
        self.entries[i].as_ref().expect("indexed entries are live")
    }

    /// Check out a [`Session`] for `key`: stamp the LRU clock, take the
    /// warm state (or build one), run `f`, park the state back. The
    /// closure is higher-ranked over the session lifetime, so results must
    /// be moved out (e.g. [`crate::PhaseOutcome::take_outputs`]) — nothing
    /// can keep borrowing the pooled buffers after release. `f` does not
    /// run for a key the pool does not hold. A panic inside `f` drops the
    /// checked-out state instead of re-pooling it.
    pub fn with_session<R>(
        &mut self,
        key: GraphKey,
        f: impl FnOnce(&mut Session<'_>) -> R,
    ) -> Result<R, PoolError> {
        let i = self.entry_index(key)?;
        self.clock += 1;
        let entry = self.entries[i].as_mut().expect("indexed entries are live");
        entry.last_used = self.clock;
        let state = match entry.warm.pop() {
            Some(s) => {
                self.hits += 1;
                s
            }
            None => {
                self.misses += 1;
                SessionState::new(&entry.graph)
            }
        };
        let mut session = Session::from_state(&entry.graph, state);
        let r = f(&mut session);
        debug_assert!(entry.warm.is_empty(), "one warm state per graph");
        entry.warm.push(session.into_state());
        Ok(r)
    }
}

/// A tenant identifier — opaque to the pool, used only for metering.
pub type Tenant = u32;

/// The closed protocol menu the job plane serves: what varies between
/// jobs is *parameters* (per-job sources, budgets, seeds, faults), and
/// every family's output is one `u64` per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// Leader election by flood-max of ranks ([`leader::FloodMax`]): every
    /// node outputs the node of highest [`leader::rank`] in its connected
    /// component — the root Theorem 1's drivers elect — in
    /// `ecc(leader) + 1 ≤ D + 1` rounds. Under a fault plan a node outputs
    /// the node of the highest rank that reached it.
    FloodMax,
    /// Single-source rumor spreading from `source`: every node outputs
    /// the round it first heard the rumor (`u64::MAX` if never, e.g.
    /// when the fault adversary cut every path).
    Rumor { source: Node },
    /// Seeded dense gossip for `rounds` rounds: every node stirs its RNG
    /// and inbox into an accumulator and chatters to all neighbors.
    Gossip { rounds: u64 },
}

/// One unit of serving work: a protocol family on a registered graph,
/// with the job's own seed and fault plan, attributed to a tenant.
#[derive(Debug, Clone)]
pub struct Job {
    pub graph: GraphKey,
    pub protocol: JobSpec,
    pub seed: u64,
    pub faults: Option<FaultPlan>,
    pub tenant: Tenant,
}

/// Server-assigned submission id; outputs come back ordered by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw submission counter value.
    #[inline]
    pub fn index(&self) -> u64 {
        self.0
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to termination; `outputs` and `stats` are authoritative.
    Done,
    /// Exceeded the server's shared `max_rounds` budget (its isolated
    /// run would too); `outputs` is empty and `stats` zeroed.
    RoundLimit { limit: u64 },
    /// The job's graph was evicted between submission and drain (an
    /// eviction pass the caller ran through [`PoolServer::pool_mut`]
    /// while the job sat in the queue), so the job never ran; `outputs`
    /// is empty and `stats` zeroed. Re-register the graph and resubmit.
    GraphEvicted,
}

/// What a job hands [`PoolServer`]'s bookkeeping when it retires: its
/// outputs and stats, or the status it failed with.
type JobResult = Result<(Vec<u64>, RunStats), JobStatus>;

/// One completed job: per-node outputs (a family-specific `u64` per
/// node) plus the run's meters — bit-identical to what the job's
/// isolated run on a fresh [`Session`] would report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    pub id: JobId,
    pub tenant: Tenant,
    pub status: JobStatus,
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<u64>,
    pub stats: RunStats,
}

/// Aggregate congestion/bit meters for one tenant, summed over its jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMeter {
    /// Jobs retired (including round-limit failures and jobs whose
    /// graph was evicted before they ran).
    pub jobs: u64,
    /// Total CONGEST rounds across the tenant's jobs.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Messages destroyed by the tenant's fault plans.
    pub dropped: u64,
    /// Worst per-edge congestion any of the tenant's jobs caused.
    pub max_edge_congestion: u64,
    /// Widest message any of the tenant's jobs put on a wire, in bits: the
    /// maximum of their [`RunStats::max_message_bits`], so a job's wire
    /// type's `PackedMsg::WIDTH` if it sent anything.
    pub max_message_bits: usize,
}

impl TenantMeter {
    fn absorb(&mut self, stats: &RunStats) {
        self.jobs += 1;
        self.rounds += stats.rounds;
        self.messages += stats.total_messages;
        self.dropped += stats.dropped_messages;
        self.max_edge_congestion = self.max_edge_congestion.max(stats.max_edge_congestion);
        self.max_message_bits = self.max_message_bits.max(stats.max_message_bits);
    }
}

/// Submission failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The key names no graph this pool holds: it was never registered
    /// here, or its graph aged out since.
    UnknownGraph(GraphKey),
    /// The bounded queue is full; drain (or use [`PoolServer::submit`],
    /// which drains for you) and resubmit.
    Backpressure { capacity: usize },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownGraph(k) => {
                write!(f, "graph {:#018x} is not registered", k.fingerprint())
            }
            PoolError::Backpressure { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// The in-process job plane: a [`SessionPool`] plus a bounded submission
/// queue and per-tenant meters. See the module docs.
pub struct PoolServer {
    pool: SessionPool,
    queue: VecDeque<(JobId, Job)>,
    capacity: usize,
    config: EngineConfig,
    next_id: u64,
    meters: HashMap<Tenant, TenantMeter>,
    solo_jobs: u64,
}

impl PoolServer {
    /// A server whose runs share `config` (each job's `seed`/`faults`
    /// supersede the config's) and whose queue holds at most
    /// `queue_capacity` pending jobs.
    pub fn new(config: EngineConfig, queue_capacity: usize) -> PoolServer {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        PoolServer {
            pool: SessionPool::new(),
            queue: VecDeque::with_capacity(queue_capacity),
            capacity: queue_capacity,
            config,
            next_id: 0,
            meters: HashMap::new(),
            solo_jobs: 0,
        }
    }

    /// Register a graph for serving (delegates to
    /// [`SessionPool::register`]).
    pub fn register_graph(&mut self, graph: Graph) -> GraphKey {
        self.pool.register(graph)
    }

    /// The underlying pool (hit/miss/eviction counters, warm bytes).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Mutable access to the underlying pool — the knob panel for
    /// [`SessionPool::set_policy`].
    pub fn pool_mut(&mut self) -> &mut SessionPool {
        &mut self.pool
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The bounded queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Always 0: no job is batched with another. Kept callable because
    /// `benchmark/` reads it; goes with the benchmark PR.
    pub fn batched_jobs(&self) -> u64 {
        0
    }

    /// Jobs run so far — each one a [`Session::run`] on its graph's warm
    /// session.
    pub fn solo_jobs(&self) -> u64 {
        self.solo_jobs
    }

    /// Always 0, and kept for the same reason as
    /// [`PoolServer::batched_jobs`].
    pub fn refilled_jobs(&self) -> u64 {
        0
    }

    /// Admit `job` if the queue has room; [`PoolError::Backpressure`]
    /// otherwise. The job is validated (graph key known) either way.
    pub fn try_submit(&mut self, job: Job) -> Result<JobId, PoolError> {
        if !self.pool.contains(job.graph) {
            return Err(PoolError::UnknownGraph(job.graph));
        }
        if self.queue.len() >= self.capacity {
            return Err(PoolError::Backpressure {
                capacity: self.capacity,
            });
        }
        Ok(self.enqueue(job))
    }

    /// Admit `job`, draining the backlog into `completed` first if the
    /// queue is full — the blocking face of the bounded queue. The graph
    /// key is validated again after that drain: its eviction pass may age
    /// out the job's own graph, and a job must never be queued for a key
    /// the pool no longer holds.
    pub fn submit(&mut self, job: Job, completed: &mut Vec<JobOutput>) -> Result<JobId, PoolError> {
        if !self.pool.contains(job.graph) {
            return Err(PoolError::UnknownGraph(job.graph));
        }
        if self.queue.len() >= self.capacity {
            self.drain(completed);
            if !self.pool.contains(job.graph) {
                return Err(PoolError::UnknownGraph(job.graph));
            }
        }
        Ok(self.enqueue(job))
    }

    fn enqueue(&mut self, job: Job) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back((id, job));
        id
    }

    /// The per-tenant aggregate meter (zero if the tenant never ran).
    pub fn meter(&self, tenant: Tenant) -> TenantMeter {
        self.meters.get(&tenant).copied().unwrap_or_default()
    }

    /// All tenant meters, sorted by tenant id.
    pub fn meters(&self) -> Vec<(Tenant, TenantMeter)> {
        let mut v: Vec<_> = self.meters.iter().map(|(&t, &m)| (t, m)).collect();
        v.sort_by_key(|&(t, _)| t);
        v
    }

    /// Run everything queued, in submission (id) order, appending one
    /// [`JobOutput`] per job to `out`, then enforce the pool's eviction
    /// policy ([`SessionPool::enforce_eviction`]) while the queue is
    /// empty. Every output is bit-identical to the job's isolated run. A
    /// job exceeding the round budget retires alone as
    /// [`JobStatus::RoundLimit`]; one whose graph is no longer registered
    /// retires as [`JobStatus::GraphEvicted`].
    pub fn drain(&mut self, out: &mut Vec<JobOutput>) {
        while let Some((id, job)) = self.queue.pop_front() {
            let res = self.run_solo(&job);
            self.record(id, &job, res, out);
        }
        self.pool.enforce_eviction();
    }

    fn run_solo(&mut self, job: &Job) -> JobResult {
        let cfg = EngineConfig {
            seed: job.seed,
            faults: job.faults,
            ..self.config.clone()
        };
        let res = self
            .pool
            .with_session(job.graph, |s| run_spec_on_session(s, &job.protocol, cfg))
            .map_err(|_unknown_graph| JobStatus::GraphEvicted)?;
        self.solo_jobs += 1;
        res.map_err(|EngineError::RoundLimitExceeded { limit }| JobStatus::RoundLimit { limit })
    }

    fn record(&mut self, id: JobId, job: &Job, res: JobResult, out: &mut Vec<JobOutput>) {
        let (outputs, stats, status) = match res {
            Ok((o, s)) => (o, s, JobStatus::Done),
            Err(failed) => (Vec::new(), RunStats::default(), failed),
        };
        self.meters.entry(job.tenant).or_default().absorb(&stats);
        out.push(JobOutput {
            id,
            tenant: job.tenant,
            status,
            outputs,
            stats,
        });
    }
}

/// Run one job alone on a **fresh** [`Session`] — the oracle the pool is
/// held to (`tests/proptest_pool.rs`). Per-job `seed`/`faults` supersede
/// `config`'s exactly as the server's runs do.
pub fn run_job_isolated(
    graph: &Graph,
    spec: &JobSpec,
    seed: u64,
    faults: Option<FaultPlan>,
    config: &EngineConfig,
) -> Result<(Vec<u64>, RunStats), EngineError> {
    let cfg = EngineConfig {
        seed,
        faults,
        ..config.clone()
    };
    let mut session = Session::new(graph);
    run_spec_on_session(&mut session, spec, cfg)
}

fn run_spec_on_session(
    session: &mut Session<'_>,
    spec: &JobSpec,
    cfg: EngineConfig,
) -> Result<(Vec<u64>, RunStats), EngineError> {
    match *spec {
        JobSpec::FloodMax => {
            let ph = session.run(|v, _| leader::FloodMax::new(v), cfg)?;
            let leaders = ph.outputs().iter().map(|o| o.leader as u64).collect();
            Ok((leaders, ph.stats))
        }
        JobSpec::Rumor { source } => {
            let ph = session.run(
                |v, _| Rumor {
                    is_source: v == source,
                    heard: u64::MAX,
                },
                cfg,
            )?;
            let stats = ph.stats;
            Ok((ph.take_outputs(), stats))
        }
        JobSpec::Gossip { rounds } => {
            let ph = session.run(
                |v, _| Gossip {
                    until: rounds,
                    acc: v as u64,
                },
                cfg,
            )?;
            let stats = ph.stats;
            Ok((ph.take_outputs(), stats))
        }
    }
}

/// Single-source rumor spreading (see [`JobSpec::Rumor`]).
struct Rumor {
    is_source: bool,
    heard: u64,
}

impl Protocol for Rumor {
    type Msg = u64;
    type Output = u64;
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        if ctx.round == 0 {
            if self.is_source {
                self.heard = 0;
                ctx.send_all(0);
            }
            ctx.set_done(true);
            return;
        }
        if self.heard == u64::MAX && ctx.inbox_len() > 0 {
            let r = ctx.round;
            self.heard = r;
            ctx.send_all(r);
        }
        ctx.set_done(true);
    }

    fn finish(self) -> u64 {
        self.heard
    }
}

/// Seeded dense gossip (see [`JobSpec::Gossip`]).
struct Gossip {
    until: u64,
    acc: u64,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.acc = ctx.inbox().fold(self.acc, |acc, (p, m)| {
            acc.rotate_left(7)
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(m ^ p as u64)
        });
        if ctx.round < self.until {
            let stir: u64 = ctx.rng().gen();
            self.acc ^= stir;
            ctx.send_all(self.acc);
        }
        ctx.set_done(ctx.round + 1 >= self.until);
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{cycle, harary, torus2d};

    fn mk_job(graph: GraphKey, protocol: JobSpec, seed: u64, tenant: Tenant) -> Job {
        Job {
            graph,
            protocol,
            seed,
            faults: None,
            tenant,
        }
    }

    #[test]
    fn register_dedups_equal_graphs() {
        let mut pool = SessionPool::new();
        let a = pool.register(harary(4, 16));
        let b = pool.register(harary(4, 16));
        assert_eq!(a, b);
        let c = pool.register(harary(4, 18));
        assert_ne!(a, c);
    }

    #[test]
    fn warm_states_are_reused() {
        let mut pool = SessionPool::new();
        let k = pool.register(cycle(8));
        assert_eq!(pool.warm_bytes(k), Ok(0));
        for _ in 0..3 {
            pool.with_session(k, |s| {
                s.run(|v, _| leader::FloodMax::new(v), EngineConfig::default())
                    .unwrap()
                    .stats
            })
            .unwrap();
        }
        assert!(pool.warm_bytes(k).unwrap() > 0);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 2);
    }

    /// A key the pool no longer holds is a typed error from every keyed
    /// call — none runs its closure, none panics — and re-registering the
    /// graph brings the same key back, cold and working.
    #[test]
    fn evicted_key_is_a_typed_error_until_reregistered() {
        let mut pool = SessionPool::new();
        let ga = cycle(6);
        let ka = pool.register(ga.clone());
        pool.with_session(ka, |_| ()).unwrap(); // parks a warm state
        let kb = pool.register(harary(4, 16)); // ka is now the LRU entry
        pool.set_policy(EvictionPolicy {
            max_graphs: 1,
            max_warm_bytes: usize::MAX,
        });
        pool.enforce_eviction();
        assert!(!pool.contains(ka) && pool.contains(kb));

        let gone = PoolError::UnknownGraph(ka);
        assert_eq!(pool.graph(ka).err(), Some(gone));
        assert_eq!(pool.warm_bytes(ka), Err(gone));
        let mut ran = false;
        assert_eq!(pool.with_session(ka, |_| ran = true), Err(gone));
        assert!(!ran, "no checkout, no closure call");
        // So is a key some other pool handed out.
        let foreign = SessionPool::new().register(cycle(7));
        assert_eq!(
            pool.with_session(foreign, |_| ()),
            Err(PoolError::UnknownGraph(foreign))
        );
        let (hits, misses) = (pool.hits(), pool.misses());

        assert_eq!(pool.register(ga.clone()), ka);
        assert_eq!(pool.graph(ka), Ok(&ga));
        assert_eq!(pool.warm_bytes(ka), Ok(0));
        let best = pool
            .with_session(ka, |s| {
                s.run(|v, _| leader::FloodMax::new(v), EngineConfig::default())
                    .unwrap()
                    .outputs()
                    .iter()
                    .map(|o| o.leader)
                    .collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(best, vec![5; 6]);
        // The refused calls counted as neither hit nor miss.
        assert_eq!((pool.hits(), pool.misses()), (hits, misses + 1));
    }

    /// The mini oracle: a mixed drain is bit-identical, job for job, to
    /// isolated fresh-session runs (the full version with faults,
    /// shards, and meters lives in `tests/proptest_pool.rs`).
    #[test]
    fn mixed_drain_matches_isolated_runs() {
        let cfg = EngineConfig::default();
        let mut server = PoolServer::new(cfg.clone(), 64);
        let g1 = harary(4, 24);
        let g2 = torus2d(4, 5);
        let k1 = server.register_graph(g1.clone());
        let k2 = server.register_graph(g2.clone());
        let mut jobs = Vec::new();
        for i in 0..13u64 {
            let (key, g_n) = if i % 3 == 0 {
                (k2, g2.n())
            } else {
                (k1, g1.n())
            };
            let protocol = match i % 4 {
                0 => JobSpec::FloodMax,
                1 => JobSpec::Rumor {
                    source: (i as Node * 5) % g_n as Node,
                },
                2 => JobSpec::Gossip { rounds: 3 + i % 3 },
                _ => JobSpec::Rumor { source: 0 },
            };
            let mut job = mk_job(key, protocol, 0xAB0 + i, (i % 3) as Tenant);
            if i % 5 == 0 {
                job.faults = Some(FaultPlan::new(1, 0xFA + i));
            }
            jobs.push(job);
        }
        let mut out = Vec::new();
        for job in &jobs {
            server.submit(job.clone(), &mut out).unwrap();
        }
        server.drain(&mut out);
        assert_eq!(out.len(), jobs.len());
        assert_eq!(server.solo_jobs(), jobs.len() as u64);
        for (o, job) in out.iter().zip(&jobs) {
            let g = if job.graph == k1 { &g1 } else { &g2 };
            let (outputs, stats) =
                run_job_isolated(g, &job.protocol, job.seed, job.faults, &cfg).unwrap();
            assert_eq!(o.status, JobStatus::Done);
            assert_eq!(o.outputs, outputs, "job {:?} outputs", o.id);
            assert_eq!(o.stats, stats, "job {:?} stats", o.id);
            assert_eq!(o.tenant, job.tenant);
        }
        // Meters really aggregate the per-job stats.
        let total: u64 = out.iter().map(|o| o.stats.total_messages).sum();
        let metered: u64 = server.meters().iter().map(|(_, m)| m.messages).sum();
        assert_eq!(total, metered);
        let jobs_metered: u64 = server.meters().iter().map(|(_, m)| m.jobs).sum();
        assert_eq!(jobs_metered, out.len() as u64);
    }

    /// Both quiescent families keep their promise: a run that skips done
    /// nodes with empty inboxes equals one that steps everyone, faults on
    /// and off (`check_quiescent` supplies shard counts and thresholds).
    #[test]
    fn quiescent_families_match_their_eager_twins() {
        use congest_graph::generators::gnp_connected;
        for (i, g) in [harary(6, 40), torus2d(5, 7), gnp_connected(36, 0.15, 9)]
            .iter()
            .enumerate()
        {
            for faults in [None, Some(FaultPlan::new(2, 0xFA17 + i as u64))] {
                let base = EngineConfig {
                    seed: 0xE6 + i as u64,
                    faults,
                    ..EngineConfig::default()
                };
                let source = (7 * i + 3) as Node;
                crate::check_quiescent(g, |v, _| leader::FloodMax::new(v), &base).unwrap();
                crate::check_quiescent(
                    g,
                    |v, _| Rumor {
                        is_source: v == source,
                        heard: u64::MAX,
                    },
                    &base,
                )
                .unwrap();
            }
        }
    }

    /// A flood-max job is the ranked election: where raw ids cost
    /// `≈ m · D` (about 7× the bound here), it stays within
    /// `2m · (2 + ln n)` messages.
    #[test]
    fn flood_max_jobs_stay_within_the_ranked_bound() {
        for g in [harary(8, 1024), harary(16, 1024), torus2d(64, 64)] {
            let (_, stats) =
                run_job_isolated(&g, &JobSpec::FloodMax, 1, None, &EngineConfig::default())
                    .unwrap();
            let bound = 2.0 * g.m() as f64 * (2.0 + (g.n() as f64).ln());
            let msgs = stats.total_messages;
            assert!((msgs as f64) <= bound, "n = {}: {msgs} > {bound:.0}", g.n());
        }
    }

    #[test]
    fn try_submit_backpressures_and_submit_drains() {
        let mut server = PoolServer::new(EngineConfig::default(), 2);
        let k = server.register_graph(cycle(8));
        let job = mk_job(k, JobSpec::FloodMax, 1, 0);
        server.try_submit(job.clone()).unwrap();
        server.try_submit(job.clone()).unwrap();
        assert_eq!(
            server.try_submit(job.clone()),
            Err(PoolError::Backpressure { capacity: 2 })
        );
        let mut out = Vec::new();
        server.submit(job.clone(), &mut out).unwrap();
        assert_eq!(out.len(), 2, "submit drained the full queue first");
        assert_eq!(server.queued(), 1);
    }

    #[test]
    fn unknown_graph_is_rejected() {
        let mut server = PoolServer::new(EngineConfig::default(), 4);
        let mut other = SessionPool::new();
        let foreign = other.register(cycle(8));
        let err = server.try_submit(mk_job(foreign, JobSpec::FloodMax, 1, 0));
        assert_eq!(err, Err(PoolError::UnknownGraph(foreign)));
    }

    #[test]
    fn round_limit_fails_per_job_not_per_batch() {
        // Two jobs whose isolated runs terminate inside the budget and
        // one that cannot: only the offender reports RoundLimit.
        let mut server = PoolServer::new(EngineConfig::default().max_rounds(8), 8);
        let k = server.register_graph(cycle(6));
        let ok1 = server
            .try_submit(mk_job(k, JobSpec::FloodMax, 1, 0))
            .unwrap();
        let ok2 = server
            .try_submit(mk_job(k, JobSpec::FloodMax, 2, 0))
            .unwrap();
        // FloodMax on a 6-cycle settles within 8 rounds; gossip for 20
        // rounds cannot.
        let bad = server
            .try_submit(mk_job(k, JobSpec::Gossip { rounds: 20 }, 3, 1))
            .unwrap();
        let mut out = Vec::new();
        server.drain(&mut out);
        let by_id = |id: JobId| out.iter().find(|o| o.id == id).unwrap();
        assert_eq!(by_id(ok1).status, JobStatus::Done);
        assert_eq!(by_id(ok2).status, JobStatus::Done);
        assert_eq!(by_id(bad).status, JobStatus::RoundLimit { limit: 8 });
        assert!(by_id(bad).outputs.is_empty());
        // The round-limited job still counts toward its tenant's meter.
        assert_eq!(server.meter(1).jobs, 1);
        assert_eq!(server.meter(1).messages, 0);
    }

    #[test]
    fn same_family_jobs_fail_the_round_limit_alone() {
        // FloodMax on a long cycle needs ~n/2 rounds; under a 3-round
        // budget every job of a same-family burst retires as its own
        // RoundLimit, exactly as its isolated run would fail.
        let mut server = PoolServer::new(EngineConfig::default().max_rounds(3), 8);
        let k = server.register_graph(cycle(32));
        for s in 0..3 {
            server
                .try_submit(mk_job(k, JobSpec::FloodMax, s, 0))
                .unwrap();
        }
        let mut out = Vec::new();
        server.drain(&mut out);
        assert_eq!(out.len(), 3);
        for o in &out {
            assert_eq!(o.status, JobStatus::RoundLimit { limit: 3 });
            assert!(o.outputs.is_empty());
        }
        // The failed phases left the warm session dirty; the next job on
        // it still matches its isolated run.
        server.config.max_rounds = EngineConfig::default().max_rounds;
        server
            .try_submit(mk_job(k, JobSpec::Rumor { source: 5 }, 9, 0))
            .unwrap();
        server.drain(&mut out);
        let (outputs, stats) = run_job_isolated(
            &cycle(32),
            &JobSpec::Rumor { source: 5 },
            9,
            None,
            &EngineConfig::default(),
        )
        .unwrap();
        let last = out.last().unwrap();
        assert_eq!((&last.outputs, last.stats), (&outputs, stats));
    }

    #[test]
    fn burst_past_max_lanes_matches_isolated() {
        // A long same-family burst on one graph: every job is still
        // bit-identical to its isolated run. Sources, seeds and fault
        // plans vary per job.
        let cfg = EngineConfig::default();
        let mut server = PoolServer::new(cfg.clone(), 256);
        let g = harary(4, 24);
        let k = server.register_graph(g.clone());
        let total = 73;
        let mut jobs = Vec::new();
        for i in 0..total as u64 {
            let mut job = mk_job(
                k,
                JobSpec::Rumor {
                    source: (i * 7 % g.n() as u64) as Node,
                },
                0x5EED ^ i,
                (i % 3) as Tenant,
            );
            if i % 4 == 1 {
                job.faults = Some(FaultPlan::new(1, 0xFA ^ i));
            }
            server.try_submit(job.clone()).unwrap();
            jobs.push(job);
        }
        let mut out = Vec::new();
        server.drain(&mut out);
        assert_eq!(out.len(), total);
        for (o, job) in out.iter().zip(&jobs) {
            let (outputs, stats) =
                run_job_isolated(&g, &job.protocol, job.seed, job.faults, &cfg).unwrap();
            assert_eq!(o.status, JobStatus::Done);
            assert_eq!(o.outputs, outputs, "job {:?} outputs", o.id);
            assert_eq!(o.stats, stats, "job {:?} stats", o.id);
        }
        assert_eq!(server.solo_jobs(), total as u64);
    }

    #[test]
    fn eviction_drops_lru_graphs_and_same_key_reregisters() {
        let mut pool = SessionPool::new();
        let ga = harary(4, 16);
        let ka = pool.register(ga.clone());
        let kb = pool.register(harary(4, 18));
        let kc = pool.register(cycle(12));
        assert_eq!(pool.len(), 3);
        // Touch a and c so b is the LRU entry.
        pool.with_session(ka, |_| ()).unwrap();
        pool.with_session(kc, |_| ()).unwrap();
        pool.set_policy(EvictionPolicy {
            max_graphs: 2,
            max_warm_bytes: usize::MAX,
        });
        pool.enforce_eviction();
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(ka) && pool.contains(kc) && !pool.contains(kb));
        assert_eq!(pool.graph_evictions(), 1);
        // Evict again: now a is least recently used.
        pool.set_policy(EvictionPolicy {
            max_graphs: 1,
            max_warm_bytes: usize::MAX,
        });
        pool.enforce_eviction();
        assert!(!pool.contains(ka) && pool.contains(kc));
        assert_eq!(pool.graph_evictions(), 2);
        // Re-registering an evicted graph yields the same key (content
        // fingerprint), reusing the tombstoned slot, and starts cold.
        let ka2 = pool.register(ga);
        assert_eq!(ka2, ka);
        assert_eq!(pool.warm_bytes(ka2), Ok(0));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn eviction_sheds_warm_bytes_but_keeps_registrations() {
        let mut pool = SessionPool::new();
        let ka = pool.register(harary(4, 16));
        let kb = pool.register(cycle(12));
        for k in [ka, kb] {
            pool.with_session(k, |s| {
                s.run(|v, _| leader::FloodMax::new(v), EngineConfig::default())
                    .unwrap()
                    .stats
            })
            .unwrap();
        }
        let (bytes_a, bytes_b) = (pool.warm_bytes(ka).unwrap(), pool.warm_bytes(kb).unwrap());
        assert!(bytes_a > 0 && bytes_b > 0);
        let total = pool.warm_bytes_total();
        assert_eq!(total, bytes_a + bytes_b);
        // Budget below one state's footprint: both warm states go, the
        // registrations stay, and later checkouts are just cold.
        pool.set_policy(EvictionPolicy {
            max_graphs: usize::MAX,
            max_warm_bytes: bytes_b.saturating_sub(1),
        });
        pool.enforce_eviction();
        assert_eq!(pool.warm_bytes_total(), 0);
        assert_eq!(pool.warm_evictions(), 2);
        assert_eq!(pool.graph_evictions(), 0);
        assert!(pool.contains(ka) && pool.contains(kb));
        let misses = pool.misses();
        pool.with_session(ka, |_| ()).unwrap();
        assert_eq!(pool.misses(), misses + 1, "evicted warm state = cold build");
    }

    #[test]
    fn server_drain_enforces_the_pool_policy() {
        let mut server = PoolServer::new(EngineConfig::default(), 16);
        let ga = harary(4, 16);
        let ka = server.register_graph(ga.clone());
        let kb = server.register_graph(cycle(10));
        server.pool_mut().set_policy(EvictionPolicy {
            max_graphs: 1,
            max_warm_bytes: usize::MAX,
        });
        let mut out = Vec::new();
        server
            .try_submit(mk_job(ka, JobSpec::FloodMax, 1, 0))
            .unwrap();
        server
            .try_submit(mk_job(kb, JobSpec::FloodMax, 2, 0))
            .unwrap();
        server.drain(&mut out);
        assert_eq!(out.len(), 2);
        // Drain ran both jobs, then aged the pool down to one graph.
        assert_eq!(server.pool().len(), 1);
        assert_eq!(server.pool().graph_evictions(), 1);
        // A submission for the evicted key is refused until re-register
        // — which returns the same key.
        let evicted = if server.pool().contains(ka) { kb } else { ka };
        assert_eq!(
            server.try_submit(mk_job(evicted, JobSpec::FloodMax, 3, 0)),
            Err(PoolError::UnknownGraph(evicted))
        );
        if evicted == ka {
            assert_eq!(server.register_graph(ga), ka);
            server
                .try_submit(mk_job(ka, JobSpec::FloodMax, 3, 0))
                .unwrap();
        }
    }

    #[test]
    fn submit_rechecks_the_graph_after_its_inline_drain() {
        // Capacity 1 and `max_graphs = 1`: every `submit` on the full
        // queue drains inline, and that drain's eviction pass ages out
        // whichever graph was not just used — the one being submitted.
        // The job must be refused, not queued for an unregistered key
        // (which the next drain could not check out).
        let mut server = PoolServer::new(EngineConfig::default(), 1);
        let (ga, gb) = (harary(4, 16), cycle(10));
        let ka = server.register_graph(ga.clone());
        let kb = server.register_graph(gb.clone());
        server.pool_mut().set_policy(EvictionPolicy {
            max_graphs: 1,
            max_warm_bytes: usize::MAX,
        });
        let mut out = Vec::new();
        server
            .submit(mk_job(ka, JobSpec::FloodMax, 0, 0), &mut out)
            .unwrap();
        for turn in 1..=4u64 {
            let (key, graph, other) = if turn % 2 == 1 {
                (kb, &gb, ka)
            } else {
                (ka, &ga, kb)
            };
            let job = mk_job(key, JobSpec::FloodMax, turn, 0);
            assert_eq!(
                server.submit(job.clone(), &mut out),
                Err(PoolError::UnknownGraph(key)),
                "turn {turn}: the inline drain evicted the submitted graph"
            );
            assert_eq!(server.queued(), 0);
            assert!(server.pool().contains(other));
            assert_eq!(server.register_graph(graph.clone()), key);
            server.submit(job, &mut out).unwrap();
        }
        server.drain(&mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.status == JobStatus::Done));
    }

    #[test]
    fn drain_retires_jobs_whose_graph_was_evicted_while_queued() {
        // A job is queued for `ka`, then the caller tightens the policy
        // and enforces it by hand: `ka` is the least recently used entry
        // and ages out under the job. The drain must retire that job
        // with a typed status instead of checking out an unregistered
        // key, run the rest of the queue, and leave the server serving.
        let mut server = PoolServer::new(EngineConfig::default(), 8);
        let (ga, gb) = (harary(4, 16), cycle(10));
        let ka = server.register_graph(ga.clone());
        let kb = server.register_graph(gb.clone());
        let mut out = Vec::new();
        server
            .submit(mk_job(kb, JobSpec::FloodMax, 0, 7), &mut out)
            .unwrap();
        server.drain(&mut out); // stamps `kb` as the recently used entry
        let lost = [
            server
                .try_submit(mk_job(ka, JobSpec::FloodMax, 1, 7))
                .unwrap(),
            server
                .try_submit(mk_job(ka, JobSpec::FloodMax, 2, 7))
                .unwrap(),
        ];
        let kept = server
            .try_submit(mk_job(kb, JobSpec::Rumor { source: 3 }, 3, 7))
            .unwrap();
        server.pool_mut().set_policy(EvictionPolicy {
            max_graphs: 1,
            max_warm_bytes: usize::MAX,
        });
        server.pool_mut().enforce_eviction();
        assert!(!server.pool().contains(ka) && server.pool().contains(kb));

        out.clear();
        server.drain(&mut out);
        assert_eq!(out.len(), 3);
        for o in &out {
            if lost.contains(&o.id) {
                assert_eq!(o.status, JobStatus::GraphEvicted);
                assert!(o.outputs.is_empty());
                assert_eq!(o.stats, RunStats::default());
            } else {
                assert_eq!((o.id, o.status), (kept, JobStatus::Done));
            }
        }
        // Metered like a round-limited job: counted, nothing else moves.
        assert_eq!(server.meter(7).jobs, 4);
        assert_eq!(server.solo_jobs(), 2);

        assert_eq!(server.register_graph(ga), ka);
        server
            .submit(mk_job(ka, JobSpec::FloodMax, 1, 7), &mut out)
            .unwrap();
        server.drain(&mut out);
        assert_eq!(out.last().unwrap().status, JobStatus::Done);
    }

    #[test]
    fn outputs_come_back_in_submission_order() {
        let mut server = PoolServer::new(EngineConfig::default(), 64);
        let ka = server.register_graph(harary(4, 16));
        let kb = server.register_graph(cycle(10));
        let mut ids = Vec::new();
        // Interleave graphs and families so the grouped execution order
        // differs maximally from submission order.
        for i in 0..12u64 {
            let key = if i % 2 == 0 { ka } else { kb };
            let protocol = if i % 3 == 0 {
                JobSpec::Gossip { rounds: 2 }
            } else {
                JobSpec::FloodMax
            };
            ids.push(server.try_submit(mk_job(key, protocol, i, 0)).unwrap());
        }
        let mut out = Vec::new();
        server.drain(&mut out);
        let got: Vec<JobId> = out.iter().map(|o| o.id).collect();
        assert_eq!(got, ids);
    }
}
