//! # congest-sim — a deterministic synchronous CONGEST-model simulator
//!
//! The paper's model (§2): an undirected network `G = (V, E)` where nodes
//! compute in **synchronous rounds**, and per round each node may send one
//! `O(log n)`-bit message to each of its neighbors. This crate executes
//! node programs ([`Protocol`]s) under exactly that discipline and meters
//! what the theorems bound:
//!
//! * **rounds** — the quantity every theorem in the paper is about;
//! * **per-edge congestion** — the maximum number of messages that crossed
//!   any single edge (Lemma 1's O(k) congestion, Theorem 10's O(log n)
//!   tree-packing congestion): one plain counter per arc, bumped where the
//!   delivery is counted and folded into edges when the phase ends;
//! * **message size in bits** — the fixed width of the protocol's wire
//!   encoding, so the O(log n)-bit discipline is checked, not assumed (see
//!   [`message::PackedMsg::WIDTH`]).
//!
//! ## Execution model
//!
//! One engine iteration = one CONGEST round: every node reads the messages
//! delivered to it, mutates its state, and writes at most one message per
//! incident port; then all messages are delivered simultaneously. Nodes
//! step **in parallel** (on the `congest_par` pool) — each node touches
//! only its own state and its own slots of the packed message slabs, so
//! results are bit-identical for any thread count. The pool width is the
//! one parallelism switch: a phase's shard count is its only fork
//! decision ([`session`]), and a serial run is a run on a one-lane pool
//! (`congest_par::with_threads(1, ..)` or `CONGEST_PAR_THREADS=1`).
//!
//! ## Packed message plane
//!
//! Wire messages implement [`message::PackedMsg`]: every message encodes
//! into a fixed-width `u64`/`u128` word (the model's O(log n) bits made
//! literal). The slabs are flat word vectors with a word-packed occupancy
//! bitset; sends scatter through the precomputed reverse-arc permutation
//! straight into the receiver's slot, so delivery is a buffer *swap* and
//! the round loop allocates nothing (see [`session`]). Rounds whose staged
//! traffic is sparse take a worklist fast path — deliver cost is
//! O(traffic), not O(arcs) (see [`engine::EngineConfig::sparse_threshold`]).
//! The pre-packing `Vec<Option<Msg>>` engine survives in [`baseline`] as
//! the one reference interpreter: the differential test harnesses hold
//! the live engine to it, faults included.
//!
//! Per-node randomness comes from a counter-based RNG seeded by
//! `mix(run_seed, node_id)` ([`rng::node_rng`]), making whole runs
//! reproducible from a single `u64`.
//!
//! ## Composition
//!
//! Paper algorithms are sequential compositions of phases (elect a leader,
//! build a BFS tree, number the messages, partition the edges, …, route).
//! [`phase::PhaseLog`] chains runs and accumulates the round counts the
//! same way the proofs sum complexities.
//!
//! ## One engine host
//!
//! A [`Session`] owns every buffer of the round loop for one graph and
//! runs any number of phases on them, one after another, through
//! [`Session::run`] — the crate's one round loop ([`session`]). There is
//! no other host: [`run_protocol`] is one phase on a session of its own, a
//! [`SessionPool`] lends its warm ones out as `Session`s
//! ([`SessionPool::with_session`]), and `PhaseHost` is an alias kept for
//! `benchmark/`. Many independent runs
//! on one graph — a seed sweep, a job queue — are a loop on one warm
//! session (DESIGN.md §10 has the measurements that retired the 64-lane
//! batched kernel).
//!
//! The random-delay scheduler of Ghaffari \[Gha15b\] (paper Theorem 12) is
//! provided by [`sched`]: it multiplexes many *delay-tolerant* protocols
//! over one network with per-port FIFO queues, realizing
//! `O(congestion + dilation·log² n)` composition.
//!
//! ## Leader election
//!
//! [`leader`] holds the one flood-max: it floods a hashed rank of each
//! id and elects the node of highest rank per component. The Theorem 1
//! drivers elect their root with it (as `congest_core::leader`), and the
//! job plane's [`JobSpec::FloodMax`] is the same protocol, so a served
//! election costs what the drivers' does.

pub mod baseline;
pub mod eager;
pub mod engine;
pub mod fault;
pub mod leader;
pub mod message;
pub mod phase;
pub mod pool;
pub mod protocol;
pub mod rng;
pub mod sched;
pub mod session;
mod slab;
pub mod snapshot;

pub use eager::{check_quiescent, Eager};
pub use engine::{run_protocol, EngineConfig, EngineError, RunOutcome, RunStats};
pub use fault::FaultPlan;
pub use message::{MsgWord, PackedMsg, Tagged};
pub use phase::PhaseLog;
pub use pool::{
    run_job_isolated, EvictionPolicy, GraphKey, Job, JobId, JobOutput, JobSpec, JobStatus,
    PoolError, PoolServer, SessionPool, Tenant, TenantMeter,
};
pub use protocol::{InboxIter, NodeCtx, Protocol};
pub use session::{PhaseHost, PhaseOutcome, Session};
pub use snapshot::{SnapshotError, SnapshotHeader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
