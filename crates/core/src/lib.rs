//! # congest-core — the paper's primary contribution
//!
//! Distributed algorithms from *"Fast Broadcast in Highly Connected
//! Networks"* (SPAA 2024), implemented as real message-passing programs on
//! the [`congest_sim`] engine:
//!
//! | paper | module | what it does |
//! |---|---|---|
//! | Lemma 2 | [`bfs`] | distributed BFS tree construction, plus the **parallel per-subgraph BFS** that explores all Theorem 2 subgraphs simultaneously |
//! | — | [`leader`] | flood-max leader election by rank (prerequisite of Lemma 1): a re-export of [`congest_sim::leader`], which the job plane runs too |
//! | Lemma 3 | [`convergecast`] | tree aggregates and distributed item numbering |
//! | Lemma 1 | [`pipeline`] | pipelined `O(depth + k)` tree gather + broadcast with `O(k)` congestion |
//! | textbook | [`textbook`] | the `O(D + k)` baseline: BFS tree + pipelined broadcast |
//! | Theorem 2 | [`partition`] | the communication-free random edge partition into `λ′` edge-disjoint spanning subgraphs |
//! | Theorem 1 | [`broadcast`] | the `O((n log n)/δ + (k log n)/λ)` k-broadcast: the six-phase composition, written once as stages and spelled by every driver of the family |
//! | Remark §1.1, Lemma 4 | [`exp_search`] | broadcast **without knowing λ** via exponential search, after learning δ in `O(D)` rounds (its `learn-delta` phase; λ-learning substituted per DESIGN.md §2) |
//! | Theorems 3 & 8 | [`lower_bounds`] | information-theoretic universal lower-bound calculators |
//! | §1.2 | [`congested_clique`] | simulating rounds of the broadcast congested clique \[DKO14\] |
//! | §1.2 / \[FP23\] | [`resilient`] | replicated broadcast surviving a mobile edge adversary |
//!
//! Surface rule for the Theorem 1 family: every driver takes the caller's
//! [`congest_sim::Session`] — the one engine host — so a sweep over seeds
//! or sources is a loop on one warm session. Theorem 1 itself is two
//! calls: [`partition_broadcast`] at the graph's λ, and
//! [`broadcast::partition_broadcast_hosted`] with explicit parameters and
//! an attempt budget. Theorem 2's failure event is one error,
//! [`broadcast::BroadcastError::NotSpanning`], and
//! [`broadcast::retry_spanning`] is the one loop that retries it.
//! (`broadcast::partition_broadcast_retrying`, the hosted call on a
//! session of its own, is kept for `benchmark/`.)
//!
//! All protocols are *message-driven* (progress on arrival rather than on
//! round counting), which makes them tolerant of the random-delay
//! scheduler ([`congest_sim::sched`]) and keeps round counts honest: a run
//! ends when the network is quiescent, and the engine reports the last
//! round that carried a message.

pub mod bfs;
pub mod broadcast;
pub mod congested_clique;
pub mod convergecast;
pub mod exp_search;
pub mod leader;
pub mod lower_bounds;
pub mod partition;
pub mod pipeline;
pub mod resilient;
mod stages;
pub mod textbook;

pub use broadcast::{partition_broadcast, BroadcastInput, BroadcastOutcome};
pub use partition::{EdgePartition, PartitionParams};
pub use textbook::textbook_broadcast;
