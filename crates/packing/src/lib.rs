//! # congest-packing — low-diameter tree packings
//!
//! The paper's Theorem 2 partition immediately yields (§3.1) a **tree
//! packing**: `Ω(λ/log n)` edge-disjoint spanning trees, each of diameter
//! `O((n log n)/δ)` — parameters that were not known to be achievable
//! before this paper, and that nearly match the Ghaffari–Kuhn existential
//! lower bounds (Appendix B).
//!
//! This crate materializes packings and measures them:
//!
//! * [`packing`] — the [`packing::TreePacking`] container with validators
//!   (spanning? edge-disjoint? congestion? exact per-tree diameters).
//! * [`random_partition`] — packings from the Theorem 2 partition, both
//!   centralized and via the real distributed protocols.
//! * [`sampled`] — the congestion-`O(log n)` variant with **λ** trees
//!   (the Theorem 10 / Appendix A parameter point), obtained by λ
//!   independent Lemma 5 samplings.
//! * [`fractional`] — the fractional-packing view and the comparison
//!   against Ghaffari's \[Gha15a\] parameters (paper Question 2).
//! * [`kd_connectivity`] — empirical Lemma 9 certificates: every simple
//!   graph is `(λ/5, 16n/δ)`-connected.
//! * [`lower_bound_family`] — measurements on the GK13-style family
//!   showing packing diameters are forced to `Ω(n/λ)` even where the
//!   graph diameter is `O(log n)` (Theorem 13's tension).

pub mod fractional;
pub mod kd_connectivity;
pub mod lower_bound_family;
pub mod matroid;
pub mod packing;
pub mod random_partition;
pub mod sampled;
pub mod scheduled_broadcast;

pub use packing::{PackingStats, TreePacking};
pub use random_partition::{partition_packing, partition_packing_distributed};
pub use sampled::sampled_packing;
pub use scheduled_broadcast::scheduled_packing_broadcast;
