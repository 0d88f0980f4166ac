//! # fast-broadcast — Fast Broadcast in Highly Connected Networks
//!
//! A full reproduction of *"Fast Broadcast in Highly Connected Networks"*
//! (Chandra, Chang, Dory, Ghaffari, Leitersdorf — SPAA 2024,
//! arXiv:2404.12930) as a Rust workspace, built around a deterministic
//! CONGEST-model simulator.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — graph substrate: CSR graphs, generators with
//!   known-by-construction δ and λ, centralized ground truth (flows, cuts,
//!   diameters, exact APSP).
//! * [`sim`] — the synchronous CONGEST simulator: one O(log n)-bit message
//!   per edge-direction per round, congestion metering, phase composition.
//! * [`core`] — the paper's contribution: the communication-free random
//!   edge partition (Theorem 2), the `Õ((n+k)/λ)` k-broadcast (Theorem 1),
//!   the textbook `O(D+k)` baseline, and the universal lower bounds
//!   (Theorems 3 & 8).
//! * [`packing`] — low-diameter tree packings (§3.1, Appendices A & B).
//! * [`apsp`] — the approximate-APSP applications (§4.1–4.2).
//! * [`sparsify`] — cut approximation via sparsifiers (§4.3).
//!
//! ## Quickstart
//!
//! ```
//! use fast_broadcast::graph::generators::harary;
//! use fast_broadcast::core::broadcast::{partition_broadcast, BroadcastInput};
//! use fast_broadcast::sim::Session;
//!
//! // A 16-edge-connected network of 64 nodes.
//! let g = harary(16, 64);
//! // 128 messages, all initially at node 0.
//! let input = BroadcastInput::at_single_node(&g, 0, 128);
//! // Theorem 1 at λ = 16 on an engine session, reusable for the next one.
//! let mut host = Session::new(&g);
//! let outcome = partition_broadcast(&mut host, &input, 16, 0xC0FFEE).unwrap();
//! assert!(outcome.all_delivered());
//! println!("broadcast finished in {} rounds", outcome.total_rounds);
//! ```

pub use congest_apsp as apsp;
pub use congest_core as core;
pub use congest_graph as graph;
pub use congest_packing as packing;
pub use congest_sim as sim;
pub use congest_sparsify as sparsify;
