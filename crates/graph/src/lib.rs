//! # congest-graph — graph substrate for the fast-broadcast reproduction
//!
//! This crate provides everything the rest of the workspace needs to *talk
//! about* graphs:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR (compressed sparse row)
//!   representation of a **simple, undirected, unweighted** graph, the object
//!   the paper quantifies over. The paper's topology never changes, and
//!   nothing here changes a graph once it is built. Every undirected edge
//!   has a stable [`Edge`] id so that edge-indexed data (partition colors,
//!   tree membership, congestion counters) can live in flat `Vec`s.
//! * [`WeightedGraph`] — a [`Graph`] plus a parallel weight vector, used by
//!   the weighted-APSP (§4.2) and sparsifier (§4.3) applications.
//! * [`builder::GraphBuilder`] — validating construction from edge lists.
//! * [`generators`] — seeded graph families with *known-by-construction*
//!   minimum degree δ and edge connectivity λ (Harary/circulant graphs,
//!   clique chains, tori, hypercubes, random regular, G(n,p), and the
//!   GK13-style lower-bound family from Appendix B).
//! * [`algo`] — centralized ground-truth algorithms used to validate every
//!   distributed result: BFS, exact/estimated diameter, DFS, components,
//!   unit-capacity max-flow on the CSR, exact edge connectivity (one capped
//!   flow per dominating-set vertex), Stoer–Wagner global min cut,
//!   exact APSP (unweighted and weighted), and greedy bounded-length
//!   edge-disjoint path certificates for (k,d)-connectivity (Lemma 9).
//!
//! Nothing in this crate knows about the CONGEST model; it is pure graph
//! machinery. The simulator ([`congest-sim`]) and the algorithms built on it
//! consume these types.
//!
//! [`congest-sim`]: https://example.org/fast-broadcast

pub mod algo;
pub mod builder;
pub mod generators;
mod graph;
pub mod metrics;
mod shard;
mod weighted;

pub use builder::GraphBuilder;
pub use graph::{Edge, Graph, Node, Port, INVALID_NODE};
pub use shard::ShardPlan;
pub use weighted::WeightedGraph;
