//! Centralized ground-truth algorithms.
//!
//! Everything the experiments use to *verify* distributed results lives
//! here: BFS/DFS, exact diameters, components, unit-capacity max-flow on the
//! graph's own CSR and the exact edge connectivity built on it (one capped
//! flow per dominating-set vertex), Stoer–Wagner global min cut, exact APSP
//! (unweighted and weighted), and greedy bounded-length edge-disjoint path
//! certificates.
//!
//! These are classical algorithms implemented with flat, allocation-light
//! data structures; the all-pairs computations parallelize over sources
//! on the `congest_par` pool (deterministic: each source writes only its
//! own row, and reductions fold the rows in index order).

pub mod apsp;
pub mod bfs;
pub mod bridges;
pub mod components;
pub mod connectivity;
pub mod dfs;
pub mod diameter;
pub mod maxflow;
pub mod paths;
pub mod stoer_wagner;

pub use apsp::{apsp_unweighted, apsp_weighted};
pub use bfs::{bfs_distances, bfs_tree, BfsTree, UNREACHABLE};
pub use bridges::bridges;
pub use components::{connected_components, is_connected, UnionFind};
pub use connectivity::edge_connectivity;
pub use dfs::dfs_walk_first_visit;
pub use diameter::{diameter_exact, eccentricity, two_sweep_lower_bound};
pub use maxflow::UnitFlow;
pub use paths::greedy_disjoint_paths;
pub use stoer_wagner::stoer_wagner_min_cut;
