//! Seeded graph-family generators.
//!
//! The paper's bounds are parameterized by `(n, δ, λ, D)`; experiments need
//! families where the **edge connectivity λ is known by construction** so
//! sweeps can control it directly (and the max-flow ground truth in
//! [`crate::algo::connectivity`] spot-checks it).
//!
//! Families:
//!
//! | family | δ | λ | D | role in experiments |
//! |---|---|---|---|---|
//! | [`complete`] | n−1 | n−1 | 1 | best case, sanity |
//! | [`harary`] (circulant) | k | k | ≈ n/k | the workhorse: λ swept freely |
//! | [`large_sparse`] (circulant) | 6 | 6 | O(n^⅓) | engine scaling at n up to 10⁶ |
//! | [`torus2d`] | 4 | 4 | (r+c)/2 | low fixed λ, 2-D locality |
//! | [`hypercube`] | log n | log n | log n | λ grows with n |
//! | [`clique_chain`] | ≥ bridge | bridge width | ≈ 2·#cliques | high δ, small λ (δ ≫ λ) |
//! | [`thick_path`] | λ | λ | ≈ n/λ | extremal Θ(n/λ) diameter |
//! | [`gk13_lower_bound`] | ≥ λ−1 | ≈ λ | O(log n) | Appendix B family: low D, packings need Ω(n/λ) diameter |
//! | [`random::gnp`] | ≈ np | ≈ δ w.h.p. | O(log n) | average case |
//! | [`random::random_regular`] | d | d w.h.p. | O(log n) | regular expanders |
//! | [`barbell`] | ≥ 1 | 1 | ≈ path len | the λ = 1 worst case motivating the paper |

mod deterministic;
mod lower_bound;
pub mod random;
pub mod theorem9;

pub use deterministic::{
    barbell, circulant, clique_chain, clique_ring, complete, complete_bipartite, cycle, harary,
    hypercube, large_sparse, path, thick_path, torus2d,
};
pub use lower_bound::{gk13_lower_bound, Gk13Layout};
pub use random::{gnp, gnp_connected, random_regular};
pub use theorem9::{decode_theorem9, theorem9_instance, Theorem9Instance};
