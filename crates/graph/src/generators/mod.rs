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

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64's finalizer, as `congest_sim::rng::mix64`: the benchmark
    /// seeds its random-regular graphs with `mix64(seed ^ d)`.
    fn mix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The sixteen graphs `benchmark/` builds at seed 42 (both Theorem 1
    /// graphs, both `serve_batched` graphs, the twelve of
    /// `serve_fragmented`) keep their fingerprints, so a generator or
    /// builder change that moves a pool key, a snapshot header or an edge
    /// id shows here first.
    #[test]
    fn benchmark_graphs_keep_their_fingerprints() {
        let seed = 42;
        let mut pinned = vec![
            (harary(64, 8192), 0x65d9_f603_ef9f_8a04),
            (harary(128, 1024), 0xe25e_e7e1_ceaa_44b1),
            (harary(8, 1024), 0x0721_1037_3eea_2643),
            (harary(16, 1024), 0xd8d9_df1c_35b8_932f),
            (harary(6, 3072), 0x5761_fe98_52dd_b501),
            (harary(8, 3584), 0x3942_f4bb_52aa_bf0d),
            (harary(10, 4096), 0xbadc_a4ac_366c_c8a1),
            (harary(12, 4608), 0x3f85_c621_25c0_3188),
            (torus2d(56, 56), 0x9f68_1150_7bdb_8aca),
            (torus2d(60, 64), 0x384d_a47a_328d_6a45),
            (torus2d(64, 68), 0xf237_167b_a455_b7b6),
            (hypercube(12), 0x7f33_3826_17b0_5ad0),
        ];
        let regular = [
            0x2a95_e0cc_f599_8847,
            0x0054_c478_fdcf_5a47,
            0x23a2_8f26_0cf8_0c83,
            0x8041_e65d_2092_bed0,
        ];
        for (d, fp) in [4, 6, 8, 10].into_iter().zip(regular) {
            pinned.push((random_regular(4096, d, mix64(seed ^ d as u64)), fp));
        }
        for (i, (g, fp)) in pinned.iter().enumerate() {
            assert_eq!(g.fingerprint(), *fp, "benchmark graph {i}");
        }
    }
}
