//! Measurements on the GK13-style lower-bound family (paper Appendix B,
//! Theorem 13).
//!
//! Theorem 13: for λ ≥ log⁴n there are λ-edge-connected graphs with
//! diameter `O(log n)` where **any** decomposition into λ spanning
//! subgraphs with congestion ≤ λ/log⁴n contains a subgraph of diameter
//! `Ω̃(n/λ)`. GK13's original form adds the fine print: *all* trees are
//! long except at most `O(log n)` lucky ones. Together with Theorem 2's
//! `O((n log n)/δ)` upper bound, the packing diameter on this family is
//! pinned to `Θ̃(n/λ)` — far above the graph's own diameter.
//!
//! We build the family
//! ([`congest_graph::generators::gk13_lower_bound`]) and extract
//! edge-disjoint spanning trees with the **exact matroid-union packing**
//! ([`crate::matroid::exact_tree_packing`]): the family's λ is
//! deliberately small relative to `log n`, so the Theorem 2 partition is
//! out of its parameter regime here, and greedy extraction strands the
//! overlay hubs — the exact algorithm needs no slack of either kind.
//! Because the packing is optimal, the measured diameters witness the
//! lower bound against the *best possible* edge-disjoint decomposition of
//! this width, including GK13's fine print: at most `O(log n)` trees can
//! stay short (the thin overlay cannot serve more).

use crate::matroid::exact_tree_packing;
use crate::packing::PackingStats;
use congest_graph::algo::diameter::diameter_exact;
use congest_graph::generators::{gk13_lower_bound, Gk13Layout};

/// The Theorem 13 tension, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundReport {
    pub layout: Gk13Layout,
    /// Exact diameter of the graph itself — should be O(log n).
    pub graph_diameter: u32,
    /// Stats of the exact edge-disjoint packing on it.
    pub packing: PackingStats,
    /// The forced scale `n/λ`.
    pub n_over_lambda: f64,
    /// `packing.max_diameter / graph_diameter` — Theorem 13 predicts this
    /// ratio grows with `n/(λ·log n)`.
    pub blowup: f64,
    /// How many trees stayed "short" (diameter ≤ 4× graph diameter) —
    /// GK13 predict at most O(log n) can.
    pub short_trees: usize,
}

/// Build the family, pack it greedily with `num_trees` trees, and measure
/// (see module docs).
pub fn measure_gk13(
    columns: usize,
    lambda: usize,
    num_trees: usize,
    _seed: u64,
) -> Result<LowerBoundReport, String> {
    let (g, layout) = gk13_lower_bound(columns, lambda);
    let graph_diameter = diameter_exact(&g).ok_or("family must be connected")?;
    let packing = exact_tree_packing(&g, num_trees, 0)
        .ok_or_else(|| format!("no edge-disjoint packing of {num_trees} spanning trees exists"))?;
    packing.validate(&g)?;
    let stats = packing.stats(&g);
    let n_over_lambda = layout.n as f64 / lambda as f64;
    let blowup = stats.max_diameter as f64 / graph_diameter.max(1) as f64;
    let short_trees = stats
        .tree_diameters
        .iter()
        .filter(|&&d| d <= 4 * graph_diameter)
        .count();
    Ok(LowerBoundReport {
        layout,
        graph_diameter,
        packing: stats,
        n_over_lambda,
        blowup,
        short_trees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_diameter_far_exceeds_graph_diameter() {
        // 48 columns of width 6: n ≈ 351, graph diameter O(log n) ≈ small,
        // but edge-disjoint spanning trees must mostly traverse the bulk.
        let report = measure_gk13(48, 6, 2, 5).unwrap();
        assert!(
            report.graph_diameter <= 16,
            "overlay keeps D small, got {}",
            report.graph_diameter
        );
        assert!(
            report.packing.max_diameter as f64 >= 0.5 * report.layout.columns as f64,
            "trees must traverse Ω(columns) of the bulk: {} vs {} columns",
            report.packing.max_diameter,
            report.layout.columns
        );
        assert!(report.blowup >= 2.0, "blowup {}", report.blowup);
    }

    #[test]
    fn blowup_grows_with_columns() {
        let small = measure_gk13(16, 6, 2, 7).unwrap();
        let large = measure_gk13(64, 6, 2, 7).unwrap();
        assert!(
            large.blowup > small.blowup,
            "Theorem 13 tension must grow with n/λ: {} vs {}",
            large.blowup,
            small.blowup
        );
    }

    #[test]
    fn only_few_trees_stay_short() {
        // GK13's fine print: all but O(log n) trees are long. With 3
        // greedy trees on a thin-overlay family, at most one can stay
        // short.
        let report = measure_gk13(48, 8, 3, 1).unwrap();
        assert!(
            report.short_trees <= 1,
            "{} short trees — the overlay can't serve more than ~1",
            report.short_trees
        );
    }

    #[test]
    fn large_instance_now_measurable() {
        // The regression that motivated exact extraction: wide instances
        // are out of the random partition's parameter regime (λ ≪ log n)
        // and greedy extraction strands the overlay hubs. (96 columns run
        // in the release-mode E6 binary; 72 keeps the debug suite quick.)
        let report = measure_gk13(72, 6, 2, 0).unwrap();
        assert!(report.packing.max_diameter as f64 >= 0.5 * 72.0);
        assert!(report.graph_diameter <= 20);
    }
}
