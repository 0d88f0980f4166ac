//! Information-theoretic lower bounds (paper Theorems 3, 8, 9).
//!
//! These are *calculators*, not algorithms: each theorem's bound is a
//! closed-form function of the instance, and the experiments divide
//! measured round counts by these values to report optimality ratios
//! (Theorem 1 is universally optimal up to `O(log n)` when `k = Ω(n)` —
//! experiment E5 charts exactly that ratio).

/// Theorem 3 (universal lower bound for k-broadcast): any algorithm that
/// solves k-broadcast with probability ≥ 1/2 needs
/// `Ω(s·k / (λ·w))` rounds, where `s` is the entropy per message and `w`
/// the edge bandwidth per round. With the paper's convention `s = w =
/// Θ(log n)` this is `Ω(k/λ)`; the explicit constant from the proof is
/// `(s·k/2 − 4) / (2·w·λ)`.
pub fn theorem3_broadcast_lb(k: u64, lambda: u64) -> f64 {
    assert!(lambda > 0);
    if k == 0 {
        return 0.0;
    }
    // s = w cancels; proof constant: t > (sk/2 - 4) / (2wλ) ≈ k/(4λ).
    ((k as f64 / 2.0) - 4.0 / 64.0).max(0.0) / (2.0 * lambda as f64)
}

/// Theorem 8 (universal lower bound for learning all IDs, hence for
/// writing down APSP/cut estimates): `Ω(n/λ)` rounds; explicit form
/// `(n log n) / (2·λ·log n) = n/(2λ)` with the proof's ≥1/2-probability
/// constant.
pub fn theorem8_ids_lb(n: u64, lambda: u64) -> f64 {
    assert!(lambda > 0);
    n as f64 / (2.0 * lambda as f64)
}

/// Theorem 9 (existential lower bound for α-approximate *weighted* APSP
/// on a crafted family): `Ω(n / (λ·log α))` rounds; the crafted graph
/// encodes `k_max = Θ(log n / log α)` bits per node which node `v₁` must
/// learn through λ edges.
pub fn theorem9_weighted_apsp_lb(n: u64, lambda: u64, alpha: f64, c: f64) -> f64 {
    assert!(lambda > 0);
    assert!(alpha >= 1.0);
    assert!(c > 0.0);
    if n <= 2 {
        return 0.0;
    }
    let log2a = (2.0 * alpha).log2().max(1.0);
    let k_max = (c * (n as f64).log2() / log2a).floor().max(1.0);
    k_max * (n as f64 - 2.0) / (lambda as f64 * (n as f64).log2())
}

/// Optimality ratio: measured rounds over the broadcast floor
/// `max(ecc(s₀), Theorem 3)`. Every node must receive the message held by
/// `s₀` (the node holding message 0), which takes `source_ecc = ecc(s₀)`
/// rounds however few messages there are; Theorem 3's `k/(4λ)` is the
/// floor once `k` is large. Theorem 1 promises the ratio stays `O(log n)`
/// whenever `k = Ω(n)`.
pub fn optimality_ratio(measured_rounds: u64, k: u64, lambda: u64, source_ecc: u64) -> f64 {
    let lb = theorem3_broadcast_lb(k, lambda).max(source_ecc as f64);
    if lb <= 0.0 {
        f64::INFINITY
    } else {
        measured_rounds as f64 / lb
    }
}

/// The combined upper bound of §3.2:
/// `min{ O(D + k), O((n log n)/δ + (k log n)/λ) }` — the predicted round
/// count (up to constants) that experiments compare measurements against.
pub fn combined_upper_bound(n: u64, k: u64, d: u64, delta: u64, lambda: u64) -> f64 {
    assert!(delta > 0 && lambda > 0);
    let ln_n = (n.max(2) as f64).ln();
    let textbook = (d + k) as f64;
    let partition = (n as f64 * ln_n) / delta as f64 + (k as f64 * ln_n) / lambda as f64;
    textbook.min(partition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem3_scales_linearly_in_k_over_lambda() {
        let base = theorem3_broadcast_lb(1000, 10);
        assert!((theorem3_broadcast_lb(2000, 10) / base - 2.0).abs() < 0.01);
        assert!((theorem3_broadcast_lb(1000, 20) / base - 0.5).abs() < 0.01);
        assert_eq!(theorem3_broadcast_lb(0, 5), 0.0);
    }

    #[test]
    fn theorem8_value() {
        assert_eq!(theorem8_ids_lb(1000, 10), 50.0);
    }

    #[test]
    fn theorem9_decreases_with_alpha() {
        let tight = theorem9_weighted_apsp_lb(1024, 8, 1.5, 2.0);
        let loose = theorem9_weighted_apsp_lb(1024, 8, 100.0, 2.0);
        assert!(tight > loose, "{tight} should exceed {loose}");
        assert_eq!(theorem9_weighted_apsp_lb(2, 8, 2.0, 2.0), 0.0);
    }

    #[test]
    fn combined_bound_picks_the_winner() {
        // Dense fast graph: partition term wins for large k.
        let n = 1024;
        let d = 4;
        let delta = 256;
        let lambda = 256;
        let k_small = 10;
        let k_large = 100_000;
        assert_eq!(
            combined_upper_bound(n, k_small, d, delta, lambda),
            (d + k_small) as f64
        );
        let partition = combined_upper_bound(n, k_large, d, delta, lambda);
        assert!(partition < (d + k_large) as f64);
    }

    #[test]
    fn optimality_ratio_from_measured_run() {
        use crate::broadcast::{partition_broadcast, BroadcastInput};
        let g = congest_graph::generators::harary(8, 48);
        let k = 96; // k = 2n: the universal-optimality regime
        let input = BroadcastInput::random_spread(&g, k, 7);
        let out = partition_broadcast(&g, &input, 8, 13).unwrap();
        assert!(out.all_delivered());
        let ecc = congest_graph::algo::eccentricity(&g, input.messages[0].0).unwrap();
        let ratio = optimality_ratio(out.total_rounds, k as u64, 8, ecc as u64);
        // Theorem 1: ratio = O(log n); generous constant for small n.
        let log_n = (48f64).ln();
        assert!(
            ratio <= 40.0 * log_n,
            "optimality ratio {ratio} too far above O(log n) = {log_n}"
        );
    }

    /// Few messages on a long circulant: Theorem 3's `k/(4λ)` is below one
    /// round, and the floor is the source's eccentricity, so the ratio is
    /// at most `rounds / ecc(s₀)` — not `rounds` over almost zero.
    #[test]
    fn optimality_ratio_is_floored_at_the_source_eccentricity() {
        use crate::broadcast::{partition_broadcast, BroadcastInput};
        let g = congest_graph::generators::harary(4, 64);
        let k = 4;
        let input = BroadcastInput::random_spread(&g, k, 3);
        let out = partition_broadcast(&g, &input, 4, 5).unwrap();
        assert!(out.all_delivered());
        let ecc = congest_graph::algo::eccentricity(&g, input.messages[0].0).unwrap() as u64;
        assert!(theorem3_broadcast_lb(k as u64, 4) < 1.0);
        let ratio = optimality_ratio(out.total_rounds, k as u64, 4, ecc);
        assert!(
            ratio <= out.total_rounds as f64 / ecc as f64,
            "ratio {ratio}"
        );
        assert!(ratio.is_finite() && ratio >= 1.0, "ratio {ratio}");
    }
}
