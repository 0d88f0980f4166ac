//! Graph-level metrics used across experiments: the paper's headline
//! parameter summary (n, m, δ, λ, D).

use crate::algo::connectivity::edge_connectivity;
use crate::algo::diameter::diameter_exact;
use crate::graph::Graph;

/// The paper's parameter tuple for a graph, computed exactly.
/// Intended for experiment headers; costs `O(n·m)` (diameter) +
/// `O(n)` max-flows (λ), so use on verification-sized graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphParams {
    pub n: usize,
    pub m: usize,
    /// Minimum degree δ.
    pub delta: usize,
    /// Edge connectivity λ.
    pub lambda: usize,
    /// Diameter D (`None` when disconnected).
    pub diameter: Option<u32>,
}

impl GraphParams {
    pub fn measure(g: &Graph) -> Self {
        GraphParams {
            n: g.n(),
            m: g.m(),
            delta: g.min_degree(),
            lambda: edge_connectivity(g),
            diameter: diameter_exact(g),
        }
    }

    /// The paper's Observation 1 bound: `D = O(n/δ)`; returns the measured
    /// ratio `D · δ / n` (should be O(1) — in fact ≤ 3 by the proof).
    pub fn observation1_ratio(&self) -> Option<f64> {
        let d = self.diameter? as f64;
        if self.n == 0 {
            return None;
        }
        Some(d * self.delta as f64 / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clique_chain, complete, cycle, harary};

    #[test]
    fn params_of_harary() {
        let p = GraphParams::measure(&harary(4, 16));
        assert_eq!(p.n, 16);
        assert_eq!(p.delta, 4);
        assert_eq!(p.lambda, 4);
        assert!(p.diameter.unwrap() >= 2);
    }

    #[test]
    fn observation1_holds() {
        for g in [
            complete(10),
            cycle(12),
            harary(4, 24),
            clique_chain(3, 6, 2),
        ] {
            let p = GraphParams::measure(&g);
            let r = p.observation1_ratio().unwrap();
            assert!(r <= 3.0 + 1e-9, "Observation 1 ratio {r} > 3");
        }
    }
}
