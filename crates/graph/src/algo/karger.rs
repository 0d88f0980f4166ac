//! Karger's randomized contraction min cut.
//!
//! The paper's key lemma (Lemma 5) is explicitly *"a strengthening of
//! Karger's well-known connectivity under random edge sampling result
//! \[Kar99\]"*, and Karger's contraction viewpoint underlies the whole
//! sampling-probability calculus (`p = Θ(log n/λ)`). This module provides
//! the classic algorithm both as an independent cross-check for the max-flow
//! ground truth and as the Monte-Carlo λ estimator experiments can use on
//! graphs too large for exact flows.
//!
//! One contraction run succeeds with probability ≥ `2/n²`; running
//! `O(n² ln n)` times makes failure negligible. We expose the repetition
//! count so tests can trade confidence for time.

use crate::algo::components::UnionFind;
use crate::graph::{Graph, Node};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random contraction down to two super-nodes; returns the number of
/// crossing edges (an upper bound on λ) and one side of the cut.
pub fn karger_contract_once(g: &Graph, seed: u64) -> (usize, Vec<bool>) {
    let n = g.n();
    assert!(n >= 2);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Random permutation of edges; union endpoints until 2 components
    // remain (equivalent to repeated uniform contraction).
    let mut order: Vec<u32> = (0..g.m() as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut uf = UnionFind::new(n);
    let mut remaining = n;
    for &e in &order {
        if remaining == 2 {
            break;
        }
        let (u, v) = g.endpoints(e);
        if uf.union(u, v) {
            remaining -= 1;
        }
    }
    // Count crossing edges and extract the side of node 0's component.
    let root0 = uf.find(0);
    let side: Vec<bool> = (0..n as Node).map(|v| uf.find(v) == root0).collect();
    let crossing = g
        .edge_list()
        .filter(|&(_, u, v)| side[u as usize] != side[v as usize])
        .count();
    (crossing, side)
}

/// Monte-Carlo global min cut: best of `repetitions` contractions.
/// With `repetitions = Ω(n² ln n)` the result equals λ w.h.p.; smaller
/// counts give a cheap upper-bound estimator.
pub fn karger_min_cut(g: &Graph, repetitions: usize, seed: u64) -> (usize, Vec<bool>) {
    assert!(repetitions >= 1);
    let mut best = usize::MAX;
    let mut best_side = Vec::new();
    for r in 0..repetitions {
        let (cut, side) = karger_contract_once(g, seed.wrapping_add(r as u64 * 0x9E37_79B9));
        if cut < best {
            best = cut;
            best_side = side;
        }
    }
    (best, best_side)
}

/// The standard repetition count for w.h.p. correctness: `⌈n²·ln n⌉ / 2`.
pub fn karger_whp_repetitions(n: usize) -> usize {
    let nf = n.max(2) as f64;
    ((nf * nf * nf.ln()) / 2.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::connectivity::edge_connectivity;
    use crate::generators::{barbell, clique_chain, cycle, harary};

    #[test]
    fn contraction_returns_a_real_cut() {
        let g = harary(6, 24);
        let (cut, side) = karger_contract_once(&g, 3);
        assert!(side.iter().any(|&x| x));
        assert!(side.iter().any(|&x| !x));
        assert!(cut >= 6, "any cut is ≥ λ");
    }

    #[test]
    fn finds_the_bridge_on_barbell() {
        // λ = 1 with a unique min cut: contraction finds it quickly.
        let g = barbell(6, 3);
        let (cut, _) = karger_min_cut(&g, 60, 5);
        assert_eq!(cut, 1);
    }

    #[test]
    fn matches_dinic_on_moderate_graphs() {
        for (g, reps) in [
            (cycle(12), 50),
            (clique_chain(3, 6, 2), 200),
            (harary(4, 18), 400),
        ] {
            let exact = edge_connectivity(&g);
            let (mc, side) = karger_min_cut(&g, reps, 11);
            assert!(mc >= exact, "Karger is an upper bound");
            assert_eq!(mc, exact, "enough repetitions must find λ = {exact}");
            // The returned side realizes the reported cut value.
            let crossing = g
                .edge_list()
                .filter(|&(_, u, v)| side[u as usize] != side[v as usize])
                .count();
            assert_eq!(crossing, mc);
        }
    }

    #[test]
    fn repetition_formula() {
        assert!(karger_whp_repetitions(10) >= 100);
        assert!(karger_whp_repetitions(2) >= 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = harary(4, 16);
        assert_eq!(karger_contract_once(&g, 9).0, karger_contract_once(&g, 9).0);
    }
}
