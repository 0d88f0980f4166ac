//! Exact all-pairs shortest paths — ground truth for §4's approximation
//! guarantees ((3,2) unweighted, (2k−1) weighted).
//!
//! Both variants parallelize over sources; each source writes only its own
//! row, so results are deterministic under any thread count.

use crate::algo::bfs::bfs_distances;
use crate::graph::{Graph, Node};
use crate::weighted::WeightedGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dense distance matrix for unweighted APSP; `dist[u][v] = u32::MAX`
/// when unreachable. `O(n·m)` via n parallel BFS.
pub fn apsp_unweighted(g: &Graph) -> Vec<Vec<u32>> {
    congest_par::par_map_collect(g.n(), |s| bfs_distances(g, s as Node))
}

/// Dijkstra distances from `src` on a weighted graph.
pub fn dijkstra(g: &WeightedGraph, src: Node) -> Vec<f64> {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    // BinaryHeap over ordered bits of f64 (all weights positive & finite).
    let mut heap: BinaryHeap<Reverse<(u64, Node)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((dbits, v))) = heap.pop() {
        let d = f64::from_bits(dbits);
        if d > dist[v as usize] {
            continue;
        }
        for (u, _e, w) in g.edges_of(v) {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd.to_bits(), u)));
            }
        }
    }
    dist
}

/// Dense distance matrix for weighted APSP; `f64::INFINITY` when
/// unreachable. `O(n·m log n)` via n parallel Dijkstras.
pub fn apsp_weighted(g: &WeightedGraph) -> Vec<Vec<f64>> {
    congest_par::par_map_collect(g.n(), |s| dijkstra(g, s as Node))
}

/// Measured `(α, β)` approximation quality of an estimate matrix against
/// the exact unweighted APSP: verifies `d ≤ d̃` everywhere and returns the
/// smallest multiplicative stretch observed assuming additive slack `beta`
/// (i.e. `max over pairs of (d̃ − β)/d` for `d ≥ 1`).
pub fn measure_stretch_unweighted(
    exact: &[Vec<u32>],
    estimate: &[Vec<u32>],
    beta: u32,
) -> Result<f64, String> {
    let n = exact.len();
    let mut worst: f64 = 1.0;
    for u in 0..n {
        for v in 0..n {
            let d = exact[u][v];
            let e = estimate[u][v];
            if d == u32::MAX || e == u32::MAX {
                if d != e {
                    return Err(format!("reachability mismatch at ({u},{v})"));
                }
                continue;
            }
            if e < d {
                return Err(format!("estimate {e} below true distance {d} at ({u},{v})"));
            }
            if d > 0 {
                worst = worst.max((e.saturating_sub(beta)) as f64 / d as f64);
            } else if e > beta {
                return Err(format!("self-distance estimate {e} > β at ({u},{v})"));
            }
        }
    }
    Ok(worst)
}

/// Same for weighted instances with purely multiplicative stretch.
pub fn measure_stretch_weighted(exact: &[Vec<f64>], estimate: &[Vec<f64>]) -> Result<f64, String> {
    let n = exact.len();
    let mut worst: f64 = 1.0;
    for u in 0..n {
        for v in 0..n {
            let d = exact[u][v];
            let e = estimate[u][v];
            if !d.is_finite() || !e.is_finite() {
                if d.is_finite() != e.is_finite() {
                    return Err(format!("reachability mismatch at ({u},{v})"));
                }
                continue;
            }
            if e < d - 1e-9 {
                return Err(format!("estimate {e} below true distance {d} at ({u},{v})"));
            }
            if d > 0.0 {
                worst = worst.max(e / d);
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{cycle, path, torus2d};

    #[test]
    fn unweighted_matrix_is_symmetric_metric() {
        let g = torus2d(4, 4);
        let d = apsp_unweighted(&g);
        let n = g.n();
        for u in 0..n {
            assert_eq!(d[u][u], 0);
            for v in 0..n {
                assert_eq!(d[u][v], d[v][u]);
                for w in 0..n {
                    assert!(d[u][w] <= d[u][v] + d[v][w], "triangle inequality");
                }
            }
        }
    }

    #[test]
    fn dijkstra_on_weighted_cycle() {
        let base = cycle(4);
        // Weights: make one direction expensive.
        let mut weights = vec![1.0; base.m()];
        let heavy = base
            .edge_list()
            .find(|&(_, u, v)| (u, v) == (0, 3))
            .unwrap()
            .0;
        weights[heavy as usize] = 10.0;
        let g = WeightedGraph::new(base, weights);
        let d = dijkstra(&g, 0);
        assert_eq!(d[3], 3.0); // around the cheap side
    }

    #[test]
    fn weighted_apsp_matches_unweighted_on_unit() {
        let g = path(6);
        let exact_u = apsp_unweighted(&g);
        let exact_w = apsp_weighted(&WeightedGraph::unit(g));
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(exact_u[u][v] as f64, exact_w[u][v]);
            }
        }
    }

    #[test]
    fn stretch_measurement_detects_underestimates() {
        let g = path(4);
        let exact = apsp_unweighted(&g);
        let mut bad = exact.clone();
        bad[0][3] = 1; // underestimate
        assert!(measure_stretch_unweighted(&exact, &bad, 0).is_err());
    }

    #[test]
    fn stretch_measurement_computes_alpha() {
        let g = path(4);
        let exact = apsp_unweighted(&g);
        let mut est = exact.clone();
        // Inflate everything by 3x + 2.
        for row in est.iter_mut() {
            for x in row.iter_mut() {
                if *x != u32::MAX {
                    *x = *x * 3 + 2;
                }
            }
        }
        let alpha = measure_stretch_unweighted(&exact, &est, 2).unwrap();
        assert!((alpha - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_pairs_must_agree() {
        let g = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let exact = apsp_unweighted(&g);
        assert_eq!(exact[0][2], u32::MAX);
        let ok = measure_stretch_unweighted(&exact, &exact, 0).unwrap();
        assert_eq!(ok, 1.0);
    }
}
