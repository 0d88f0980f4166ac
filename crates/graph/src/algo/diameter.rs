//! Diameter computation: exact (parallel all-sources BFS) and the classic
//! 2-sweep lower bound for graphs too large for the exact method.
//!
//! Experiment E1/E2 verify Theorem 2's `O((Cn log n)/δ)` subgraph-diameter
//! bound; these are the measurement tools.

use crate::algo::bfs::{bfs_distances, UNREACHABLE};
use crate::graph::{Graph, Node};

/// Eccentricity of `v` (max BFS distance), or `None` if some node is
/// unreachable from `v`.
pub fn eccentricity(g: &Graph, v: Node) -> Option<u32> {
    let d = bfs_distances(g, v);
    let mut max = 0;
    for &x in &d {
        if x == UNREACHABLE {
            return None;
        }
        max = max.max(x);
    }
    Some(max)
}

/// Exact diameter via BFS from every node, parallelized over sources.
/// Returns `None` if the graph is disconnected or empty.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    congest_par::par_map_collect(n, |v| eccentricity(g, v as Node))
        .into_iter()
        .try_fold(0, |max, ecc| Some(max.max(ecc?)))
}

/// Exact diameter of the subgraph on the same nodes induced by the edges
/// with `allow[e] = true`. `None` if that subgraph is disconnected.
pub fn diameter_exact_restricted(g: &Graph, allow: &[bool]) -> Option<u32> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    congest_par::par_map_collect(n, |src| {
        let t = crate::algo::bfs::bfs_tree_restricted(g, src as Node, |e| allow[e as usize]);
        t.is_spanning().then(|| t.height())
    })
    .into_iter()
    .try_fold(0, |max, height| Some(max.max(height?)))
}

/// 2-sweep on the subgraph induced by `allowed` edges. **Exact** when that
/// subgraph is a tree (the classic double-BFS tree-diameter algorithm);
/// a lower bound otherwise. `None` if the subgraph does not span.
pub fn two_sweep_lower_bound_restricted(g: &Graph, start: Node, allowed: &[bool]) -> Option<u32> {
    let t1 = crate::algo::bfs::bfs_tree_restricted(g, start, |e| allowed[e as usize]);
    if !t1.is_spanning() {
        return None;
    }
    let far = (0..g.n())
        .max_by_key(|&v| t1.depth[v])
        .expect("nonempty graph") as Node;
    let t2 = crate::algo::bfs::bfs_tree_restricted(g, far, |e| allowed[e as usize]);
    Some(t2.height())
}

/// 2-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest node found. Cheap (`2` BFS) and usually within a small factor
/// of the true diameter; exact on trees.
pub fn two_sweep_lower_bound(g: &Graph, start: Node) -> Option<u32> {
    let d1 = bfs_distances(g, start);
    let mut far = start;
    let mut best = 0;
    for (v, &x) in d1.iter().enumerate() {
        if x == UNREACHABLE {
            return None;
        }
        if x > best {
            best = x;
            far = v as Node;
        }
    }
    let d2 = bfs_distances(g, far);
    d2.iter().copied().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, path, torus2d};

    #[test]
    fn exact_on_known_families() {
        assert_eq!(diameter_exact(&path(10)), Some(9));
        assert_eq!(diameter_exact(&cycle(10)), Some(5));
        assert_eq!(diameter_exact(&complete(10)), Some(1));
        assert_eq!(diameter_exact(&torus2d(6, 8)), Some(3 + 4));
    }

    #[test]
    fn disconnected_returns_none() {
        let g = crate::builder::GraphBuilder::new(4)
            .edge(0, 1)
            .edge(2, 3)
            .build()
            .unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
        assert_eq!(two_sweep_lower_bound(&g, 0), None);
    }

    #[test]
    fn two_sweep_exact_on_paths() {
        let g = path(17);
        assert_eq!(two_sweep_lower_bound(&g, 8), Some(16));
    }

    #[test]
    fn two_sweep_is_lower_bound() {
        let g = torus2d(5, 7);
        let exact = diameter_exact(&g).unwrap();
        let lb = two_sweep_lower_bound(&g, 0).unwrap();
        assert!(lb <= exact);
        assert!(lb >= exact / 2); // classic guarantee on connected graphs
    }

    #[test]
    fn restricted_diameter() {
        let g = cycle(8);
        let all = vec![true; g.m()];
        assert_eq!(diameter_exact_restricted(&g, &all), Some(4));
        let mut missing_one = all.clone();
        missing_one[0] = false;
        // Cycle minus an edge = path of 8 nodes.
        assert_eq!(diameter_exact_restricted(&g, &missing_one), Some(7));
        let mut missing_two = missing_one.clone();
        missing_two[4] = false;
        assert_eq!(diameter_exact_restricted(&g, &missing_two), None);
    }
}
