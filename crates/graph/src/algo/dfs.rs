//! Iterative depth-first search: **walk timestamps**.
//!
//! The PRT12 APSP simulation (paper Lemma 6) needs DFS *walk* times
//! `π(u)` on the cluster graph — the step of the depth-first **walk**
//! (every tree-edge traversal, descending or backtracking, advances the
//! clock) at which `u` is first reached. Because the walk moves one edge
//! per step, `|π(u) − π(w)| ≥ d(u, w)`, which is exactly what makes the
//! staggered BFS waves (start time `2·π(u)`) collision-free: a collision
//! at `v` would need `2|π(u) − π(w)| = |d(w,v) − d(u,v)| ≤ d(u,w)`,
//! forcing `u = w`. Discovery *indices* do **not** have this property —
//! see `dfs_walk_first_visit`'s tests for a regression pinning this down.

use crate::graph::{Graph, Node};

/// First-visit **walk** timestamps of a DFS from `src`: `time[v]` is the
/// number of edge traversals (descents *and* backtracks) performed before
/// the walk first stands on `v`; `u32::MAX` where unreachable. The root
/// gets 0; the walk traverses each DFS-tree edge twice, so all times are
/// `< 2(n−1)`.
///
/// Key metric property (relied on by PRT12): `|time[u] − time[w]| ≥
/// d(u, w)` for reachable `u`, `w`.
pub fn dfs_walk_first_visit(g: &Graph, src: Node) -> Vec<u32> {
    let n = g.n();
    let mut time = vec![u32::MAX; n];
    let mut clock = 0u32;
    let mut stack: Vec<(Node, usize)> = Vec::new();
    time[src as usize] = 0;
    stack.push((src, 0));
    while let Some(&mut (v, ref mut port)) = stack.last_mut() {
        let nbrs = g.neighbors(v);
        let mut advanced = false;
        while *port < nbrs.len() {
            let u = nbrs[*port];
            *port += 1;
            if time[u as usize] == u32::MAX {
                clock += 1; // walk down the tree edge
                time[u as usize] = clock;
                stack.push((u, 0));
                advanced = true;
                break;
            }
        }
        if !advanced {
            stack.pop();
            if !stack.is_empty() {
                clock += 1; // backtrack over the tree edge
            }
        }
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apsp::apsp_unweighted;
    use crate::generators::{complete, gnp_connected, path, torus2d};

    #[test]
    fn unreachable_gets_max() {
        let g = crate::builder::GraphBuilder::new(3)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(dfs_walk_first_visit(&g, 0), vec![0, 1, u32::MAX]);
    }

    #[test]
    fn walk_times_on_path_match_distance() {
        let g = path(6);
        let t = dfs_walk_first_visit(&g, 0);
        assert_eq!(t, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn walk_times_bounded_by_twice_tree_edges() {
        for g in [complete(9), torus2d(4, 4), gnp_connected(30, 0.2, 3)] {
            let t = dfs_walk_first_visit(&g, 0);
            let max = t.iter().copied().max().unwrap();
            assert!(max < 2 * (g.n() as u32 - 1), "walk time {max} too large");
        }
    }

    #[test]
    fn walk_metric_property_holds() {
        // |π(u) − π(w)| ≥ d(u, w): the property PRT12's collision-freeness
        // rests on. Discovery *indices* violate this (regression guard).
        for seed in 0..5u64 {
            let g = gnp_connected(24, 0.2, seed);
            let t = dfs_walk_first_visit(&g, 0);
            let dist = apsp_unweighted(&g);
            for u in 0..g.n() {
                for w in 0..g.n() {
                    let gap = t[u].abs_diff(t[w]);
                    assert!(
                        gap >= dist[u][w] || u == w,
                        "seed {seed}: |π({u})−π({w})| = {gap} < d = {}",
                        dist[u][w]
                    );
                }
            }
        }
    }
}
