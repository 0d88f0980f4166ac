//! Bridge detection (Tarjan's low-link algorithm).
//!
//! A graph has edge connectivity λ = 1 exactly when it has a bridge — the
//! paper's motivating worst case ("if the minimum cut size is one, simply
//! transmitting messages from one side of the cut to the other would
//! require Ω(k) rounds"). Bridge detection gives experiments and the CLI
//! a linear-time diagnosis of *why* a network is stuck in the slow
//! regime, without paying for max-flow.

use crate::graph::{Edge, Graph, Node};

/// All bridge edges of `g` (edges whose removal disconnects their
/// component), in ascending edge-id order. Iterative Tarjan low-link.
pub fn bridges(g: &Graph) -> Vec<Edge> {
    let n = g.n();
    let mut disc = vec![u32::MAX; n]; // discovery times
    let mut low = vec![u32::MAX; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut out = Vec::new();
    // Explicit DFS stack: (node, port cursor).
    let mut stack: Vec<(Node, usize)> = Vec::new();
    for start in 0..n as Node {
        if disc[start as usize] != u32::MAX {
            continue;
        }
        disc[start as usize] = timer;
        low[start as usize] = timer;
        timer += 1;
        stack.push((start, 0));
        while let Some(&mut (v, ref mut port)) = stack.last_mut() {
            let nbrs = g.neighbors(v);
            let eids = g.incident_edges(v);
            if *port < nbrs.len() {
                let u = nbrs[*port];
                let e = eids[*port];
                *port += 1;
                if disc[u as usize] == u32::MAX {
                    // Tree edge: descend.
                    disc[u as usize] = timer;
                    low[u as usize] = timer;
                    timer += 1;
                    parent_edge[u as usize] = e;
                    stack.push((u, 0));
                } else if e != parent_edge[v as usize] {
                    // Back edge (or parallel exploration of the same
                    // level): update low-link.
                    low[v as usize] = low[v as usize].min(disc[u as usize]);
                }
            } else {
                // Retreat: propagate low-link to the parent and test the
                // bridge condition.
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if low[v as usize] > disc[p as usize] {
                        out.push(parent_edge[v as usize]);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barbell, complete, cycle, harary, path};

    #[test]
    fn path_is_all_bridges() {
        let g = path(6);
        assert_eq!(bridges(&g).len(), 5);
    }

    #[test]
    fn cycle_has_none() {
        assert!(bridges(&cycle(7)).is_empty());
    }

    #[test]
    fn barbell_bridge_is_the_path() {
        let g = barbell(5, 3);
        let b = bridges(&g);
        assert_eq!(b.len(), 3, "every path edge is a bridge");
        // Each reported bridge, removed, must disconnect the graph.
        for &e in &b {
            let (sub, _) = g.edge_subgraph(|x| x != e);
            assert!(!crate::algo::components::is_connected(&sub));
        }
    }

    #[test]
    fn two_connected_families_have_none() {
        for g in [complete(8), harary(4, 16)] {
            assert!(bridges(&g).is_empty());
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..20 {
            let n = 10;
            let mut b = crate::builder::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.25) {
                        b.push_edge(u, v);
                    }
                }
            }
            let g = b.build().unwrap();
            let fast = bridges(&g);
            // Brute force: an edge is a bridge iff removing it increases
            // the component count.
            let (_, base_components) = crate::algo::components::connected_components(&g);
            let brute: Vec<u32> = g
                .edge_list()
                .filter(|&(e, _, _)| {
                    let (sub, _) = g.edge_subgraph(|x| x != e);
                    crate::algo::components::connected_components(&sub).1 > base_components
                })
                .map(|(e, _, _)| e)
                .collect();
            assert_eq!(fast, brute);
        }
    }
}
