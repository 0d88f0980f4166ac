//! Breadth-first search: distances, trees, and edge-restricted variants.

use crate::graph::{Graph, Node, INVALID_NODE};
use std::collections::VecDeque;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src`; `UNREACHABLE` where not reachable.
pub fn bfs_distances(g: &Graph, src: Node) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == UNREACHABLE {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// A rooted BFS tree: parent pointers, the edge to the parent, and depths.
#[derive(Debug, Clone)]
pub struct BfsTree {
    pub root: Node,
    /// `parent[v]` is `INVALID_NODE` for the root and unreachable nodes.
    pub parent: Vec<Node>,
    /// Edge id of `{v, parent[v]}` (undefined where parent is invalid).
    pub parent_edge: Vec<u32>,
    /// BFS depth (`UNREACHABLE` where unreachable).
    pub depth: Vec<u32>,
}

impl BfsTree {
    /// Height of the tree = max finite depth.
    pub fn height(&self) -> u32 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// Whether every node is reachable (tree is spanning).
    pub fn is_spanning(&self) -> bool {
        self.depth.iter().all(|&d| d != UNREACHABLE)
    }

    /// Children lists (computed on demand).
    pub fn children(&self) -> Vec<Vec<Node>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, &p) in self.parent.iter().enumerate() {
            if p != INVALID_NODE {
                ch[p as usize].push(v as Node);
            }
        }
        ch
    }

    /// Number of reachable nodes (including the root).
    pub fn reached(&self) -> usize {
        self.depth.iter().filter(|&&d| d != UNREACHABLE).count()
    }
}

/// BFS tree from `src` over the whole graph.
pub fn bfs_tree(g: &Graph, src: Node) -> BfsTree {
    bfs_tree_restricted(g, src, |_| true)
}

/// BFS tree from `src` using only edges for which `allow(edge_id)` holds.
///
/// This is how Theorem 2's subgraphs `G_i` are explored: the partition
/// colors edges, and each `G_i`-BFS runs on its own color class.
pub fn bfs_tree_restricted<F: FnMut(u32) -> bool>(g: &Graph, src: Node, mut allow: F) -> BfsTree {
    let n = g.n();
    let mut parent = vec![INVALID_NODE; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut depth = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    depth[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = depth[v as usize];
        for (u, e) in g.edges_of(v) {
            if depth[u as usize] == UNREACHABLE && allow(e) {
                depth[u as usize] = dv + 1;
                parent[u as usize] = v;
                parent_edge[u as usize] = e;
                queue.push_back(u);
            }
        }
    }
    BfsTree {
        root: src,
        parent,
        parent_edge,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path, torus2d};

    #[test]
    fn path_distances() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tree_structure_on_cycle() {
        let g = cycle(6);
        let t = bfs_tree(&g, 0);
        assert!(t.is_spanning());
        assert_eq!(t.height(), 3);
        assert_eq!(t.parent[0], INVALID_NODE);
        // Every non-root node's parent edge actually connects it to parent.
        for v in 1..6u32 {
            let p = t.parent[v as usize];
            let e = t.parent_edge[v as usize];
            let (a, b) = g.endpoints(e);
            assert!((a, b) == (v.min(p), v.max(p)));
            assert_eq!(t.depth[v as usize], t.depth[p as usize] + 1);
        }
    }

    #[test]
    fn restricted_bfs_respects_filter() {
        let g = cycle(6);
        // Forbid the edge {0,5}: distances become path-like.
        let forbidden = g.edge_list().find(|&(_, u, v)| (u, v) == (0, 5)).unwrap().0;
        let t = bfs_tree_restricted(&g, 0, |e| e != forbidden);
        assert!(t.is_spanning());
        assert_eq!(t.depth[5], 5);
    }

    #[test]
    fn unreachable_marked() {
        let g = crate::builder::GraphBuilder::new(4)
            .edge(0, 1)
            .build()
            .unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        let t = bfs_tree(&g, 0);
        assert!(!t.is_spanning());
        assert_eq!(t.reached(), 2);
    }

    #[test]
    fn torus_center_distances() {
        let g = torus2d(5, 5);
        let d = bfs_distances(&g, 0);
        assert_eq!(*d.iter().max().unwrap(), 4); // ⌊5/2⌋+⌊5/2⌋
    }
}
