//! Connected components and a small union-find.

use crate::graph::{Graph, Node};

/// Path-compressing, union-by-size disjoint-set forest.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Union the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// Component label per node (labels are `0..num_components`, assigned in
/// order of first appearance) plus the component count.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for s in 0..n as Node {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = count;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// Whether the graph is connected (true for the empty graph on 0 nodes).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).1 <= 1
}

/// Whether the edge set selected by `allow` spans all nodes in one
/// component — the per-subgraph check of Theorem 2.
pub fn is_spanning_connected<F: FnMut(u32) -> bool>(g: &Graph, allow: F) -> bool {
    if g.n() == 0 {
        return true;
    }
    let t = crate::algo::bfs::bfs_tree_restricted(g, 0, allow);
    t.is_spanning()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{complete, cycle};

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn components_of_two_triangles() {
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
            .build()
            .unwrap();
        let (label, cnt) = connected_components(&g);
        assert_eq!(cnt, 2);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[3], label[5]);
        assert_ne!(label[0], label[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_families() {
        assert!(is_connected(&complete(5)));
        assert!(is_connected(&cycle(9)));
    }

    #[test]
    fn spanning_check_with_filter() {
        let g = cycle(5);
        assert!(is_spanning_connected(&g, |_| true));
        // Remove two edges: cycle minus 2 edges is disconnected ⇒ not spanning.
        assert!(!is_spanning_connected(&g, |e| e != 0 && e != 2));
        // Remove one edge: still a spanning path.
        assert!(is_spanning_connected(&g, |e| e != 0));
    }
}
