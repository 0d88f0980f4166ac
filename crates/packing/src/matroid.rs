//! Exact edge-disjoint spanning-tree packing via matroid union
//! (Edmonds' matroid partition / Roskind–Tarjan augmentation).
//!
//! Tutte \[Tut61\] and Nash-Williams \[NW61\] — the results the paper's
//! introduction builds on — guarantee ⌊λ/2⌋ edge-disjoint spanning trees
//! in every λ-edge-connected graph. Greedy extraction cannot certify
//! that number (it strands residual components); the matroid-union
//! augmenting-path algorithm can: it maintains `k` forests and, for each
//! new edge, searches the *exchange graph* (labels an edge `h` from `f`
//! when `h` lies on the cycle `f` closes in some forest, i.e. `F − h + f`
//! is again a forest) for a sequence of swaps that makes room. The result
//! is a **maximum** `k`-forest packing; when the graph is
//! `2k`-edge-connected, all `k` forests are spanning trees — the
//! Tutte/Nash-Williams bound, constructively.
//!
//! Complexity: each augmentation labels each edge at most once and pays
//! `O(k·n)` per labeled edge — fine for the verification scales here
//! (thousands of edges). The search stops early once all forests span.

use crate::packing::TreePacking;
use congest_graph::algo::bfs::BfsTree;
use congest_graph::{Edge, Graph, Node, INVALID_NODE};
use std::collections::VecDeque;

/// A maximum packing of `k` edge-disjoint forests.
#[derive(Debug, Clone)]
pub struct ForestPacking {
    pub k: usize,
    /// Edge ids per forest.
    pub forests: Vec<Vec<Edge>>,
}

impl ForestPacking {
    /// Total edges across forests (the matroid-union rank achieved).
    pub fn total_edges(&self) -> usize {
        self.forests.iter().map(Vec::len).sum()
    }

    /// Whether every forest is a spanning tree of an `n`-node graph.
    pub fn all_spanning(&self, n: usize) -> bool {
        self.forests.iter().all(|f| f.len() + 1 == n)
    }
}

/// Internal forest representation with adjacency for path queries.
struct Forests {
    k: usize,
    n: usize,
    /// `adj[i][v]` = (neighbor, edge) pairs of forest i.
    adj: Vec<Vec<Vec<(Node, Edge)>>>,
    /// `member[e]` = forest currently containing edge e (k = none).
    member: Vec<u8>,
    sizes: Vec<usize>,
}

impl Forests {
    fn new(k: usize, n: usize, m: usize) -> Self {
        assert!(k < u8::MAX as usize);
        Forests {
            k,
            n,
            adj: vec![vec![Vec::new(); n]; k],
            member: vec![k as u8; m],
            sizes: vec![0; k],
        }
    }

    fn insert(&mut self, i: usize, e: Edge, g: &Graph) {
        let (u, v) = g.endpoints(e);
        self.adj[i][u as usize].push((v, e));
        self.adj[i][v as usize].push((u, e));
        self.member[e as usize] = i as u8;
        self.sizes[i] += 1;
    }

    fn remove(&mut self, i: usize, e: Edge, g: &Graph) {
        let (u, v) = g.endpoints(e);
        self.adj[i][u as usize].retain(|&(_, ee)| ee != e);
        self.adj[i][v as usize].retain(|&(_, ee)| ee != e);
        self.member[e as usize] = self.k as u8;
        self.sizes[i] -= 1;
    }

    /// The tree path between `u` and `v` in forest `i`, or `None` if they
    /// are in different components (⇒ inserting `{u,v}` keeps it a forest).
    fn tree_path(
        &self,
        i: usize,
        u: Node,
        v: Node,
        scratch: &mut PathScratch,
    ) -> Option<Vec<Edge>> {
        scratch.reset(self.n);
        let mut queue = VecDeque::new();
        scratch.visit(u, INVALID_NODE, u32::MAX);
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            if x == v {
                // Walk back.
                let mut path = Vec::new();
                let mut cur = v;
                while cur != u {
                    let (p, pe) = scratch.parent(cur);
                    path.push(pe);
                    cur = p;
                }
                return Some(path);
            }
            for &(y, e) in &self.adj[i][x as usize] {
                if !scratch.visited(y) {
                    scratch.visit(y, x, e);
                    queue.push_back(y);
                }
            }
        }
        None
    }
}

/// Reusable BFS scratch with epoch-based clearing (no per-call allocation
/// or O(n) reset).
struct PathScratch {
    epoch: u32,
    mark: Vec<u32>,
    parent: Vec<(Node, Edge)>,
}

impl PathScratch {
    fn new(n: usize) -> Self {
        PathScratch {
            epoch: 0,
            mark: vec![0; n],
            parent: vec![(INVALID_NODE, u32::MAX); n],
        }
    }

    fn reset(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.parent.resize(n, (INVALID_NODE, u32::MAX));
        }
        self.epoch += 1;
    }

    #[inline]
    fn visited(&self, v: Node) -> bool {
        self.mark[v as usize] == self.epoch
    }

    #[inline]
    fn visit(&mut self, v: Node, parent: Node, e: Edge) {
        self.mark[v as usize] = self.epoch;
        self.parent[v as usize] = (parent, e);
    }

    #[inline]
    fn parent(&self, v: Node) -> (Node, Edge) {
        self.parent[v as usize]
    }
}

/// Compute a **maximum** packing of `k` edge-disjoint forests of `g`
/// (Edmonds/Roskind–Tarjan matroid-union augmentation).
pub fn matroid_forest_packing(g: &Graph, k: usize) -> ForestPacking {
    assert!(k >= 1);
    let n = g.n();
    let m = g.m();
    let mut forests = Forests::new(k, n, m);
    let mut scratch = PathScratch::new(n);
    // Labels for the augmentation BFS.
    let mut visited_epoch = vec![0u32; m];
    let mut pred: Vec<(Edge, u8)> = vec![(u32::MAX, 0); m];
    let mut epoch = 0u32;
    let target = k * n.saturating_sub(1);

    for e0 in 0..m as Edge {
        if forests.sizes.iter().sum::<usize>() >= target {
            break; // all forests span already
        }
        epoch += 1;
        let mut queue = VecDeque::new();
        visited_epoch[e0 as usize] = epoch;
        queue.push_back(e0);
        'search: while let Some(f) = queue.pop_front() {
            let (u, v) = g.endpoints(f);
            for i in 0..k {
                // Skip the forest currently holding f: its endpoints are
                // trivially connected through f itself there.
                if forests.member[f as usize] == i as u8 {
                    continue;
                }
                match forests.tree_path(i, u, v, &mut scratch) {
                    None => {
                        // f is independent in forest i: apply the swap
                        // chain back to e0. Each labeled edge `cur` moves
                        // from the forest whose cycle labeled it into the
                        // forest vacated by its successor; e0 (in no
                        // forest yet) fills the last vacancy.
                        let mut cur = f;
                        let mut dest = i;
                        loop {
                            if cur == e0 {
                                forests.insert(dest, cur, g);
                                break;
                            }
                            let (p, j) = pred[cur as usize];
                            forests.remove(j as usize, cur, g);
                            forests.insert(dest, cur, g);
                            cur = p;
                            dest = j as usize;
                        }
                        break 'search;
                    }
                    Some(path) => {
                        for h in path {
                            if visited_epoch[h as usize] != epoch {
                                visited_epoch[h as usize] = epoch;
                                pred[h as usize] = (f, i as u8);
                                queue.push_back(h);
                            }
                        }
                    }
                }
            }
        }
    }

    ForestPacking {
        k,
        forests: (0..k)
            .map(|i| {
                let mut edges: Vec<Edge> = (0..m as Edge)
                    .filter(|&e| forests.member[e as usize] == i as u8)
                    .collect();
                edges.sort_unstable();
                edges
            })
            .collect(),
    }
}

/// Exact packing of `k` edge-disjoint **spanning trees**, or `None` if no
/// such packing exists (by matroid union, the algorithm finds one exactly
/// when it exists; Nash-Williams guarantees existence for `k ≤ ⌊λ/2⌋`).
pub fn exact_tree_packing(g: &Graph, k: usize, root: Node) -> Option<TreePacking> {
    let packing = matroid_forest_packing(g, k);
    if !packing.all_spanning(g.n()) {
        return None;
    }
    let trees: Vec<BfsTree> = packing
        .forests
        .iter()
        .map(|edges| {
            let mut in_tree = vec![false; g.m()];
            for &e in edges {
                in_tree[e as usize] = true;
            }
            let t = congest_graph::algo::bfs::bfs_tree_restricted(g, root, |e| in_tree[e as usize]);
            debug_assert!(t.is_spanning());
            t
        })
        .collect();
    Some(TreePacking::new(trees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::components::UnionFind;
    use congest_graph::generators::{complete, cycle, harary, hypercube, thick_path};

    /// Independent validity check of a forest packing.
    fn validate(g: &Graph, p: &ForestPacking) {
        let mut seen = vec![false; g.m()];
        for f in &p.forests {
            let mut uf = UnionFind::new(g.n());
            for &e in f {
                assert!(!seen[e as usize], "edge {e} in two forests");
                seen[e as usize] = true;
                let (u, v) = g.endpoints(e);
                assert!(uf.union(u, v), "cycle within a forest at edge {e}");
            }
        }
    }

    #[test]
    fn nash_williams_bound_on_harary() {
        // λ = 8 ⇒ exactly ⌊λ/2⌋ = 4 spanning trees; greedy extraction
        // falls short on this instance (m = 160 leaves only 4 spare
        // edges), the exact algorithm must not.
        let g = harary(8, 40);
        let packing = exact_tree_packing(&g, 4, 0).expect("Nash-Williams guarantees 4 trees");
        packing.validate(&g).unwrap();
        assert!(packing.stats(&g).edge_disjoint);
        assert_eq!(packing.num_trees(), 4);
    }

    #[test]
    fn complete_graph_floor_n_half_trees() {
        // K_n is (n−1)-edge-connected ⇒ ⌊(n−1)/2⌋ spanning trees; K_9
        // has m = 36 = 4·(9−1) + 4 — nearly perfect packing.
        let g = complete(9);
        let packing = exact_tree_packing(&g, 4, 0).expect("4 trees in K_9");
        packing.validate(&g).unwrap();
    }

    #[test]
    fn forest_packing_is_maximum_on_cycle() {
        // Cycle: k = 2 forests can hold all n edges (tree + one edge).
        let g = cycle(8);
        let p = matroid_forest_packing(&g, 2);
        validate(&g, &p);
        assert_eq!(p.total_edges(), 8, "both forests together hold all edges");
        assert!(!p.all_spanning(8), "second forest is not a spanning tree");
        assert!(exact_tree_packing(&g, 2, 0).is_none());
    }

    #[test]
    fn hypercube_two_trees() {
        let g = hypercube(4); // λ = 4
        let packing = exact_tree_packing(&g, 2, 0).expect("2 trees in Q4");
        packing.validate(&g).unwrap();
    }

    #[test]
    fn thick_path_packs_half_lambda() {
        let g = thick_path(6, 8); // λ = 8
        let packing = exact_tree_packing(&g, 4, 0).expect("4 trees");
        packing.validate(&g).unwrap();
        assert!(packing.stats(&g).edge_disjoint);
    }

    #[test]
    fn overfull_request_returns_none() {
        let g = harary(4, 20); // λ = 4 ⇒ at most 2 trees
        assert!(exact_tree_packing(&g, 3, 0).is_none());
        // But the forest packing still maximizes total edges.
        let p = matroid_forest_packing(&g, 3);
        validate(&g, &p);
        assert!(p.total_edges() <= g.m());
        assert!(p.total_edges() >= 2 * 19); // ≥ the two spanning trees
    }

    #[test]
    fn single_forest_is_a_spanning_tree() {
        let g = harary(6, 24);
        let p = matroid_forest_packing(&g, 1);
        validate(&g, &p);
        assert_eq!(p.forests[0].len(), 23);
    }
}
