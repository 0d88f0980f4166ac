//! Unit-capacity maximum flow (edge-disjoint paths) on a borrowed [`Graph`],
//! the kernel under exact edge connectivity ([`crate::algo::connectivity`]).
//!
//! The network is the graph's own CSR: arc position `a` carries one unit
//! each way, its twin is `Graph::reverse_arcs()[a]`, and the only state is
//! a residual byte per arc (1 at rest; 0 / 2 on an arc and its twin while
//! the edge carries a unit). Nothing is built or cloned, and nothing is
//! allocated after [`UnitFlow::new`]. Blocking flows along BFS levels, both
//! loops iterative: a BFS that stops on reaching the sink, then a cursor DFS
//! along the level graph; `O(E·min(√E, V^⅔))` per flow, less when the
//! caller's `limit` stops it early.

use crate::graph::{Graph, Node};

const UNSEEN: u32 = u32::MAX;

/// Reusable unit-flow scratch over one graph.
#[derive(Debug)]
pub struct UnitFlow<'g> {
    g: &'g Graph,
    residual: Vec<u8>,
    /// BFS level per node, `UNSEEN` when the last BFS did not reach it.
    level: Vec<u32>,
    /// DFS cursor per node: the next arc position to try.
    cursor: Vec<u32>,
    /// BFS queue; afterwards, exactly the nodes whose level is set.
    queue: Vec<Node>,
    /// Arc positions of the DFS path under construction.
    path: Vec<u32>,
}

impl<'g> UnitFlow<'g> {
    pub fn new(g: &'g Graph) -> Self {
        UnitFlow {
            g,
            residual: vec![1; g.num_arcs()],
            level: vec![UNSEEN; g.n()],
            cursor: vec![0; g.n()],
            queue: Vec::with_capacity(g.n()),
            path: Vec::with_capacity(g.n()),
        }
    }

    /// Level the residual network from `s`; `true` as soon as `t` is reached.
    fn bfs(&mut self, s: Node, t: Node) -> bool {
        let g = self.g;
        for v in self.queue.drain(..) {
            self.level[v as usize] = UNSEEN;
        }
        self.level[s as usize] = 0;
        self.cursor[s as usize] = g.offsets[s as usize];
        self.queue.push(s);
        let mut next = 0;
        while let Some(&v) = self.queue.get(next) {
            next += 1;
            for a in g.offsets[v as usize]..g.offsets[v as usize + 1] {
                let u = g.adj_node[a as usize];
                if self.residual[a as usize] > 0 && self.level[u as usize] == UNSEEN {
                    self.level[u as usize] = self.level[v as usize] + 1;
                    self.cursor[u as usize] = g.offsets[u as usize];
                    self.queue.push(u);
                    if u == t {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Push up to `room` unit paths along the current level graph.
    fn augment(&mut self, s: Node, t: Node, room: usize) -> usize {
        let g = self.g;
        let sink_depth = self.level[t as usize];
        let (mut found, mut v) = (0, s);
        while found < room {
            if v == t {
                for a in self.path.drain(..) {
                    self.residual[a as usize] -= 1;
                    self.residual[g.reverse_arc[a as usize] as usize] += 1;
                }
                (found, v) = (found + 1, s);
                continue;
            }
            // Nodes the BFS did not expand (`t`'s depth, bar `t`) lead nowhere.
            let depth = self.level[v as usize] + 1;
            let ahead = |&a: &u32| {
                let u = g.adj_node[a as usize];
                self.residual[a as usize] > 0
                    && self.level[u as usize] == depth
                    && (depth < sink_depth || u == t)
            };
            if let Some(a) = (self.cursor[v as usize]..g.offsets[v as usize + 1]).find(ahead) {
                self.cursor[v as usize] = a;
                self.path.push(a);
                v = g.adj_node[a as usize];
            } else if let Some(a) = self.path.pop() {
                self.level[v as usize] = UNSEEN; // dead end: never enter it again
                v = g.adj_node[g.reverse_arc[a as usize] as usize];
            } else {
                break;
            }
        }
        found
    }

    /// `min(limit, maximum s–t flow)`: the number of edge-disjoint `s`–`t`
    /// paths, not counted past `limit`. Starts from a clean network.
    pub fn max_flow(&mut self, s: Node, t: Node, limit: usize) -> usize {
        assert_ne!(s, t);
        self.residual.fill(1);
        let mut flow = 0;
        while flow < limit && self.bfs(s, t) {
            flow += self.augment(s, t, limit - flow);
        }
        flow
    }

    /// After a [`UnitFlow::max_flow`] that returned less than its `limit`,
    /// the source side of a minimum `s`–`t` cut: the nodes the final BFS
    /// still reached in the residual network.
    pub fn source_side(&self) -> Vec<bool> {
        self.level.iter().map(|&l| l != UNSEEN).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::cycle;

    #[test]
    fn undirected_unit_edges_give_edge_disjoint_paths() {
        // 4-cycle: two edge-disjoint paths between opposite corners.
        let g = cycle(4);
        let mut f = UnitFlow::new(&g);
        assert_eq!(f.max_flow(0, 2, usize::MAX), 2);
        assert_eq!(f.max_flow(0, 2, 1), 1, "stops at the limit");
        assert_eq!(
            f.max_flow(1, 3, usize::MAX),
            2,
            "scratch resets between targets"
        );
    }

    #[test]
    fn source_side_is_the_cut_the_flow_found() {
        // Two triangles joined by the edge {2, 3}.
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
            .build()
            .unwrap();
        let mut f = UnitFlow::new(&g);
        assert_eq!(f.max_flow(0, 5, 2), 1);
        assert_eq!(f.source_side(), vec![true, true, true, false, false, false]);
    }

    #[test]
    fn zero_flow_when_disconnected() {
        let g = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let mut f = UnitFlow::new(&g);
        assert_eq!(f.max_flow(0, 2, usize::MAX), 0);
        assert_eq!(f.source_side(), vec![true, true, false]);
    }

    /// The recursive DFS this kernel replaced used one stack frame per hop
    /// of the augmenting path; test threads run on the default 2 MiB stack.
    #[test]
    fn long_augmenting_paths_do_not_recurse() {
        let g = cycle(200_000);
        assert_eq!(UnitFlow::new(&g).max_flow(0, 100_000, usize::MAX), 2);
    }

    #[test]
    fn brute_force_cross_check_small_random() {
        // Compare against brute-force min cut enumeration on small random
        // graphs (max-flow-min-cut).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..30 {
            let n = 6;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.6) {
                        edges.push((u, v));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let s = 0u32;
            let t = (n - 1) as u32;
            let g = GraphBuilder::new(n)
                .edges(edges.iter().copied())
                .build()
                .unwrap();
            let flow = UnitFlow::new(&g).max_flow(s, t, usize::MAX);
            // Brute force: min over subsets containing s but not t of the
            // number of crossing edges.
            let mut best = usize::MAX;
            for mask in 0..(1u32 << n) {
                if mask & 1 == 0 || mask >> (n - 1) & 1 == 1 {
                    continue;
                }
                let cut = edges
                    .iter()
                    .filter(|&&(u, v)| (mask >> u & 1) != (mask >> v & 1))
                    .count();
                best = best.min(cut);
            }
            assert_eq!(flow, best, "trial {trial}: flow != brute-force cut");
        }
    }
}
