//! The core CSR graph type.
//!
//! Layout follows the data-oriented idioms of the hpc-parallel guides: all
//! adjacency data lives in three flat arrays (`offsets`, `adj_node`,
//! `adj_edge`), so per-node neighbor scans are contiguous and the whole
//! structure is trivially shareable across pool workers (`&Graph` is `Sync`).

use std::fmt;

/// A node identifier, `0..n`. Plain integers (not newtypes) keep hot loops
/// free of wrapper friction; public APIs document which argument is which.
pub type Node = u32;

/// An undirected-edge identifier, `0..m`. Edge ids are stable and dense so
/// edge-indexed data (partition colors, congestion counters, tree membership)
/// can live in flat `Vec`s.
pub type Edge = u32;

/// A *port* is the index of an incident edge in a node's adjacency list
/// (`0..deg(v)`). The CONGEST simulator addresses outgoing messages by port.
pub type Port = u32;

/// Sentinel for "no node" (used in parent arrays and similar).
pub const INVALID_NODE: Node = u32::MAX;

/// An immutable simple, undirected, unweighted graph in CSR form.
///
/// Invariants (enforced by [`crate::builder::GraphBuilder`]):
/// * no self-loops, no parallel edges (the paper's Lemma 5 *requires*
///   simplicity — see the multigraph counterexample in Appendix A);
/// * adjacency lists are sorted by neighbor id;
/// * `endpoints[e] = (u, v)` with `u < v` for every edge `e`.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `adj_node`/`adj_edge` for node `v`.
    pub(crate) offsets: Vec<u32>,
    /// Flattened adjacency: neighbor node ids.
    pub(crate) adj_node: Vec<Node>,
    /// Flattened adjacency: the undirected edge id of each incident edge.
    pub(crate) adj_edge: Vec<Edge>,
    /// Canonical endpoints `(u, v)`, `u < v`, indexed by edge id.
    pub(crate) endpoints: Vec<(Node, Node)>,
    /// For each directed arc position `i` (an index into `adj_node`), the
    /// arc position of the reverse arc. Lets the simulator deliver a message
    /// sent on port `p` of `u` straight into the right inbox slot of `v`.
    pub(crate) reverse_arc: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The start of `v`'s arc range in the flattened adjacency arrays.
    #[inline]
    pub fn arc_offset(&self, v: Node) -> usize {
        self.offsets[v as usize] as usize
    }

    /// Total number of directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj_node.len()
    }

    /// Neighbor ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj_node[lo..hi]
    }

    /// Incident edge ids of `v`, aligned with [`Graph::neighbors`].
    #[inline]
    pub fn incident_edges(&self, v: Node) -> &[Edge] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj_edge[lo..hi]
    }

    /// Iterate `(neighbor, edge_id)` pairs for `v`.
    #[inline]
    pub fn edges_of(&self, v: Node) -> impl Iterator<Item = (Node, Edge)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.incident_edges(v).iter().copied())
    }

    /// The neighbor reached from `v` through port `p`.
    #[inline]
    pub fn neighbor_at(&self, v: Node, p: Port) -> Node {
        self.adj_node[self.offsets[v as usize] as usize + p as usize]
    }

    /// The undirected edge behind port `p` of `v`.
    #[inline]
    pub fn edge_at(&self, v: Node, p: Port) -> Edge {
        self.adj_edge[self.offsets[v as usize] as usize + p as usize]
    }

    /// Given the arc position of `(v → u)`, the arc position of `(u → v)`.
    #[inline]
    pub fn reverse_arc(&self, arc: usize) -> usize {
        self.reverse_arc[arc] as usize
    }

    /// The whole reverse-arc permutation (an involution without fixed
    /// points on simple graphs). The simulator scatters each send through
    /// this table straight into the receiver's inbox slot.
    #[inline]
    pub fn reverse_arcs(&self) -> &[u32] {
        &self.reverse_arc
    }

    /// The flattened arc → target-node table: entry `i` is the neighbor
    /// reached through arc position `i` (so `arc_targets()[arc_offset(v) + p]`
    /// is `neighbor_at(v, p)`). The simulator's broadcast plane resolves
    /// "who sits behind this port" through this table.
    #[inline]
    pub fn arc_targets(&self) -> &[Node] {
        &self.adj_node
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: Edge) -> (Node, Node) {
        self.endpoints[e as usize]
    }

    /// The port of `v` whose incident edge leads to `u`, if `{u,v} ∈ E`.
    /// Binary search over the sorted neighbor list: `O(log deg v)`.
    pub fn port_to(&self, v: Node, u: Node) -> Option<Port> {
        self.neighbors(v).binary_search(&u).ok().map(|i| i as Port)
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        if u == v {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate all edges as `(edge_id, u, v)` with `u < v`.
    pub fn edge_list(&self) -> impl Iterator<Item = (Edge, Node, Node)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as Edge, u, v))
    }

    /// Minimum degree δ of the graph.
    pub fn min_degree(&self) -> usize {
        (0..self.n() as Node)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Maximum degree Δ of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as Node)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m/n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// A subgraph on the *same node set* containing exactly the edges for
    /// which `keep(e)` is true. Node ids and count are preserved; edge ids
    /// are renumbered densely, with `edge_map[new] = old` returned alongside.
    pub fn edge_subgraph<F: FnMut(Edge) -> bool>(&self, mut keep: F) -> (Graph, Vec<Edge>) {
        let mut kept_edges = Vec::new();
        let mut edges = Vec::new();
        for (e, u, v) in self.edge_list() {
            if keep(e) {
                kept_edges.push(e);
                edges.push((u, v));
            }
        }
        let g = crate::builder::GraphBuilder::new(self.n())
            .edges(edges.iter().copied())
            .build()
            .expect("subgraph of a valid graph is valid");
        (g, kept_edges)
    }

    /// Sum of degrees; sanity helper (`= 2m`).
    pub fn degree_sum(&self) -> usize {
        self.adj_node.len()
    }

    /// A 64-bit fingerprint of the canonical CSR: two graphs built from
    /// the same node count and edge multiset (in any insertion order)
    /// hash equal, and any difference in adjacency, edge numbering, or
    /// port order changes the digest with full avalanche. Session pools
    /// key warm engine state by this value.
    pub fn fingerprint(&self) -> u64 {
        #[inline]
        fn mix(x: u64) -> u64 {
            // splitmix64 finalizer.
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = mix(0xF1_9927 ^ self.n() as u64) ^ mix(0x9127_0C5A ^ self.m() as u64);
        for &o in &self.offsets {
            h = mix(h ^ o as u64);
        }
        for (&v, &e) in self.adj_node.iter().zip(&self.adj_edge) {
            h = mix(h ^ ((v as u64) << 32 | e as u64));
        }
        h
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("min_degree", &self.min_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> crate::Graph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail.
        GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degree_sum(), 8);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_sorted_and_edges_aligned() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for v in 0..g.n() as u32 {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for (u, e) in g.edges_of(v) {
                let (a, b) = g.endpoints(e);
                assert!(a < b);
                assert!((a == v && b == u) || (a == u && b == v));
            }
        }
    }

    #[test]
    fn has_edge_and_ports() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
        let p = g.port_to(2, 3).unwrap();
        assert_eq!(g.neighbor_at(2, p), 3);
        assert_eq!(g.port_to(0, 3), None);
    }

    #[test]
    fn reverse_arcs_are_involutive() {
        let g = triangle_plus_tail();
        for arc in 0..g.num_arcs() {
            let rev = g.reverse_arc(arc);
            assert_eq!(g.reverse_arc(rev), arc);
            assert_ne!(rev, arc);
        }
    }

    #[test]
    fn edge_subgraph_keeps_nodes_renumbers_edges() {
        let g = triangle_plus_tail();
        let (sub, map) = g.edge_subgraph(|e| e % 2 == 0);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.m(), map.len());
        for (new_e, _, _) in sub.edge_list() {
            let old = map[new_e as usize];
            let (u, v) = sub.endpoints(new_e);
            assert_eq!(g.endpoints(old), (u, v));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
