//! Validating construction of [`Graph`]s from edge lists.

use crate::graph::{Edge, Graph, Node};
use std::fmt;

/// Errors raised while building a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge references a node `>= n`.
    NodeOutOfRange { edge: (Node, Node), n: usize },
    /// A self-loop `{v, v}` was supplied. The paper's key lemma (Lemma 5)
    /// requires simple graphs, so we reject rather than silently drop.
    SelfLoop(Node),
    /// The same undirected edge was supplied twice.
    DuplicateEdge(Node, Node),
    /// More than `u32::MAX / 2` edges: an arc position `0..2m` must fit
    /// the `u32` entries of the CSR offsets and the reverse-arc table.
    TooManyEdges,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NodeOutOfRange { edge: (u, v), n } => {
                write!(f, "edge ({u}, {v}) references a node >= n = {n}")
            }
            BuildError::SelfLoop(v) => write!(f, "self-loop at node {v} (graph must be simple)"),
            BuildError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge ({u}, {v}) (graph must be simple)")
            }
            BuildError::TooManyEdges => write!(f, "more than u32::MAX / 2 edges"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Graph`]. Collects undirected edges, validates simplicity,
/// and assembles the CSR arrays in linear passes (count, counting sort,
/// fill) with no intermediate per-node `Vec`s.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Node, Node)>,
}

/// The arc count `2m` of a graph with `m` edges, if every arc position
/// fits the `u32` entries of `offsets` and `reverse_arc`.
fn arc_count(m: usize) -> Result<usize, BuildError> {
    m.checked_mul(2)
        .filter(|&arcs| arcs <= u32::MAX as usize)
        .ok_or(BuildError::TooManyEdges)
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Add one undirected edge `{u, v}`. Order of endpoints is irrelevant.
    pub fn edge(mut self, u: Node, v: Node) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Add many undirected edges.
    pub fn edges<I: IntoIterator<Item = (Node, Node)>>(mut self, it: I) -> Self {
        self.edges.extend(it);
        self
    }

    /// Add an edge in-place (non-consuming variant for loops).
    pub fn push_edge(&mut self, u: Node, v: Node) {
        self.edges.push((u, v));
    }

    /// Validate and build the CSR graph in `O(n + m)`.
    ///
    /// Edge ids are assigned in sorted canonical order `(min, max)` so that
    /// the same edge set always yields the same ids regardless of insertion
    /// order — crucial for deterministic replay across the workspace. The
    /// first invalid edge in input order is reported, else the first
    /// duplicate in canonical order.
    pub fn build(self) -> Result<Graph, BuildError> {
        let n = self.n;
        let mut edges = self.edges;
        let arcs = arc_count(edges.len())?;
        // Validate and canonicalise in place, counting each node's edges
        // as the smaller and as the larger endpoint: the two buckets of
        // the counting sort below, and together its degree.
        let mut as_lo = vec![0u32; n + 1];
        let mut as_hi = vec![0u32; n + 1];
        for edge in edges.iter_mut() {
            let (u, v) = *edge;
            if u as usize >= n || v as usize >= n {
                return Err(BuildError::NodeOutOfRange { edge: (u, v), n });
            }
            if u == v {
                return Err(BuildError::SelfLoop(u));
            }
            let (lo, hi) = (u.min(v), u.max(v));
            *edge = (lo, hi);
            as_lo[lo as usize + 1] += 1;
            as_hi[hi as usize + 1] += 1;
        }
        let mut offsets: Vec<u32> = as_lo.iter().zip(&as_hi).map(|(a, b)| a + b).collect();
        for i in 0..n {
            offsets[i + 1] += offsets[i];
            as_lo[i + 1] += as_lo[i];
            as_hi[i + 1] += as_hi[i];
        }
        // A stable counting sort by the larger endpoint, then by the
        // smaller, puts the edges in (min, max) order: edge ids. The
        // first pass only needs to keep the smaller endpoints, bucketed
        // by the larger; `as_hi[x]` then ends x's bucket.
        let mut lows = vec![0 as Node; edges.len()];
        for &(lo, hi) in &edges {
            let at = &mut as_hi[hi as usize];
            lows[*at as usize] = lo;
            *at += 1;
        }
        let mut canon = vec![(0, 0); edges.len()];
        let mut start = 0;
        for (hi, &end) in as_hi[..n].iter().enumerate() {
            for &lo in &lows[start as usize..end as usize] {
                let at = &mut as_lo[lo as usize];
                canon[*at as usize] = (lo, hi as Node);
                *at += 1;
            }
            start = end;
        }
        drop((lows, as_lo));

        // One fill in edge-id order leaves every adjacency list sorted:
        // node x's lower neighbours all arrive, ascending, while the
        // edges of smaller nodes are scanned, and only then does x's own
        // run of edges append its higher neighbours, also ascending. Both
        // arc positions of an edge are known as it is filled, so each is
        // the other's reverse arc.
        let mut cursor = as_hi;
        cursor.copy_from_slice(&offsets);
        let mut adj_node = vec![0 as Node; arcs];
        let mut adj_edge = vec![0 as Edge; arcs];
        let mut reverse_arc = vec![0u32; arcs];
        let mut prev = None;
        for (e, &(u, v)) in canon.iter().enumerate() {
            if prev == Some((u, v)) {
                return Err(BuildError::DuplicateEdge(u, v));
            }
            prev = Some((u, v));
            let cu = cursor[u as usize];
            let cv = cursor[v as usize];
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
            adj_node[cu as usize] = v;
            adj_edge[cu as usize] = e as Edge;
            reverse_arc[cu as usize] = cv;
            adj_node[cv as usize] = u;
            adj_edge[cv as usize] = e as Edge;
            reverse_arc[cv as usize] = cu;
        }

        Ok(Graph::new(offsets, adj_node, adj_edge, canon, reverse_arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let err = GraphBuilder::new(3).edge(1, 1).build().unwrap_err();
        assert_eq!(err, BuildError::SelfLoop(1));
    }

    #[test]
    fn rejects_duplicate_in_any_orientation() {
        let err = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateEdge(0, 1));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::new(2).edge(0, 5).build().unwrap_err();
        assert!(matches!(err, BuildError::NodeOutOfRange { .. }));
    }

    #[test]
    fn edge_ids_are_insertion_order_independent() {
        let g1 = GraphBuilder::new(4)
            .edges([(0, 1), (2, 3), (1, 2)])
            .build()
            .unwrap();
        let g2 = GraphBuilder::new(4)
            .edges([(3, 2), (1, 0), (2, 1)])
            .build()
            .unwrap();
        assert_eq!(g1, g2);
    }

    /// Arc positions `0..2m` are `u32`s, so the edge bound is
    /// `u32::MAX / 2`, not `u32::MAX` (checked without allocating).
    #[test]
    fn too_many_edges_counts_arcs() {
        let most = u32::MAX as usize / 2;
        assert_eq!(arc_count(0), Ok(0));
        assert_eq!(arc_count(most), Ok(u32::MAX as usize - 1));
        assert_eq!(arc_count(most + 1), Err(BuildError::TooManyEdges));
        assert_eq!(arc_count(u32::MAX as usize), Err(BuildError::TooManyEdges));
        assert_eq!(arc_count(usize::MAX), Err(BuildError::TooManyEdges));
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = GraphBuilder::new(5).edge(0, 1).build().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
    }
}
