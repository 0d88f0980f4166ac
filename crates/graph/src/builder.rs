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
    /// More than `u32::MAX` edges.
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
            BuildError::TooManyEdges => write!(f, "more than u32::MAX edges"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Graph`]. Collects undirected edges, validates simplicity,
/// and assembles the CSR arrays in two passes (count, fill) with no
/// intermediate per-node `Vec`s.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Node, Node)>,
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

    /// Validate and build the CSR graph.
    ///
    /// Edge ids are assigned in sorted canonical order `(min, max)` so that
    /// the same edge set always yields the same ids regardless of insertion
    /// order — crucial for deterministic replay across the workspace.
    pub fn build(self) -> Result<Graph, BuildError> {
        let n = self.n;
        let mut canon: Vec<(Node, Node)> = Vec::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(BuildError::NodeOutOfRange { edge: (u, v), n });
            }
            if u == v {
                return Err(BuildError::SelfLoop(u));
            }
            canon.push(if u < v { (u, v) } else { (v, u) });
        }
        canon.sort_unstable();
        if let Some(w) = canon.windows(2).find(|w| w[0] == w[1]) {
            return Err(BuildError::DuplicateEdge(w[0].0, w[0].1));
        }
        if canon.len() > u32::MAX as usize {
            return Err(BuildError::TooManyEdges);
        }

        let m = canon.len();
        // Pass 1: degree counts.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &canon {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: fill adjacency. Because `canon` is sorted by (u, v) and we
        // scan it once inserting both arc directions, each node's neighbor
        // list ends up... NOT sorted for the v-side inserts. We fill with a
        // cursor then sort each node's slice by neighbor id, carrying edge
        // ids along.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj_node = vec![0 as Node; 2 * m];
        let mut adj_edge = vec![0 as Edge; 2 * m];
        for (e, &(u, v)) in canon.iter().enumerate() {
            let cu = cursor[u as usize] as usize;
            adj_node[cu] = v;
            adj_edge[cu] = e as Edge;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adj_node[cv] = u;
            adj_edge[cv] = e as Edge;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency slice by neighbor id (stable co-sort of the two
        // parallel arrays via index permutation per node).
        let mut scratch: Vec<(Node, Edge)> = Vec::new();
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            if hi - lo <= 1 {
                continue;
            }
            scratch.clear();
            scratch.extend(
                adj_node[lo..hi]
                    .iter()
                    .copied()
                    .zip(adj_edge[lo..hi].iter().copied()),
            );
            scratch.sort_unstable();
            for (i, &(nb, e)) in scratch.iter().enumerate() {
                adj_node[lo + i] = nb;
                adj_edge[lo + i] = e;
            }
        }

        // Reverse-arc table: for arc position i representing (v → u) over
        // edge e, find the arc position of (u → v) over e. Since each edge
        // appears exactly once in each endpoint's slice, we can binary-search
        // u's slice for v.
        let mut reverse_arc = vec![0u32; 2 * m];
        for v in 0..n as Node {
            let lo = offsets[v as usize] as usize;
            let hi = offsets[v as usize + 1] as usize;
            for i in lo..hi {
                let u = adj_node[i];
                let ulo = offsets[u as usize] as usize;
                let uhi = offsets[u as usize + 1] as usize;
                let pos = adj_node[ulo..uhi]
                    .binary_search(&v)
                    .expect("reverse arc must exist");
                reverse_arc[i] = (ulo + pos) as u32;
            }
        }

        Ok(Graph {
            offsets,
            adj_node,
            adj_edge,
            endpoints: canon,
            reverse_arc,
        })
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

    #[test]
    fn isolated_nodes_allowed() {
        let g = GraphBuilder::new(5).edge(0, 1).build().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
    }
}
