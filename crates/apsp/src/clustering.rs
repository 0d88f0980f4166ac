//! Degree-based clustering (paper Theorem 4, "Building a cluster graph").
//!
//! Each node self-samples as a **center** with probability
//! `p = c·ln n / δ`; since every node has ≥ δ neighbors, w.h.p. every node
//! is adjacent to a center. Every non-center then joins the cluster of one
//! neighboring center (`s(v)`), giving `Õ(n/δ)` clusters of radius 1. The
//! **cluster graph** `Gc` has the centers as nodes and an edge between
//! clusters joined by any `G`-edge; a `G`-path changes clusters at most
//! once per hop, so `d_Gc(s(u), s(v)) ≤ d_G(u, v)` (Lemma 7's key fact).
//!
//! The protocol is 3 real rounds: (1) centers announce; (2) nodes pick
//! `s(v)` and tell their neighbors; (3) nodes record the neighbor-cluster
//! pairs they witness. Cluster-graph assembly from those locally-witnessed
//! pairs is charged to the PRT12 phase per Lemma 6 (centers gather their
//! `Gc`-neighborhoods in `O(#clusters)` rounds).

use congest_graph::{Graph, Node};
use congest_sim::{EngineConfig, EngineError, NodeCtx, PackedMsg, Protocol, RunStats, Session};
use rand::Rng;

/// Per-node clustering output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Whether this node sampled itself as a center.
    pub is_center: bool,
    /// The center this node joined (= itself for centers); `None` if no
    /// neighboring center existed (the w.h.p. failure event).
    pub s: Option<Node>,
    /// Cluster pairs `(s(v), s(u))` witnessed on incident edges.
    pub witnessed: Vec<(Node, Node)>,
}

/// Clustering wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMsg {
    /// "I am a center."
    Announce,
    /// "My cluster is s(v)."
    MyCluster(Node),
}

/// Bit budget: `tag(1) | center(32)`.
impl PackedMsg for ClusterMsg {
    type Word = u64;
    const WIDTH: u32 = 33;
    #[inline]
    fn pack(self) -> u64 {
        match self {
            ClusterMsg::Announce => 0,
            ClusterMsg::MyCluster(s) => 1 | (s as u64) << 1,
        }
    }
    #[inline]
    fn unpack(word: u64) -> Self {
        if word & 1 == 0 {
            ClusterMsg::Announce
        } else {
            ClusterMsg::MyCluster((word >> 1) as Node)
        }
    }
}

/// The 3-round clustering protocol.
pub struct ClusterProtocol {
    me: Node,
    p: f64,
    info: ClusterInfo,
    center_neighbors: Vec<Node>,
}

impl ClusterProtocol {
    pub fn new(me: Node, p: f64) -> Self {
        ClusterProtocol {
            me,
            p,
            info: ClusterInfo {
                is_center: false,
                s: None,
                witnessed: Vec::new(),
            },
            center_neighbors: Vec::new(),
        }
    }
}

impl Protocol for ClusterProtocol {
    type Msg = ClusterMsg;
    type Output = ClusterInfo;

    fn round(&mut self, ctx: &mut NodeCtx<'_, ClusterMsg>) {
        match ctx.round {
            0 => {
                // Sample and announce.
                self.info.is_center = ctx.rng().gen_bool(self.p.clamp(0.0, 1.0));
                if self.info.is_center {
                    self.info.s = Some(self.me);
                    ctx.send_all(ClusterMsg::Announce);
                }
            }
            1 => {
                let centers: Vec<Node> = ctx
                    .inbox()
                    .filter(|(_, msg)| matches!(msg, ClusterMsg::Announce))
                    .map(|(port, _)| ctx.neighbor(port))
                    .collect();
                self.center_neighbors.extend(centers);
                // Join the lowest-id neighboring center (deterministic);
                // centers keep themselves.
                if !self.info.is_center {
                    self.info.s = self.center_neighbors.iter().copied().min();
                }
                if let Some(s) = self.info.s {
                    ctx.send_all(ClusterMsg::MyCluster(s));
                }
            }
            2 => {
                let my_s = self.info.s;
                for (_, msg) in ctx.inbox() {
                    if let ClusterMsg::MyCluster(su) = msg {
                        if let Some(sv) = my_s {
                            self.info.witnessed.push((sv, su));
                        }
                    }
                }
                ctx.set_done(true);
            }
            _ => ctx.set_done(true),
        }
    }

    fn finish(self) -> ClusterInfo {
        self.info
    }
}

/// The assembled cluster graph: dense center renumbering + edges.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    /// The centers, ascending; index = cluster-graph node id.
    pub centers: Vec<Node>,
    /// `cluster_of[v]` = cluster-graph id of `s(v)`.
    pub cluster_of: Vec<u32>,
    /// The cluster graph itself.
    pub graph: Graph,
}

/// Failure: some node had no neighboring center (resample with larger c).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoveredNode(pub Node);

impl std::fmt::Display for UncoveredNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} has no neighboring center", self.0)
    }
}

impl std::error::Error for UncoveredNode {}

/// Run the clustering protocol on the caller's session and assemble the
/// cluster graph. A node with no neighboring center (the w.h.p. failure
/// event) resamples with a fresh seed, up to `attempts` runs.
///
/// `c` is the sampling constant in `p = c·ln n/δ` (paper: sufficiently
/// large; c = 2 keeps the failure probability ≤ n⁻¹ while `Õ(n/δ)`
/// clusters remain).
pub fn build_clustering(
    host: &mut Session<'_>,
    c: f64,
    seed: u64,
    attempts: usize,
) -> Result<(ClusterGraph, RunStats), ClusteringError> {
    let g = host.graph();
    let n = g.n();
    let delta = g.min_degree().max(1);
    let p = (c * (n.max(2) as f64).ln() / delta as f64).min(1.0);
    let mut uncovered = UncoveredNode(0);
    for a in 0..attempts.max(1) {
        let run = host.run(
            |v, _| ClusterProtocol::new(v, p),
            EngineConfig::with_seed(seed.wrapping_add(a as u64 * 0xC11)),
        )?;
        let stats = run.stats;
        let outputs = run.take_outputs();
        // Coverage check (w.h.p. event).
        if let Some(v) = outputs.iter().position(|info| info.s.is_none()) {
            uncovered = UncoveredNode(v as Node);
            continue;
        }
        // Dense renumbering of centers.
        let mut centers: Vec<Node> = outputs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_center)
            .map(|(v, _)| v as Node)
            .collect();
        centers.sort_unstable();
        let center_index =
            |c: Node| -> u32 { centers.binary_search(&c).expect("s(v) must be a center") as u32 };
        let cluster_of: Vec<u32> = outputs
            .iter()
            .map(|i| center_index(i.s.expect("covered")))
            .collect();
        // Cluster-graph edges from witnessed pairs (and the direct check on
        // every G-edge via endpoint clusters, equivalent by construction).
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (_, u, v) in g.edge_list() {
            let (cu, cv) = (cluster_of[u as usize], cluster_of[v as usize]);
            if cu != cv {
                edges.push((cu.min(cv), cu.max(cv)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let graph = congest_graph::GraphBuilder::new(centers.len())
            .edges(edges)
            .build()
            .expect("deduped cluster edges are simple");
        let cg = ClusterGraph {
            centers,
            cluster_of,
            graph,
        };
        return Ok((cg, stats));
    }
    Err(ClusteringError::Uncovered(uncovered))
}

/// Clustering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusteringError {
    Uncovered(UncoveredNode),
    Engine(EngineError),
}

impl From<EngineError> for ClusteringError {
    fn from(e: EngineError) -> Self {
        ClusteringError::Engine(e)
    }
}

impl std::fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusteringError::Uncovered(u) => u.fmt(f),
            ClusteringError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ClusteringError {}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::apsp::apsp_unweighted;
    use congest_graph::generators::{complete, harary, torus2d};

    #[test]
    fn every_node_clustered_and_adjacent_to_center() {
        let g = harary(10, 60);
        let (cg, stats) = build_clustering(&mut Session::new(&g), 2.0, 5, 10).unwrap();
        assert!(stats.rounds <= 3, "clustering is a 3-round protocol");
        assert!(!cg.centers.is_empty());
        for v in 0..g.n() as Node {
            let ci = cg.cluster_of[v as usize] as usize;
            let center = cg.centers[ci];
            assert!(
                v == center || g.has_edge(v, center),
                "node {v} must be adjacent to its center {center}"
            );
        }
    }

    #[test]
    fn cluster_graph_distance_lower_bounds_g_distance() {
        // Lemma 7: d_Gc(s(u), s(v)) ≤ d_G(u, v).
        let g = torus2d(5, 6);
        let (cg, _) = build_clustering(&mut Session::new(&g), 2.0, 9, 10).unwrap();
        let dg = apsp_unweighted(&g);
        let dc = apsp_unweighted(&cg.graph);
        #[allow(clippy::needless_range_loop)]
        for u in 0..g.n() {
            for v in 0..g.n() {
                let (cu, cv) = (cg.cluster_of[u] as usize, cg.cluster_of[v] as usize);
                assert!(
                    dc[cu][cv] <= dg[u][v],
                    "d_Gc({cu},{cv}) = {} > d_G({u},{v}) = {}",
                    dc[cu][cv],
                    dg[u][v]
                );
            }
        }
    }

    #[test]
    fn cluster_count_scales_as_n_log_n_over_delta() {
        let g = complete(200); // δ = 199 ⇒ expect ~c·ln n ≈ 10.6 centers
        let (cg, _) = build_clustering(&mut Session::new(&g), 2.0, 3, 10).unwrap();
        let expected = 2.0 * (200f64).ln();
        assert!(
            (cg.centers.len() as f64) < 5.0 * expected,
            "too many centers: {} vs expected ≈ {expected:.0}",
            cg.centers.len()
        );
    }

    #[test]
    fn centers_cluster_to_themselves() {
        let g = harary(8, 40);
        let (cg, _) = build_clustering(&mut Session::new(&g), 2.0, 1, 10).unwrap();
        for (i, &c) in cg.centers.iter().enumerate() {
            assert_eq!(cg.cluster_of[c as usize] as usize, i);
        }
    }
}
