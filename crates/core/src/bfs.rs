//! Distributed BFS (paper Lemma 2) — single-tree and parallel
//! per-subgraph variants.
//!
//! The single-tree variant builds a BFS tree rooted at a given node in
//! `O(D)` rounds. The [`SubgraphBfs`] variant is the workhorse of the
//! paper's broadcast: after the Theorem 2 edge partition colors every edge
//! with a subgraph index `i ∈ [λ′]`, BFS waves for **all** subgraphs run
//! simultaneously — each wave only travels over its own color class, and
//! since color classes are edge-disjoint, the one-message-per-edge-round
//! CONGEST budget is respected without any scheduling.
//!
//! Both variants are message-driven: a node adopts the first wave it
//! hears (lowest port wins ties, for determinism), relays once, and
//! reports `Child` to its parent so parents learn their children — the
//! structure the pipelined broadcast (Lemma 1) needs.

use congest_graph::{Node, Port};
use congest_sim::{NodeCtx, PackedMsg, Protocol};

/// Wire message for BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsMsg {
    /// The exploration wave, carrying the sender's depth + 1.
    Wave { depth: u32 },
    /// "You are my parent."
    Child,
}

/// Bit budget: `tag(1) | depth(32)`.
impl PackedMsg for BfsMsg {
    type Word = u64;
    const WIDTH: u32 = 33;
    #[inline]
    fn pack(self) -> u64 {
        match self {
            BfsMsg::Child => 0,
            BfsMsg::Wave { depth } => 1 | (depth as u64) << 1,
        }
    }
    #[inline]
    fn unpack(word: u64) -> Self {
        if word & 1 == 0 {
            BfsMsg::Child
        } else {
            BfsMsg::Wave {
                depth: (word >> 1) as u32,
            }
        }
    }
}

/// Per-node result of a BFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsNodeInfo {
    /// Port towards the parent (`None` for the root and unreached nodes).
    pub parent_port: Option<Port>,
    /// Depth in the tree (`u32::MAX` if unreached).
    pub depth: u32,
    /// Ports towards children, in ascending port order.
    pub children_ports: Vec<Port>,
    /// Whether this node was reached at all.
    pub reached: bool,
}

impl BfsNodeInfo {
    fn unreached() -> Self {
        BfsNodeInfo {
            parent_port: None,
            depth: u32::MAX,
            children_ports: Vec::new(),
            reached: false,
        }
    }
}

/// Single-tree distributed BFS from `root`.
pub struct BfsProtocol {
    root: Node,
    me: Node,
    info: BfsNodeInfo,
    relayed: bool,
}

impl BfsProtocol {
    pub fn new(root: Node, me: Node) -> Self {
        BfsProtocol {
            root,
            me,
            info: BfsNodeInfo::unreached(),
            relayed: false,
        }
    }
}

impl Protocol for BfsProtocol {
    type Msg = BfsMsg;
    type Output = BfsNodeInfo;
    /// A node relays in the very round it adopts a parent (or round 0 at
    /// the root), so `reached ⇒ relayed` at every round boundary; with an
    /// empty inbox nothing else can change. Done rounds are no-ops and
    /// the round loop may skip them.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, BfsMsg>) {
        // Root bootstraps.
        if ctx.round == 0 && self.me == self.root {
            self.info.reached = true;
            self.info.depth = 0;
        }
        // Process arrivals.
        let mut first_wave: Option<(Port, u32)> = None;
        for (port, msg) in ctx.inbox() {
            match msg {
                BfsMsg::Wave { depth } => {
                    if !self.info.reached && first_wave.is_none() {
                        first_wave = Some((port, depth));
                    }
                }
                BfsMsg::Child => self.info.children_ports.push(port),
            }
        }
        if let Some((port, depth)) = first_wave {
            self.info.reached = true;
            self.info.depth = depth;
            self.info.parent_port = Some(port);
        }
        // Relay the wave exactly once (root: on round 0; others: the round
        // they adopt a parent). Also tell the parent it has a child.
        if self.info.reached && !self.relayed {
            self.relayed = true;
            let wave = BfsMsg::Wave {
                depth: self.info.depth + 1,
            };
            for p in 0..ctx.degree() as Port {
                if Some(p) == self.info.parent_port {
                    ctx.send(p, BfsMsg::Child);
                } else {
                    ctx.send(p, wave);
                }
            }
        }
        ctx.set_done(self.relayed || ctx.round > 0);
    }

    fn finish(self) -> BfsNodeInfo {
        self.info
    }
}

/// Wire message for the parallel per-subgraph BFS: the wave is tagged with
/// its subgraph index. Each edge belongs to exactly one subgraph, so no
/// edge ever needs to carry two waves in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubBfsMsg {
    Wave { subgraph: u32, depth: u32 },
    Child { subgraph: u32 },
}

/// Bit budget: `tag(1) | subgraph(16) | depth(32)`. λ′ (the subgraph
/// count) is at most λ/(C log n) ≤ n, and 16 bits cover every experiment
/// scale; `pack` asserts the bound in debug builds.
impl PackedMsg for SubBfsMsg {
    type Word = u64;
    const WIDTH: u32 = 49;
    #[inline]
    fn pack(self) -> u64 {
        match self {
            SubBfsMsg::Child { subgraph } => {
                debug_assert!(subgraph < 1 << 16);
                (subgraph as u64) << 1
            }
            SubBfsMsg::Wave { subgraph, depth } => {
                debug_assert!(subgraph < 1 << 16);
                1 | (subgraph as u64) << 1 | (depth as u64) << 17
            }
        }
    }
    #[inline]
    fn unpack(word: u64) -> Self {
        let subgraph = (word >> 1) as u32 & 0xFFFF;
        if word & 1 == 0 {
            SubBfsMsg::Child { subgraph }
        } else {
            SubBfsMsg::Wave {
                subgraph,
                depth: (word >> 17) as u32,
            }
        }
    }
}

/// Per-node result of the parallel BFS: one [`BfsNodeInfo`] per subgraph.
pub type SubgraphBfsInfo = Vec<BfsNodeInfo>;

/// Parallel BFS over the `λ′` edge-disjoint subgraphs of a Theorem 2
/// partition, all rooted at the same node.
///
/// `port_colors[p]` is the subgraph index of the edge behind port `p`
/// (from the partition phase). The wave for subgraph `i` travels only over
/// ports with color `i`.
pub struct SubgraphBfs {
    root: Node,
    me: Node,
    port_colors: Vec<u32>,
    num_subgraphs: usize,
    info: Vec<BfsNodeInfo>,
    relayed: Vec<bool>,
}

impl SubgraphBfs {
    pub fn new(root: Node, me: Node, port_colors: Vec<u32>, num_subgraphs: usize) -> Self {
        debug_assert!(port_colors.iter().all(|&c| (c as usize) < num_subgraphs));
        SubgraphBfs {
            root,
            me,
            port_colors,
            num_subgraphs,
            info: (0..num_subgraphs)
                .map(|_| BfsNodeInfo::unreached())
                .collect(),
            relayed: vec![false; num_subgraphs],
        }
    }
}

impl Protocol for SubgraphBfs {
    type Msg = SubBfsMsg;
    type Output = SubgraphBfsInfo;
    /// Same argument as [`BfsProtocol`], per class: each subgraph's wave
    /// is relayed in the round it is adopted, so an empty inbox leaves
    /// every `reached`/`relayed` pair in lockstep and the round is a
    /// no-op.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, SubBfsMsg>) {
        if ctx.round == 0 && self.me == self.root {
            for i in 0..self.num_subgraphs {
                self.info[i].reached = true;
                self.info[i].depth = 0;
            }
        }
        // Arrivals. At most one wave per subgraph can arrive on distinct
        // ports; lowest port wins (inbox iterates ports ascending).
        for (port, msg) in ctx.inbox() {
            match msg {
                SubBfsMsg::Wave { subgraph, depth } => {
                    debug_assert_eq!(
                        self.port_colors[port as usize], subgraph,
                        "wave crossed an edge of the wrong color"
                    );
                    let info = &mut self.info[subgraph as usize];
                    if !info.reached {
                        info.reached = true;
                        info.depth = depth;
                        info.parent_port = Some(port);
                    }
                }
                SubBfsMsg::Child { subgraph } => {
                    self.info[subgraph as usize].children_ports.push(port);
                }
            }
        }
        // Relay each newly-adopted subgraph's wave over its color class.
        for i in 0..self.num_subgraphs {
            if self.info[i].reached && !self.relayed[i] {
                self.relayed[i] = true;
                for p in 0..ctx.degree() as Port {
                    if self.port_colors[p as usize] != i as u32 {
                        continue;
                    }
                    if Some(p) == self.info[i].parent_port {
                        ctx.send(p, SubBfsMsg::Child { subgraph: i as u32 });
                    } else {
                        ctx.send(
                            p,
                            SubBfsMsg::Wave {
                                subgraph: i as u32,
                                depth: self.info[i].depth + 1,
                            },
                        );
                    }
                }
            }
        }
        ctx.set_done(true);
    }

    fn finish(self) -> SubgraphBfsInfo {
        self.info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::bfs::bfs_distances;
    use congest_graph::generators::{complete, cycle, harary, path, torus2d};
    use congest_graph::Graph;
    use congest_sim::{run_protocol, EngineConfig};

    fn run_bfs(g: &Graph, root: Node) -> Vec<BfsNodeInfo> {
        run_protocol(g, |v, _| BfsProtocol::new(root, v), EngineConfig::default())
            .unwrap()
            .outputs
    }

    #[test]
    fn depths_match_centralized_bfs() {
        for g in [path(9), cycle(10), torus2d(4, 5), complete(8)] {
            let infos = run_bfs(&g, 0);
            let exact = bfs_distances(&g, 0);
            for v in 0..g.n() {
                assert_eq!(infos[v].depth, exact[v], "node {v}");
                assert!(infos[v].reached);
            }
        }
    }

    #[test]
    fn parent_child_structure_is_consistent() {
        let g = torus2d(4, 4);
        let infos = run_bfs(&g, 0);
        // Every non-root has a parent one level up; children lists mirror
        // parent pointers exactly.
        let mut claimed_children = 0;
        for v in 0..g.n() as Node {
            if v == 0 {
                assert!(infos[0].parent_port.is_none());
            } else {
                let pp = infos[v as usize].parent_port.expect("non-root parent");
                let parent = g.neighbor_at(v, pp);
                assert_eq!(infos[v as usize].depth, infos[parent as usize].depth + 1);
                // Parent's children list contains a port back to v.
                let back = g.port_to(parent, v).unwrap();
                assert!(
                    infos[parent as usize].children_ports.contains(&back),
                    "parent {parent} must list child {v}"
                );
            }
            claimed_children += infos[v as usize].children_ports.len();
        }
        // Tree has exactly n-1 edges.
        assert_eq!(claimed_children, g.n() - 1);
    }

    #[test]
    fn bfs_round_complexity_is_depth_plus_constant() {
        let g = path(12);
        let out = run_protocol(&g, |v, _| BfsProtocol::new(0, v), EngineConfig::default()).unwrap();
        // Wave reaches depth 11 at round 11; Child replies land at 12.
        assert!(out.stats.rounds as u32 >= 11);
        assert!(out.stats.rounds as u32 <= 13);
    }

    #[test]
    fn subgraph_bfs_with_two_color_partition() {
        // Color edges of a 6-edge-connected Harary graph alternately by
        // edge id parity; both classes happen to stay connected here.
        let g = harary(6, 24);
        let colors_of = |gr: &Graph, v: Node| -> Vec<u32> {
            gr.incident_edges(v).iter().map(|&e| e % 2).collect()
        };
        let out = run_protocol(
            &g,
            |v, gr| SubgraphBfs::new(0, v, colors_of(gr, v), 2),
            EngineConfig::default(),
        )
        .unwrap();
        for i in 0..2usize {
            // Verify against centralized restricted BFS.
            let t = congest_graph::algo::bfs::bfs_tree_restricted(&g, 0, |e| e % 2 == i as u32);
            for v in 0..g.n() {
                assert_eq!(
                    out.outputs[v][i].reached,
                    t.depth[v] != u32::MAX,
                    "subgraph {i} node {v} reach"
                );
                if out.outputs[v][i].reached {
                    assert_eq!(out.outputs[v][i].depth, t.depth[v], "subgraph {i} node {v}");
                }
            }
        }
    }

    #[test]
    fn subgraph_bfs_marks_unreachable_in_disconnected_color() {
        // Path: color all edges 0 except the middle edge colored 1 ⇒
        // color-1 subgraph is disconnected from the root except across
        // that one edge... nodes beyond it unreachable in color 0.
        let g = path(6);
        let mid = 2u32; // edge ids are canonical-sorted: (0,1)=0,(1,2)=1,(2,3)=2,...
        let out = run_protocol(
            &g,
            |v, gr: &Graph| {
                let colors = gr
                    .incident_edges(v)
                    .iter()
                    .map(|&e| if e == mid { 1 } else { 0 })
                    .collect();
                SubgraphBfs::new(0, v, colors, 2)
            },
            EngineConfig::default(),
        )
        .unwrap();
        // Color 0 reaches nodes 0..=2 only (edge (2,3) is color 1).
        for v in 0..6 {
            let reach0 = out.outputs[v][0].reached;
            assert_eq!(reach0, v <= 2, "node {v} color0");
        }
        // Color 1 reaches only the root (its only edge is far from node 0).
        assert!(out.outputs[0][1].reached);
        for v in 1..6 {
            assert!(!out.outputs[v][1].reached, "node {v} color1");
        }
    }
}
