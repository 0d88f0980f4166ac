//! Tree convergecast: aggregates and distributed item numbering (Lemma 3).
//!
//! Both protocols run on a rooted spanning tree described per node by
//! `(parent_port, children_ports)` — exactly what [`crate::bfs`] outputs.
//!
//! * [`Aggregate`] folds an associative operation up the tree in
//!   `O(depth)` rounds and broadcasts the result back down, giving every
//!   node the global value (used for Lemma 4's "learn δ" and for the
//!   validity checks in the exponential-search broadcast).
//! * [`Numbering`] implements Lemma 3: with node `v` initially holding
//!   `x_v` items, it assigns the items globally consecutive ids in
//!   `[0, Σx_v)` in `O(depth)` rounds — each node learns the start of its
//!   own range. The broadcast algorithm uses this to number the `k`
//!   messages before splitting them across subgraphs.

use congest_graph::Port;
use congest_sim::{NodeCtx, PackedMsg, Protocol};

/// The rooted-tree view a node needs for convergecast protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeView {
    /// Port to the parent (`None` at the root).
    pub parent_port: Option<Port>,
    /// Ports to the children.
    pub children_ports: Vec<Port>,
}

impl TreeView {
    /// Extract the tree view from a BFS result.
    pub fn from_bfs(info: &crate::bfs::BfsNodeInfo) -> Self {
        TreeView {
            parent_port: info.parent_port,
            children_ports: info.children_ports.clone(),
        }
    }
}

/// Associative operations for [`Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    Sum,
    Min,
    Max,
}

impl AggOp {
    #[inline]
    fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}

/// Up/down message for tree protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpDown {
    Up(u64),
    Down(u64),
}

/// Bit budget: `tag(1) | value(64)` — the full-width aggregate value
/// pushes this to a `u128` word.
impl PackedMsg for UpDown {
    type Word = u128;
    const WIDTH: u32 = 65;
    #[inline]
    fn pack(self) -> u128 {
        match self {
            UpDown::Up(v) => (v as u128) << 1,
            UpDown::Down(v) => 1 | (v as u128) << 1,
        }
    }
    #[inline]
    fn unpack(word: u128) -> Self {
        let v = (word >> 1) as u64;
        if word & 1 == 0 {
            UpDown::Up(v)
        } else {
            UpDown::Down(v)
        }
    }
}

/// Convergecast an aggregate to the root, then broadcast it back down.
/// Every node outputs the global aggregate. `O(depth)` rounds each way.
pub struct Aggregate {
    tree: TreeView,
    op: AggOp,
    acc: u64,
    pending_children: usize,
    sent_up: bool,
    result: Option<u64>,
    forwarded_down: bool,
}

impl Aggregate {
    pub fn new(tree: TreeView, op: AggOp, local_value: u64) -> Self {
        let pending = tree.children_ports.len();
        Aggregate {
            tree,
            op,
            acc: local_value,
            pending_children: pending,
            sent_up: false,
            result: None,
            forwarded_down: false,
        }
    }
}

impl Protocol for Aggregate {
    type Msg = UpDown;
    type Output = u64;
    /// Convergecast transitions (`sent_up`, `forwarded_down`) fire at
    /// round 0 or in the round the triggering message arrives; with an
    /// empty inbox both guards are stable, so done rounds are no-ops.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, UpDown>) {
        for (_, msg) in ctx.inbox() {
            match msg {
                UpDown::Up(v) => {
                    self.acc = self.op.fold(self.acc, v);
                    self.pending_children -= 1;
                }
                UpDown::Down(v) => self.result = Some(v),
            }
        }
        if self.pending_children == 0 && !self.sent_up {
            self.sent_up = true;
            match self.tree.parent_port {
                Some(p) => ctx.send(p, UpDown::Up(self.acc)),
                None => self.result = Some(self.acc), // root
            }
        }
        if let (Some(r), false) = (self.result, self.forwarded_down) {
            self.forwarded_down = true;
            for &c in &self.tree.children_ports {
                ctx.send(c, UpDown::Down(r));
            }
        }
        ctx.set_done(true);
    }

    fn finish(self) -> u64 {
        self.result.expect("aggregate completed")
    }
}

/// Lemma 3 distributed numbering. Output per node: `(start, total)` — the
/// node's items get ids `start..start + x_v`, and `total = Σ x_v` (learned
/// for free, since the root's subtree count is the total and the down
/// phase can carry it alongside).
pub struct Numbering {
    tree: TreeView,
    x: u64,
    /// Subtree counts reported by children, aligned with `children_ports`.
    child_counts: Vec<u64>,
    /// Children that have not reported yet.
    pending_children: usize,
    sent_up: bool,
    assigned: Option<(u64, u64)>,
    forwarded_down: bool,
}

/// Numbering needs two counters downstream (range start + global total);
/// the up direction carries one. One message per edge per direction
/// overall. Counters are item counts, so 63 bits each is vastly more than
/// any instance can hold — which is what lets the whole message pack into
/// one `u128` wire word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberingMsg {
    /// Subtree item count.
    Up(u64),
    /// `(range_start, global_total)` for the receiving child's subtree.
    Down(u64, u64),
}

/// Bit budget: `tag(1) | start(63) | total(63)` (`Up` leaves the high
/// field zero). Counts ≥ 2^63 cannot arise — they would require 2^63
/// messages in flight — and `pack` asserts that in debug builds.
impl PackedMsg for NumberingMsg {
    type Word = u128;
    const WIDTH: u32 = 127;
    #[inline]
    fn pack(self) -> u128 {
        const LIMIT: u64 = 1 << 63;
        match self {
            NumberingMsg::Up(count) => {
                debug_assert!(count < LIMIT);
                (count as u128) << 1
            }
            NumberingMsg::Down(start, total) => {
                debug_assert!(start < LIMIT && total < LIMIT);
                1 | (start as u128) << 1 | (total as u128) << 64
            }
        }
    }
    #[inline]
    fn unpack(word: u128) -> Self {
        const MASK63: u128 = (1 << 63) - 1;
        if word & 1 == 0 {
            NumberingMsg::Up((word >> 1 & MASK63) as u64)
        } else {
            NumberingMsg::Down((word >> 1 & MASK63) as u64, (word >> 64 & MASK63) as u64)
        }
    }
}

impl Numbering {
    pub fn new(tree: TreeView, items: u64) -> Self {
        let k = tree.children_ports.len();
        Numbering {
            tree,
            x: items,
            child_counts: vec![0; k],
            pending_children: k,
            sent_up: false,
            assigned: None,
            forwarded_down: false,
        }
    }
}

impl Protocol for Numbering {
    type Msg = NumberingMsg;
    type Output = (u64, u64);
    /// Same argument as [`Aggregate`]: `sent_up`/`forwarded_down` can
    /// only flip at round 0 or on message arrival, so a done round with
    /// an empty inbox reads nothing, sends nothing, mutates nothing.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, NumberingMsg>) {
        let children = &self.tree.children_ports;
        for (port, msg) in ctx.inbox() {
            match msg {
                NumberingMsg::Up(count) => {
                    // BFS lists children in ascending port order; a tree
                    // view that does not falls back to the scan.
                    let idx = children
                        .binary_search(&port)
                        .ok()
                        .or_else(|| children.iter().position(|&c| c == port))
                        .expect("Up message must come from a child");
                    self.child_counts[idx] = count;
                    self.pending_children -= 1;
                }
                NumberingMsg::Down(start, total) => {
                    self.assigned = Some((start, total));
                }
            }
        }
        if self.pending_children == 0 && !self.sent_up {
            self.sent_up = true;
            let total = self.x + self.child_counts.iter().sum::<u64>();
            match self.tree.parent_port {
                Some(p) => ctx.send(p, NumberingMsg::Up(total)),
                None => self.assigned = Some((0, total)), // root starts at 0
            }
        }
        if let (Some((start, total)), false) = (self.assigned, self.forwarded_down) {
            self.forwarded_down = true;
            // Own items take [start, start + x); children follow in port
            // order, each child's subtree occupying a contiguous block.
            let mut cursor = start + self.x;
            for (&c, &cnt) in children.iter().zip(&self.child_counts) {
                ctx.send(c, NumberingMsg::Down(cursor, total));
                cursor += cnt;
            }
        }
        ctx.set_done(true);
    }

    fn finish(self) -> (u64, u64) {
        self.assigned.expect("numbering completed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProtocol;
    use congest_graph::generators::{complete, cycle, path, torus2d};
    use congest_graph::Graph;
    use congest_sim::{run_protocol, EngineConfig};

    fn tree_views(g: &Graph, root: u32) -> Vec<TreeView> {
        run_protocol(g, |v, _| BfsProtocol::new(root, v), EngineConfig::default())
            .unwrap()
            .outputs
            .iter()
            .map(TreeView::from_bfs)
            .collect()
    }

    #[test]
    fn aggregate_sum_min_max() {
        let g = torus2d(4, 4);
        let views = tree_views(&g, 0);
        for (op, expect) in [
            (AggOp::Sum, (0..16u64).sum::<u64>()),
            (AggOp::Min, 0),
            (AggOp::Max, 15),
        ] {
            let out = run_protocol(
                &g,
                |v, _| Aggregate::new(views[v as usize].clone(), op, v as u64),
                EngineConfig::default(),
            )
            .unwrap();
            for v in 0..16 {
                assert_eq!(out.outputs[v], expect, "op {op:?} node {v}");
            }
        }
    }

    #[test]
    fn aggregate_rounds_linear_in_depth() {
        let g = path(10);
        let views = tree_views(&g, 0);
        let out = run_protocol(
            &g,
            |v, _| Aggregate::new(views[v as usize].clone(), AggOp::Sum, 1),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|&x| x == 10));
        // Depth 9 up + 9 down, small constant slack.
        assert!(
            out.stats.rounds <= 2 * 9 + 2,
            "rounds = {}",
            out.stats.rounds
        );
    }

    #[test]
    fn numbering_assigns_disjoint_covering_ranges() {
        for g in [path(7), cycle(8), torus2d(3, 5), complete(6)] {
            let views = tree_views(&g, 0);
            // Node v holds v % 3 items.
            let items = |v: usize| (v % 3) as u64;
            let out = run_protocol(
                &g,
                |v, _| Numbering::new(views[v as usize].clone(), items(v as usize)),
                EngineConfig::default(),
            )
            .unwrap();
            let total: u64 = (0..g.n()).map(items).sum();
            let mut covered = vec![false; total as usize];
            for v in 0..g.n() {
                let (start, t) = out.outputs[v];
                assert_eq!(t, total, "global total at node {v}");
                for id in start..start + items(v) {
                    assert!(!covered[id as usize], "id {id} double-assigned");
                    covered[id as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "ids must cover [0, total)");
        }
    }

    #[test]
    fn numbering_with_all_items_at_one_node() {
        let g = cycle(6);
        let views = tree_views(&g, 0);
        let out = run_protocol(
            &g,
            |v, _| Numbering::new(views[v as usize].clone(), if v == 3 { 42 } else { 0 }),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.outputs[3].0, 0);
        assert_eq!(out.outputs[3].1, 42);
    }

    #[test]
    fn leaf_only_tree_on_two_nodes() {
        let g = congest_graph::GraphBuilder::new(2)
            .edge(0, 1)
            .build()
            .unwrap();
        let views = tree_views(&g, 0);
        let out = run_protocol(
            &g,
            |v, _| Numbering::new(views[v as usize].clone(), 5),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.outputs[0], (0, 10));
        assert_eq!(out.outputs[1], (5, 10));
    }
}
