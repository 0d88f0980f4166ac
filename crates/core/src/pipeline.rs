//! Pipelined tree broadcast (paper Lemma 1).
//!
//! Given a rooted spanning tree and `k` messages initially scattered over
//! the nodes, deliver all messages to all nodes in `O(depth + k)` rounds
//! with `O(k)` congestion per tree edge:
//!
//! 1. **Gather (up)**: every node streams its own and its subtree's
//!    messages to its parent, one per round per tree edge;
//! 2. **Broadcast (down)**: the root streams every message down the tree;
//!    internal nodes forward, one per round per child edge.
//!
//! The two directions overlap freely (full-duplex edges), which is what
//! makes the complexity `O(depth + k)` rather than `O(depth · k)`.
//!
//! The state machine is [`PipeCore`], written once and hosted three times:
//! [`TreePipeline`] (one tree — the textbook baseline),
//! [`crate::broadcast::ParallelPipeline`] (λ′ trees at once, Theorem 1)
//! and [`crate::resilient::ReplicatedPipeline`] (the same under faults).
//!
//! **One queue and a forward slot.** A node only ever *waits* in one
//! direction. The root never gathers up, so its queue is the down stream
//! (its own messages, then whatever the children deliver). Every other
//! node queues the up stream, and forwards a down message in the very
//! round it arrives: down messages come over the single parent edge, an
//! edge carries at most one message per round, and `transmit` empties the
//! slot every round — so one `Option` is the whole down "queue". That
//! holds under the fault adversary (which only removes arrivals) and under
//! [`congest_sim::sched::Multiplexed`] (which also serves at most one
//! message per port per round).
//!
//! **Done is quiescence.** A node whose cores hold nothing to send has no
//! work until a message reaches it, whether or not it has all `k`
//! messages yet, so every host reports done exactly when every core is
//! [`PipeCore::quiescent`]. Each host keeps that answer in one `bool`,
//! "every core was quiescent when my previous round ended", folds its
//! inbox straight into the cores, and returns as soon as that inbox turns
//! out empty. A round that returns there changes no state, sends nothing,
//! and would store the done flag the node already holds. So a done node
//! with an empty inbox always takes that exit, which is
//! [`Protocol::QUIESCENT`]'s contract, and all three hosts declare it. In
//! the `n ≫ k` regime the engine's active-node list then steps a node
//! only in the rounds a message reaches it, not in every round until its
//! last delivery.
//!
//! The rule cannot move a run's end. A run ends in the first round that
//! delivers nothing while every node is done. If every core is quiescent
//! and nothing was delivered, nothing is queued, nothing waits in a
//! forward slot and nothing is on the wire. So no later round can deliver
//! either, and nothing changes after it. A run in which every node
//! completes therefore ends in the same round, with the same `iterations`,
//! as it would under "done = [`PipeCore::complete`]". A pipeline that
//! cannot complete (a core's `k` larger than what its tree carries, or
//! deliveries dropped by a fault plan) ends quietly with `delivered < k`
//! instead of running into the round limit. Delivery is judged after the
//! run, by the checksums, as every driver does.
//!
//! Delivery accounting uses order-independent checksums (xor + sum) rather
//! than storing every payload at every node, so large sweeps stay in
//! memory; tests on small graphs enable full recording.

use crate::convergecast::TreeView;
use congest_graph::Port;
use congest_sim::{NodeCtx, PackedMsg, Protocol};
use std::collections::VecDeque;

/// One broadcast message on the wire: a global id and its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeMsg {
    pub id: u32,
    pub payload: u64,
}

/// Bit budget: `id(32) | payload(64)`.
impl PackedMsg for PipeMsg {
    type Word = u128;
    const WIDTH: u32 = 96;
    #[inline]
    fn pack(self) -> u128 {
        self.id as u128 | (self.payload as u128) << 32
    }
    #[inline]
    fn unpack(word: u128) -> Self {
        PipeMsg {
            id: word as u32,
            payload: (word >> 32) as u64,
        }
    }
}

/// What a node accumulated by the end of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeResult {
    /// Number of distinct messages delivered locally.
    pub delivered: u64,
    /// XOR of `payload ^ mix(id)` over delivered messages.
    pub xor_check: u64,
    /// Wrapping sum of `payload + mix(id)` over delivered messages.
    pub sum_check: u64,
    /// Full `(id, payload)` record, if recording was enabled.
    pub recorded: Option<Vec<(u32, u64)>>,
}

/// Order-independent fingerprint contribution of one message.
#[inline]
fn fingerprint(id: u32, payload: u64) -> u64 {
    congest_sim::rng::mix64(payload ^ congest_sim::rng::mix64(id as u64))
}

/// Expected checksums for a message set — compare against every node's
/// [`PipeResult`] to verify complete delivery.
pub fn expected_checksums<'a, I: IntoIterator<Item = &'a (u32, u64)>>(msgs: I) -> (u64, u64) {
    let mut x = 0u64;
    let mut s = 0u64;
    for &(id, payload) in msgs {
        let f = fingerprint(id, payload);
        x ^= f;
        s = s.wrapping_add(f);
    }
    (x, s)
}

/// `PipeCore::parent` at the root: no node has this many ports.
const NO_PARENT: Port = Port::MAX;

/// The per-tree pipelined gather+broadcast state machine (see the module
/// docs for why one queue and one slot are enough).
#[derive(Debug)]
pub struct PipeCore {
    /// Port to the parent, `NO_PARENT` at the root.
    parent: Port,
    children: Box<[Port]>,
    /// Total messages this tree must deliver.
    k: u64,
    /// What has been delivered locally so far.
    result: PipeResult,
    /// What waits for its turn on the wire: the down stream at the root,
    /// the up stream everywhere else.
    queue: VecDeque<PipeMsg>,
    /// Non-root: the down message that arrived this round, on its way to
    /// the children. Empty between rounds.
    forward: Option<PipeMsg>,
}

impl PipeCore {
    /// `own` are the messages initially held at this node that belong to
    /// this tree. `record` retains full payload lists (tests only).
    pub fn new(tree: TreeView, k: u64, own: Vec<PipeMsg>, record: bool) -> Self {
        let mut core = PipeCore {
            parent: tree.parent_port.unwrap_or(NO_PARENT),
            children: tree.children_ports.into_boxed_slice(),
            k,
            result: PipeResult {
                delivered: 0,
                xor_check: 0,
                sum_check: 0,
                recorded: record.then(Vec::new),
            },
            queue: VecDeque::new(),
            forward: None,
        };
        if core.is_root() {
            // The root delivers its own messages immediately and seeds the
            // down stream with them.
            own.iter().for_each(|&m| core.deliver(m));
        }
        // Everyone else queues them for the parent; only the root of a
        // one-node tree has nobody to send to.
        if !(core.is_root() && core.children.is_empty()) {
            core.queue = own.into();
        }
        core
    }

    fn is_root(&self) -> bool {
        self.parent == NO_PARENT
    }

    fn deliver(&mut self, m: PipeMsg) {
        let f = fingerprint(m.id, m.payload);
        self.result.delivered += 1;
        self.result.xor_check ^= f;
        self.result.sum_check = self.result.sum_check.wrapping_add(f);
        if let Some(rec) = &mut self.result.recorded {
            rec.push((m.id, m.payload));
        }
    }

    /// Process one arrived message. `port` must be a tree port of this
    /// core's tree.
    #[inline]
    pub fn on_receive(&mut self, port: Port, m: PipeMsg) {
        if port == self.parent {
            // Down stream: deliver locally, forward to the children when
            // this round transmits.
            debug_assert!(self.forward.is_none(), "two down messages in one round");
            self.deliver(m);
            self.forward = Some(m);
        } else {
            debug_assert!(
                self.children.contains(&port),
                "pipeline message on non-tree port {port}"
            );
            // Up stream: the root delivers it and turns it around, every
            // other node passes it on toward the root.
            if self.is_root() {
                self.deliver(m);
            }
            self.queue.push_back(m);
        }
    }

    /// Hand this round's transmissions to `send`: at most one message up
    /// (to the parent) and one message down (replicated to every child
    /// port).
    #[inline]
    pub fn transmit(&mut self, mut send: impl FnMut(Port, PipeMsg)) {
        let down = if self.is_root() {
            self.queue.pop_front()
        } else {
            if let Some(m) = self.queue.pop_front() {
                send(self.parent, m);
            }
            self.forward.take()
        };
        if let Some(m) = down {
            for &child in self.children.iter() {
                send(child, m);
            }
        }
    }

    /// Nothing queued for transmission.
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.forward.is_none()
    }

    /// All `k` messages delivered and nothing left to send.
    pub fn complete(&self) -> bool {
        self.result.delivered >= self.k && self.quiescent()
    }

    pub fn into_result(self) -> PipeResult {
        self.result
    }
}

/// Lemma 1 as a standalone protocol on a single tree.
pub struct TreePipeline {
    core: PipeCore,
    /// The core was quiescent when the previous round ended: the done flag.
    idle: bool,
}

impl TreePipeline {
    pub fn new(tree: TreeView, k: u64, own: Vec<PipeMsg>, record: bool) -> Self {
        TreePipeline {
            core: PipeCore::new(tree, k, own, record),
            idle: false,
        }
    }
}

impl Protocol for TreePipeline {
    type Msg = PipeMsg;
    type Output = PipeResult;
    /// Done is `idle`, set in the same round: the next round with an empty
    /// inbox returns before it touches the core, the wire or the done flag.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, PipeMsg>) {
        let mail = ctx.inbox().fold(false, |_, (port, m)| {
            self.core.on_receive(port, m);
            true
        });
        if self.idle && !mail {
            return;
        }
        self.core.transmit(|port, m| ctx.send(port, m));
        self.idle = self.core.quiescent();
        ctx.set_done(self.idle);
    }

    fn finish(self) -> PipeResult {
        self.core.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProtocol;
    use congest_graph::generators::{complete, cycle, path, torus2d};
    use congest_graph::{Graph, Node};
    use congest_sim::{run_protocol, EngineConfig, RunStats};

    fn bfs_views(g: &Graph, root: Node) -> Vec<TreeView> {
        run_protocol(g, |v, _| BfsProtocol::new(root, v), EngineConfig::default())
            .unwrap()
            .outputs
            .iter()
            .map(TreeView::from_bfs)
            .collect()
    }

    /// Place message id i at node (i*7+3) mod n with payload mix(i).
    fn placements(n: usize, k: usize) -> Vec<Vec<PipeMsg>> {
        let mut per_node: Vec<Vec<PipeMsg>> = vec![Vec::new(); n];
        for i in 0..k {
            let v = (i * 7 + 3) % n;
            per_node[v].push(PipeMsg {
                id: i as u32,
                payload: congest_sim::rng::mix64(i as u64),
            });
        }
        per_node
    }

    fn run_pipeline(g: &Graph, k: usize) -> (Vec<PipeResult>, RunStats) {
        let views = bfs_views(g, 0);
        let own = placements(g.n(), k);
        let out = run_protocol(
            g,
            |v, _| {
                TreePipeline::new(
                    views[v as usize].clone(),
                    k as u64,
                    own[v as usize].clone(),
                    true,
                )
            },
            EngineConfig::default(),
        )
        .unwrap();
        (out.outputs, out.stats)
    }

    #[test]
    fn all_nodes_get_all_messages() {
        for g in [path(8), cycle(9), torus2d(4, 4), complete(7)] {
            let k = 13;
            let (results, _) = run_pipeline(&g, k);
            let all: Vec<(u32, u64)> = placements(g.n(), k)
                .into_iter()
                .flatten()
                .map(|m| (m.id, m.payload))
                .collect();
            let (ex, es) = expected_checksums(all.iter());
            for (v, r) in results.iter().enumerate() {
                assert_eq!(r.delivered, k as u64, "node {v}");
                assert_eq!((r.xor_check, r.sum_check), (ex, es), "node {v}");
                let mut rec = r.recorded.clone().unwrap();
                rec.sort_unstable();
                let mut want = all.clone();
                want.sort_unstable();
                assert_eq!(rec, want, "node {v} full record");
            }
        }
    }

    #[test]
    fn round_complexity_is_depth_plus_k() {
        // Path of length D with k messages: rounds must be O(D + k), not
        // O(D · k).
        let d = 20usize;
        let k = 30usize;
        let g = path(d + 1);
        let (_, stats) = run_pipeline(&g, k);
        let bound = 2 * (d as u64 + k as u64) + 4;
        assert!(
            stats.rounds <= bound,
            "rounds {} exceeds O(D+k) bound {bound}",
            stats.rounds
        );
        assert!(stats.rounds >= (d + k) as u64 / 2);
    }

    #[test]
    fn congestion_is_order_k() {
        let g = torus2d(4, 4);
        let k = 25;
        let (_, stats) = run_pipeline(&g, k);
        // Each tree edge carries ≤ k up + k down.
        assert!(
            stats.max_edge_congestion <= 2 * k as u64,
            "congestion {} > 2k",
            stats.max_edge_congestion
        );
    }

    #[test]
    fn zero_messages_terminate_immediately() {
        let g = cycle(5);
        let (results, stats) = run_pipeline(&g, 0);
        assert!(results.iter().all(|r| r.delivered == 0));
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn single_node_holds_everything() {
        // All k messages at one non-root node.
        let g = path(6);
        let views = bfs_views(&g, 0);
        let k = 9u64;
        let msgs: Vec<PipeMsg> = (0..k as u32)
            .map(|i| PipeMsg {
                id: i,
                payload: 1000 + i as u64,
            })
            .collect();
        let out = run_protocol(
            &g,
            |v, _| {
                let own = if v == 5 { msgs.clone() } else { Vec::new() };
                TreePipeline::new(views[v as usize].clone(), k, own, false)
            },
            EngineConfig::default(),
        )
        .unwrap();
        let pairs: Vec<(u32, u64)> = msgs.iter().map(|m| (m.id, m.payload)).collect();
        let (ex, es) = expected_checksums(pairs.iter());
        for r in &out.outputs {
            assert_eq!(r.delivered, k);
            assert_eq!((r.xor_check, r.sum_check), (ex, es));
        }
    }

    /// `P`, counting the rounds the engine steps it.
    struct Counting<P>(P, u64);

    impl<P: Protocol> Protocol for Counting<P> {
        type Msg = P::Msg;
        type Output = (P::Output, u64);
        const QUIESCENT: bool = P::QUIESCENT;

        fn round(&mut self, ctx: &mut NodeCtx<'_, P::Msg>) {
            self.1 += 1;
            self.0.round(ctx);
        }

        fn finish(self) -> (P::Output, u64) {
            (self.0.finish(), self.1)
        }
    }

    /// A waiting node is done, so the engine steps it only when a message
    /// reaches it: one message from the far end of a path rooted at node
    /// 0 costs every node a step in round 0, one as the message passes up
    /// and one as it passes down. Stepping every node until its delivery
    /// would cost about 1.5 n².
    #[test]
    fn a_waiting_node_is_stepped_only_when_mail_arrives() {
        let n = 64;
        let g = path(n);
        let views = bfs_views(&g, 0);
        let m = PipeMsg {
            id: 0,
            payload: 0xD0,
        };
        let out = run_protocol(
            &g,
            |v, _| {
                let own = if v as usize == n - 1 {
                    vec![m]
                } else {
                    Vec::new()
                };
                Counting(
                    TreePipeline::new(views[v as usize].clone(), 1, own, false),
                    0,
                )
            },
            EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|(r, _)| r.delivered == 1));
        let steps: u64 = out.outputs.iter().map(|(_, s)| s).sum();
        assert!(steps <= 4 * n as u64, "{steps} node-steps on path({n})");
    }

    /// A pipeline that cannot complete ends when nothing is left to send,
    /// in the round and with the stats of the run asked for what it
    /// carries, one message short at every node.
    #[test]
    fn a_pipeline_short_of_k_ends_when_quiescent() {
        let g = cycle(9);
        let views = bfs_views(&g, 0);
        let k = 13;
        let own = placements(g.n(), k);
        let run = |asked: usize| {
            run_protocol(
                &g,
                |v, _| {
                    let view = views[v as usize].clone();
                    TreePipeline::new(view, asked as u64, own[v as usize].clone(), false)
                },
                EngineConfig::default().max_rounds(1_000),
            )
        };
        let exact = run(k).unwrap();
        let short = run(k + 1).unwrap();
        assert!(short.outputs.iter().all(|r| r.delivered == k as u64));
        assert_eq!(short.outputs, exact.outputs);
        assert_eq!(short.stats, exact.stats);
    }

    #[test]
    fn checksums_detect_missing_message() {
        let all = [(0u32, 5u64), (1, 6)];
        let partial = [(0u32, 5u64)];
        assert_ne!(
            expected_checksums(all.iter()),
            expected_checksums(partial.iter())
        );
    }
}
