//! Dynamic-graph churn: phase-boundary topology mutation with
//! incremental engine repair.
//!
//! The paper's fault model (§1.2) masks edges per round but never changes
//! the graph. Real networks churn: links come and go, nodes crash and
//! come back. A [`ChurnSession`] is the session engine's answer — it owns
//! a mutable [`Graph`] plus the engine's `SessionState` and a
//! [`MutationQueue`] of pending [`Mutation`]s. Mutations are **applied
//! only at phase boundaries** (the CONGEST round structure stays intact
//! within a phase), and applying a batch *repairs* rather than rebuilds:
//!
//! * the CSR arrays are respliced in place ([`Graph::apply_batch`] —
//!   endpoints merge, adjacency splice, reverse-arc pairing pass);
//! * the engine's arc/edge-keyed buffers are resized (all live regions
//!   are zero between clean phases, so resizing preserves the
//!   zeroed-by-breadcrumb contract);
//! * the cached [`congest_graph::ShardPlan`] is rebalanced in its own
//!   allocation ([`congest_graph::ShardPlan::rebalance`]).
//!
//! The repaired engine is **bit-identical** to a freshly built one:
//! `tests/proptest_churn.rs` pins mutate-then-run against
//! rebuild-then-run across churn schedules × shard counts.
//! Phases between batches keep the resident engine's steady-state
//! contract — a warm churn cycle (queue → apply → run) allocates nothing
//! (pinned by `tests/zero_alloc.rs`); only a repair that *grows* an
//! arc-keyed buffer past its high-water mark allocates. A
//! [`ChurnSession`] can also be checkpointed mid-scenario:
//! [`ChurnSession::snapshot`] captures the mutated graph, crash/parked
//! bookkeeping, and engine payload in one frame (see [`crate::snapshot`]
//! — pending [`Mutation`]s are deliberately *not* captured).
//!
//! **Crash semantics.** `Crash(v)` removes every live edge incident to
//! `v` and *parks* it; `Revive(v)` re-adds the parked edges whose other
//! endpoint is alive (edges whose other endpoint is still crashed stay
//! parked with that endpoint). Node ids never change — a crashed node is
//! isolated, not deleted — so node-indexed engine state stays valid.
//!
//! **Error atomicity.** An invalid mutation (adding an existing edge,
//! removing a missing one, crashing a crashed node, touching a crashed
//! endpoint) aborts the whole pending batch: the graph, the crash flags,
//! and the parked-edge lists are left exactly as before the
//! [`ChurnSession::apply_pending`] call, and the queue is cleared.

use crate::engine::{EngineConfig, EngineError};
use crate::protocol::Protocol;
use crate::session::{PhaseOutcome, Session, SessionState};
use congest_graph::{Graph, MutationError, Node, RepairReport, RepairScratch};
use std::fmt;

/// One topology mutation, applied at a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Insert edge `{u, v}` (must not exist; endpoints must be alive).
    AddEdge(Node, Node),
    /// Delete edge `{u, v}` (must exist).
    RemoveEdge(Node, Node),
    /// Crash node `v`: all its live edges are removed and parked.
    Crash(Node),
    /// Revive node `v`: parked edges to live endpoints are re-added.
    Revive(Node),
}

/// FIFO of pending mutations; drained by
/// [`ChurnSession::apply_pending`] at the next phase boundary.
#[derive(Debug, Clone, Default)]
pub struct MutationQueue {
    ops: Vec<Mutation>,
}

impl MutationQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one mutation.
    pub fn push(&mut self, op: Mutation) {
        self.ops.push(op);
    }

    /// Append many mutations in order.
    pub fn extend<I: IntoIterator<Item = Mutation>>(&mut self, it: I) {
        self.ops.extend(it);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all pending mutations without applying them.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The pending mutations, oldest first.
    pub fn pending(&self) -> &[Mutation] {
        &self.ops
    }
}

/// Errors raised while applying a mutation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// The structural repair rejected the batch.
    Graph(MutationError),
    /// The hosted phase failed (round limit).
    Engine(EngineError),
    /// `Crash(v)` on an already-crashed node.
    AlreadyCrashed(Node),
    /// `Revive(v)` on a node that is not crashed.
    NotCrashed(Node),
    /// `AddEdge`/`RemoveEdge` touching a crashed endpoint.
    CrashedEndpoint(Node),
    /// `AddEdge` of an edge already present (in the graph or the batch).
    EdgeExists(Node, Node),
    /// `RemoveEdge` of an edge not present.
    EdgeMissing(Node, Node),
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::Graph(e) => write!(f, "graph repair failed: {e}"),
            ChurnError::Engine(e) => write!(f, "hosted phase failed: {e}"),
            ChurnError::AlreadyCrashed(v) => write!(f, "node {v} is already crashed"),
            ChurnError::NotCrashed(v) => write!(f, "node {v} is not crashed"),
            ChurnError::CrashedEndpoint(v) => write!(f, "endpoint {v} is crashed"),
            ChurnError::EdgeExists(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            ChurnError::EdgeMissing(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<MutationError> for ChurnError {
    fn from(e: MutationError) -> Self {
        ChurnError::Graph(e)
    }
}

impl From<EngineError> for ChurnError {
    fn from(e: EngineError) -> Self {
        ChurnError::Engine(e)
    }
}

/// What one applied batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnReport {
    /// The structural repair's account (adds, removes, renumbering).
    pub graph: RepairReport,
    /// Nodes crashed by this batch.
    pub crashes: usize,
    /// Nodes revived by this batch.
    pub revives: usize,
}

/// Cumulative churn counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    pub batches: u64,
    pub edges_added: u64,
    pub edges_removed: u64,
    pub crashes: u64,
    pub revives: u64,
}

/// A [`Session`] that owns its graph and supports phase-boundary
/// topology mutation with incremental repair. See the module docs.
pub struct ChurnSession {
    graph: Graph,
    state: SessionState,
    queue: MutationQueue,
    /// Per-node crash flag (crashed nodes are isolated, not deleted).
    crashed: Vec<bool>,
    /// Edges parked by a crash, owned by a crashed endpoint.
    held: Vec<Vec<(Node, Node)>>,
    scratch: RepairScratch,
    add_batch: Vec<(Node, Node)>,
    remove_batch: Vec<(Node, Node)>,
    revive_buf: Vec<(Node, Node)>,
    crashed_backup: Vec<bool>,
    held_backup: Vec<Vec<(Node, Node)>>,
    stats: ChurnStats,
}

impl ChurnSession {
    /// Take ownership of `graph` and build the resident engine for it.
    pub fn new(graph: Graph) -> ChurnSession {
        let n = graph.n();
        let state = SessionState::new(&graph);
        ChurnSession {
            graph,
            state,
            queue: MutationQueue::new(),
            crashed: vec![false; n],
            held: vec![Vec::new(); n],
            scratch: RepairScratch::new(),
            add_batch: Vec::new(),
            remove_batch: Vec::new(),
            revive_buf: Vec::new(),
            crashed_backup: Vec::new(),
            held_backup: Vec::new(),
            stats: ChurnStats::default(),
        }
    }

    /// The current topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The pending-mutation queue.
    pub fn queue(&self) -> &MutationQueue {
        &self.queue
    }

    pub fn queue_mut(&mut self) -> &mut MutationQueue {
        &mut self.queue
    }

    /// Per-node crash flags.
    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    pub fn is_crashed(&self, v: Node) -> bool {
        self.crashed[v as usize]
    }

    /// Number of alive (non-crashed) nodes.
    pub fn alive(&self) -> usize {
        self.crashed.iter().filter(|&&c| !c).count()
    }

    /// Cumulative churn counters.
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// [`Session::state_hash`] of the resident engine — the same
    /// phase-boundary signal, computed on the churned topology's state.
    pub fn state_hash(&self) -> u64 {
        self.state.state_hash()
    }

    /// Serialize the session at a phase boundary into `out` (cleared
    /// first). Unlike [`Session::snapshot_into`], a churn frame **embeds
    /// the topology** (the graph is owned and mutated, so the restorer
    /// cannot be handed it separately) plus the crash flags, the parked
    /// edges, and the cumulative [`ChurnStats`].
    ///
    /// **Not captured:** the pending [`MutationQueue`] — queued
    /// mutations are client intent, not engine state. Call
    /// [`ChurnSession::apply_pending`] (or [`MutationQueue::clear`])
    /// first; a snapshot taken with a non-empty queue simply does not
    /// carry it.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        use crate::snapshot;
        out.clear();
        let sections = snapshot::FLAG_GRAPH | snapshot::FLAG_CHURN;
        snapshot::begin(
            out,
            &snapshot::Frame::of(&self.graph, &self.state, sections),
        );
        snapshot::put_graph(out, &self.graph);
        // Churn section: crash flags, parked edges (per crashed owner,
        // flattened endpoint pairs), cumulative counters.
        let crash_bytes: Vec<u8> = self.crashed.iter().map(|&c| c as u8).collect();
        snapshot::put_u8s(out, &crash_bytes);
        for held in &self.held {
            let flat: Vec<u32> = held.iter().flat_map(|&(u, v)| [u, v]).collect();
            snapshot::put_u32s(out, &flat);
        }
        snapshot::put_u64(out, self.stats.batches);
        snapshot::put_u64(out, self.stats.edges_added);
        snapshot::put_u64(out, self.stats.edges_removed);
        snapshot::put_u64(out, self.stats.crashes);
        snapshot::put_u64(out, self.stats.revives);
        self.state.encode_payload(out);
        snapshot::finish(out);
    }

    /// [`ChurnSession::snapshot_into`] into a fresh buffer.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Restore a churn snapshot into a new owning session. The embedded
    /// edge list is rebuilt through [`congest_graph::GraphBuilder`]
    /// (edge ids are canonical, so the CSR round-trips exactly),
    /// re-validated structurally, and checked against the recorded
    /// fingerprint; the engine payload then goes through the same
    /// validation chain as [`Session::restore`], ending with the
    /// state-hash re-verification. The restored session continues
    /// bit-identically — including future [`Mutation`]s, since the crash
    /// flags and parked edges come along.
    pub fn restore(bytes: &[u8]) -> Result<ChurnSession, crate::snapshot::SnapshotError> {
        use crate::snapshot::{self, SnapshotError};
        let (header, mut r) = snapshot::open(bytes)?;
        if !header.has_graph || !header.has_churn {
            return Err(SnapshotError::WrongKind);
        }
        // The churn section holds one crash flag per node: a frame shorter
        // than the n it claims is refused before a graph that size is built.
        if header.n > bytes.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let graph = snapshot::read_graph(&mut r, &header)?;
        if (header.n, header.m, header.arcs)
            != (graph.n() as u64, graph.m() as u64, graph.num_arcs() as u64)
        {
            return Err(SnapshotError::SizeMismatch("graph shape"));
        }
        let n = graph.n();
        let crash_bytes = r.u8s()?;
        if crash_bytes.len() != n || crash_bytes.iter().any(|&b| b > 1) {
            return Err(SnapshotError::SizeMismatch("crash flags"));
        }
        let crashed: Vec<bool> = crash_bytes.iter().map(|&b| b != 0).collect();
        let mut held: Vec<Vec<(Node, Node)>> = Vec::with_capacity(n);
        for &down in crashed.iter() {
            let flat = r.u32s()?;
            if flat.len() % 2 != 0 {
                return Err(SnapshotError::SizeMismatch("parked edges"));
            }
            if !flat.is_empty() && !down {
                // Parked edges are owned by crashed nodes only.
                return Err(SnapshotError::SizeMismatch("parked edges"));
            }
            let pairs: Vec<(Node, Node)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            if pairs
                .iter()
                .any(|&(u, w)| u as usize >= n || w as usize >= n || u >= w)
            {
                return Err(SnapshotError::SizeMismatch("parked edges"));
            }
            held.push(pairs);
        }
        let stats = ChurnStats {
            batches: r.u64()?,
            edges_added: r.u64()?,
            edges_removed: r.u64()?,
            crashes: r.u64()?,
            revives: r.u64()?,
        };
        let state = SessionState::restore_payload(&graph, &header, &mut r)?;
        Ok(ChurnSession {
            graph,
            state,
            queue: MutationQueue::new(),
            crashed,
            held,
            scratch: RepairScratch::new(),
            add_batch: Vec::new(),
            remove_batch: Vec::new(),
            revive_buf: Vec::new(),
            crashed_backup: Vec::new(),
            held_backup: Vec::new(),
            stats,
        })
    }

    /// Self-heal after a panic escaped a hosted closure (the state was
    /// defaulted by the take in [`ChurnSession::with_host`]).
    fn heal(&mut self) {
        if !self.state.fits(&self.graph) {
            self.state = SessionState::new(&self.graph);
        }
    }

    /// Canonical (u < v) form.
    fn canon(u: Node, v: Node) -> (Node, Node) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Edge membership in the *pending view*: graph ∪ add-batch ∖
    /// remove-batch. Linear scans over the (batch-sized) staging lists.
    fn view_has_edge(&self, u: Node, v: Node) -> bool {
        let c = Self::canon(u, v);
        if self.add_batch.contains(&c) {
            return true;
        }
        if self.remove_batch.contains(&c) {
            return false;
        }
        self.graph.has_edge(u, v)
    }

    /// Stage an insertion (cancelling a pending removal if present).
    fn stage_add(&mut self, c: (Node, Node)) {
        if let Some(i) = self.remove_batch.iter().position(|&x| x == c) {
            self.remove_batch.swap_remove(i);
        } else {
            self.add_batch.push(c);
        }
    }

    /// Stage a deletion (cancelling a pending insertion if present).
    fn stage_remove(&mut self, c: (Node, Node)) {
        if let Some(i) = self.add_batch.iter().position(|&x| x == c) {
            self.add_batch.swap_remove(i);
        } else {
            self.remove_batch.push(c);
        }
    }

    /// Apply one mutation to the staging view. Called in queue order, so
    /// the net batch is exactly the sequential application of the ops.
    fn stage(&mut self, op: Mutation) -> Result<(usize, usize), ChurnError> {
        let n = self.graph.n();
        let check_node = |v: Node| -> Result<(), ChurnError> {
            if v as usize >= n {
                Err(ChurnError::Graph(MutationError::NodeOutOfRange {
                    edge: (v, v),
                    n,
                }))
            } else {
                Ok(())
            }
        };
        match op {
            Mutation::AddEdge(u, v) => {
                check_node(u)?;
                check_node(v)?;
                if u == v {
                    return Err(ChurnError::Graph(MutationError::SelfLoop(u)));
                }
                for w in [u, v] {
                    if self.crashed[w as usize] {
                        return Err(ChurnError::CrashedEndpoint(w));
                    }
                }
                if self.view_has_edge(u, v) {
                    return Err(ChurnError::EdgeExists(u, v));
                }
                self.stage_add(Self::canon(u, v));
                Ok((0, 0))
            }
            Mutation::RemoveEdge(u, v) => {
                check_node(u)?;
                check_node(v)?;
                if !self.view_has_edge(u, v) {
                    return Err(ChurnError::EdgeMissing(u, v));
                }
                self.stage_remove(Self::canon(u, v));
                Ok((0, 0))
            }
            Mutation::Crash(v) => {
                check_node(v)?;
                if self.crashed[v as usize] {
                    return Err(ChurnError::AlreadyCrashed(v));
                }
                self.crashed[v as usize] = true;
                // Park every live incident edge: graph edges not already
                // staged for removal, plus pending additions touching v.
                for i in 0..self.graph.degree(v) {
                    let w = self.graph.neighbors(v)[i];
                    let c = Self::canon(v, w);
                    if !self.remove_batch.contains(&c) {
                        self.remove_batch.push(c);
                        self.held[v as usize].push(c);
                    }
                }
                let vi = v as usize;
                let mut i = 0;
                while i < self.add_batch.len() {
                    let c = self.add_batch[i];
                    if c.0 == v || c.1 == v {
                        self.add_batch.swap_remove(i);
                        self.held[vi].push(c);
                    } else {
                        i += 1;
                    }
                }
                Ok((1, 0))
            }
            Mutation::Revive(v) => {
                check_node(v)?;
                if !self.crashed[v as usize] {
                    return Err(ChurnError::NotCrashed(v));
                }
                self.crashed[v as usize] = false;
                std::mem::swap(&mut self.held[v as usize], &mut self.revive_buf);
                for i in 0..self.revive_buf.len() {
                    let c = self.revive_buf[i];
                    let other = if c.0 == v { c.1 } else { c.0 };
                    if self.crashed[other as usize] {
                        // Stays parked until the other endpoint returns.
                        self.held[other as usize].push(c);
                    } else if !self.view_has_edge(c.0, c.1) {
                        self.stage_add(c);
                    }
                    // Already present (e.g. manually re-added while v was
                    // down): drop the parked copy silently.
                }
                self.revive_buf.clear();
                Ok((0, 1))
            }
        }
    }

    /// Drain the queue and apply the net batch: stage all ops in order,
    /// splice the graph ([`Graph::apply_batch`]), and repair the engine
    /// state in place. On error nothing is applied and the queue is
    /// cleared (see the module docs on atomicity).
    pub fn apply_pending(&mut self) -> Result<ChurnReport, ChurnError> {
        self.heal();
        let has_node_ops = self
            .queue
            .ops
            .iter()
            .any(|op| matches!(op, Mutation::Crash(_) | Mutation::Revive(_)));
        if has_node_ops {
            self.crashed_backup.clear();
            self.crashed_backup.extend_from_slice(&self.crashed);
            self.held_backup.clone_from(&self.held);
        }
        let mut crashes = 0usize;
        let mut revives = 0usize;
        let mut ops = std::mem::take(&mut self.queue.ops);
        let mut staged = Ok(());
        for &op in &ops {
            match self.stage(op) {
                Ok((c, r)) => {
                    crashes += c;
                    revives += r;
                }
                Err(e) => {
                    staged = Err(e);
                    break;
                }
            }
        }
        let applied = staged.and_then(|()| {
            self.graph
                .apply_batch(&self.add_batch, &self.remove_batch, &mut self.scratch)
                .map_err(ChurnError::Graph)
        });
        ops.clear();
        self.queue.ops = ops; // keep the queue's capacity
        match applied {
            Ok(graph_report) => {
                self.state.repair(&self.graph);
                self.add_batch.clear();
                self.remove_batch.clear();
                self.stats.batches += 1;
                self.stats.edges_added += graph_report.edges_added as u64;
                self.stats.edges_removed += graph_report.edges_removed as u64;
                self.stats.crashes += crashes as u64;
                self.stats.revives += revives as u64;
                Ok(ChurnReport {
                    graph: graph_report,
                    crashes,
                    revives,
                })
            }
            Err(e) => {
                // Roll back: the graph is untouched; restore crash state
                // and drop the staged batch.
                if has_node_ops {
                    self.crashed.copy_from_slice(&self.crashed_backup);
                    self.held.clone_from(&self.held_backup);
                }
                self.add_batch.clear();
                self.remove_batch.clear();
                Err(e)
            }
        }
    }

    /// Apply pending mutations (a phase boundary), then run one phase on
    /// the repaired engine — the churn-aware [`Session::run`].
    pub fn run<'s, P, F>(
        &'s mut self,
        factory: F,
        config: EngineConfig,
    ) -> Result<PhaseOutcome<'s, P::Output>, ChurnError>
    where
        P: Protocol,
        F: FnMut(Node, &Graph) -> P,
    {
        self.apply_pending()?;
        self.state
            .run_phase(&self.graph, factory, config)
            .map_err(ChurnError::Engine)
    }

    /// Lend the engine out as a [`Session`] for a whole multi-phase
    /// driver (e.g. a broadcast) on the *current* topology. Pending
    /// mutations are **not** applied — call
    /// [`ChurnSession::apply_pending`] first; the composition runs on one
    /// frozen graph, which is exactly the phase-boundary discipline.
    ///
    /// A panic inside `f` poisons the lent state; the session self-heals
    /// (rebuilding the engine buffers) on its next use.
    pub fn with_host<R>(&mut self, f: impl FnOnce(&mut Session<'_>) -> R) -> R {
        self.heal();
        let state = std::mem::take(&mut self.state);
        let mut host = Session::from_state(&self.graph, state);
        let r = f(&mut host);
        self.state = host.into_state();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::NodeCtx;
    use congest_graph::generators::harary;
    use congest_graph::GraphBuilder;

    /// Every node floods its max-known id for `rounds` rounds.
    struct Flood {
        best: u32,
        rounds: u64,
    }
    impl Protocol for Flood {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            for (_, m) in ctx.inbox() {
                self.best = self.best.max(m as u32);
            }
            if ctx.round < self.rounds {
                ctx.send_all(self.best as u64);
            }
            ctx.set_done(ctx.round >= self.rounds);
        }
        fn finish(self) -> u64 {
            self.best as u64
        }
    }

    fn rebuild_arm(n: usize, g: &Graph, seed: u64) -> Vec<u64> {
        let fresh = GraphBuilder::new(n)
            .edges(g.edge_list().map(|(_, u, v)| (u, v)))
            .build()
            .unwrap();
        crate::run_protocol(
            &fresh,
            |v, _| Flood { best: v, rounds: 4 },
            EngineConfig::serial().seed(seed),
        )
        .unwrap()
        .outputs
    }

    #[test]
    fn mutate_then_run_matches_rebuild_then_run() {
        let g = harary(4, 20);
        let n = g.n();
        let mut churn = ChurnSession::new(g);
        for step in 0..6u32 {
            churn.queue_mut().push(Mutation::RemoveEdge(step, step + 1));
            churn
                .queue_mut()
                .push(Mutation::AddEdge(step, (step + 10) % n as u32));
            let out = churn
                .run(|v, _| Flood { best: v, rounds: 4 }, EngineConfig::serial())
                .unwrap();
            let outs = out.take_outputs();
            assert_eq!(outs, rebuild_arm(n, churn.graph(), 0), "step {step}");
        }
    }

    #[test]
    fn crash_parks_and_revive_restores() {
        let g = harary(4, 12);
        let before: Vec<_> = g.edge_list().collect();
        let mut churn = ChurnSession::new(g);
        let deg = churn.graph().degree(3);
        churn.queue_mut().push(Mutation::Crash(3));
        let rep = churn.apply_pending().unwrap();
        assert_eq!(rep.crashes, 1);
        assert_eq!(rep.graph.edges_removed, deg);
        assert_eq!(churn.graph().degree(3), 0);
        assert!(churn.is_crashed(3));
        assert_eq!(churn.alive(), 11);

        churn.queue_mut().push(Mutation::Revive(3));
        let rep = churn.apply_pending().unwrap();
        assert_eq!(rep.revives, 1);
        assert_eq!(rep.graph.edges_added, deg);
        let after: Vec<_> = churn.graph().edge_list().collect();
        assert_eq!(before, after, "revive restores the exact edge set");
    }

    #[test]
    fn overlapping_crashes_hand_edges_over() {
        // 0-1 plus supporting edges; crash both endpoints, revive in
        // both orders — the shared edge must come back exactly once.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        let mut churn = ChurnSession::new(g);
        churn.queue_mut().push(Mutation::Crash(0));
        churn.queue_mut().push(Mutation::Crash(1));
        churn.apply_pending().unwrap();
        assert_eq!(churn.graph().m(), 1); // only 2-3 left
        churn.queue_mut().push(Mutation::Revive(0));
        churn.apply_pending().unwrap();
        // 0-2 returns; 0-1 stays parked with crashed 1.
        assert!(churn.graph().has_edge(0, 2));
        assert!(!churn.graph().has_edge(0, 1));
        churn.queue_mut().push(Mutation::Revive(1));
        churn.apply_pending().unwrap();
        assert!(churn.graph().has_edge(0, 1));
        assert!(churn.graph().has_edge(1, 3));
        assert_eq!(churn.graph().m(), 4);
    }

    #[test]
    fn invalid_batch_applies_nothing() {
        let g = harary(4, 10);
        let before = g.clone();
        let mut churn = ChurnSession::new(g);
        churn.queue_mut().push(Mutation::Crash(2));
        churn.queue_mut().push(Mutation::AddEdge(5, 5)); // invalid
        let err = churn.apply_pending().unwrap_err();
        assert_eq!(err, ChurnError::Graph(MutationError::SelfLoop(5)));
        assert_eq!(churn.graph(), &before, "graph untouched");
        assert!(!churn.is_crashed(2), "crash rolled back");
        assert!(churn.queue().is_empty(), "failed batch cleared");
        // The session keeps working afterwards.
        churn.queue_mut().push(Mutation::Crash(2));
        churn.apply_pending().unwrap();
        assert!(churn.is_crashed(2));
    }

    #[test]
    fn sequential_netting_cancels() {
        let g = harary(4, 10);
        let before = g.clone();
        let mut churn = ChurnSession::new(g);
        // Remove then re-add the same edge: net no-op.
        let (_, u, v) = before.edge_list().next().unwrap();
        churn.queue_mut().push(Mutation::RemoveEdge(u, v));
        churn.queue_mut().push(Mutation::AddEdge(v, u));
        // Add then remove a fresh chord: net no-op.
        churn.queue_mut().push(Mutation::AddEdge(0, 5));
        churn.queue_mut().push(Mutation::RemoveEdge(0, 5));
        let rep = churn.apply_pending().unwrap();
        assert_eq!(rep.graph.edges_added + rep.graph.edges_removed, 0);
        assert_eq!(churn.graph(), &before);
        // But double-remove of the same edge is an error.
        churn.queue_mut().push(Mutation::RemoveEdge(u, v));
        churn.queue_mut().push(Mutation::RemoveEdge(u, v));
        assert_eq!(
            churn.apply_pending().unwrap_err(),
            ChurnError::EdgeMissing(u, v)
        );
    }

    #[test]
    fn with_host_lends_the_resident_engine() {
        // C12(1,2) has diameter 3, so a 3-round flood reaches everyone.
        let g = harary(4, 12);
        let n = g.n();
        let mut churn = ChurnSession::new(g);
        let outs = churn.with_host(|host| {
            let out = host
                .run(|v, _| Flood { best: v, rounds: 3 }, EngineConfig::serial())
                .unwrap();
            out.take_outputs()
        });
        assert_eq!(outs, vec![(n - 1) as u64; n]);
        // The engine state came back: a follow-up run still works and
        // sees mutations applied in between.
        churn.queue_mut().push(Mutation::RemoveEdge(0, 1));
        let outs = churn
            .run(|v, _| Flood { best: v, rounds: 3 }, EngineConfig::serial())
            .unwrap()
            .take_outputs();
        assert_eq!(outs.len(), n);
        assert!(!churn.graph().has_edge(0, 1));
    }
}
