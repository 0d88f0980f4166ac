//! The seed-style engine: the **one reference interpreter** the packed
//! engine is held to.
//!
//! This is (a compact copy of) the engine this workspace shipped with
//! before the packed message plane: inboxes and outboxes are
//! `Vec<Option<M>>` slabs, every round pays an O(arcs) `Option` clear,
//! and delivery is a clear-then-clone pass through the reverse-arc table
//! — no bitsets, no planes, no shards, no fast paths, so what it computes
//! is plainly the model. The differential tests compare the live engine
//! against it (outputs, stats, traces, per-edge meters, with and without
//! a fault adversary); nothing else should use it.
//!
//! It drives [`BaselineProtocol`] rather than [`crate::Protocol`] because
//! the two engines expose different context types; test workloads
//! implement both traits with identical logic so a comparison holds the
//! message plane, not the workload, to account.

use crate::engine::RunStats;
use crate::fault::FaultPlan;
use crate::message::PackedMsg;
use congest_graph::{Graph, Node, Port};

/// Node program for the baseline engine (test workloads only).
pub trait BaselineProtocol: Send {
    type Msg: PackedMsg;
    type Output: Send;

    fn round(&mut self, ctx: &mut BaselineCtx<'_, Self::Msg>);
    fn finish(self) -> Self::Output;
}

/// Seed-style per-round node view: `Option` slices.
pub struct BaselineCtx<'a, M> {
    pub node: Node,
    pub round: u64,
    inbox: &'a [Option<M>],
    outbox: &'a mut [Option<M>],
    done: &'a mut bool,
}

impl<M: Clone> BaselineCtx<'_, M> {
    #[inline]
    pub fn degree(&self) -> usize {
        self.inbox.len()
    }

    pub fn inbox(&self) -> impl Iterator<Item = (Port, &M)> {
        self.inbox
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (p as Port, m)))
    }

    pub fn inbox_len(&self) -> usize {
        self.inbox.iter().filter(|m| m.is_some()).count()
    }

    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        let slot = &mut self.outbox[port as usize];
        assert!(slot.is_none(), "baseline CONGEST violation on port {port}");
        *slot = Some(msg);
    }

    pub fn send_all(&mut self, msg: M) {
        for p in 0..self.outbox.len() {
            self.send(p as Port, msg.clone());
        }
    }

    #[inline]
    pub fn set_done(&mut self, done: bool) {
        *self.done = done;
    }
}

/// Outcome mirror of [`crate::RunOutcome`]: what the bench and the
/// differential harness compare against the packed engine's, field for
/// field.
pub struct BaselineOutcome<O> {
    pub outputs: Vec<O>,
    pub stats: RunStats,
    /// Messages delivered per round, trimmed to the last round that
    /// delivered anything — what [`crate::RunOutcome::trace`] holds.
    pub trace: Vec<u64>,
    /// Per-edge congestion (both directions summed), indexed by edge id —
    /// the seed engine's own `arc_traffic` counters folded exactly the
    /// way the packed engine folds its own, so the differential harness
    /// can assert the meters bit-identical.
    pub edge_congestion: Vec<u64>,
}

/// Run the seed-style engine (serial — the seed's parallel path brought
/// the same O(arcs) clears and clones, so the serial arm is the honest
/// per-core comparison). `faults` is the same mobile edge adversary
/// [`crate::EngineConfig::faults`] hands the packed engine: a message
/// staged on an edge the plan blocks this round is dropped, not delivered.
pub fn run_baseline<P, F>(
    graph: &Graph,
    mut factory: F,
    max_rounds: u64,
    faults: Option<FaultPlan>,
) -> BaselineOutcome<P::Output>
where
    P: BaselineProtocol,
    F: FnMut(Node, &Graph) -> P,
{
    let n = graph.n();
    let arcs = graph.num_arcs();
    let mut states: Vec<P> = (0..n as Node).map(|v| factory(v, graph)).collect();
    let mut done = vec![false; n];
    let mut inbox: Vec<Option<P::Msg>> = (0..arcs).map(|_| None).collect();
    let mut outbox: Vec<Option<P::Msg>> = (0..arcs).map(|_| None).collect();
    // Per-arc congestion counters, exactly as the seed engine kept them.
    let mut arc_traffic: Vec<u64> = vec![0; arcs];

    let mut stats = RunStats::default();
    let mut trace: Vec<u64> = Vec::new();
    let mut round = 0u64;
    loop {
        assert!(round < max_rounds, "baseline round limit exceeded");
        // Step: split the outbox into per-node slices (seed bookkeeping,
        // including its per-round allocation).
        let mut out_slices: Vec<&mut [Option<P::Msg>]> = Vec::with_capacity(n);
        {
            let mut rest = &mut outbox[..];
            for v in 0..n as Node {
                let (head, tail) = rest.split_at_mut(graph.degree(v));
                out_slices.push(head);
                rest = tail;
            }
        }
        for (v, (state, out)) in states.iter_mut().zip(out_slices).enumerate() {
            let lo = graph.arc_offset(v as Node);
            let deg = graph.degree(v as Node);
            let mut ctx = BaselineCtx {
                node: v as Node,
                round,
                inbox: &inbox[lo..lo + deg],
                outbox: out,
                done: &mut done[v],
            };
            state.round(&mut ctx);
        }
        // Deliver: clear-then-copy through the reverse-arc table. The
        // adversary destroys what was staged on a blocked edge.
        let blocked = faults.map(|plan| plan.blocked_mask(round, graph.m()));
        let mut delivered = 0u64;
        for v in 0..n as Node {
            let lo = graph.arc_offset(v);
            for (i, &e) in graph.incident_edges(v).iter().enumerate() {
                let arc = lo + i;
                inbox[arc] = None;
                let Some(msg) = &outbox[graph.reverse_arc(arc)] else {
                    continue;
                };
                if blocked.as_ref().is_some_and(|b| b[e as usize]) {
                    stats.dropped_messages += 1;
                } else {
                    inbox[arc] = Some(*msg);
                    arc_traffic[arc] += 1;
                    delivered += 1;
                }
            }
        }
        outbox.iter_mut().for_each(|s| *s = None);
        stats.total_messages += delivered;
        trace.push(delivered);
        round += 1;
        if delivered > 0 {
            stats.rounds = round;
        }
        if delivered == 0 && done.iter().all(|&d| d) {
            stats.iterations = round;
            break;
        }
    }
    // The seed's post-run congestion fold: per-arc deliveries summed onto
    // their undirected edge, exactly as the packed engines fold theirs.
    let mut per_edge: Vec<u64> = vec![0; graph.m()];
    for v in 0..n as Node {
        let lo = graph.arc_offset(v);
        for (i, &e) in graph.incident_edges(v).iter().enumerate() {
            per_edge[e as usize] += arc_traffic[lo + i];
        }
    }
    stats.max_edge_congestion = per_edge.iter().copied().max().unwrap_or(0);
    if stats.total_messages + stats.dropped_messages > 0 {
        stats.max_message_bits = P::Msg::WIDTH as usize;
    }
    trace.truncate(stats.rounds as usize);
    BaselineOutcome {
        outputs: states.into_iter().map(|s| s.finish()).collect(),
        stats,
        trace,
        edge_congestion: per_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, EngineConfig};
    use crate::protocol::{NodeCtx, Protocol};
    use congest_graph::generators::torus2d;

    /// One workload, both engines: flood-and-count.
    struct Flood {
        heard_at: Option<u64>,
    }

    impl Protocol for Flood {
        type Msg = u32;
        type Output = Option<u64>;
        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if (ctx.round == 0 && ctx.node == 0 || ctx.inbox_len() > 0) && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round);
                ctx.send_all(7);
            }
            ctx.set_done(self.heard_at.is_some());
        }
        fn finish(self) -> Option<u64> {
            self.heard_at
        }
    }

    impl BaselineProtocol for Flood {
        type Msg = u32;
        type Output = Option<u64>;
        fn round(&mut self, ctx: &mut BaselineCtx<'_, u32>) {
            if (ctx.round == 0 && ctx.node == 0 || ctx.inbox_len() > 0) && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round);
                ctx.send_all(7);
            }
            ctx.set_done(self.heard_at.is_some());
        }
        fn finish(self) -> Option<u64> {
            self.heard_at
        }
    }

    #[test]
    fn baseline_and_packed_engines_agree() {
        let g = torus2d(6, 7);
        let packed =
            run_protocol(&g, |_, _| Flood { heard_at: None }, EngineConfig::default()).unwrap();
        let base = run_baseline::<Flood, _>(&g, |_, _| Flood { heard_at: None }, 10_000, None);
        assert_eq!(packed.outputs, base.outputs);
        assert_eq!(packed.stats, base.stats);
    }
}
