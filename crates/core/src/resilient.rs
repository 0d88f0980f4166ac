//! Fault-tolerant broadcast over the tree packing (paper §1.2, "An
//! application to secure distributed computing").
//!
//! Fischer–Parter \[FP23\] show that a tree packing with ≥ λ trees, small
//! congestion, and tree diameter `d` — exactly what Theorem 2 provides —
//! compiles any CONGEST algorithm into an *f-mobile-resilient* one
//! (correct despite an adversary controlling `f` edges per round) with
//! `f = Θ̃(λ)` and overhead `Θ̃(d)`.
//!
//! This module implements the natural broadcast instantiation of that
//! idea: **replicate every message across `r` of the λ′ partition trees**
//! and deduplicate by message id at every node. An adversary must block
//! all `r` edge-disjoint routes of a message to suppress it, so delivery
//! survives fault rates that grow with `r` — experimentally charted by
//! E13 (`e13_resilience` in `crates/bench/src/broadcast.rs`, whose rows
//! are in `REPRODUCTION.json`). (Our adversary is oblivious-random
//! rather than adaptive, and the control phases — BFS, numbering,
//! partition — run protected; both substitutions documented in DESIGN.md
//! §2.)
//!
//! [`resilient_broadcast_hosted`] is Theorem 1's composition
//! ([`crate::broadcast`]) with `r` copies per message in the routing stage
//! and [`ReplicatedPipeline`] wrapped around the per-class cores; like
//! every driver of the family but the two frozen names, it takes the
//! caller's [`Session`].

use crate::broadcast::{BroadcastConfig, BroadcastError, BroadcastInput, ParallelPipeline};
use crate::partition::PartitionParams;
use crate::pipeline::{expected_checksums, PipeCore, PipeMsg};
use crate::stages::{Composition, CLASS_PHASES};
use congest_sim::{FaultPlan, NodeCtx, PhaseLog, Protocol, Session, Tagged};
use std::collections::HashMap;

/// Per-node result of a replicated broadcast: the deduplicated message
/// set fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupResult {
    /// Distinct message ids received (or initially held).
    pub unique: u64,
    /// Order-invariant checksums over the distinct messages.
    pub xor_check: u64,
    pub sum_check: u64,
    /// Copies that arrived after the id was already known.
    pub duplicates: u64,
}

/// λ′ pipeline cores plus an id-level deduplication layer.
pub struct ReplicatedPipeline {
    routes: ParallelPipeline,
    seen: HashMap<u32, u64>,
    duplicates: u64,
}

impl ReplicatedPipeline {
    /// `own` must list this node's initial messages once per replica
    /// (i.e. already expanded to (class, msg) pairs).
    pub fn new(cores: Vec<PipeCore>, own_unique: &[(u32, u64)]) -> Self {
        ReplicatedPipeline {
            routes: ParallelPipeline::new(cores),
            seen: own_unique.iter().copied().collect(),
            duplicates: 0,
        }
    }
}

impl Protocol for ReplicatedPipeline {
    type Msg = Tagged<PipeMsg>;
    type Output = DedupResult;
    /// Done is the routes' done, quiescence: a done round with an empty
    /// inbox returns before it touches a core, the dedup table, the wire
    /// or the flag. Under faults a core may stall forever short of its
    /// k_c, and the run still ends; the driver judges delivery afterwards.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, Tagged<PipeMsg>>) {
        self.routes.round_with(ctx, |m| {
            self.duplicates += u64::from(self.seen.insert(m.id, m.payload).is_some())
        });
    }

    fn finish(self) -> DedupResult {
        let pairs: Vec<(u32, u64)> = self.seen.into_iter().collect();
        let (x, s) = expected_checksums(pairs.iter());
        DedupResult {
            unique: pairs.len() as u64,
            xor_check: x,
            sum_check: s,
            duplicates: self.duplicates,
        }
    }
}

/// Outcome of a resilient broadcast run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    pub phases: PhaseLog,
    pub total_rounds: u64,
    /// Replication factor used.
    pub replication: usize,
    pub num_subgraphs: usize,
    /// Per-node dedup results.
    pub per_node: Vec<DedupResult>,
    /// Expected checksums of the full message set.
    pub expected: (u64, u64),
    pub k: u64,
    /// Messages the adversary destroyed during routing.
    pub dropped: u64,
}

impl ResilientOutcome {
    /// Nodes that ended up missing at least one message.
    pub fn starved_nodes(&self) -> Vec<usize> {
        self.per_node
            .iter()
            .enumerate()
            .filter(|(_, r)| r.unique != self.k || (r.xor_check, r.sum_check) != self.expected)
            .map(|(v, _)| v)
            .collect()
    }

    pub fn all_delivered(&self) -> bool {
        self.starved_nodes().is_empty()
    }
}

/// Replicated broadcast under an edge adversary active during routing,
/// on the caller's engine host. A run that completes with starved nodes
/// is `Ok`: [`ResilientOutcome::starved_nodes`] names them.
///
/// `replication` copies of each message are routed over distinct trees
/// (clamped to λ′). `faults` applies to the routing phase only: the
/// control phases — Theorem 1's phases 1–5 — run protected.
pub fn resilient_broadcast_hosted(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    replication: usize,
    faults: Option<FaultPlan>,
    cfg: &BroadcastConfig,
) -> Result<ResilientOutcome, BroadcastError> {
    let lp = params.num_subgraphs;
    let r = replication.clamp(1, lp);
    let mut comp = Composition::new(host, input, |phase| {
        let mut engine = cfg.engine(0x9E5 + phase);
        if phase == 6 {
            engine.faults = faults;
        }
        engine
    });
    comp.tree()?;
    comp.connected()?;
    comp.number(3)?;
    comp.class_trees(CLASS_PHASES, lp, cfg.seed)?;
    comp.spanning()?;
    let per_node = comp.route((6, "replicated-routing"), r, false, ReplicatedPipeline::new)?;
    let expected = comp.expected();
    let phases = comp.take_log();
    let (_, routing) = phases.phases().last().expect("six phases ran");
    Ok(ResilientOutcome {
        total_rounds: phases.total_rounds(),
        dropped: routing.dropped_messages, // routing is the only attacked phase
        phases,
        replication: r,
        num_subgraphs: lp,
        per_node,
        expected,
        k: input.k() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::harary;

    /// `harary(24, 72)`, k = 72 over λ′ = 4 trees: `r` copies per message
    /// against `faults` edge faults a round.
    fn run(r: usize, faults: Option<usize>, seed: u64) -> ResilientOutcome {
        let g = harary(24, 72);
        resilient_broadcast_hosted(
            &mut Session::new(&g),
            &BroadcastInput::random_spread(&g, 72, 3),
            PartitionParams::explicit(4),
            r,
            faults.map(|f| FaultPlan::new(f, 0xBAD)),
            &BroadcastConfig::with_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn no_faults_behaves_like_plain_broadcast_with_dedup() {
        let out = run(2, None, 0x51);
        assert!(out.all_delivered());
        assert_eq!(out.dropped, 0);
        // With replication 2, every node sees duplicates.
        assert!(out.per_node.iter().any(|r| r.duplicates > 0));
    }

    #[test]
    fn replication_survives_faults_that_starve_single_routing() {
        // r = 1: the adversary usually starves someone.
        let single = run(1, Some(3), 0x52);
        // r = 3: three edge-disjoint routes per message.
        let triple = run(3, Some(3), 0x52);
        assert!(triple.dropped > 0, "adversary must have acted");
        assert!(
            triple.starved_nodes().len() <= single.starved_nodes().len(),
            "replication must not hurt: r=3 starved {:?} vs r=1 starved {:?}",
            triple.starved_nodes().len(),
            single.starved_nodes().len()
        );
        assert!(
            triple.all_delivered(),
            "r=3 should survive 3 random edge faults/round: starved {:?}",
            triple.starved_nodes()
        );
    }

    #[test]
    fn starved_nodes_reports_exact_mismatch_set_under_partial_delivery() {
        // Moderate faults on unreplicated routing: partial delivery with
        // a genuinely mixed population (some starved, some complete).
        let out = run(1, Some(2), 0x52);
        assert!(out.dropped > 0);
        let starved = out.starved_nodes();
        assert!(!starved.is_empty(), "2 faults/round must starve someone");
        assert!(
            starved.len() < out.per_node.len(),
            "quiescence still delivers to most"
        );
        assert_eq!(out.all_delivered(), starved.is_empty());
        assert!(starved.windows(2).all(|w| w[0] < w[1]), "sorted node ids");
        for (v, r) in out.per_node.iter().enumerate() {
            let bad = r.unique != out.k || (r.xor_check, r.sum_check) != out.expected;
            assert_eq!(starved.contains(&v), bad, "node {v}");
            assert!(r.unique <= out.k, "dedup can never exceed k");
        }
    }

    #[test]
    fn replication_clamped_to_subgraph_count() {
        let out = run(100, None, 0x53);
        assert_eq!(out.replication, 4);
        assert!(out.all_delivered());
    }
}
