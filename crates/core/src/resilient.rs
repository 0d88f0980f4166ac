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
//! survives fault rates that grow with `r` — experimentally charted in
//! `exp_resilience`. (Our adversary is oblivious-random rather than
//! adaptive, and the control phases — BFS, numbering, partition — run
//! protected; both substitutions documented in DESIGN.md §2.)

use crate::bfs::{BfsProtocol, SubgraphBfs};
use crate::broadcast::{BroadcastConfig, BroadcastError, BroadcastInput, ColoredPipeMsg};
use crate::convergecast::{Numbering, TreeView};
use crate::leader::FloodMax;
use crate::partition::{EdgePartitionProtocol, PartitionParams};
use crate::pipeline::{expected_checksums, PipeCore, PipeMsg};
use congest_graph::{Graph, Port};
use congest_sim::{EngineConfig, FaultPlan, NodeCtx, PhaseHost, PhaseLog, Protocol};
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
    cores: Vec<PipeCore>,
    seen: HashMap<u32, u64>,
    duplicates: u64,
}

impl ReplicatedPipeline {
    /// `own` must list this node's initial messages once per replica
    /// (i.e. already expanded to (class, msg) pairs).
    pub fn new(cores: Vec<PipeCore>, own_unique: &[(u32, u64)]) -> Self {
        let mut seen = HashMap::new();
        for &(id, payload) in own_unique {
            seen.insert(id, payload);
        }
        ReplicatedPipeline {
            cores,
            seen,
            duplicates: 0,
        }
    }

    fn record(&mut self, id: u32, payload: u64) {
        if self.seen.insert(id, payload).is_some() {
            self.duplicates += 1;
        }
    }
}

impl Protocol for ReplicatedPipeline {
    type Msg = ColoredPipeMsg;
    type Output = DedupResult;

    fn round(&mut self, ctx: &mut NodeCtx<'_, ColoredPipeMsg>) {
        let arrivals: Vec<(Port, ColoredPipeMsg)> = ctx.inbox().collect();
        for (p, m) in arrivals {
            self.record(m.inner.id, m.inner.payload);
            self.cores[m.color as usize].on_receive(p, m.inner);
        }
        for c in 0..self.cores.len() {
            let (up, down) = self.cores[c].emit();
            if let Some(m) = up {
                let pp = self.cores[c].tree().parent_port.expect("non-root sends up");
                ctx.send(
                    pp,
                    ColoredPipeMsg {
                        color: c as u16,
                        inner: m,
                    },
                );
            }
            if let Some(m) = down {
                for &child in &self.cores[c].tree().children_ports.clone() {
                    ctx.send(
                        child,
                        ColoredPipeMsg {
                            color: c as u16,
                            inner: m,
                        },
                    );
                }
            }
        }
        // Under faults a core may stall forever short of its k_c; local
        // termination is therefore quiescence, and delivery is judged
        // post-hoc by the driver.
        ctx.set_done(self.cores.iter().all(|c| c.quiescent()));
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

/// Replicated broadcast under an edge adversary active during routing.
///
/// `replication` copies of each message are routed over distinct trees
/// (clamped to λ′). `faults` applies to the routing phase only.
pub fn resilient_broadcast(
    g: &Graph,
    input: &BroadcastInput,
    params: PartitionParams,
    replication: usize,
    faults: Option<FaultPlan>,
    cfg: &BroadcastConfig,
) -> Result<ResilientOutcome, BroadcastError> {
    let mut host = PhaseHost::resident(g);
    resilient_broadcast_hosted(&mut host, input, params, replication, faults, cfg)
}

/// [`resilient_broadcast`] on a caller-provided engine host, so drivers
/// that compose broadcasts (and the degradation loop in
/// [`crate::watchdog()`]) reuse one preallocated engine across attempts.
pub fn resilient_broadcast_hosted(
    host: &mut PhaseHost<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    replication: usize,
    faults: Option<FaultPlan>,
    cfg: &BroadcastConfig,
) -> Result<ResilientOutcome, BroadcastError> {
    let g = host.graph();
    let n = g.n();
    let k = input.k() as u64;
    let lp = params.num_subgraphs;
    let r = replication.clamp(1, lp);
    let mut phases = PhaseLog::new();
    let engine = |p: u64| {
        EngineConfig::with_seed(congest_sim::rng::phase_seed(cfg.seed, 0x9E5 + p))
            .max_rounds(cfg.max_rounds)
    };

    // Protected control phases (identical to Theorem 1's phases 1–5).
    let leaders = host.run(|v, _| FloodMax::new(v), engine(1))?;
    phases.record("leader-election", leaders.stats);
    let root = leaders.outputs()[0].leader;
    drop(leaders);

    let bfs = host.run(|v, _| BfsProtocol::new(root, v), engine(2))?;
    phases.record("bfs", bfs.stats);
    let views: Vec<TreeView> = bfs.outputs().iter().map(TreeView::from_bfs).collect();
    drop(bfs);

    let payloads = input.payloads_by_node(n);
    let numbering = host.run(
        |v, _| Numbering::new(views[v as usize].clone(), payloads[v as usize].len() as u64),
        engine(3),
    )?;
    phases.record("numbering", numbering.stats);
    let ids_by_node: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let (start, _) = numbering.outputs()[v];
            (0..payloads[v].len() as u64)
                .map(|j| (start + j) as u32)
                .collect()
        })
        .collect();
    drop(numbering);

    let part = host.run(
        |v, gr| EdgePartitionProtocol::new(v, cfg.seed, lp, gr.degree(v)),
        engine(4),
    )?;
    phases.record("edge-partition", part.stats);
    let port_colors = part.take_outputs();

    let sub_bfs_run = host.run(
        |v, _| SubgraphBfs::new(root, v, port_colors[v as usize].clone(), lp),
        engine(5),
    )?;
    phases.record("subgraph-bfs", sub_bfs_run.stats);
    let sub_bfs = sub_bfs_run.take_outputs();
    for c in 0..lp {
        let unreached = sub_bfs.iter().filter(|infos| !infos[c].reached).count();
        if unreached > 0 {
            return Err(BroadcastError::NotSpanning {
                subgraph: c as u32,
                unreached,
            });
        }
    }

    // Routing with replication, under attack.
    let cap = k.max(1).div_ceil(lp as u64);
    let base_color = |id: u32| ((id as u64 / cap).min(lp as u64 - 1)) as usize;
    let copy_colors =
        |id: u32| -> Vec<usize> { (0..r).map(|i| (base_color(id) + i) % lp).collect() };
    let mut k_per_class = vec![0u64; lp];
    for ids in &ids_by_node {
        for &id in ids {
            for c in copy_colors(id) {
                k_per_class[c] += 1;
            }
        }
    }
    let mut routing_engine = engine(6);
    routing_engine.faults = faults;
    let routing = host.run(
        |v, _| {
            let vi = v as usize;
            let own_unique: Vec<(u32, u64)> = ids_by_node[vi]
                .iter()
                .zip(payloads[vi].iter())
                .map(|(&id, &p)| (id, p))
                .collect();
            let cores = (0..lp)
                .map(|c| {
                    let own: Vec<PipeMsg> = own_unique
                        .iter()
                        .filter(|(id, _)| copy_colors(*id).contains(&c))
                        .map(|&(id, payload)| PipeMsg { id, payload })
                        .collect();
                    PipeCore::new(
                        TreeView::from_bfs(&sub_bfs[vi][c]),
                        k_per_class[c],
                        own,
                        false,
                    )
                })
                .collect();
            ReplicatedPipeline::new(cores, &own_unique)
        },
        routing_engine,
    )?;
    phases.record("replicated-routing", routing.stats);
    let routing_stats = routing.stats;
    let per_node = routing.take_outputs();

    let all_msgs: Vec<(u32, u64)> = (0..n)
        .flat_map(|v| {
            ids_by_node[v]
                .iter()
                .zip(payloads[v].iter())
                .map(|(&id, &p)| (id, p))
                .collect::<Vec<_>>()
        })
        .collect();
    let expected = expected_checksums(all_msgs.iter());

    Ok(ResilientOutcome {
        total_rounds: phases.total_rounds(),
        phases,
        replication: r,
        num_subgraphs: lp,
        per_node,
        expected,
        k,
        dropped: routing_stats.dropped_messages, // routing is the only attacked phase
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::harary;

    fn setup() -> (Graph, BroadcastInput, PartitionParams) {
        let g = harary(24, 72);
        let input = BroadcastInput::random_spread(&g, 72, 3);
        let params = PartitionParams::explicit(4);
        (g, input, params)
    }

    #[test]
    fn no_faults_behaves_like_plain_broadcast_with_dedup() {
        let (g, input, params) = setup();
        let out = resilient_broadcast(
            &g,
            &input,
            params,
            2,
            None,
            &BroadcastConfig::with_seed(0x51),
        )
        .unwrap();
        assert!(out.all_delivered());
        assert_eq!(out.dropped, 0);
        // With replication 2, every node sees duplicates.
        assert!(out.per_node.iter().any(|r| r.duplicates > 0));
    }

    #[test]
    fn replication_survives_faults_that_starve_single_routing() {
        let (g, input, params) = setup();
        let faults = FaultPlan::new(3, 0xBAD);
        // r = 1: the adversary usually starves someone.
        let single = resilient_broadcast(
            &g,
            &input,
            params,
            1,
            Some(faults),
            &BroadcastConfig::with_seed(0x52),
        )
        .unwrap();
        // r = 3: three edge-disjoint routes per message.
        let triple = resilient_broadcast(
            &g,
            &input,
            params,
            3,
            Some(faults),
            &BroadcastConfig::with_seed(0x52),
        )
        .unwrap();
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
        let (g, input, params) = setup();
        // Moderate faults on unreplicated routing: partial delivery with
        // a genuinely mixed population (some starved, some complete).
        let out = resilient_broadcast(
            &g,
            &input,
            params,
            1,
            Some(FaultPlan::new(2, 0xBAD)),
            &BroadcastConfig::with_seed(0x52),
        )
        .unwrap();
        assert!(out.dropped > 0);
        let starved = out.starved_nodes();
        assert!(!starved.is_empty(), "2 faults/round must starve someone");
        assert!(starved.len() < g.n(), "quiescence still delivers to most");
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
        let (g, input, params) = setup();
        let out = resilient_broadcast(
            &g,
            &input,
            params,
            100,
            None,
            &BroadcastConfig::with_seed(0x53),
        )
        .unwrap();
        assert_eq!(out.replication, 4);
        assert!(out.all_delivered());
    }
}
