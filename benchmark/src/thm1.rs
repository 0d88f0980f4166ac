//! The two Theorem 1 workloads. Untraced repetitions call
//! `partition_broadcast_retrying` exactly as `fastbcast broadcast` does;
//! traced repetitions run a replica of `partition_broadcast_hosted`
//! composed here from the public pieces, with a span around every
//! `PhaseHost::run`, and must reproduce the driver's `PhaseLog`.

use crate::harness::{Rep, Workload};
use crate::metrics::{Metrics, PHASES};
use crate::trace::Tracer;
use congest_core::bfs::{BfsProtocol, SubgraphBfs};
use congest_core::broadcast::{
    partition_broadcast_retrying, BroadcastConfig, BroadcastError, ParallelPipeline,
    DEFAULT_PARTITION_C,
};
use congest_core::convergecast::{Numbering, TreeView};
use congest_core::leader::FloodMax;
use congest_core::partition::EdgePartitionProtocol;
use congest_core::pipeline::{expected_checksums, PipeCore, PipeMsg};
use congest_core::{textbook_broadcast, BroadcastInput, PartitionParams};
use congest_graph::algo::edge_connectivity;
use congest_graph::generators::harary;
use congest_graph::{Graph, Node};
use congest_sim::rng::{mix64, phase_seed};
use congest_sim::{EngineConfig, PhaseHost, PhaseLog, RunStats};
use std::time::Instant;

/// Partition attempts the retry wrapper may take, as in `cmd_broadcast`.
const ATTEMPTS: usize = 30;

/// Span names of the six phases, index-aligned with [`PHASES`].
const PHASE_SPANS: [&str; 6] = [
    "core.phase.leader-election",
    "core.phase.bfs",
    "core.phase.numbering",
    "core.phase.edge-partition",
    "core.phase.subgraph-bfs",
    "core.phase.parallel-routing",
];

pub struct Size {
    /// `harary(lambda, n)`.
    pub lambda: usize,
    pub n: usize,
    pub k: usize,
    /// 0: one broadcast of `k` messages spread at random over the nodes,
    /// λ measured by `edge_connectivity` as the CLI does. Otherwise: that
    /// many broadcasts per repetition, each of `k` messages from a
    /// different single source, λ known by construction.
    pub sources: usize,
}

pub fn size(workload: &str, smoke: bool) -> Size {
    match (workload, smoke) {
        ("thm1_routing", false) => Size {
            lambda: 128,
            n: 1024,
            k: 8 * 1024,
            sources: 0,
        },
        ("thm1_routing", true) => Size {
            lambda: 32,
            n: 256,
            k: 16 * 256,
            sources: 0,
        },
        ("thm1_sources", false) => Size {
            lambda: 64,
            n: 8192,
            k: 64,
            sources: 4,
        },
        ("thm1_sources", true) => Size {
            lambda: 64,
            n: 1024,
            k: 64,
            sources: 4,
        },
        _ => unreachable!("not a thm1 workload: {workload}"),
    }
}

/// A `PhaseLog` in comparable form: name, stats and state hash per phase.
type LogKey = Vec<(String, RunStats, Option<u64>)>;

fn log_key(log: &PhaseLog) -> LogKey {
    log.phases()
        .zip(log.hashes())
        .map(|((name, stats), (_, hash))| (name.to_string(), *stats, hash))
        .collect()
}

pub struct Thm1 {
    size: Size,
    g: Graph,
    lambda: usize,
    params: PartitionParams,
    inputs: Vec<BroadcastInput>,
    cfg: BroadcastConfig,
    seed: u64,
    /// The driver's `PhaseLog` and attempt count per broadcast, from the
    /// first repetition; every later repetition — driver or replica —
    /// must reproduce it.
    reference: Vec<(LogKey, usize)>,
}

impl Thm1 {
    /// Set-up as `fastbcast broadcast` does it: generator, λ, input.
    pub fn setup(size: Size, seed: u64, tracer: &mut Tracer) -> Thm1 {
        let g = tracer.span("graph.build", || harary(size.lambda, size.n));
        let lambda = if size.sources == 0 {
            tracer.span("graph.edge_connectivity", || edge_connectivity(&g))
        } else {
            size.lambda // harary(λ, n) is λ-edge-connected; Dinic at this n takes minutes
        };
        assert_eq!(lambda, size.lambda, "harary(λ, n) has edge connectivity λ");
        let inputs = if size.sources == 0 {
            vec![BroadcastInput::random_spread(&g, size.k, seed)]
        } else {
            // Sources come in antipodal pairs v, v + n/2 with v drawn from
            // the seed: harary(λ, n) is a circulant, so the hop distances
            // of such a pair from any root add up to the same number, and
            // the rounds of a repetition do not depend on where the seed
            // happens to put the sources (unpaired, `sim_rounds` moved
            // 4.6 % between seeds — close to its whole bound).
            let n = g.n() as u64;
            (0..size.sources as u64)
                .map(|i| {
                    let v = mix64(mix64(seed) ^ (i / 2)) % n;
                    let source = ((v + (i % 2) * (n / 2)) % n) as Node;
                    BroadcastInput::at_single_node(&g, source, size.k)
                })
                .collect()
        };
        Thm1 {
            params: PartitionParams::from_lambda(g.n(), lambda, DEFAULT_PARTITION_C),
            cfg: BroadcastConfig::with_seed(seed),
            size,
            g,
            lambda,
            inputs,
            seed,
            reference: Vec::new(),
        }
    }

    /// Hold one broadcast's result to the oracles: delivered everywhere,
    /// and the same `PhaseLog` (rounds, messages, state hashes) and
    /// attempt count as the first driver run of that broadcast.
    fn check(
        &mut self,
        i: usize,
        who: &str,
        delivered: bool,
        log: &PhaseLog,
        attempts: usize,
    ) -> u64 {
        let key = (log_key(log), attempts);
        if self.reference.len() == i {
            self.reference.push(key.clone());
        }
        if !delivered {
            eprintln!("broadcast {i} ({who}): not all messages delivered");
            return 1;
        }
        if self.reference[i] != key {
            let at = self.reference[i].0.iter().zip(&key.0).find(|(a, b)| a != b);
            let at = at.map_or("phase or attempt count", |(a, _)| a.0.as_str());
            eprintln!("broadcast {i} ({who}): PhaseLog differs from the driver's at {at}");
            return 1;
        }
        0
    }
}

impl Workload for Thm1 {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep {
            steps_s: Vec::with_capacity(self.inputs.len()),
            latencies_ms: Vec::with_capacity(self.inputs.len()),
            ops: self.inputs.len() as u64,
            failed: 0,
            sim_rounds: 0,
            messages: 0,
        };
        for i in 0..self.inputs.len() {
            let t = Instant::now();
            let result = if tracer.enabled() {
                replica(&self.g, &self.inputs[i], self.params, &self.cfg, tracer)
            } else {
                partition_broadcast_retrying(
                    &self.g,
                    &self.inputs[i],
                    self.params,
                    &self.cfg,
                    ATTEMPTS,
                )
                .map(|(out, attempts)| Finished {
                    delivered: out.all_delivered(),
                    phases: out.phases,
                    attempts,
                })
            };
            let dt = t.elapsed().as_secs_f64();
            rep.steps_s.push(dt);
            rep.latencies_ms.push(dt * 1e3);
            match result {
                Ok(done) => {
                    let who = if tracer.enabled() {
                        "replica"
                    } else {
                        "driver"
                    };
                    rep.failed += self.check(i, who, done.delivered, &done.phases, done.attempts);
                    rep.sim_rounds += done.phases.total_rounds();
                    rep.messages += done.phases.total().total_messages;
                }
                Err(e) => {
                    eprintln!("broadcast {i}: {e}");
                    rep.failed += 1;
                }
            }
        }
        rep
    }

    fn probe_graph(&self) -> &Graph {
        &self.g
    }

    fn layers(&mut self, tracer: &mut Tracer, traced: u32, _wall_s: f64, out: &mut Metrics) -> u64 {
        let per_rep = |name: &str| tracer.seconds(name, traced);
        let total = per_rep("core.broadcast");
        let n = self.g.n() as f64;
        let mut phase_sum = 0.0;
        let mut independent = 0.0;
        for (p, phase) in PHASES.iter().enumerate() {
            let secs = per_rep(PHASE_SPANS[p]);
            let (rounds, msgs) = self
                .reference
                .iter()
                .fold((0u64, 0u64), |(r, m), (log, _)| {
                    (r + log[p].1.rounds, m + log[p].1.total_messages)
                });
            out.set(&format!("core.phase_s.{phase}"), secs);
            out.set(&format!("core.phase_rounds.{phase}"), rounds as f64);
            out.set(&format!("core.phase_msgs.{phase}"), msgs as f64);
            out.set(&format!("sim.ns_per_msg.{phase}"), secs * 1e9 / msgs as f64);
            out.set(
                &format!("sim.ns_per_node_round.{phase}"),
                secs * 1e9 / (n * rounds as f64),
            );
            phase_sum += secs;
            if matches!(p, 0 | 1 | 3 | 4) {
                independent += secs;
            }
        }
        out.set("core.glue_s", total - phase_sum);
        out.set("core.source_independent_frac", independent / total);

        let broadcasts = self.reference.len() as f64;
        let totals: Vec<RunStats> = self
            .reference
            .iter()
            .map(|(log, _)| log.iter().fold(RunStats::default(), |acc, e| acc.then(e.1)))
            .collect();
        let rounds_per_broadcast = totals.iter().map(|s| s.rounds).sum::<u64>() as f64 / broadcasts;
        let attempts = self.reference.iter().map(|(_, a)| *a).sum::<usize>() as f64;
        out.set("core.partition_attempts", attempts / broadcasts);
        out.set(
            "core.bound_ratio",
            rounds_per_broadcast / ((n + self.size.k as f64) / self.lambda as f64 * n.ln()),
        );
        out.set(
            "core.max_edge_congestion",
            totals
                .iter()
                .map(|s| s.max_edge_congestion)
                .max()
                .unwrap_or(0) as f64,
        );
        out.set(
            "core.max_message_bits",
            totals.iter().map(|s| s.max_message_bits).max().unwrap_or(0) as f64,
        );

        // The O(D + k) single-tree baseline, where k is large enough for
        // the comparison to mean something.
        let mut mismatches = 0;
        if self.size.sources == 0 {
            let tb = tracer.span("core.textbook", || {
                textbook_broadcast(&self.g, &self.inputs[0], self.seed)
            });
            match tb {
                Ok(tb) if tb.all_delivered() => {
                    let secs: f64 = tracer.named("core.textbook").map(|s| s.seconds()).sum();
                    out.set("core.textbook_s", secs);
                    out.set(
                        "core.rounds_vs_textbook",
                        rounds_per_broadcast / tb.total_rounds as f64,
                    );
                }
                _ => {
                    eprintln!("textbook baseline failed to deliver");
                    mismatches += 1;
                }
            }
        }
        mismatches
    }
}

struct Finished {
    delivered: bool,
    phases: PhaseLog,
    attempts: usize,
}

/// `partition_broadcast_retrying` re-composed from public pieces: the
/// retry loop of `partition_broadcast_retrying_hosted` around the six
/// phases of `partition_broadcast_hosted`, statement for statement, with a
/// span around each `host.run`. Everything between the spans — payload
/// bucketing, id assignment, `TreeView` construction, checksums, the
/// engine build — is the driver's self time (`core.glue_s`).
fn replica(
    g: &Graph,
    input: &BroadcastInput,
    params: PartitionParams,
    cfg: &BroadcastConfig,
    tracer: &mut Tracer,
) -> Result<Finished, BroadcastError> {
    let whole = tracer.enter("core.broadcast");
    let mut host = tracer.span("core.host_new", || PhaseHost::resident(g));
    let mut attempt = 0;
    let result = loop {
        let seed = cfg.seed.wrapping_add(attempt as u64 * 0x9E37_79B9);
        match replica_attempt(&mut host, input, params, seed, cfg.max_rounds, tracer) {
            Err(BroadcastError::NotSpanning { .. }) if attempt + 1 < ATTEMPTS => attempt += 1,
            other => {
                break other.map(|(delivered, phases)| Finished {
                    delivered,
                    phases,
                    attempts: attempt + 1,
                })
            }
        }
    };
    tracer.exit(whole);
    result
}

fn replica_attempt(
    host: &mut PhaseHost<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    seed: u64,
    max_rounds: u64,
    tracer: &mut Tracer,
) -> Result<(bool, PhaseLog), BroadcastError> {
    let engine =
        |phase: u64| EngineConfig::with_seed(phase_seed(seed, phase)).max_rounds(max_rounds);
    let n = host.graph().n();
    let k = input.k() as u64;
    let lp = params.num_subgraphs;
    let mut phases = PhaseLog::new();

    let open = tracer.enter(PHASE_SPANS[0]);
    let leaders = host.run(|v, _| FloodMax::new(v), engine(1));
    tracer.exit(open);
    let leaders = leaders?;
    let st = leaders.stats;
    let root = leaders.outputs()[0].leader;
    drop(leaders);
    phases.record_hashed(PHASES[0], st, host.state_hash());

    let open = tracer.enter(PHASE_SPANS[1]);
    let bfs = host.run(|v, _| BfsProtocol::new(root, v), engine(2));
    tracer.exit(open);
    let bfs = bfs?;
    let st = bfs.stats;
    let views: Vec<TreeView> = bfs.outputs().iter().map(TreeView::from_bfs).collect();
    drop(bfs);
    phases.record_hashed(PHASES[1], st, host.state_hash());

    let payloads = input.payloads_by_node(n);
    let open = tracer.enter(PHASE_SPANS[2]);
    let numbering = host.run(
        |v, _| Numbering::new(views[v as usize].clone(), payloads[v as usize].len() as u64),
        engine(3),
    );
    tracer.exit(open);
    let numbering = numbering?;
    let st = numbering.stats;
    let ids_by_node: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let (start, _) = numbering.outputs()[v];
            (0..payloads[v].len() as u64)
                .map(|j| (start + j) as u32)
                .collect()
        })
        .collect();
    drop(numbering);
    phases.record_hashed(PHASES[2], st, host.state_hash());

    let open = tracer.enter(PHASE_SPANS[3]);
    let partition = host.run(
        |v, gr| EdgePartitionProtocol::new(v, seed, lp, gr.degree(v)),
        engine(4),
    );
    tracer.exit(open);
    let partition = partition?;
    let st = partition.stats;
    let port_colors: Vec<Vec<u32>> = partition.take_outputs();
    phases.record_hashed(PHASES[3], st, host.state_hash());

    let open = tracer.enter(PHASE_SPANS[4]);
    let sub_bfs = host.run(
        |v, _| SubgraphBfs::new(root, v, port_colors[v as usize].clone(), lp),
        engine(5),
    );
    tracer.exit(open);
    let sub_bfs = sub_bfs?;
    let st = sub_bfs.stats;
    let sub_bfs = sub_bfs.take_outputs();
    phases.record_hashed(PHASES[4], st, host.state_hash());
    for c in 0..lp {
        let unreached = sub_bfs.iter().filter(|infos| !infos[c].reached).count();
        if unreached > 0 {
            return Err(BroadcastError::NotSpanning {
                subgraph: c as u32,
                unreached,
            });
        }
    }

    let cap = k.max(1).div_ceil(lp as u64);
    let color_of_id = |id: u32| ((id as u64 / cap).min(lp as u64 - 1)) as usize;
    let mut k_per_class = vec![0u64; lp];
    for ids in &ids_by_node {
        for &id in ids {
            k_per_class[color_of_id(id)] += 1;
        }
    }
    let open = tracer.enter(PHASE_SPANS[5]);
    let routing = host.run(
        |v, _| {
            let vi = v as usize;
            let cores = (0..lp)
                .map(|c| {
                    let own: Vec<PipeMsg> = ids_by_node[vi]
                        .iter()
                        .zip(payloads[vi].iter())
                        .filter(|(&id, _)| color_of_id(id) == c)
                        .map(|(&id, &payload)| PipeMsg { id, payload })
                        .collect();
                    PipeCore::new(
                        TreeView::from_bfs(&sub_bfs[vi][c]),
                        k_per_class[c],
                        own,
                        false,
                    )
                })
                .collect();
            ParallelPipeline::new(cores)
        },
        engine(6),
    );
    tracer.exit(open);
    let routing = routing?;
    let st = routing.stats;
    let per_node = routing.take_outputs();
    phases.record_hashed(PHASES[5], st, host.state_hash());

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
    let delivered = per_node
        .iter()
        .all(|r| r.delivered == k && (r.xor_check, r.sum_check) == expected);
    Ok((delivered, phases))
}
