//! The two serve workloads: one closed-loop client against a long-lived
//! `PoolServer`, the way `fastbcast serve` drives it — except that the
//! client uses `try_submit` + explicit `drain` and never
//! `PoolServer::submit` (see README, "Known hazard").

use crate::harness::{Rep, Workload};
use crate::metrics::Metrics;
use crate::stats::percentile;
use crate::trace::Tracer;
use congest_graph::generators::{harary, hypercube, random_regular, torus2d};
use congest_graph::{Graph, Node};
use congest_sim::rng::mix64;
use congest_sim::{
    run_job_isolated, EngineConfig, EvictionPolicy, FaultPlan, GraphKey, Job, JobOutput, JobSpec,
    JobStatus, PoolError, PoolServer, RunStats,
};
use std::time::Instant;

const TENANTS: u64 = 4;

pub struct Size {
    /// Divides every graph's node count (1, or 16 for the smoke run).
    shrink: usize,
    fragmented: bool,
    jobs: usize,
    queue: usize,
    /// The traced run re-runs every `isolate_every`-th job alone on a
    /// fresh session; the untraced run checks a quarter of those.
    isolate_every: usize,
}

pub fn size(workload: &str, smoke: bool) -> Size {
    let shrink = if smoke { 16 } else { 1 };
    match workload {
        "serve_batched" => Size {
            shrink,
            fragmented: false,
            jobs: 768 / shrink,
            queue: 256,
            isolate_every: 8,
        },
        "serve_fragmented" => Size {
            shrink,
            fragmented: true,
            jobs: 192 / shrink.min(4),
            queue: 16,
            isolate_every: 1,
        },
        _ => unreachable!("not a serve workload: {workload}"),
    }
}

/// The registered topologies. `serve_batched`: two small warm graphs every
/// job lands on. `serve_fragmented`: twelve graphs of 3–4.5 k nodes from
/// four families, three times what the pool may keep.
fn graphs(size: &Size, seed: u64) -> Vec<Graph> {
    let s = size.shrink;
    if !size.fragmented {
        return vec![harary(8, 1024 / s), harary(16, 1024 / s)];
    }
    let side = if s == 1 { 1 } else { 4 }; // a torus shrinks per dimension
    let mut all = vec![
        harary(6, 3072 / s),
        harary(8, 3584 / s),
        harary(10, 4096 / s),
        harary(12, 4608 / s),
        torus2d(56 / side, 56 / side),
        torus2d(60 / side, 64 / side),
        torus2d(64 / side, 68 / side),
        hypercube(if s == 1 { 12 } else { 8 }),
    ];
    all.extend([4, 6, 8, 10].map(|d| random_regular(4096 / s, d, mix64(seed ^ d as u64))));
    all
}

/// One job before the seed touches it: graph, family (0 flood-max,
/// 1 rumor, 2 gossip), gossip length, whether a fault plan rides along.
type Slot = (usize, u8, u64, bool);

/// The job stream: a fixed multiset of [`Slot`]s — every graph gets the
/// same number of jobs, the family mix is exact, and on `serve_fragmented`
/// every (graph, family) pair has half its jobs faulted — cut once, the
/// same way at every seed, into queue-sized blocks. The seed orders the
/// blocks and the jobs inside each, and draws rumor sources, job seeds and
/// fault plans. A drain takes exactly one block, so what meets what in a
/// drain — and with it the batched share — is the same at every seed:
/// first sizing shuffled the whole stream, and `wall_s` moved 20 % between
/// seeds with the number of flood-max pairs that happened to share a
/// drain (a 2-lane wide flood costs ≈ 2.5× its two solo runs).
fn jobs(size: &Size, graphs: &[Graph], keys: &[GraphKey], seed: u64) -> Vec<(usize, Job)> {
    let mut slots: Vec<Slot> = (0..size.jobs)
        .map(|i| {
            let gi = i % graphs.len();
            let turn = i / graphs.len();
            if size.fragmented {
                // 1:1:1 flood / rumor / gossip; `turn / 3` counts the
                // jobs of this family on this graph.
                let nth = (turn / 3) as u64;
                (
                    gi,
                    ((turn + gi) % 3) as u8,
                    8 + (nth + gi as u64) % 8,
                    nth % 2 == 1,
                )
            } else {
                (gi, (turn % 4 != 3) as u8, 0, false) // 75 % rumor, 25 % flood
            }
        })
        .collect();
    shuffle(&mut slots, 0xB10C);
    let mut blocks: Vec<&mut [Slot]> = slots.chunks_mut(size.queue).collect();
    shuffle(&mut blocks, seed);
    for (b, block) in blocks.iter_mut().enumerate() {
        shuffle(block, seed ^ mix64(b as u64 + 1));
    }
    let ordered: Vec<Slot> = blocks.into_iter().flat_map(|b| b.iter().copied()).collect();
    ordered
        .into_iter()
        .enumerate()
        .map(|(j, (gi, family, rounds, faulted))| {
            let j = j as u64;
            let protocol = match family {
                0 => JobSpec::FloodMax,
                1 => JobSpec::Rumor {
                    source: (mix64(seed ^ j) % graphs[gi].n() as u64) as Node,
                },
                _ => JobSpec::Gossip { rounds },
            };
            let job = Job {
                graph: keys[gi],
                protocol,
                seed: mix64(seed ^ mix64(j)),
                faults: faulted.then(|| FaultPlan::new(4, mix64(seed ^ 0xFA17 ^ j))),
                tenant: (j % TENANTS) as u32,
            };
            (gi, job)
        })
        .collect()
}

/// Fisher–Yates driven by `mix64`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix64(seed ^ mix64(0x5EED ^ i as u64)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What the pool's counters moved by during one repetition.
#[derive(Default, Clone, Copy)]
struct Counters {
    drains: u64,
    reregistrations: u64,
    hits: u64,
    misses: u64,
    graph_evictions: u64,
    warm_evictions: u64,
    batched: u64,
    refilled: u64,
    solo: u64,
    warm_bytes: u64,
    dropped: u64,
    rounds: u64,
}

pub struct Serve {
    size: Size,
    graphs: Vec<Graph>,
    jobs: Vec<(usize, Job)>,
    server: PoolServer,
    /// Digest of every job's output from the first repetition; later
    /// repetitions and the isolated runs must reproduce it.
    reference: Vec<u64>,
    /// `stats.rounds` of the rumor jobs (the completion-round
    /// distribution).
    rumor_rounds: Vec<f64>,
    /// Counters of the latest repetition; they follow from the job stream,
    /// not from timing, so any warm repetition gives the same picture.
    last: Counters,
}

impl Serve {
    pub fn setup(size: Size, seed: u64, tracer: &mut Tracer) -> Serve {
        let graphs = tracer.span("graph.build", || graphs(&size, seed));
        let mut server = PoolServer::new(EngineConfig::default(), size.queue);
        if size.fragmented {
            server.pool_mut().set_warm_limit(1);
            server.pool_mut().set_policy(EvictionPolicy {
                max_graphs: 4,
                max_warm_bytes: usize::MAX,
            });
        }
        let keys: Vec<GraphKey> = graphs
            .iter()
            .map(|g| {
                let copy = g.clone();
                tracer.span("pool.register", || server.register_graph(copy))
            })
            .collect();
        let jobs = jobs(&size, &graphs, &keys, seed);
        Serve {
            size,
            graphs,
            jobs,
            server,
            reference: Vec::new(),
            rumor_rounds: Vec::new(),
            last: Counters::default(),
        }
    }

    /// Re-run every `every`-th job alone on a fresh `Session` and compare
    /// outputs and `RunStats` with what the server returned. Returns
    /// (jobs re-run, mismatches).
    fn check_isolated(&self, every: usize) -> (usize, u64) {
        let config = EngineConfig::default();
        let mut mismatches = 0;
        let picked = (0..self.jobs.len()).step_by(every);
        let count = picked.len();
        for j in picked {
            let (gi, job) = &self.jobs[j];
            let alone = run_job_isolated(
                &self.graphs[*gi],
                &job.protocol,
                job.seed,
                job.faults,
                &config,
            );
            let same =
                alone.is_ok_and(|(outputs, stats)| digest(&outputs, &stats) == self.reference[j]);
            if !same {
                eprintln!("job {j}: server output differs from the isolated run");
                mismatches += 1;
            }
        }
        (count, mismatches)
    }
}

/// Order-sensitive digest of one job's outputs and meters.
fn digest(outputs: &[u64], stats: &RunStats) -> u64 {
    let meters = [
        stats.rounds,
        stats.iterations,
        stats.total_messages,
        stats.max_edge_congestion,
        stats.max_message_bits as u64,
        stats.dropped_messages,
    ];
    outputs
        .iter()
        .chain(&meters)
        .fold(outputs.len() as u64, |h, &x| mix64(h ^ x))
}

impl Workload for Serve {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let pool = self.server.pool();
        let before = Counters {
            hits: pool.hits(),
            misses: pool.misses(),
            graph_evictions: pool.graph_evictions(),
            warm_evictions: pool.warm_evictions(),
            batched: self.server.batched_jobs(),
            refilled: self.server.refilled_jobs(),
            solo: self.server.solo_jobs(),
            ..Counters::default()
        };
        let (mut drains, mut reregistrations) = (0, 0);
        let mut done: Vec<JobOutput> = Vec::with_capacity(self.jobs.len());
        let mut latencies_ms = Vec::with_capacity(self.jobs.len());
        // Accept times of the jobs queued since the last drain; outputs
        // surface when `drain` returns, so that is when their clock stops.
        let mut queued: Vec<Instant> = Vec::with_capacity(self.size.queue);
        // One step per drain: from the previous drain's return to this
        // one's, i.e. a queue-full of submissions and the drain they force.
        let mut steps_s = Vec::new();
        let mut step_start = Instant::now();
        let mut drain =
            |server: &mut PoolServer, queued: &mut Vec<Instant>, tracer: &mut Tracer| {
                tracer.span("pool.drain", || server.drain(&mut done));
                let t = Instant::now();
                latencies_ms.extend(queued.drain(..).map(|at| (t - at).as_secs_f64() * 1e3));
                steps_s.push((t - step_start).as_secs_f64());
                step_start = t;
                drains += 1;
            };

        for (gi, job) in &self.jobs {
            loop {
                let open = tracer.enter("pool.submit");
                let answer = self.server.try_submit(job.clone());
                tracer.exit(open);
                match answer {
                    Ok(_) => {
                        queued.push(Instant::now());
                        break;
                    }
                    Err(PoolError::Backpressure { .. }) => {
                        drain(&mut self.server, &mut queued, tracer)
                    }
                    // The eviction budget aged this job's graph out; keys
                    // are content fingerprints, so registering it again
                    // restores the same key, cold — as `cmd_serve` does.
                    Err(PoolError::UnknownGraph(_)) => {
                        let copy = self.graphs[*gi].clone();
                        tracer.span("pool.register", || self.server.register_graph(copy));
                        reregistrations += 1;
                    }
                }
            }
        }
        drain(&mut self.server, &mut queued, tracer);

        // Oracles, after the clock stopped: every job answered and `Done`,
        // outputs identical to the first repetition's.
        let mut failed = self.jobs.len().abs_diff(done.len()) as u64;
        let first = self.reference.is_empty();
        for (j, out) in done.iter().enumerate().take(self.jobs.len()) {
            let d = digest(&out.outputs, &out.stats);
            if first {
                self.reference.push(d);
                if matches!(self.jobs[j].1.protocol, JobSpec::Rumor { .. }) {
                    self.rumor_rounds.push(out.stats.rounds as f64);
                }
            }
            if out.status != JobStatus::Done || out.outputs.len() != self.graphs[self.jobs[j].0].n()
            {
                eprintln!("job {j}: status {:?}", out.status);
                failed += 1;
            } else if d != self.reference[j] {
                eprintln!("job {j}: output differs from the first repetition's");
                failed += 1;
            }
        }
        if first {
            // Once per run, on the warm-up's outputs: a spot check in
            // every run, the full arm (`layers`) in a traced run.
            failed += self.check_isolated(self.size.isolate_every * 4).1;
        }

        let sim_rounds = done.iter().map(|o| o.stats.rounds).sum();
        let pool = self.server.pool();
        self.last = Counters {
            drains,
            reregistrations,
            hits: pool.hits() - before.hits,
            misses: pool.misses() - before.misses,
            graph_evictions: pool.graph_evictions() - before.graph_evictions,
            warm_evictions: pool.warm_evictions() - before.warm_evictions,
            batched: self.server.batched_jobs() - before.batched,
            refilled: self.server.refilled_jobs() - before.refilled,
            solo: self.server.solo_jobs() - before.solo,
            warm_bytes: pool.warm_bytes_total() as u64,
            dropped: done.iter().map(|o| o.stats.dropped_messages).sum(),
            rounds: sim_rounds,
        };

        Rep {
            steps_s,
            latencies_ms,
            ops: self.jobs.len() as u64,
            failed,
            sim_rounds,
            messages: done.iter().map(|o| o.stats.total_messages).sum(),
        }
    }

    fn probe_graph(&self) -> &Graph {
        &self.graphs[0]
    }

    fn layers(&mut self, tracer: &mut Tracer, traced: u32, wall_s: f64, out: &mut Metrics) -> u64 {
        let per_rep = |name: &str| tracer.seconds(name, traced);
        let jobs = self.jobs.len() as f64;
        let c = self.last;
        let registrations: Vec<f64> = tracer.named("pool.register").map(|s| s.seconds()).collect();
        out.set(
            "pool.register_s",
            registrations.iter().sum::<f64>() / registrations.len() as f64,
        );
        out.set("pool.submit_s", per_rep("pool.submit"));
        out.set("pool.drain_s", per_rep("pool.drain"));
        out.set("pool.drains", c.drains as f64);
        out.set("pool.jobs_per_drain", jobs / c.drains as f64);
        out.set("pool.hits", c.hits as f64);
        out.set("pool.misses", c.misses as f64);
        out.set("pool.hit_ratio", c.hits as f64 / (c.hits + c.misses) as f64);
        out.set("pool.graph_evictions", c.graph_evictions as f64);
        out.set("pool.warm_evictions", c.warm_evictions as f64);
        out.set("pool.reregistrations", c.reregistrations as f64);
        out.set("pool.warm_bytes", c.warm_bytes as f64);
        out.set("pool.batched_jobs", c.batched as f64);
        out.set("pool.refilled_jobs", c.refilled as f64);
        out.set("pool.solo_jobs", c.solo as f64);
        out.set("pool.batched_frac", c.batched as f64 / jobs);
        out.set("pool.job_rounds_per_s", c.rounds as f64 / wall_s);
        out.set("pool.dropped_msgs", c.dropped as f64);
        out.set("pool.rumor_rounds_p50", percentile(&self.rumor_rounds, 0.5));
        out.set("pool.rumor_rounds_max", percentile(&self.rumor_rounds, 1.0));

        // The isolated arm is both the oracle and the cross-checked base
        // of `pool.speedup_vs_isolated`: one fresh `Session` per job,
        // scaled from the subset to the full job count.
        let (count, mismatches) = tracer.span("pool.isolated", || {
            self.check_isolated(self.size.isolate_every)
        });
        let isolated_s = tracer
            .named("pool.isolated")
            .map(|s| s.seconds())
            .sum::<f64>()
            * jobs
            / count as f64;
        out.set("pool.isolated_s", isolated_s);
        out.set("pool.speedup_vs_isolated", isolated_s / wall_s);
        mismatches
    }
}
