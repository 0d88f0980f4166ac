//! The four CI gates: pass/fail ratios, each against an arm it is
//! cross-checked bit-identical to before anything is timed.
//!
//! | gate | arm vs arm | bar |
//! |---|---|---|
//! | `churn_repair` | incremental phase-boundary repair vs `GraphBuilder::build` + `Session::new` | geomean ≥ 1.0 (0.9 in smoke) |
//! | `wide_batch` | 32 rumor lanes through one `Session::run_wide` sweep vs one sequential `Session::run` | ≥ 4× |
//! | `wide_tail` | one `run_refill` drain vs 32-lane chunked runs on a staggered-termination mix | ≥ 1.5× |
//! | `serve` | `PoolServer` batching drain vs one fresh `Session` per job | ≥ 2× |
//!
//! A gate that holds prints `GATE <name> <ratio> >= <bar> ok`; one that
//! does not prints a `REGRESSION-MARKER` line. CI requires the first and
//! refuses the second, so a section that silently did not run fails too.
//! Nothing is recorded: every recorded number in the repository comes
//! from `benchmark/` (parent-vs-change pairs, per-metric bounds), and
//! these four move there as workloads with `compare` bounds — they stay
//! here until then because the rumor mixes they time (thin wavefronts on
//! `harary(6, n)`, staggered tails) are a regime none of `benchmark/`'s
//! workloads enters yet. What this file used to race and record besides
//! (the packed plane vs the reference interpreter, the shard-scaling
//! curve) is in DESIGN.md §10 with its last numbers.
//!
//! **Smoke mode** (`SIM_BENCH_SMOKE=1`): shrinks every dimension so CI
//! can run all four in seconds with every cross-check kept.
//! `SIM_BENCH_SECTION=serve|wide_tail` runs only that section.

use congest_graph::generators::harary;
use congest_sim::{EngineConfig, NodeCtx, Protocol};
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("SIM_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// The phase the churn gate's cross-check runs on the repaired session
/// and on a fresh one: every node sends a 64-bit counter on every port,
/// every round, and folds everything it hears.
struct DenseChatter {
    acc: u64,
    until: u64,
}

impl DenseChatter {
    fn new(until: u64) -> Self {
        DenseChatter { acc: 1, until }
    }
}

impl Protocol for DenseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.round < self.until {
            ctx.send_all(self.acc.wrapping_add(ctx.round));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Lane-salted QUIESCENT rumor flood for the wide-batch arm: lane `l`'s
/// rumor starts at a lane-dependent source and floods the circulant,
/// each node relaying once in its adoption round. Every node is `done`
/// from round 0 on, so outside the O(degree)-wide frontier a lane's
/// nodes are done-and-silent — the regime where the wide kernel's
/// active-lane word skips the node step outright, while the sequential
/// engine still pays one step call per node per round. This is the
/// "many sparse runs" shape the wide kernel exists for.
#[derive(Clone)]
struct LaneRumor {
    me: u32,
    src: u32,
    heard: bool,
    acc: u64,
}

impl LaneRumor {
    fn new(node: u32, salt: u64, n: usize) -> Self {
        let h = congest_sim::rng::mix64(0xB47C ^ salt);
        LaneRumor {
            me: node,
            src: (h % n as u64) as u32,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for LaneRumor {
    type Msg = u64;
    type Output = u64;
    /// State mutates and sends happen only at round 0 (the source's
    /// announcement) or on message arrival (adoption + relay), so a
    /// done round with an empty inbox is a semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if ctx.round == 0 && self.me == self.src && !self.heard {
            self.heard = true;
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// [`LaneRumor`] with a staggered tail for the wide-tail bench: the
/// rumor floods as usual, then the *source* lingers, pulsing port 0
/// every round until its lane-local round reaches `linger`. Jobs get
/// lingers of very different lengths, so a chunked wide run holds its
/// full width hostage to each chunk's slowest lane — the regime lane
/// compaction (narrowing the sweep) and mid-sweep refill (retired slots
/// keep earning) exist for.
#[derive(Clone)]
struct TailRumor {
    me: u32,
    src: u32,
    linger: u64,
    heard: bool,
    acc: u64,
}

impl TailRumor {
    fn new(node: u32, salt: u64, n: usize, linger: u64) -> Self {
        let h = congest_sim::rng::mix64(0x7A11 ^ salt);
        TailRumor {
            me: node,
            src: (h % n as u64) as u32,
            linger,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for TailRumor {
    type Msg = u64;
    type Output = u64;
    /// Sends and state changes happen only at round 0, on message
    /// arrival, or at the lingering source — which stays not-done until
    /// its pulses stop — so a done round with an empty inbox is a
    /// semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if self.me == self.src {
            if ctx.round == 0 && !self.heard {
                self.heard = true;
                ctx.send_all(self.acc | 1);
            } else if ctx.round < self.linger {
                ctx.send(0, self.acc.wrapping_add(ctx.round) | 1);
            }
            ctx.set_done(ctx.round >= self.linger);
            return;
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

fn best_of<F: FnMut() -> u64>(samples: usize, mut f: F) -> u128 {
    let mut best = u128::MAX;
    let mut sink = 0u64;
    for _ in 0..samples {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos());
    }
    black_box(sink);
    best
}

fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for v in vals {
        sum += v.ln();
        count += 1;
    }
    (sum / count.max(1) as f64).exp()
}

/// One row of the churn-repair race: a remove batch applied and then
/// re-added at a phase boundary, incremental arm vs full rebuild. Both
/// numbers are **ns per mutation batch** (one `apply_pending`, i.e. one
/// graph splice + engine repair, vs one `GraphBuilder::build` + one
/// `Session::new`).
struct ChurnRepairRow {
    graph: String,
    batch: usize,
    incremental_ns: u128,
    rebuild_ns: u128,
}

impl ChurnRepairRow {
    fn speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.incremental_ns as f64
    }
}

/// Incremental repair vs full rebuild at phase boundaries. The workload
/// alternates a remove batch with the matching re-add batch, so the
/// topology (and therefore every repair's work size) is identical cycle
/// after cycle. The rebuild arm is given its edge lists for free — only
/// `GraphBuilder::build` + `Session::new` are timed — so the comparison
/// is pure construct-vs-repair.
fn bench_churn_repair() -> (Vec<ChurnRepairRow>, f64) {
    use congest_graph::GraphBuilder;
    use congest_sim::{ChurnSession, Mutation, Session};

    let (configs, cycles, samples) = if smoke() {
        (vec![(2_000usize, 16usize)], 2u32, 2usize)
    } else {
        (
            vec![(20_000usize, 16usize), (20_000, 256), (200_000, 64)],
            4u32,
            3usize,
        )
    };
    let mut rows = Vec::new();
    for (n, batch) in configs {
        let g = harary(16, n);
        let full: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u, v)).collect();
        // A well-spread batch: every (m / batch)-th edge of the canonical list.
        let step = full.len() / batch;
        let picked: Vec<(u32, u32)> = (0..batch).map(|i| full[i * step]).collect();
        let removed: Vec<(u32, u32)> = full
            .iter()
            .copied()
            .filter(|e| !picked.contains(e))
            .collect();

        let mut churn = ChurnSession::new(g.clone());
        let cycle = |churn: &mut ChurnSession| {
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::RemoveEdge(u, v));
            }
            churn.apply_pending().unwrap();
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::AddEdge(u, v));
            }
            churn.apply_pending().unwrap();
        };
        // Cross-check before timing: a full cycle must restore the exact
        // CSR (edge ids included), and a phase on the long-lived repaired
        // session must be bit-identical to one on a fresh session.
        cycle(&mut churn);
        assert_eq!(
            churn.graph(),
            &g,
            "churn_repair: remove+readd did not restore the graph"
        );
        let cfg = || EngineConfig::serial().seed(0xC842);
        let live = churn
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        let fresh = Session::new(&g)
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        assert_eq!(live, fresh, "churn_repair: repaired session diverged");
        // Warm a second cycle so the repair scratch (which ping-pongs
        // between two buffer sets) reaches steady state before timing.
        cycle(&mut churn);

        let incremental_total = best_of(samples, || {
            for _ in 0..cycles {
                cycle(&mut churn);
            }
            churn.graph().num_arcs() as u64
        });
        let rebuild_total = best_of(samples, || {
            let mut acc = 0u64;
            for _ in 0..cycles {
                for list in [&removed, &full] {
                    let g2 = GraphBuilder::new(n)
                        .edges(list.iter().copied())
                        .build()
                        .unwrap();
                    let sess = Session::new(&g2);
                    black_box(&sess);
                    acc = acc.wrapping_add(g2.num_arcs() as u64);
                }
            }
            acc
        });
        let events = (cycles as u128) * 2;
        rows.push(ChurnRepairRow {
            graph: format!("harary16_{n}"),
            batch,
            incremental_ns: incremental_total / events,
            rebuild_ns: rebuild_total / events,
        });
    }
    let geo = geomean(rows.iter().map(ChurnRepairRow::speedup));
    (rows, geo)
}

struct WideBatchRow {
    w: usize,
    ns: u128,
    inst_rounds_per_sec: f64,
    speedup_vs_seq: f64,
}

/// Wide-batch throughput: W independent sparse instances through one
/// [`congest_sim::Session::run_wide`] sweep vs the same instance through
/// `Session::run`, both single-core. Metric is instances·rounds
/// per second; the acceptance bar is W=32 ≥ 4× the sequential arm.
/// All 64 lanes are cross-checked bit-identical (outputs + stats)
/// against their per-lane sequential runs before any timing.
fn bench_wide_batch() -> (Vec<WideBatchRow>, f64) {
    use congest_sim::{LaneSpec, Session};

    let (n, samples) = if smoke() {
        (1024usize, 2usize)
    } else {
        (4096usize, 5usize)
    };
    let g = harary(6, n);
    let lane_seed = |l: usize| congest_sim::rng::mix64(0x57ED_BA7C ^ l as u64);
    let wide_cfg = EngineConfig::serial();
    let seq_cfg = |l: usize| EngineConfig::serial().seed(lane_seed(l));
    let lanes_for =
        |w: usize| -> Vec<LaneSpec> { (0..w).map(|l| LaneSpec::new(lane_seed(l))).collect() };

    let mut wide = Session::new(&g);

    // Cross-check the full width bit-identical before timing anything,
    // and record each lane's true round count for the throughput metric
    // (sources sit at different eccentricities, so lanes can differ).
    let lanes64 = lanes_for(64);
    let lane_rounds: Vec<u64> = {
        let out = wide
            .run_wide(
                &lanes64,
                |v, l, _| LaneRumor::new(v, l as u64, n),
                wide_cfg.clone(),
            )
            .unwrap();
        for l in 0..64 {
            let mut sess = Session::new(&g);
            let seq = sess
                .run(|v, _| LaneRumor::new(v, l as u64, n), seq_cfg(l))
                .unwrap();
            assert_eq!(
                out.stats(l),
                seq.stats,
                "wide_batch lane {l} stats diverged"
            );
            assert_eq!(
                out.outputs(l),
                seq.outputs(),
                "wide_batch lane {l} outputs diverged"
            );
        }
        (0..64).map(|l| out.stats(l).rounds).collect()
    };

    // Sequential arm: one instance per run on a resident Session.
    let seq_ns = {
        let mut sess = Session::new(&g);
        best_of(samples, || {
            let out = sess
                .run(|v, _| LaneRumor::new(v, 0, n), seq_cfg(0))
                .unwrap();
            out.outputs()[0]
        })
    };
    let seq_rate = lane_rounds[0] as f64 / (seq_ns as f64 / 1e9);

    let mut rows = Vec::new();
    for w in [1usize, 8, 32, 64] {
        let lanes = lanes_for(w);
        let ns = best_of(samples, || {
            let out = wide
                .run_wide(
                    &lanes,
                    |v, l, _| LaneRumor::new(v, l as u64, n),
                    wide_cfg.clone(),
                )
                .unwrap();
            out.outputs(0)[0]
        });
        let inst_rounds: u64 = lane_rounds[..w].iter().sum();
        let rate = inst_rounds as f64 / (ns as f64 / 1e9);
        rows.push(WideBatchRow {
            w,
            ns,
            inst_rounds_per_sec: rate,
            speedup_vs_seq: rate / seq_rate,
        });
    }
    let at_32 = rows
        .iter()
        .find(|r| r.w == 32)
        .map(|r| r.speedup_vs_seq)
        .unwrap_or(0.0);
    (rows, at_32)
}

struct WideTailRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Staggered-termination job stream through the wide kernel: J
/// lane-salted rumor floods whose sources linger for staggered spans,
/// with each 32-job chunk anchored by one job that lingers ~64x the
/// flood itself. Two arms, both single-core on one resident `Session`:
///
/// * `chunked` — 32-lane `run_wide()` per chunk: the sweep narrows as lanes
///   retire, but each chunk still waits for its slowest lane.
/// * `refill_steady` — one `run_refill` drain over the whole queue:
///   mid-sweep refill, so retired slots keep earning while stragglers
///   linger.
///
/// Every job of both arms is cross-checked bit-identical (outputs +
/// stats) against its isolated sequential `Session` run before any
/// timing. The acceptance bar: continuous batching (the refill arm)
/// ≥ 1.5x the chunked arm.
fn bench_wide_tail() -> (Vec<WideTailRow>, f64) {
    use congest_sim::{LaneSpec, RunStats, Session};

    let (n, jobs, samples) = if smoke() {
        (256usize, 96usize, 2usize)
    } else {
        (1024usize, 192usize, 5usize)
    };
    let w = 32usize;
    let g = harary(6, n);
    let job_seed = |j: usize| congest_sim::rng::mix64(0x7A11_C0DE ^ j as u64);
    let specs: Vec<LaneSpec> = (0..jobs).map(|j| LaneSpec::new(job_seed(j))).collect();
    let seq_cfg = |j: usize| EngineConfig::serial().seed(job_seed(j));

    // Tail lengths are keyed to the measured flood so the mix keeps its
    // shape across graph sizes: lane l of each chunk lingers l/8 floods
    // (staggered termination), and lane 0 anchors the chunk at 64
    // floods — the straggler the chunked arm must wait out chunk by
    // chunk, while the refill arm overlaps all the anchors.
    let flood_rounds = {
        let mut sess = Session::new(&g);
        let out = sess
            .run(|v, _| TailRumor::new(v, 1, n, 0), seq_cfg(1))
            .unwrap();
        out.stats.rounds
    };
    let linger = move |j: usize| {
        let lane = (j % w) as u64;
        if lane == 0 {
            64 * flood_rounds
        } else {
            lane * flood_rounds / 8
        }
    };
    let mk = move |v: u32, j: usize| TailRumor::new(v, j as u64, n, linger(j));

    // The isolated oracle, once per job: every arm below must reproduce
    // these outputs and stats bit-for-bit.
    let expected: Vec<(Vec<u64>, RunStats)> = (0..jobs)
        .map(|j| {
            let mut sess = Session::new(&g);
            let out = sess.run(|v, _| mk(v, j), seq_cfg(j)).unwrap();
            let stats = out.stats;
            (out.take_outputs(), stats)
        })
        .collect();

    let chunks: Vec<std::ops::Range<usize>> = (0..jobs)
        .step_by(w)
        .map(|lo| lo..(lo + w).min(jobs))
        .collect();
    let run_chunked = |wide: &mut Session<'_>, check: bool| -> u64 {
        let mut acc = 0u64;
        for chunk in &chunks {
            let lo = chunk.start;
            let out = wide
                .run_wide(
                    &specs[chunk.clone()],
                    |v, l, _| mk(v, lo + l),
                    EngineConfig::serial(),
                )
                .unwrap();
            for l in 0..chunk.len() {
                if check {
                    let (outputs, stats) = &expected[lo + l];
                    assert_eq!(
                        out.outputs(l),
                        &outputs[..],
                        "wide_tail job {} outputs diverged",
                        lo + l
                    );
                    assert_eq!(
                        &out.stats(l),
                        stats,
                        "wide_tail job {} stats diverged",
                        lo + l
                    );
                }
                acc ^= out.outputs(l)[0] ^ out.stats(l).rounds;
            }
        }
        acc
    };
    let run_refill = |wide: &mut Session<'_>, scratch: &mut Vec<u64>, check: bool| -> u64 {
        let mut acc = 0u64;
        let admitted = wide.run_refill::<TailRumor, _, _, _>(
            &specs[..w],
            |v, j, _| mk(v, j),
            EngineConfig::serial(),
            |job| (job < jobs).then(|| specs[job].clone()),
            |mut r| {
                r.take_outputs_into(scratch);
                if check {
                    let (outputs, stats) = &expected[r.job];
                    assert_eq!(
                        &scratch[..],
                        &outputs[..],
                        "wide_tail refill job {} outputs diverged",
                        r.job
                    );
                    assert_eq!(
                        &r.stats, stats,
                        "wide_tail refill job {} stats diverged",
                        r.job
                    );
                }
                acc ^= scratch[0] ^ r.stats.rounds ^ r.job as u64;
            },
        );
        assert_eq!(admitted, jobs, "wide_tail refill queue must drain");
        acc
    };

    // Cross-check both arms bit-identical before timing anything.
    let mut wide = Session::new(&g);
    let mut scratch: Vec<u64> = Vec::new();
    run_chunked(&mut wide, true);
    run_refill(&mut wide, &mut scratch, true);

    let chunked_ns = best_of(samples, || run_chunked(&mut wide, false));
    let refill_ns = best_of(samples, || run_refill(&mut wide, &mut scratch, false));

    let rate = |ns: u128| jobs as f64 / (ns as f64 / 1e9);
    let rows = vec![
        WideTailRow {
            arm: "chunked",
            wall_ns: chunked_ns,
            jobs_per_sec: rate(chunked_ns),
        },
        WideTailRow {
            arm: "refill_steady",
            wall_ns: refill_ns,
            jobs_per_sec: rate(refill_ns),
        },
    ];
    (rows, chunked_ns as f64 / refill_ns as f64)
}

struct ServeRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Serving-layer throughput: one multi-tenant rumor job stream over two
/// highly-connected circulants (the paper's regime; per-job sources,
/// seeds, and tenants) pushed through the `PoolServer`'s batching drain
/// — warm pooled states, compatible jobs grouped onto wide lane sweeps —
/// vs the same stream run one fresh `Session` per job
/// (`run_job_isolated`, the pool's oracle). Every output and stat is
/// cross-checked bit-identical before anything is timed. Returns the two
/// arms plus the batched-vs-isolated speedup.
///
/// The mix is deliberately all wide-worthy: rumor's thin wavefront is
/// where lane batching amortizes the arc sweep (measured ~3.7x at 32
/// lanes on `harary(6, 1024)`), while dense-head families like flood-max
/// run every lane hot simultaneously and batch roughly latency-neutral —
/// the policy tradeoff documented on `JobSpec::wide_worthy`.
fn bench_serve() -> (Vec<ServeRow>, f64) {
    use congest_sim::rng::mix64;
    use congest_sim::{run_job_isolated, Job, JobOutput, JobSpec, JobStatus, PoolServer};

    let (n, jobs_n, samples) = if smoke() {
        (1024usize, 64usize, 2usize)
    } else {
        (4096usize, 128usize, 5usize)
    };
    let graphs = [harary(6, n), harary(6, 3 * n / 4)];
    let cfg = EngineConfig::serial();

    // The stream: alternating graphs (the batcher has to regroup), every
    // job its own source and seed, tenants interleaved.
    let stream: Vec<(usize, JobSpec, u64, u32)> = (0..jobs_n)
        .map(|j| {
            let graph = j % 2;
            let spec = JobSpec::Rumor {
                source: (mix64(0x5E11 ^ j as u64) % graphs[graph].n() as u64) as u32,
            };
            (
                graph,
                spec,
                mix64(0x0B_5EED ^ mix64(j as u64)),
                (j % 4) as u32,
            )
        })
        .collect();

    let mut server = PoolServer::new(cfg.clone(), jobs_n);
    let keys = [
        server.register_graph(graphs[0].clone()),
        server.register_graph(graphs[1].clone()),
    ];
    let serve_once = |server: &mut PoolServer, out: &mut Vec<JobOutput>| {
        out.clear();
        for (graph, spec, seed, tenant) in &stream {
            server
                .submit(
                    Job {
                        graph: keys[*graph],
                        protocol: spec.clone(),
                        seed: *seed,
                        faults: None,
                        tenant: *tenant,
                    },
                    out,
                )
                .expect("graph is registered");
        }
        server.drain(out);
        out.sort_by_key(|o| o.id);
    };

    // Cross-check the whole stream bit-identical against the isolated
    // oracle before timing anything.
    let mut out = Vec::new();
    serve_once(&mut server, &mut out);
    assert_eq!(out.len(), stream.len());
    for ((graph, spec, seed, tenant), o) in stream.iter().zip(&out) {
        let (outputs, stats) = run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
        assert_eq!(o.status, JobStatus::Done, "serve job {:?} failed", o.id);
        assert_eq!(o.tenant, *tenant);
        assert_eq!(o.outputs, outputs, "serve job {:?} outputs diverged", o.id);
        assert_eq!(o.stats, stats, "serve job {:?} stats diverged", o.id);
    }
    assert!(
        server.batched_jobs() > server.solo_jobs(),
        "the mix must actually exercise wide batching ({} batched, {} solo)",
        server.batched_jobs(),
        server.solo_jobs()
    );

    // Batched arm: the resident server (pool stays warm across samples,
    // as in steady-state serving).
    let pooled_ns = best_of(samples, || {
        serve_once(&mut server, &mut out);
        out.iter().fold(0u64, |a, o| {
            a ^ o.outputs.first().copied().unwrap_or(0) ^ o.stats.total_messages
        })
    });
    // Isolated arm: one fresh session per job, same configs, same order.
    let isolated_ns = best_of(samples, || {
        stream.iter().fold(0u64, |a, (graph, spec, seed, _)| {
            let (outputs, stats) =
                run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
            a ^ outputs.first().copied().unwrap_or(0) ^ stats.total_messages
        })
    });

    let rate = |ns: u128| jobs_n as f64 / (ns as f64 / 1e9);
    let rows = vec![
        ServeRow {
            arm: "pool_batched",
            wall_ns: pooled_ns,
            jobs_per_sec: rate(pooled_ns),
        },
        ServeRow {
            arm: "session_per_job",
            wall_ns: isolated_ns,
            jobs_per_sec: rate(isolated_ns),
        },
    ];
    let speedup = isolated_ns as f64 / pooled_ns as f64;
    (rows, speedup)
}

/// The one line per gate CI counts: `GATE <name> <ratio> >= <bar> ok`
/// when the ratio clears its bar, the section's `REGRESSION-MARKER`
/// line when it does not (a NaN ratio does not).
fn gate(name: &str, ratio: f64, bar: f64, marker: String) {
    if ratio >= bar {
        println!("GATE {name} {ratio:.3} >= {bar:.2} ok");
    } else {
        println!("REGRESSION-MARKER: {marker}");
    }
}

fn run_churn_repair_section() {
    let (churn_repair, churn_repair_geomean) = bench_churn_repair();
    println!("\n| churn-repair graph | batch edges | incremental | rebuild | speedup |");
    println!("|---|---|---|---|---|");
    for r in &churn_repair {
        println!(
            "| {} | {} | {:.3} ms | {:.3} ms | {:.2}x |",
            r.graph,
            r.batch,
            r.incremental_ns as f64 / 1e6,
            r.rebuild_ns as f64 / 1e6,
            r.speedup()
        );
    }
    println!("churn-repair geomean speedup (incremental vs rebuild): {churn_repair_geomean:.2}x");
    // Incremental repair must never lose to a from-scratch rebuild; the
    // smoke lane gets slack for small-n noise on shared runners.
    let churn_bar = if smoke() { 0.9 } else { 1.0 };
    gate(
        "churn_repair",
        churn_repair_geomean,
        churn_bar,
        format!(
            "churn-repair geomean {churn_repair_geomean:.3} < {churn_bar:.2} — \
             incremental repair lost to full engine rebuilds"
        ),
    );
}

fn run_wide_batch_section() {
    let (wide_batch, wide_batch_speedup_32) = bench_wide_batch();
    println!("\n| wide-batch lanes | wall clock | instances·rounds/sec | vs sequential |");
    println!("|---|---|---|---|");
    for r in &wide_batch {
        println!(
            "| {} | {:.3} ms | {:.0} | {:.2}x |",
            r.w,
            r.ns as f64 / 1e6,
            r.inst_rounds_per_sec,
            r.speedup_vs_seq
        );
    }
    println!(
        "wide-batch speedup at 32 lanes vs one sequential instance: {wide_batch_speedup_32:.2}x"
    );
    // The whole point of the wide kernel: amortizing the arc sweep
    // across lanes must beat running the lanes one at a time by a wide
    // margin, in the smoke lane too.
    gate(
        "wide_batch",
        wide_batch_speedup_32,
        4.0,
        format!(
            "wide-batch speedup {wide_batch_speedup_32:.3} < 4.0 at 32 lanes \
             vs the sequential arm"
        ),
    );
}

fn run_wide_tail_section() {
    let (wide_tail, wide_tail_refill) = bench_wide_tail();
    println!("\n| wide-tail arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &wide_tail {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!("wide-tail speedup, mid-sweep refill vs chunked runs: {wide_tail_refill:.2}x");
    // Continuous batching's acceptance bar: on a staggered-termination
    // mix, refilling retired slots from the queue must beat chunked
    // runs by a wide margin, smoke lane included.
    gate(
        "wide_tail",
        wide_tail_refill,
        1.5,
        format!(
            "wide-tail speedup {wide_tail_refill:.3} < 1.5 — continuous \
             lane batching (mid-sweep refill) lost its advantage over chunked runs"
        ),
    );
}

fn run_serve_section() {
    let (serve, serve_speedup) = bench_serve();
    println!("\n| serve arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &serve {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!("serve speedup (pool-batched vs one session per job): {serve_speedup:.2}x");
    // The serving layer's acceptance bar: batching compatible jobs onto
    // wide sweeps must at least double job throughput, smoke mix included.
    gate(
        "serve",
        serve_speedup,
        2.0,
        format!(
            "serve speedup {serve_speedup:.3} < 2.0 — pool batching lost \
             its advantage over one fresh session per job"
        ),
    );
}

fn main() {
    // `SIM_BENCH_SECTION=serve|wide_tail`: run only that section (CI's
    // smoke lanes), keep its cross-checks and gate, skip the rest.
    match std::env::var("SIM_BENCH_SECTION").as_deref() {
        Ok("serve") => run_serve_section(),
        Ok("wide_tail") => run_wide_tail_section(),
        Ok(section) => panic!("unknown SIM_BENCH_SECTION `{section}`"),
        Err(_) => {
            run_churn_repair_section();
            run_wide_batch_section();
            run_wide_tail_section();
            run_serve_section();
        }
    }
}
