//! The two CI gates: pass/fail ratios, each against an arm it is
//! cross-checked bit-identical to before anything is timed.
//!
//! | gate | arm vs arm | bar |
//! |---|---|---|
//! | `churn_repair` | incremental phase-boundary repair vs `GraphBuilder::build` + `Session::new` | geomean ≥ 1.0 (0.9 in smoke) |
//! | `wide_tail` | one `run_refill` drain vs 32-lane chunked runs on a staggered-termination mix (wide vs wide) | ≥ 1.5× |
//!
//! A gate that holds prints `GATE <name> <ratio> >= <bar> ok`; one that
//! does not prints a `REGRESSION-MARKER` line. CI requires the first and
//! refuses the second, so a section that silently did not run fails too.
//! Nothing is recorded: every recorded number in the repository comes
//! from `benchmark/` (parent-vs-change pairs, per-metric bounds), and
//! these two move there as workloads with `compare` bounds. Two more
//! lived here until PR 22, `wide_batch` (≥ 4×) and `serve` (≥ 2×): both
//! raced the wide kernel against `Session::run` on thin-frontier rumor,
//! and since `Session::run` steps only a round's frontier they read
//! below 1 — DESIGN.md §10 has their last readings on both sides. What
//! this file used to race and record besides (the packed plane vs the
//! reference interpreter, the shard-scaling curve) is there too.
//!
//! **Smoke mode** (`SIM_BENCH_SMOKE=1`): shrinks every dimension so CI
//! can run both in seconds with every cross-check kept.
//! `SIM_BENCH_SECTION=wide_tail` runs only that section.

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

/// Lane-salted QUIESCENT rumor flood with a staggered tail for the
/// wide-tail bench: lane `l`'s rumor starts at a lane-dependent source
/// and floods the circulant, each node relaying once in its adoption
/// round; then the *source* lingers, pulsing port 0 every round until its
/// lane-local round reaches `linger`. Jobs get
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

fn main() {
    // `SIM_BENCH_SECTION=wide_tail`: run only that section, keep its
    // cross-checks and gate, skip the rest.
    match std::env::var("SIM_BENCH_SECTION").as_deref() {
        Ok("wide_tail") => run_wide_tail_section(),
        Ok(section) => panic!("unknown SIM_BENCH_SECTION `{section}`"),
        Err(_) => {
            run_churn_repair_section();
            run_wide_tail_section();
        }
    }
}
