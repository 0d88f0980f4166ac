//! The CI gate: one pass/fail ratio, against an arm it is cross-checked
//! bit-identical to before anything is timed.
//!
//! | gate | arm vs arm | bar |
//! |---|---|---|
//! | `churn_repair` | incremental phase-boundary repair vs `GraphBuilder::build` + `Session::new` | geomean ≥ 1.0 (0.9 in smoke) |
//!
//! A gate that holds prints `GATE <name> <ratio> >= <bar> ok`; one that
//! does not prints a `REGRESSION-MARKER` line. CI requires the first and
//! refuses the second, so a section that silently did not run fails too.
//! Nothing is recorded: every recorded number in the repository comes
//! from `benchmark/` (parent-vs-change pairs, per-metric bounds), and
//! this gate moves there as a workload with a `compare` bound. Three more
//! lived here — `wide_batch` (≥ 4×), `serve` (≥ 2×) and `wide_tail`
//! (≥ 1.5×) — and went with the batched round kernel they raced:
//! DESIGN.md §10 has their last readings. What this file used to race
//! and record besides (the packed plane vs the reference interpreter,
//! the shard-scaling curve) is there too.
//!
//! **Smoke mode** (`SIM_BENCH_SMOKE=1`): shrinks every dimension so CI
//! can run it in seconds with every cross-check kept.

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

fn main() {
    run_churn_repair_section();
}
