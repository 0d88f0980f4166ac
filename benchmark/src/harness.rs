//! What every workload shares: repeated set-up, warm-up, the timed
//! repetitions behind the end-to-end metrics, and — in a traced run — the
//! traced repetitions, the 2-thread pass and the layer probes behind the
//! per-layer metrics.
//!
//! The program under test is deterministic and runs on one thread, so
//! what differs between repetitions is the host, and the host only ever
//! adds time — on the box this was sized on, up to 80 % for about a second
//! at a time. A repetition is therefore cut into steps (a broadcast, a
//! queue-full of jobs) and every step and every operation is timed in its
//! quietest repetition: `wall_s` is the sum over steps of the lowest time
//! any repetition took for that step. Whole-repetition minima, medians and
//! maxima go on the `info` lines.

use crate::metrics::Metrics;
use crate::stats::{max, median, min, percentile};
use crate::trace::Tracer;
use congest_graph::Graph;
use congest_sim::{EngineConfig, Session};
use std::time::Instant;

pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    pub trace: bool,
    /// ≈ 1/16 size, one repetition of each kind, every oracle on.
    pub smoke: bool,
}

/// One repetition as the harness sees it.
pub struct Rep {
    /// Seconds inside the program under test, one entry per step (thm1: a
    /// broadcast call; serve: from a `drain`'s return to the next one's),
    /// the same steps in every repetition. Output checks run off the
    /// clock.
    pub steps_s: Vec<f64>,
    /// One sample per operation, in the same order in every repetition.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted (broadcasts, jobs).
    pub ops: u64,
    /// Operations that failed or whose output an oracle rejected.
    pub failed: u64,
    /// Simulated CONGEST rounds, summed over the operations.
    pub sim_rounds: u64,
    /// Simulated messages delivered, summed over the operations.
    pub messages: u64,
}

impl Rep {
    /// Seconds of the whole repetition.
    pub fn wall_s(&self) -> f64 {
        self.steps_s.iter().sum()
    }
}

/// Position by position, the lowest value any of `rows` holds there.
fn quietest<'a>(rows: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut rows = rows.into_iter();
    let mut low = rows.next().cloned().unwrap_or_default();
    for row in rows {
        for (l, &x) in low.iter_mut().zip(row) {
            *l = l.min(x);
        }
    }
    low
}

pub trait Workload {
    /// Run one repetition and verify its outputs. With `tracer` enabled
    /// this is the traced variant, recording a span per call into a
    /// layer; its outputs are held to the same oracles.
    fn rep(&mut self, tracer: &mut Tracer) -> Rep;

    /// The graph the layer probes (fingerprint, session build, snapshot)
    /// run on.
    fn probe_graph(&self) -> &Graph;

    /// The workload's own per-layer metrics, from the spans of the traced
    /// repetition `traced` (the fastest one) plus whatever extra arms it
    /// runs now (the isolated oracle, the textbook baseline). `wall_s` is
    /// the untraced end-to-end value. Returns the number of oracle
    /// mismatches.
    fn layers(&mut self, tracer: &mut Tracer, traced: u32, wall_s: f64, out: &mut Metrics) -> u64;
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Option<Metrics>,
    /// Sample counts and ranges that belong next to the metrics.
    pub info: Vec<String>,
}

/// Run one workload. `make` is its whole set-up, from generators to the
/// state the first timed operation needs. Everything runs at pool width 1
/// (see README: width 2 is bimodal on a shared 2-core box, so it is a
/// per-layer number, `par.*`).
pub fn run<W: Workload>(opts: &Opts, mut make: impl FnMut(&mut Tracer) -> W) -> Outcome {
    congest_par::with_threads(1, || run_pinned(opts, &mut make))
}

fn run_pinned<W: Workload>(opts: &Opts, make: &mut dyn FnMut(&mut Tracer) -> W) -> Outcome {
    let mut tracer = Tracer::new(opts.trace);
    let mut info = Vec::new();

    // Set-up, repeated so `setup_s` has a quiet sample to come from: at
    // least 3 times and until a second is spent on it, 200 times at most.
    // A traced run reports no `setup_s` and sets up once.
    let mut setup_times = Vec::new();
    let mut slot: Option<W> = None;
    while slot.is_none()
        || (!opts.trace
            && !opts.smoke
            && setup_times.len() < 200
            && (setup_times.len() < 3 || setup_times.iter().sum::<f64>() < 1.0))
    {
        drop(slot.take()); // free the previous instance before building the next
        let t = Instant::now();
        slot = Some(make(&mut tracer));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = slot.expect("set up at least once");
    tracer.set_enabled(false);

    // Warm-up: fills the program's caches (warm pool states, lazily sized
    // slabs) and gives the workload its reference outputs.
    let mut failed = w.rep(&mut tracer).failed;

    let (budget, min_reps) = match (opts.smoke, opts.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (opts.seconds / 3.0, 3),
        (false, false) => (opts.seconds, 3),
    };
    let clock = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || clock.elapsed().as_secs_f64() < budget {
        reps.push(w.rep(&mut tracer));
    }
    let peak_rss_mb = peak_rss_mb();

    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    let steps = quietest(reps.iter().map(|r| &r.steps_s));
    let wall_s: f64 = steps.iter().sum();
    let latencies_ms = quietest(reps.iter().map(|r| &r.latencies_ms));
    let ops = reps[0].ops;
    let sim_rounds = reps[0].sim_rounds;
    if reps.iter().any(|r| {
        r.sim_rounds != sim_rounds
            || r.ops != ops
            || r.steps_s.len() != steps.len()
            || r.latencies_ms.len() != latencies_ms.len()
    }) {
        eprintln!(
            "{}: repetitions disagree on sim_rounds or step count at one seed",
            opts.workload
        );
        failed += 1;
    }
    let mut attempted: u64 = reps.iter().map(|r| r.ops).sum();
    failed += reps.iter().map(|r| r.failed).sum::<u64>();

    let mut end_to_end = Metrics::end_to_end();
    end_to_end.set("setup_s", min(&setup_times));
    end_to_end.set("wall_s", wall_s);
    end_to_end.set("sim_rounds", sim_rounds as f64);
    end_to_end.set("jobs_per_s", ops as f64 / wall_s);
    end_to_end.set("latency_p50_ms", percentile(&latencies_ms, 0.50));
    end_to_end.set("latency_p99_ms", percentile(&latencies_ms, 0.99));
    end_to_end.set("peak_rss_mb", peak_rss_mb);
    info.push(format!(
        "wall_s sums {} steps, each the fastest of n = {} repetitions of {ops} operations; whole repetitions: min {:.4} median {:.4} max {:.4} all {walls:.4?}",
        steps.len(),
        walls.len(),
        min(&walls),
        median(&walls),
        max(&walls),
    ));
    info.push(format!(
        "latency percentiles: over n = {} operations, each the fastest of the repetitions",
        latencies_ms.len()
    ));
    info.push(format!(
        "setup_s is the fastest of n = {} set-ups: median {:.6} max {:.6}",
        setup_times.len(),
        median(&setup_times),
        max(&setup_times)
    ));

    let per_layer = opts.trace.then(|| {
        let base = Base {
            wall_s,
            sim_rounds,
            messages: reps[0].messages,
        };
        traced_pass(
            opts,
            &mut w,
            &mut tracer,
            &base,
            &mut attempted,
            &mut failed,
            &mut info,
        )
    });

    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        info,
    }
}

/// What the traced pass compares itself with: the untraced repetitions.
struct Base {
    wall_s: f64,
    sim_rounds: u64,
    messages: u64,
}

/// Everything a traced run does after its untraced repetitions: traced
/// repetitions, the same repetitions at pool width 2, the layer probes,
/// the workload's own extra arms; then the spans are written out.
fn traced_pass<W: Workload>(
    opts: &Opts,
    w: &mut W,
    tracer: &mut Tracer,
    base: &Base,
    attempted: &mut u64,
    failed: &mut u64,
    info: &mut Vec<String>,
) -> Metrics {
    let wall_s = base.wall_s;
    let mut out = Metrics::per_layer();
    out.set("graph.build_s", tracer.seconds("graph.build", 0));
    out.set(
        "graph.edge_connectivity_s",
        tracer.seconds("graph.edge_connectivity", 0),
    );
    out.set("sim.msgs_per_s", base.messages as f64 / wall_s);

    tracer.set_enabled(true);
    let mut fastest = (f64::INFINITY, 0);
    let mut traced_steps = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { 2 } {
        let id = tracer.next_rep();
        let r = w.rep(tracer);
        if r.sim_rounds != base.sim_rounds {
            eprintln!("{}: traced repetition changed sim_rounds", opts.workload);
            *failed += 1;
        }
        *attempted += r.ops;
        *failed += r.failed;
        if r.wall_s() < fastest.0 {
            fastest = (r.wall_s(), id);
        }
        traced_steps.push(r.steps_s);
    }
    tracer.set_enabled(false);
    let traced_wall_s: f64 = quietest(&traced_steps).iter().sum();
    out.set("trace.overhead_frac", traced_wall_s / wall_s - 1.0);

    // The same repetitions at the default pool width of this box.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 2 {
        let walls_2t: Vec<f64> = congest_par::with_threads(2, || {
            (0..if opts.smoke { 1 } else { 3 })
                .map(|_| {
                    let r = w.rep(tracer);
                    *attempted += r.ops;
                    *failed += r.failed;
                    r.wall_s()
                })
                .collect()
        });
        out.set("par.threads", 2.0);
        out.set("par.wall_2t_s", min(&walls_2t));
        out.set("par.wall_ratio_2t", min(&walls_2t) / wall_s);
        out.set("par.wall_2t_spread", max(&walls_2t) / min(&walls_2t));
        info.push(format!(
            "par.wall_ratio_2t = par.wall_2t_s / wall_s, base wall_s = {wall_s:.4} s, n = {}",
            walls_2t.len()
        ));
    } else {
        out.set("par.threads", 1.0);
    }

    tracer.set_enabled(true);
    tracer.next_rep();
    probe_layers(w.probe_graph(), tracer, &mut out);
    *failed += w.layers(tracer, fastest.1, wall_s, &mut out);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", opts.workload));
    match tracer.write_json(opts.workload, &path) {
        Ok(()) => info.push(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("{}: cannot write {}: {e}", opts.workload, path.display()),
    }
    out
}

/// Layer costs that sit off the timed path and would otherwise be
/// invisible: fingerprinting, a cold engine build, snapshot encode and
/// restore. Each is the median of five calls on the workload's graph.
fn probe_layers(g: &Graph, tracer: &mut Tracer, out: &mut Metrics) {
    const CALLS: usize = 5;
    let median_of = |tracer: &Tracer, name: &str| {
        let all: Vec<f64> = tracer.named(name).map(|s| s.seconds()).collect();
        median(&all)
    };
    out.set("graph.arcs", g.num_arcs() as f64);
    for _ in 0..CALLS {
        std::hint::black_box(tracer.span("probe.fingerprint", || g.fingerprint()));
    }
    out.set(
        "graph.fingerprint_s",
        median_of(tracer, "probe.fingerprint"),
    );
    for _ in 0..CALLS {
        drop(tracer.span("probe.session_new", || Session::new(g)));
    }
    out.set("sim.session_new_s", median_of(tracer, "probe.session_new"));

    let mut session = Session::new(g);
    session
        .run(
            |v, _| congest_core::leader::FloodMax::new(v),
            EngineConfig::default(),
        )
        .expect("flood-max terminates");
    let mut frame = Vec::new();
    for _ in 0..CALLS {
        tracer.span("probe.snapshot_encode", || {
            session.snapshot_into(&mut frame)
        });
    }
    for _ in 0..CALLS {
        let restored = tracer.span("probe.snapshot_restore", || Session::restore(g, &frame));
        assert_eq!(
            restored.expect("own frame restores").state_hash(),
            session.state_hash()
        );
    }
    out.set(
        "snapshot.encode_s",
        median_of(tracer, "probe.snapshot_encode"),
    );
    out.set(
        "snapshot.restore_s",
        median_of(tracer, "probe.snapshot_restore"),
    );
    out.set("snapshot.bytes", frame.len() as f64);
}

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
