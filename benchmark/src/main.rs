//! The repo's benchmark: four workloads over the Theorem 1 broadcast and
//! the serve plane, end-to-end metrics with tracing off and per-layer
//! metrics from a traced run, every output held to an oracle. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! fastbcast-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last line
//! fastbcast-benchmark [--runs R] [--seed N] [--seconds S] [--out FILE]   all workloads, R untraced runs + 1 traced each
//! fastbcast-benchmark --smoke [--seed N]                                 all workloads at 1/16 size, < 15 s
//! fastbcast-benchmark compare BASE.json NEW.json                         ok / regressed / unresolved per row
//! ```

mod compare;
mod harness;
mod json;
mod metrics;
mod serve;
mod stats;
mod thm1;
mod trace;

use harness::{Opts, Outcome};
use metrics::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: the default when `--seconds` is
/// absent.
const RUN_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: the benchmark ran and something it checks did not hold.
fn run(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [base, new] = &args[1..] else {
            return Err("compare takes two result files: BASE.json NEW.json".into());
        };
        return compare::compare(base.as_ref(), new.as_ref());
    }
    let seed: u64 = opt(args, "--seed", 42)?;
    let seconds: f64 = opt(args, "--seconds", RUN_SECONDS)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace = match opt(args, "--trace", 0u8)? {
        0 => smoke, // the smoke run is always traced: every oracle on
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds takes 0 to 60, got {seconds}"));
    }
    match opt(args, "--workload", String::new())?.as_str() {
        "" => {
            let runs: usize = opt(args, "--runs", 1)?;
            let default_out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/results.json");
            let out: PathBuf = opt(args, "--out", default_out)?;
            run_all(seed, seconds, smoke, runs, &out)
        }
        name => {
            let workload = WORKLOADS
                .iter()
                .find(|w| **w == name)
                .ok_or_else(|| format!("unknown workload `{name}`; one of {WORKLOADS:?}"))?;
            let opts = Opts {
                workload,
                seed,
                seconds,
                trace,
                smoke,
            };
            Ok(run_one(&opts))
        }
    }
}

fn opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// One workload in this process: metrics by name with units, then the
/// result object as the last line of standard output.
fn run_one(opts: &Opts) -> bool {
    let outcome: Outcome = if opts.workload.starts_with("thm1") {
        harness::run(opts, |tracer| {
            thm1::Thm1::setup(thm1::size(opts.workload, opts.smoke), opts.seed, tracer)
        })
    } else {
        harness::run(opts, |tracer| {
            serve::Serve::setup(serve::size(opts.workload, opts.smoke), opts.seed, tracer)
        })
    };
    let correct = outcome.failed == 0;
    // A traced run of full size reports per-layer metrics only: its few
    // untraced repetitions are the base of its ratios, not a measurement.
    let shown = [
        (!opts.trace || opts.smoke).then_some(&outcome.end_to_end),
        outcome.per_layer.as_ref(),
    ];
    let mut body = Vec::new();
    for metrics in shown.into_iter().flatten() {
        for (name, value, unit) in metrics.iter() {
            println!("metric {} {name} {value} {unit}", opts.workload);
        }
        body.push(metrics.json_fields());
    }
    println!(
        "metric {} failed_frac {} ratio",
        opts.workload,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for line in &outcome.info {
        println!("info {} {line}", opts.workload);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    correct
}

/// Every workload, each run in a child process of its own (this program
/// re-executed with `--workload`), so `peak_rss_mb` is per workload and no
/// run inherits another's warm allocator or thread pool.
fn run_all(seed: u64, seconds: f64, smoke: bool, runs: usize, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        // `runs` untraced runs for the end-to-end metrics, then one traced
        // run for the per-layer ones. The smoke run is one traced run.
        let plan = if smoke {
            vec![1]
        } else {
            [vec![0; runs], vec![1]].concat()
        };
        for trace in plan {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stdout(Stdio::piped());
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let (report, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
            println!("{report}");
            if !child.status.success() || json::parse(result).is_err() {
                eprintln!("{workload} (trace {trace}) failed: {}", child.status);
                all_correct = false;
                continue;
            }
            records.push(format!(
                "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"result\": {result}}}"
            ));
        }
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"smoke\": {smoke}, \"runs\": [\n{}\n]}}\n",
        records.join(",\n")
    );
    std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}
