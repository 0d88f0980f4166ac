//! `compare BASE.json NEW.json`: apply the regression bounds of
//! `BENCHMARK.json` to two result files written by the all-workloads mode,
//! one row per (end-to-end metric, workload).

use crate::json::{self, Value};
use crate::metrics::WORKLOADS;
use crate::stats::{max, median, min, spread};
use std::path::Path;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = load(&path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some(Bound {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced runs of `workload` in a result file.
fn runs<'a>(doc: &'a Value, workload: &str) -> Vec<&'a Value> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("result"))
        .collect()
}

fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `failed / attempted` summed over the runs.
fn failed_frac(runs: &[&Value]) -> f64 {
    let sum = |k: &str| runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
    sum("failed") / sum("attempted").max(1.0)
}

/// Returns `Ok(false)` when any row regressed.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let bounds = bounds()?;
    let (base, new) = (load(base_path)?, load(new_path)?);
    let seed = |d: &Value| d.get("seed").and_then(Value::as_f64);
    // Simulated time is exact at a fixed seed, so there any increase
    // counts; across seeds the bound of BENCHMARK.json applies.
    let same_seed = seed(&base).is_some() && seed(&base) == seed(&new);
    println!(
        "base = {}, new = {}; every change is relative to base",
        base_path.display(),
        new_path.display()
    );
    let mut regressed = 0;
    for workload in WORKLOADS {
        let (a_runs, b_runs) = (runs(&base, workload), runs(&new, workload));
        for m in &bounds {
            let (a, b) = (values(&a_runs, &m.name), values(&b_runs, &m.name));
            if a.is_empty() || b.is_empty() {
                println!(
                    "{workload:<17} {:<15} missing from a result file   unresolved",
                    m.name
                );
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let worse_by = if m.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
            let bound = if m.name == "sim_rounds" && same_seed {
                0.0
            } else {
                m.bound
            };
            let noise = spread(&a).into_iter().chain(spread(&b)).fold(0.0, f64::max);
            let all_better = if m.lower_is_better {
                max(&b) < min(&a)
            } else {
                min(&b) > max(&a)
            };
            let verdict = if worse_by > bound {
                regressed += 1;
                "regressed"
            } else if noise > bound && !all_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<17} {:<15} base {ma:>12.4} {unit:<6} (n = {}) new {mb:>12.4} {unit:<6} (n = {}) \
                 worse by {:>+7.2} % of base, bound {:>5.2} %, spread {:>5.2} %   {verdict}",
                m.name,
                a.len(),
                b.len(),
                worse_by * 100.0,
                bound * 100.0,
                noise * 100.0,
                unit = m.unit,
            );
        }
        let (fa, fb) = (failed_frac(&a_runs), failed_frac(&b_runs));
        let verdict = if fb > fa {
            regressed += 1;
            "regressed"
        } else {
            "ok"
        };
        println!(
            "{workload:<17} {:<15} base {fa:>12.4} ratio  new {fb:>12.4} ratio  bound 0: any increase   {verdict}",
            "failed_frac"
        );
    }
    println!("{regressed} row(s) regressed");
    Ok(regressed == 0)
}
