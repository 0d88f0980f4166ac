//! Drives the built benchmark in `--smoke` mode (every workload at ≈ 1/16
//! size, one repetition of each kind, every oracle on) and holds its
//! report to `BENCHMARK.json`: every metric named there is printed exactly
//! once per workload with its unit, simulated rounds are a function of the
//! seed alone, and nothing failed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// (workload, metric) → (value, unit), from the `metric` lines of one
/// smoke run; panics on a duplicate.
fn smoke(seed: u64) -> BTreeMap<(String, String), (f64, String)> {
    let out = format!("{}/out/smoke-test-{seed}.json", env!("CARGO_MANIFEST_DIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_fastbcast-benchmark"))
        .args(["--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary starts");
    let _ = std::fs::remove_file(&out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let mut seen = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(
            f.len(),
            5,
            "metric line is `metric <workload> <name> <value> <unit>`: {line}"
        );
        let value: f64 = f[3]
            .parse()
            .unwrap_or_else(|_| panic!("not a number: {line}"));
        let dup = seen.insert(
            (f[1].to_string(), f[2].to_string()),
            (value, f[4].to_string()),
        );
        assert!(dup.is_none(), "printed twice: {line}");
    }
    seen
}

/// The string field `key` of every entry of the list `spec[list]`.
fn column(spec: &Value, list: &str, key: &str) -> Vec<String> {
    let entries = spec.get(list).and_then(Value::as_arr).expect(list);
    entries
        .iter()
        .map(|m| m.get(key).and_then(Value::as_str).expect(key).to_string())
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_of_benchmark_json() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect(spec_path)).expect(spec_path);
    let workloads = column(&spec, "workloads", "name");
    let metrics: Vec<(String, String)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| {
            column(&spec, list, "name")
                .into_iter()
                .zip(column(&spec, list, "unit"))
        })
        .collect();

    let first = smoke(42);
    for w in &workloads {
        for (name, unit) in &metrics {
            let got = first.get(&(w.clone(), name.clone()));
            let got = got.unwrap_or_else(|| {
                panic!("{w}: `{name}` is in BENCHMARK.json but was not printed")
            });
            assert_eq!(&got.1, unit, "{w}: unit of `{name}`");
        }
        assert_eq!(
            first[&(w.clone(), "failed_frac".to_string())].0,
            0.0,
            "{w}: failed_frac"
        );
    }
    // Nothing printed that BENCHMARK.json does not know, failed_frac aside.
    assert_eq!(first.len(), workloads.len() * (metrics.len() + 1));

    // Simulated time is exact: the same at one seed, different at another.
    let rounds = |run: &BTreeMap<(String, String), (f64, String)>| -> Vec<f64> {
        workloads
            .iter()
            .map(|w| run[&(w.clone(), "sim_rounds".to_string())].0)
            .collect()
    };
    assert!(rounds(&first).iter().all(|&r| r > 0.0));
    assert_eq!(
        rounds(&first),
        rounds(&smoke(42)),
        "sim_rounds must repeat at one seed"
    );
    // (At smoke size some seeds tie on every workload — 42 and 43 do — so
    // ask for a difference within a few.)
    assert!(
        (43..46).any(|seed| rounds(&smoke(seed)) != rounds(&first)),
        "sim_rounds must depend on the seed"
    );
}
