//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` at the repo root lists the same names (with bounds and
//! directions); `tests/smoke.rs` holds the two in agreement.

pub const WORKLOADS: [&str; 4] = [
    "thm1_routing",
    "thm1_sources",
    "serve_batched",
    "serve_fragmented",
];

/// The six `PhaseLog` names of the Theorem 1 driver, in execution order.
pub const PHASES: [&str; 6] = [
    "leader-election",
    "bfs",
    "numbering",
    "edge-partition",
    "subgraph-bfs",
    "parallel-routing",
];

/// `(name, unit)` of every end-to-end metric. All of them are reported on
/// all four workloads; on the thm1 workloads a "job" is one broadcast.
/// The issue's eighth metric, `failed_frac`, is carried by the `failed` /
/// `attempted` counts of the result line (a metric must never read 0).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_rounds", "rounds"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that exist once; the per-phase families are added by
/// [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str); 44] = [
    ("graph.build_s", "s"),
    ("graph.edge_connectivity_s", "s"),
    ("graph.fingerprint_s", "s"),
    ("graph.arcs", "count"),
    ("core.glue_s", "s"),
    ("core.source_independent_frac", "ratio"),
    ("core.partition_attempts", "count"),
    ("core.bound_ratio", "ratio"),
    ("core.max_edge_congestion", "msgs"),
    ("core.max_message_bits", "bits"),
    ("core.textbook_s", "s"),
    ("core.rounds_vs_textbook", "ratio"),
    ("sim.msgs_per_s", "1/s"),
    ("sim.session_new_s", "s"),
    ("pool.register_s", "s"),
    ("pool.submit_s", "s"),
    ("pool.drain_s", "s"),
    ("pool.drains", "count"),
    ("pool.jobs_per_drain", "count"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.graph_evictions", "count"),
    ("pool.warm_evictions", "count"),
    ("pool.reregistrations", "count"),
    ("pool.warm_bytes", "bytes"),
    ("pool.batched_jobs", "count"),
    ("pool.refilled_jobs", "count"),
    ("pool.solo_jobs", "count"),
    ("pool.batched_frac", "ratio"),
    ("pool.job_rounds_per_s", "1/s"),
    ("pool.dropped_msgs", "msgs"),
    ("pool.isolated_s", "s"),
    ("pool.speedup_vs_isolated", "ratio"),
    ("pool.rumor_rounds_p50", "rounds"),
    ("pool.rumor_rounds_max", "rounds"),
    ("snapshot.encode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("par.threads", "count"),
    ("par.wall_2t_s", "s"),
    ("par.wall_ratio_2t", "ratio"),
    ("par.wall_2t_spread", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric families with one member per phase: `(prefix, unit)`.
const PER_PHASE: [(&str, &str); 5] = [
    ("core.phase_s", "s"),
    ("core.phase_rounds", "rounds"),
    ("core.phase_msgs", "msgs"),
    ("sim.ns_per_msg", "ns"),
    ("sim.ns_per_node_round", "ns"),
];

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = Vec::new();
    for (prefix, unit) in PER_PHASE {
        all.extend(PHASES.iter().map(|p| (format!("{prefix}.{p}"), unit)));
    }
    all.extend(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// A full set of named values. Every name of the table is present from
/// the start at 0, which is also what a per-layer metric reads on a
/// workload it does not apply to (`pool.*` on a thm1 workload, `core.*`
/// on a serve workload): the result line must carry every metric on
/// every workload.
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics {
            entries: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), 0.0, u))
                .collect(),
        }
    }

    pub fn per_layer() -> Metrics {
        Metrics {
            entries: per_layer().into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// Record `value` under `name`. Panics on a name the table lacks — a
    /// typo in this package, not an operational condition. Non-finite
    /// values (a ratio over a zero base) are stored as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        entry.1 = if value.is_finite() { value + 0.0 } else { 0.0 }; // `+ 0.0`: an empty sum is -0
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// The members of the result line's `"metrics"` object, without the
    /// braces (a smoke run joins both metric sets into one object).
    pub fn json_fields(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        fields.join(", ")
    }
}
