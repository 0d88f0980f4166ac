//! The committed scoreboard, `REPRODUCTION.json`, held to the builders.
//! Every builder that is cheap in a debug build — all but E2's partition
//! sweep and E6 — is recomputed and each row, rendered by the same writer,
//! compared with the committed line of the same key; a builder's claims may
//! not keep committed rows it no longer produces. CI's `experiments` lane
//! regenerates the whole file, E2 and E6 included, and diffs it.
//! To move a row on purpose, re-record the file:
//! `cargo run --release -q -p congest-bench --bin reproduce > REPRODUCTION.json`.

use congest_bench::*;
use std::collections::{HashMap, HashSet};

/// The committed rows, one line each, without the array's commas.
fn committed() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.json");
    let text = std::fs::read_to_string(path).expect("REPRODUCTION.json at the workspace root");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        (lines.first(), lines.last()),
        (Some(&"["), Some(&"]")),
        "not one JSON array"
    );
    let rows = &lines[1..lines.len() - 1];
    for (i, l) in rows.iter().enumerate() {
        assert_eq!(l.ends_with(','), i + 1 < rows.len(), "comma after row {l}");
    }
    rows.iter()
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// A committed line's key: everything before its numbers.
fn key_of(line: &str) -> &str {
    &line[..line.find(", \"measured\"").expect("a row line")]
}

/// A key's `exp` and `claim`.
fn claim_of(key: &str) -> &str {
    &key[..key.find(", \"family\"").expect("a row key")]
}

fn check(rows: Vec<Row>) {
    let lines = committed();
    let by_key: HashMap<&str, &str> = lines.iter().map(|l| (key_of(l), l.as_str())).collect();
    let mut keys = HashSet::new();
    for row in &rows {
        let key = row.key();
        assert!(keys.insert(key.clone()), "{key}: produced twice");
        let line = by_key
            .get(key.as_str())
            .unwrap_or_else(|| panic!("{key}: not in REPRODUCTION.json"));
        assert_eq!(
            *line,
            row.render(),
            "{key}: the committed row differs from the recomputed one"
        );
    }
    let claims: HashSet<&str> = keys.iter().map(|k| claim_of(k)).collect();
    let stale: Vec<&str> = lines
        .iter()
        .map(|l| key_of(l))
        .filter(|k| claims.contains(claim_of(k)) && !keys.contains(*k))
        .collect();
    assert!(
        stale.is_empty(),
        "committed rows no builder produces: {stale:#?}"
    );
}

#[test]
fn committed_keys_are_unique() {
    let lines = committed();
    let mut seen = HashSet::new();
    for l in &lines {
        assert!(seen.insert(key_of(l)), "duplicate row {}", key_of(l));
    }
}

#[test]
fn e1_lemma5_sampling() {
    check(e1_sampling());
}

#[test]
fn observation1_diameter_bound() {
    check(observation1());
}

#[test]
fn lemma5_spanning_probability_grows_with_c() {
    check(lemma5_failure_decay());
}

#[test]
fn theorem2_diameter_bound_at_scale() {
    check(theorem2_envelope());
}

#[test]
fn e3_theorem1_vs_textbook() {
    check(e3_broadcast());
}

#[test]
fn theorem1_round_formula_envelope() {
    check(theorem1_envelope());
}

#[test]
fn e4_crossover_scan() {
    check(e4_crossover());
}

#[test]
fn e5_universal_optimality() {
    check(e5_optimality());
}

#[test]
fn no_algorithm_beats_theorem3_bound() {
    check(theorem3_floor());
}

#[test]
fn e7_unweighted_apsp() {
    check(e7_apsp());
}

#[test]
fn e8_spanner_apsp() {
    check(e8_spanner());
}

#[test]
fn e9_sparsifier_cuts() {
    check(e9_cuts());
}

#[test]
fn e10_certificates_and_scheduling() {
    check(e10_kd());
}

#[test]
fn e11_theorem9_family() {
    check(e11_theorem9());
}

#[test]
fn e12_routing_profile() {
    check(e12_profile());
}

#[test]
fn e13_resilience_under_faults() {
    check(e13_resilience());
}
