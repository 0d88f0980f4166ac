//! Theorem 1 against its formula, the textbook `O(D + k)` baseline and
//! Theorem 3's floor (E3–E5), its routing traffic (E12) and its packing
//! under a mobile edge adversary (E13).

use crate::{Claim, Row};
use congest_core::broadcast::{
    partition_broadcast, partition_broadcast_at, BroadcastConfig, BroadcastError, BroadcastInput,
    BroadcastOutcome,
};
use congest_core::lower_bounds::theorem3_broadcast_lb;
use congest_core::partition::PartitionParams;
use congest_core::resilient::{resilient_broadcast_hosted, ResilientOutcome};
use congest_core::textbook::textbook_broadcast;
use congest_graph::generators::{clique_chain, complete, harary};
use congest_graph::Graph;
use congest_sim::{FaultPlan, PhaseLog, Session};

/// Theorem 1 as the applications call it ([`partition_broadcast_at`]);
/// every node must receive every message.
fn theorem1(g: &Graph, input: &BroadcastInput, lambda: usize, seed: u64) -> BroadcastOutcome {
    let out = partition_broadcast_at(&mut Session::new(g), input, lambda, seed).expect("broadcast");
    assert!(out.all_delivered());
    out
}

/// Theorem 1's rounds over its formula `n·ln n/δ + k·ln n/λ`, within the
/// envelope of 8.
fn formula_row(c: &mut Claim, g: &Graph, k: usize, lambda: usize, rounds: u64) {
    let ln_n = (g.n() as f64).ln();
    let formula = g.n() as f64 * ln_n / g.min_degree() as f64 + k as f64 * ln_n / lambda as f64;
    c.row("rounds ÷ n·ln n/δ + k·ln n/λ", rounds as f64, Some(formula))
        .within(0.0, 8.0);
}

/// E3 — Theorem 1: k-broadcast in `O(n·ln n/δ + k·ln n/λ)` rounds, against
/// the textbook single-tree pipeline on the same input.
pub fn e3_broadcast() -> Vec<Row> {
    let mut c = Claim::new("E3", "Theorem 1");
    for (name, g, lambda) in [
        ("harary(16, 96)", harary(16, 96), 16),
        ("harary(32, 96)", harary(32, 96), 32),
        ("harary(32, 192)", harary(32, 192), 32),
    ] {
        for mult in [1usize, 2, 4, 8] {
            let k = g.n() * mult;
            let input = BroadcastInput::random_spread(&g, k, 0xE3);
            let out = theorem1(&g, &input, lambda, 0xE3);
            let tb = textbook_broadcast(&g, &input, 0xE3).expect("textbook");
            assert!(tb.all_delivered());
            c.on(name, &format!("k={k}, λ'={}", out.num_subgraphs));
            formula_row(&mut c, &g, k, lambda, out.total_rounds);
            let (tb_rounds, rounds) = (tb.total_rounds as f64, out.total_rounds as f64);
            c.row(
                "textbook rounds ÷ Theorem 1 rounds",
                tb_rounds,
                Some(rounds),
            );
        }
    }
    c.rows
}

/// Theorem 1's envelope on a (λ, k) grid at n = 128, under its own seeds.
pub fn theorem1_envelope() -> Vec<Row> {
    let mut c = Claim::new("E3", "Theorem 1 round envelope");
    let n = 128;
    for lambda in [16usize, 32] {
        let g = harary(lambda, n);
        for k in [n, 4 * n] {
            let input = BroadcastInput::random_spread(&g, k, 2);
            let out = theorem1(&g, &input, lambda, 3);
            c.on(
                &format!("harary({lambda}, {n})"),
                &format!("k={k}, λ'={}", out.num_subgraphs),
            );
            formula_row(&mut c, &g, k, lambda, out.total_rounds);
        }
    }
    c.rows
}

/// E4 — §3.2: broadcast takes `min{O(D + k), Õ((n + k)/λ)}`. A ratio below
/// 1 is the partition arm winning; the crossover k* (the first k it wins
/// at, when there is one) comes earlier as λ grows.
pub fn e4_crossover() -> Vec<Row> {
    let mut c = Claim::new("E4", "§3.2 min{O(D + k), Õ((n + k)/λ)}");
    let n = 144usize;
    for lambda in [8usize, 16, 32, 48] {
        let g = harary(lambda, n);
        let name = format!("harary({lambda}, {n})");
        let mut crossover = None;
        let mut k = n / 4;
        while k <= 16 * n {
            let input = BroadcastInput::random_spread(&g, k, 0xE4);
            let out = theorem1(&g, &input, lambda, 0xE4);
            let tb = textbook_broadcast(&g, &input, 0xE4).expect("textbook");
            if out.total_rounds < tb.total_rounds && crossover.is_none() {
                crossover = Some(k);
            }
            c.on(&name, &format!("k={k}, λ'={}", out.num_subgraphs));
            let (rounds, tb_rounds) = (out.total_rounds as f64, tb.total_rounds as f64);
            c.row(
                "Theorem 1 rounds ÷ textbook rounds",
                rounds,
                Some(tb_rounds),
            );
            k *= 2;
        }
        if let Some(k) = crossover {
            c.on(&name, &format!("k={}…{}, doubling", n / 4, 16 * n));
            c.row("crossover k* ÷ n", k as f64, Some(n as f64));
        }
    }
    c.rows
}

/// E5 — §3.2 universal optimality at k = 2n: Theorem 1's rounds over
/// Theorem 3's floor `(k/2 − 1/16)/(2λ) ≈ k/(4λ)`
/// ([`theorem3_broadcast_lb`]) stay `O(log n)`. No run may beat the floor.
pub fn e5_optimality() -> Vec<Row> {
    let mut c = Claim::new("E5", "§3.2 universal optimality");
    for (name, g, lambda) in [
        ("harary(16, 96)", harary(16, 96), 16),
        ("harary(16, 192)", harary(16, 192), 16),
        ("harary(32, 192)", harary(32, 192), 32),
        ("harary(48, 288)", harary(48, 288), 48),
        ("complete(96)", complete(96), 95),
        ("clique_chain(4, 32, 16)", clique_chain(4, 32, 16), 16),
    ] {
        let k = 2 * g.n();
        let input = BroadcastInput::random_spread(&g, k, 0xE5);
        let rounds = theorem1(&g, &input, lambda, 0xE5).total_rounds as f64;
        let lb = theorem3_broadcast_lb(k as u64, lambda as u64);
        c.on(name, &format!("n={}, k={k}", g.n()));
        c.row("rounds ÷ Theorem 3 floor", rounds, Some(lb))
            .within(1.0, f64::INFINITY);
        c.row(
            "rounds ÷ ln n·Theorem 3 floor",
            rounds,
            Some(lb * (g.n() as f64).ln()),
        );
    }
    c.rows
}

/// Theorem 3: no broadcast beats its floor — held at k = 4n.
pub fn theorem3_floor() -> Vec<Row> {
    let mut c = Claim::new("E5", "Theorem 3");
    let (lambda, g) = (16, harary(16, 96));
    let k = 4 * g.n();
    let input = BroadcastInput::random_spread(&g, k, 8);
    let rounds = theorem1(&g, &input, lambda, 9).total_rounds as f64;
    let lb = theorem3_broadcast_lb(k as u64, lambda as u64);
    c.on("harary(16, 96)", &format!("k={k}"));
    c.row("rounds ÷ Theorem 3 floor", rounds, Some(lb))
        .within(1.0, f64::INFINITY);
    c.rows
}

/// E12 — the routing phase of one Theorem 1 run and of the textbook run on
/// the same input, read from the drivers' own `PhaseLog`s: λ′ trees at
/// once make the plateau about λ′ times taller and λ′ times shorter.
pub fn e12_profile() -> Vec<Row> {
    let mut c = Claim::new("E12", "Theorem 1 routing vs one tree");
    let (lambda, n) = (32, 96);
    let g = harary(lambda, n);
    let k = 4 * n;
    let input = BroadcastInput::random_spread(&g, k, 0xE12);
    let out = partition_broadcast(&g, &input, lambda, 0xE12).expect("broadcast");
    let tb = textbook_broadcast(&g, &input, 0xE12).expect("textbook");
    assert!(out.all_delivered() && tb.all_delivered());
    c.on(
        "harary(32, 96)",
        &format!("k={k}, λ'={}", out.num_subgraphs),
    );
    let routing = |log: &PhaseLog, phase: &str| {
        let (_, s) = log
            .phases()
            .find(|(name, _)| *name == phase)
            .expect("routing phase");
        (s.rounds as f64, s.total_messages as f64)
    };
    let (rounds, msgs) = routing(&out.phases, "parallel-routing");
    c.row("parallel-routing rounds", rounds, None);
    c.row("parallel-routing messages", msgs, None);
    c.row("parallel-routing messages per round", msgs / rounds, None);
    let (rounds, msgs) = routing(&tb.phases, "tree-pipeline");
    c.row("tree-pipeline rounds", rounds, None);
    c.row("tree-pipeline messages", msgs, None);
    c.row("tree-pipeline messages per round", msgs / rounds, None);
    c.rows
}

/// E13 — §1.2 / \[FP23\]: a message replicated over r edge-disjoint trees
/// survives an adversary that must cut all r routes. Three fault seeds per
/// (f, r), summed.
pub fn e13_resilience() -> Vec<Row> {
    let mut c = Claim::new("E13", "§1.2 replication against a mobile edge adversary");
    let g = harary(24, 96);
    let input = BroadcastInput::random_spread(&g, 96, 0xE13);
    let params = PartitionParams::explicit(4);
    let mut host = Session::new(&g);
    for f in [0usize, 2, 4, 8] {
        for r in [1usize, 2, 4] {
            let (mut starved, mut dropped) = (0, 0);
            for seed in 0..3u64 {
                let faults = (f > 0).then(|| FaultPlan::new(f, 0xBAD ^ seed));
                let out = resilient(&mut host, &input, params, r, faults, 0xE13 ^ seed);
                starved += out.starved_nodes().len();
                dropped += out.dropped;
            }
            c.on("harary(24, 96)", &format!("f={f}, r={r}, λ'=4"));
            c.row(
                "starved nodes, summed over 3 seeds (of 3 × 96)",
                starved as f64,
                None,
            );
            if r == 4 {
                c.row(
                    "dropped messages, 3-seed mean rounded down",
                    (dropped / 3) as f64,
                    None,
                );
            }
        }
    }
    c.rows
}

/// One resilient run, re-seeded on Theorem 2's `NotSpanning` only (20
/// attempts, as `partition_broadcast_retrying_hosted` retries): any other
/// error ends the run.
fn resilient(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    r: usize,
    faults: Option<FaultPlan>,
    seed: u64,
) -> ResilientOutcome {
    let mut attempt = 0u64;
    loop {
        let cfg = BroadcastConfig::with_seed(seed.wrapping_add(attempt * 0x9E37));
        match resilient_broadcast_hosted(host, input, params, r, faults, &cfg) {
            Err(BroadcastError::NotSpanning { .. }) if attempt < 19 => attempt += 1,
            result => return result.expect("resilient broadcast"),
        }
    }
}
