//! Golden pins for the Theorem 1 driver family.
//!
//! Every constant below was captured by running this file at commit
//! `c3127e4` — the last commit where the six-phase composition was written
//! out four times — so it holds any rewrite of the drivers to the numbers
//! the four copies produced: per-phase rounds and message counts, the
//! post-phase state hashes of the drivers that recorded them there (the
//! plain one, under the retry loop and under the retired degrading
//! ladder), attempt counts, class-tree heights, checksums, and the
//! starved sets and drop counts of faulted runs.
//!
//! The degrading ladder (`congest_core::watchdog`) has since been
//! retired. Its two pinned runs stay pinned as the plain driver calls
//! they were made of: attempt `a` of the ladder was one broadcast at
//! seed `seed + a·0x9E37_79B9` and the λ′ of its level, so
//! `degrading_ladder` and `resilient_degrading_exhausts_and_salvages`
//! call the drivers at exactly those seeds and λ′ and hold them to the
//! same constants.
//!
//! A pin that moves means observable behaviour changed at equal seeds.
//! That is never a refactor; do not re-capture to make this file pass.
//!
//! One deliberate change has been re-captured since: flood-max elects the
//! node of highest *rank* instead of the highest id
//! (`congest_core::leader`), and the elected root is observable
//! behaviour. The pins that depend on the root — leader-election
//! messages, post-root state hashes, routing rounds and messages,
//! class-tree heights, dense checksums, faulted drops and starved
//! sets — were re-captured once, at the commit that made that change
//! (parent `3fd42a1`). Attempt counts, the ladder's seeds and λ′, every
//! `edge-partition` entry and every `bfs` message count were held, not
//! re-captured: none of them depends on the root.

use congest_core::broadcast::{
    partition_broadcast_hosted, partition_broadcast_retrying, BroadcastConfig, BroadcastInput,
    BroadcastOutcome, DEFAULT_PARTITION_C,
};
use congest_core::exp_search::exp_search_broadcast;
use congest_core::partition::PartitionParams;
use congest_core::resilient::{resilient_broadcast_hosted, ResilientOutcome};
use congest_graph::generators::{clique_chain, harary};
use congest_graph::Graph;
use congest_sim::{FaultPlan, PhaseLog, Session};

/// `(phase name, rounds, total messages, post-phase state hash)`.
type PhasePin = (&'static str, u64, u64, Option<u64>);

/// Compare a phase log to its pins. Drivers that recorded no state hash
/// at the capture commit are pinned with `None` and compared hash-blind
/// (`hashed = false`): gaining a hash is the one permitted difference.
fn assert_phases(what: &str, log: &PhaseLog, hashed: bool, want: &[PhasePin]) {
    let got: Vec<(String, u64, u64, Option<u64>)> = log
        .phases()
        .zip(log.hashes())
        .map(|((name, st), (_, hash))| {
            (
                name.to_string(),
                st.rounds,
                st.total_messages,
                hash.filter(|_| hashed),
            )
        })
        .collect();
    let want: Vec<(String, u64, u64, Option<u64>)> = want
        .iter()
        .map(|&(name, rounds, msgs, hash)| (name.to_string(), rounds, msgs, hash))
        .collect();
    assert_eq!(got, want, "{what}: phase log");
}

/// The parts of a Theorem 1 outcome that are not in the phase log.
fn assert_outcome(
    what: &str,
    out: &BroadcastOutcome,
    num_subgraphs: usize,
    heights: &[u32],
    expected: (u64, u64),
) {
    assert!(out.all_delivered(), "{what}: delivery");
    assert_eq!(out.num_subgraphs, num_subgraphs, "{what}: λ′");
    assert_eq!(out.subgraph_heights, heights, "{what}: class-tree heights");
    assert_eq!(out.expected, expected, "{what}: checksums");
    assert_eq!(out.total_rounds, out.phases.total_rounds(), "{what}");
    assert_eq!(out.stats, out.phases.total(), "{what}");
}

/// `harary(16, 48)`, k = 96, λ′ from the paper's formula (= 2).
fn dense() -> (Graph, BroadcastInput, PartitionParams) {
    let g = harary(16, 48);
    let input = BroadcastInput::random_spread(&g, 96, 5);
    let params = PartitionParams::from_lambda(g.n(), 16, DEFAULT_PARTITION_C);
    (g, input, params)
}

/// `clique_chain(3, 12, 6)`, k = 40, λ′ = 2: a borderline split on which
/// some seeds fail Theorem 2's spanning check.
fn borderline() -> (Graph, BroadcastInput, PartitionParams) {
    let g = clique_chain(3, 12, 6);
    let input = BroadcastInput::random_spread(&g, 40, 4);
    (g, input, PartitionParams::explicit(2))
}

/// `(xor, sum)` checksums of the [`dense`] / [`borderline`] message sets.
/// Lemma 3's id assignment is deterministic in the graph and the elected
/// root, so every driver agrees on them whatever its seeds.
const DENSE_CHECKSUMS: (u64, u64) = (0x57e4ae0ecf40a373, 0xf1d24000d075ed1d);
const BORDERLINE_CHECKSUMS: (u64, u64) = (0xb682ae8347554d16, 0x365eeffba61f630a);

/// The plain driver on [`dense`] at seed 17 (reached by the retrying
/// driver on attempt one).
const DENSE_SEED_17: &[PhasePin] = &[
    ("leader-election", 4, 2096, Some(0x87b4c45a8c7a95fb)),
    ("bfs", 4, 768, Some(0x63ae86c91fdedf97)),
    ("numbering", 6, 94, Some(0xe8d2f0d76d9e7257)),
    ("edge-partition", 1, 384, Some(0x5015ca278ce8d199)),
    ("subgraph-bfs", 5, 768, Some(0x63ae86c91fdedf97)),
    ("parallel-routing", 52, 4735, Some(0x6a1529d57234bbd3)),
];

/// A seed whose own partition fails to span on [`borderline`] while its
/// successor in the retry family (`+ 0x9E37_79B9`) succeeds.
const FAILS_FIRST: u64 = 77 + 3 * 0x9E37_79B9;

/// Seed of attempt `a` of the retry family from `seed`.
fn attempt_seed(seed: u64, a: u64) -> u64 {
    seed.wrapping_add(a * 0x9E37_79B9)
}

/// `(unique, duplicates)` summed over nodes, plus the starved set.
fn dedup_summary(out: &ResilientOutcome) -> (u64, u64, Vec<usize>) {
    (
        out.per_node.iter().map(|r| r.unique).sum(),
        out.per_node.iter().map(|r| r.duplicates).sum(),
        out.starved_nodes(),
    )
}

#[test]
fn retrying_first_attempt() {
    let (g, input, params) = dense();
    let (out, attempts) =
        partition_broadcast_retrying(&g, &input, params, &BroadcastConfig::with_seed(17), 5)
            .unwrap();
    assert_eq!(attempts, 1);
    assert_phases("retrying/dense", &out.phases, true, DENSE_SEED_17);
    assert_outcome("retrying/dense", &out, 2, &[4, 4], DENSE_CHECKSUMS);
}

#[test]
fn retrying_second_attempt() {
    let (g, input, params) = borderline();
    let (out, attempts) = partition_broadcast_retrying(
        &g,
        &input,
        params,
        &BroadcastConfig::with_seed(FAILS_FIRST),
        5,
    )
    .unwrap();
    assert_eq!(attempts, 2);
    assert_phases(
        "retrying/borderline",
        &out.phases,
        true,
        &[
            ("leader-election", 5, 1227, Some(0xa7e6780b1830ea97)),
            ("bfs", 5, 420, Some(0x3e557653fa8aedf9)),
            ("numbering", 8, 70, Some(0x7f0d5a8407b41252)),
            ("edge-partition", 1, 210, Some(0x486bcac88d581686)),
            ("subgraph-bfs", 8, 420, Some(0x3e557653fa8aedf9)),
            ("parallel-routing", 27, 1535, Some(0x0d98c83341618c74)),
        ],
    );
    assert_outcome(
        "retrying/borderline",
        &out,
        2,
        &[5, 7],
        BORDERLINE_CHECKSUMS,
    );
}

/// The run the degrading ladder returned from [`FAILS_FIRST`] with one
/// attempt per level: attempt 0 failed to span at λ′ = 2, and attempt 1
/// delivered on the single tree.
#[test]
fn degrading_ladder() {
    let (g, input, _) = borderline();
    let out = partition_broadcast_hosted(
        &mut Session::new(&g),
        &input,
        PartitionParams::explicit(1),
        &BroadcastConfig::with_seed(attempt_seed(FAILS_FIRST, 1)),
    )
    .unwrap();
    assert_phases(
        "degrading/borderline",
        &out.phases,
        true,
        &[
            ("leader-election", 5, 1227, Some(0xa7e6780b1830ea97)),
            ("bfs", 5, 420, Some(0x3e557653fa8aedf9)),
            ("numbering", 8, 70, Some(0x7f0d5a8407b41252)),
            ("edge-partition", 1, 210, Some(0x486bcac88d581686)),
            ("subgraph-bfs", 5, 420, Some(0x3e557653fa8aedf9)),
            ("parallel-routing", 44, 1504, Some(0x72e1f5df13ce9145)),
        ],
    );
    assert_outcome("degrading/borderline", &out, 1, &[4], BORDERLINE_CHECKSUMS);
}

#[test]
fn resilient_under_faults() {
    let (g, input, _) = dense();
    let out = resilient_broadcast_hosted(
        &mut Session::new(&g),
        &input,
        PartitionParams::explicit(3),
        2,
        Some(FaultPlan::new(2, 0xBAD)),
        &BroadcastConfig::with_seed(0x52),
    )
    .unwrap();
    assert_phases(
        "resilient",
        &out.phases,
        false,
        &[
            ("leader-election", 4, 2096, None),
            ("bfs", 4, 768, None),
            ("numbering", 6, 94, None),
            ("edge-partition", 1, 384, None),
            ("subgraph-bfs", 6, 768, None),
            ("replicated-routing", 69, 9176, None),
        ],
    );
    assert_eq!((out.replication, out.num_subgraphs, out.k), (2, 3, 96));
    assert_eq!(out.total_rounds, out.phases.total_rounds());
    assert_eq!(out.dropped, 53);
    assert_eq!(out.expected, DENSE_CHECKSUMS);
    assert_eq!(dedup_summary(&out), (4607, 4665, vec![45]));
}

/// The four attempts of the resilient degrading ladder, two per level,
/// with two copies per message under five faults a round: every run
/// completes with starved nodes. The ladder returned the first (fewest
/// starved, by nine nodes), so that one is pinned whole.
#[test]
fn resilient_degrading_exhausts_and_salvages() {
    let (g, input, _) = dense();
    let mut host = Session::new(&g);
    let mut attempt = |a: u64, lp: usize| {
        resilient_broadcast_hosted(
            &mut host,
            &input,
            PartitionParams::explicit(lp),
            2,
            Some(FaultPlan::new(5, 0xBAD)),
            &BroadcastConfig::with_seed(attempt_seed(0x52, a)),
        )
        .unwrap()
    };
    let runs: Vec<ResilientOutcome> = [3, 3, 1, 1]
        .into_iter()
        .enumerate()
        .map(|(a, lp)| attempt(a as u64, lp))
        .collect();
    // (λ′, starved, dropped) per run.
    let starved: Vec<(usize, Vec<usize>, u64)> = runs
        .iter()
        .map(|out| (out.num_subgraphs, out.starved_nodes(), out.dropped))
        .collect();
    let winner = vec![0, 2, 3, 4, 7, 8, 12, 13, 19];
    let everyone: Vec<usize> = (0..48).collect();
    assert_eq!(
        starved,
        vec![
            (3, winner.clone(), 119),
            (
                3,
                vec![4, 5, 8, 11, 16, 18, 20, 21, 26, 30, 34, 38, 40, 41, 44, 45, 46, 47],
                119
            ),
            (1, everyone.clone(), 48),
            (1, everyone, 48),
        ]
    );
    let out = &runs[0];
    assert_phases(
        "resilient-degrading",
        &out.phases,
        false,
        &[
            ("leader-election", 4, 2096, None),
            ("bfs", 4, 768, None),
            ("numbering", 6, 94, None),
            ("edge-partition", 1, 384, None),
            ("subgraph-bfs", 6, 768, None),
            ("replicated-routing", 68, 8984, None),
        ],
    );
    assert_eq!((out.replication, out.num_subgraphs, out.k), (2, 3, 96));
    assert_eq!(out.expected, DENSE_CHECKSUMS);
    assert_eq!(dedup_summary(out), (4595, 4485, winner));
}

#[test]
fn exp_search() {
    let (g, input, _) = dense();
    let (out, report) = exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(5)).unwrap();
    assert_eq!(
        (
            report.delta,
            report.tried,
            report.accepted,
            report.num_subgraphs
        ),
        (16, vec![16], 16, 2)
    );
    assert_phases(
        "exp-search/dense",
        &out.phases,
        false,
        &[
            ("leader-election", 4, 2096, None),
            ("bfs", 4, 768, None),
            ("learn-delta", 6, 94, None),
            ("numbering", 6, 94, None),
            ("partition(λ\u{303}=16)", 1, 384, None),
            ("subgraph-bfs(λ\u{303}=16)", 6, 768, None),
            ("validity-check(λ\u{303}=16)", 6, 94, None),
            ("parallel-routing", 52, 4787, None),
        ],
    );
    assert_outcome("exp-search/dense", &out, 2, &[5, 4], DENSE_CHECKSUMS);

    // δ = 23 but λ = 2: at this seed the first guess fails its validity
    // check and the search halves once (the `10 + 4·iter` seed offsets).
    let g = clique_chain(3, 24, 2);
    let input = BroadcastInput::random_spread(&g, 40, 4);
    let (out, report) = exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(5)).unwrap();
    assert_eq!(
        (
            report.delta,
            report.tried,
            report.accepted,
            report.num_subgraphs
        ),
        (23, vec![23, 11], 11, 1)
    );
    assert_phases(
        "exp-search/descending",
        &out.phases,
        false,
        &[
            ("leader-election", 5, 4923, None),
            ("bfs", 5, 1664, None),
            ("learn-delta", 8, 142, None),
            ("numbering", 8, 142, None),
            ("partition(λ\u{303}=23)", 1, 832, None),
            ("subgraph-bfs(λ\u{303}=23)", 6, 858, None),
            ("validity-check(λ\u{303}=23)", 8, 142, None),
            ("partition(λ\u{303}=11)", 1, 832, None),
            ("subgraph-bfs(λ\u{303}=11)", 5, 1664, None),
            ("validity-check(λ\u{303}=11)", 8, 142, None),
            ("parallel-routing", 44, 2957, None),
        ],
    );
    assert_outcome(
        "exp-search/descending",
        &out,
        1,
        &[4],
        (0x42649a1533b5e2b7, 0x734f974bc7e3c05b),
    );
}
