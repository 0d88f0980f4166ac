//! Connectivity watchdog and graceful degradation on a fixed graph.
//!
//! The paper's parameter choice `λ′ = λ/(C·ln n)` (Theorem 1) needs λ, and
//! exact λ costs a max-flow computation. The free estimate is the minimum
//! degree δ, and `δ ≥ λ` always — so a λ′ taken from δ can exceed what the
//! graph supports (a bottleneck cut narrower than δ, as in clique chains
//! and barbells). Past Theorem 2's threshold every attempt fails
//! [`BroadcastError::NotSpanning`], and a bare retry loop burns its whole
//! budget re-rolling a partition that *cannot* span.
//!
//! This module closes that gap in two layers:
//!
//! * a **watchdog** ([`watchdog()`]) run before the first attempt: it
//!   measures connectivity (the free `δ ≥ λ` bound by default, exact λ
//!   via [`congest_graph::algo::edge_connectivity`] on demand) and
//!   computes the λ′ that bound supports;
//! * a **degradation ladder** ([`partition_broadcast_degrading_hosted`],
//!   [`resilient_broadcast_degrading_hosted`]): retry with fresh seeds at
//!   the current λ′, and on persistent `NotSpanning` halve the subgraph
//!   count instead of failing — at λ′ = 1 the algorithm *is* the textbook
//!   single-tree broadcast, which spans any connected graph. Only a
//!   genuinely disconnected graph (reported cleanly as
//!   [`BroadcastError::Disconnected`]) or an exhausted budget still
//!   errors.
//!
//! The ladder is the family's only retry loop: attempt `a`, counted
//! across levels, is one broadcast on the caller's host at seed
//! `cfg.seed + a·⌊2³²/φ⌋`, and
//! [`crate::broadcast::partition_broadcast_retrying`] is the ladder under
//! the flat policy ([`DegradePolicy::flat`]).
//!
//! The resilient variant additionally tolerates partial delivery: under
//! an active edge adversary a run can complete with starved nodes, so the
//! ladder keeps the best outcome seen (fewest starved nodes) and returns
//! it with [`DegradeLog::exhausted`] set when the budget runs out —
//! degraded service instead of no service.

use crate::broadcast::{
    partition_broadcast_hosted, BroadcastConfig, BroadcastError, BroadcastInput, BroadcastOutcome,
    DEFAULT_PARTITION_C,
};
use crate::partition::PartitionParams;
use crate::resilient::{resilient_broadcast_hosted, ResilientOutcome};
use congest_graph::{algo, Graph};
use congest_sim::{FaultPlan, Session};

/// How the watchdog measures connectivity before the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatchdogMode {
    /// Skip the check (the degradation ladder still reacts to
    /// `NotSpanning` failures, just without foresight).
    Off,
    /// Use the minimum degree δ: free to compute, and `λ ≤ δ` always, so
    /// a δ that no longer supports the requested λ′ proves λ doesn't
    /// either. Misses cuts narrower than δ (a bottleneck between two
    /// dense halves). This is the default.
    #[default]
    MinDegree,
    /// Exact λ by max-flow ([`algo::edge_connectivity`]): one unit flow,
    /// capped at δ, per vertex of a dominating set. Precise, and ~16 ms at
    /// `harary(128, 1024)` (~1 s at `harary(64, 8192)`), but it still walks
    /// every edge where the default reads `n` degrees.
    Exact,
}

/// What the watchdog saw before the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Minimum degree δ of the current graph.
    pub min_degree: usize,
    /// Exact λ (only measured in [`WatchdogMode::Exact`]).
    pub lambda: Option<usize>,
    /// The λ′ the caller wanted to run with.
    pub current_subgraphs: usize,
    /// The λ′ the current graph supports:
    /// `max(1, ⌊bound/(c·ln n)⌋)` for the measured bound.
    pub recommended_subgraphs: usize,
    /// `recommended < current`: proceeding unchanged would (likely) fail.
    pub degrade_needed: bool,
    /// The graph cannot be spanned at all.
    pub disconnected: bool,
}

/// Measure connectivity and judge whether `current_subgraphs` is viable
/// on `g`. `c` is the partition constant (Theorem 2's `C`,
/// usually [`DEFAULT_PARTITION_C`]).
pub fn watchdog(g: &Graph, current_subgraphs: usize, mode: WatchdogMode, c: f64) -> WatchdogReport {
    let n = g.n();
    let min_degree = g.min_degree();
    let (lambda, bound, disconnected) = match mode {
        WatchdogMode::Off => (None, current_subgraphs, false),
        WatchdogMode::MinDegree => (None, min_degree, n > 1 && min_degree == 0),
        WatchdogMode::Exact => {
            let l = algo::edge_connectivity(g);
            (Some(l), l, n > 1 && l == 0)
        }
    };
    let recommended = match mode {
        WatchdogMode::Off => current_subgraphs,
        _ => PartitionParams::from_lambda(n, bound, c).num_subgraphs,
    };
    WatchdogReport {
        min_degree,
        lambda,
        current_subgraphs,
        recommended_subgraphs: recommended,
        degrade_needed: recommended < current_subgraphs,
        disconnected,
    }
}

/// Budget and shape of the degradation ladder.
#[derive(Debug, Clone, Copy)]
pub struct DegradePolicy {
    /// Fresh-seed retries at each subgraph count before halving.
    pub attempts_per_level: usize,
    /// Floor of the ladder (1 = textbook single-tree broadcast).
    pub min_subgraphs: usize,
    /// Connectivity check before the first attempt.
    pub watchdog: WatchdogMode,
    /// Theorem 2's `C` used to recompute λ′ from the watchdog's bound.
    pub partition_c: f64,
}

impl DegradePolicy {
    /// The flat ladder — plain retrying: `attempts` fresh seeds at
    /// `params`' subgraph count, no watchdog, no level below it.
    pub fn flat(attempts: usize, params: PartitionParams) -> Self {
        DegradePolicy {
            attempts_per_level: attempts,
            min_subgraphs: params.num_subgraphs,
            watchdog: WatchdogMode::Off,
            partition_c: DEFAULT_PARTITION_C,
        }
    }
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            attempts_per_level: 3,
            min_subgraphs: 1,
            watchdog: WatchdogMode::MinDegree,
            partition_c: DEFAULT_PARTITION_C,
        }
    }
}

/// One partial-delivery run remembered by the salvage ladder: which
/// attempt it was, what it starved, and whether its outcome is the one
/// ultimately returned at exhaustion. A multi-tenant caller attributes
/// degraded service run by run from these records instead of seeing only
/// the winning outcome's global starved set.
#[derive(Debug, Clone)]
pub struct SalvageAttempt {
    /// λ′ the attempt ran at.
    pub subgraphs: usize,
    /// Zero-based attempt index across the whole ladder (the same
    /// counter that perturbs the seed), so the exact run is replayable.
    pub attempt: u64,
    /// That run's exact starved-node set.
    pub starved: Vec<usize>,
    /// Messages the adversary destroyed during that run's routing phase.
    pub dropped: u64,
    /// True on exactly one record iff the budget was exhausted and this
    /// attempt's outcome was the best partial delivery returned.
    pub salvaged: bool,
}

/// How a degrading run actually unfolded.
#[derive(Debug, Clone, Default)]
pub struct DegradeLog {
    /// The connectivity check, if the policy ran one.
    pub watchdog: Option<WatchdogReport>,
    /// `(subgraphs, attempts)` per ladder level, in descent order; the
    /// last entry is the level that produced the returned result.
    pub levels: Vec<(usize, usize)>,
    /// λ′ of the returned outcome (0 if the run errored out).
    pub final_subgraphs: usize,
    /// Did we run below the λ′ originally requested?
    pub degraded: bool,
    /// The whole budget was spent; the result (if any) is best-effort.
    pub exhausted: bool,
    /// Every partial-delivery attempt the resilient ladder saw, in run
    /// order (empty for the plain partition ladder and for runs that
    /// fully delivered before anything starved).
    pub salvage: Vec<SalvageAttempt>,
}

impl DegradeLog {
    pub fn total_attempts(&self) -> usize {
        self.levels.iter().map(|&(_, a)| a).sum()
    }
}

/// The one retry-and-degrade loop. `attempt(host, params, cfg)` runs one
/// broadcast; the ladder re-rolls `cfg.seed` `attempts_per_level` times
/// at each λ′ and halves λ′ on persistent `NotSpanning`, starting from
/// what the watchdog (if any) says the host's graph supports. `partial`
/// is the salvage hook: it names the
/// starved nodes and the drop count of a completed run that did not
/// fully deliver — such a run is logged, the one with the fewest starved
/// nodes (earliest on ties) is kept, and it is what the ladder returns if
/// the budget runs out.
fn ladder<O>(
    host: &mut Session<'_>,
    params: PartitionParams,
    cfg: &BroadcastConfig,
    policy: &DegradePolicy,
    mut attempt: impl FnMut(
        &mut Session<'_>,
        PartitionParams,
        &BroadcastConfig,
    ) -> Result<O, BroadcastError>,
    partial: impl Fn(&O) -> Option<(Vec<usize>, u64)>,
) -> Result<(O, DegradeLog), BroadcastError> {
    let mut log = DegradeLog::default();
    let requested = params.num_subgraphs;
    let floor = policy.min_subgraphs.max(1);
    let mut lp = requested.max(floor);
    if policy.watchdog != WatchdogMode::Off {
        let report = watchdog(host.graph(), lp, policy.watchdog, policy.partition_c);
        if report.disconnected {
            return Err(BroadcastError::Disconnected);
        }
        if report.degrade_needed {
            // Jump straight to what the graph supports instead of
            // discovering it one NotSpanning failure at a time.
            lp = report.recommended_subgraphs.max(floor);
            log.degraded = lp < requested;
        }
        log.watchdog = Some(report);
    }
    let mut cfg = cfg.clone();
    let base_seed = cfg.seed;
    let mut total_attempt: u64 = 0;
    let mut last_err = None;
    // The best partial delivery so far: its level, its outcome, and its
    // index in `log.salvage`.
    let mut best: Option<(usize, O, usize)> = None;
    loop {
        let mut attempts_here = 0usize;
        for _ in 0..policy.attempts_per_level.max(1) {
            cfg.seed = base_seed.wrapping_add(total_attempt * 0x9E37_79B9);
            total_attempt += 1;
            attempts_here += 1;
            match attempt(host, PartitionParams::explicit(lp), &cfg) {
                Ok(out) => {
                    let Some((starved, dropped)) = partial(&out) else {
                        log.levels.push((lp, attempts_here));
                        log.final_subgraphs = lp;
                        return Ok((out, log));
                    };
                    let fewest = best
                        .as_ref()
                        .map_or(usize::MAX, |&(.., at)| log.salvage[at].starved.len());
                    if starved.len() < fewest {
                        best = Some((lp, out, log.salvage.len()));
                    }
                    log.salvage.push(SalvageAttempt {
                        subgraphs: lp,
                        attempt: total_attempt - 1,
                        starved,
                        dropped,
                        salvaged: false,
                    });
                }
                Err(e @ BroadcastError::NotSpanning { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        log.levels.push((lp, attempts_here));
        if lp <= floor {
            log.exhausted = true;
            // Budget gone: degrade gracefully to the best partial
            // delivery, if there was one, instead of erroring.
            let (level, out, at) = best.ok_or_else(|| last_err.expect("an attempt ran"))?;
            log.final_subgraphs = level;
            log.salvage[at].salvaged = true;
            return Ok((out, log));
        }
        lp = (lp / 2).max(floor);
        log.degraded = true;
    }
}

/// Theorem 1 with retry-and-degrade instead of hard failure; see the
/// module docs. Every attempt at every level is one
/// [`partition_broadcast_hosted`] on the caller's engine.
pub fn partition_broadcast_degrading_hosted(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    cfg: &BroadcastConfig,
    policy: &DegradePolicy,
) -> Result<(BroadcastOutcome, DegradeLog), BroadcastError> {
    let attempt = |host: &mut Session<'_>, params, cfg: &BroadcastConfig| {
        partition_broadcast_hosted(host, input, params, cfg)
    };
    ladder(host, params, cfg, policy, attempt, |_| None)
}

/// Resilient broadcast with retry-and-degrade **and** partial-delivery
/// salvage: an attempt that completes with starved nodes is remembered
/// (fewest starved wins, earliest such attempt on ties) and returned with
/// [`DegradeLog::exhausted`] set if nothing fully delivers within the
/// budget. Callers distinguish the cases via
/// [`ResilientOutcome::all_delivered`] / [`DegradeLog::exhausted`].
pub fn resilient_broadcast_degrading_hosted(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    replication: usize,
    faults: Option<FaultPlan>,
    cfg: &BroadcastConfig,
    policy: &DegradePolicy,
) -> Result<(ResilientOutcome, DegradeLog), BroadcastError> {
    let attempt = |host: &mut Session<'_>, params, cfg: &BroadcastConfig| {
        resilient_broadcast_hosted(host, input, params, replication, faults, cfg)
    };
    ladder(host, params, cfg, policy, attempt, |out| {
        let starved = out.starved_nodes();
        (!starved.is_empty()).then_some((starved, out.dropped))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{cycle, harary};
    use congest_graph::GraphBuilder;

    /// One attempt per level, no watchdog: the ladder itself must work.
    fn one_shot_levels() -> DegradePolicy {
        DegradePolicy {
            attempts_per_level: 1,
            watchdog: WatchdogMode::Off,
            ..Default::default()
        }
    }

    /// The resilient ladder from λ′ = 4 on `harary(24, 72)`, k = 72, seed
    /// `0x52`: `r` copies per message against `faults` edge faults a round.
    fn resilient_ladder(
        r: usize,
        faults: usize,
        policy: &DegradePolicy,
    ) -> (ResilientOutcome, DegradeLog) {
        let g = harary(24, 72);
        resilient_broadcast_degrading_hosted(
            &mut Session::new(&g),
            &BroadcastInput::random_spread(&g, 72, 3),
            PartitionParams::explicit(4),
            r,
            Some(FaultPlan::new(faults, 0xBAD)),
            &BroadcastConfig::with_seed(0x52),
            policy,
        )
        .unwrap()
    }

    #[test]
    fn watchdog_modes_agree_on_healthy_graphs() {
        // δ = λ = 16 on 48 nodes: ⌊16/(2·ln 48)⌋ = 2, so λ′ = 2 is viable.
        let g = harary(16, 48);
        let cheap = watchdog(&g, 2, WatchdogMode::MinDegree, DEFAULT_PARTITION_C);
        let exact = watchdog(&g, 2, WatchdogMode::Exact, DEFAULT_PARTITION_C);
        assert_eq!(cheap.min_degree, 16);
        assert_eq!(exact.lambda, Some(16));
        assert_eq!(
            cheap.recommended_subgraphs, exact.recommended_subgraphs,
            "δ = λ here, so both modes recommend the same λ′"
        );
        assert!(!cheap.degrade_needed && !exact.degrade_needed);
        assert!(!cheap.disconnected);
    }

    #[test]
    fn watchdog_flags_overambitious_subgraph_counts() {
        let g = cycle(64); // δ = λ = 2; 2/(2·ln 64) < 1 ⇒ λ′ = 1
        let rep = watchdog(&g, 4, WatchdogMode::MinDegree, DEFAULT_PARTITION_C);
        assert!(rep.degrade_needed);
        assert_eq!(rep.recommended_subgraphs, 1);
    }

    #[test]
    fn watchdog_exact_sees_narrow_cut_min_degree_misses() {
        // Two K17's joined by one bridge: δ = 16 (⌊16/(2·ln 34)⌋ = 2, so
        // the cheap bound blesses λ′ = 2) but λ = 1.
        let mut edges = Vec::new();
        for a in 0..17u32 {
            for b in (a + 1)..17 {
                edges.push((a, b));
                edges.push((a + 17, b + 17));
            }
        }
        edges.push((0, 17));
        let g = GraphBuilder::new(34).edges(edges).build().unwrap();
        let cheap = watchdog(&g, 2, WatchdogMode::MinDegree, DEFAULT_PARTITION_C);
        let exact = watchdog(&g, 2, WatchdogMode::Exact, DEFAULT_PARTITION_C);
        assert!(!cheap.degrade_needed, "δ = 16 looks fine to the cheap mode");
        assert!(exact.degrade_needed, "λ = 1 cannot support 2 subgraphs");
        assert_eq!(exact.lambda, Some(1));
    }

    #[test]
    fn disconnected_graph_is_reported_cleanly() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        let rep = watchdog(&g, 1, WatchdogMode::Exact, DEFAULT_PARTITION_C);
        assert!(rep.disconnected);
        let input = BroadcastInput::at_single_node(&g, 0, 4);
        let err = partition_broadcast_degrading_hosted(
            &mut Session::new(&g),
            &input,
            PartitionParams::explicit(1),
            &BroadcastConfig::with_seed(1),
            &DegradePolicy {
                watchdog: WatchdogMode::Exact,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, BroadcastError::Disconnected);
    }

    #[test]
    fn degrading_broadcast_succeeds_where_fixed_params_fail() {
        // cycle(16) with λ′ = 16 demanded: plain broadcast fails
        // NotSpanning (pinned in broadcast.rs tests); the degrading
        // wrapper walks down and delivers on one tree.
        let g = cycle(16);
        let input = BroadcastInput::random_spread(&g, 8, 0);
        let (out, log) = partition_broadcast_degrading_hosted(
            &mut Session::new(&g),
            &input,
            PartitionParams::explicit(16),
            &BroadcastConfig::with_seed(0),
            &one_shot_levels(),
        )
        .unwrap();
        assert!(out.all_delivered());
        assert!(log.degraded);
        assert_eq!(log.final_subgraphs, 1);
        assert!(log.levels.len() > 1, "walked down the ladder");
        assert!(!log.exhausted);
    }

    #[test]
    fn resilient_degrading_returns_best_partial_on_exhaustion() {
        // Unreplicated routing under a heavy mobile adversary: every
        // ladder level completes but starves someone. The budget runs
        // out and the wrapper returns the *best* partial outcome instead
        // of an error — degraded service, honestly labelled.
        let (out, log) = resilient_ladder(1, 12, &one_shot_levels());
        assert!(log.exhausted, "no attempt fully delivered: {log:?}");
        assert!(out.dropped > 0, "the adversary must have acted");
        assert!(!out.all_delivered());
        let starved = out.starved_nodes();
        assert!(!starved.is_empty());
        // starved_nodes is precisely the fingerprint-mismatch set.
        for (v, r) in out.per_node.iter().enumerate() {
            let bad = r.unique != out.k || (r.xor_check, r.sum_check) != out.expected;
            assert_eq!(starved.contains(&v), bad, "node {v}");
        }
        // The ladder walked 4 → 2 → 1, one attempt each.
        let visited: Vec<usize> = log.levels.iter().map(|&(l, _)| l).collect();
        assert_eq!(visited, vec![4, 2, 1]);
        assert_eq!(log.total_attempts(), 3);
    }

    #[test]
    fn exhausted_salvage_reports_every_partial_attempt() {
        // Same exhaustion scenario as above, but the contract under test
        // is the per-run salvage detail: `log.salvage` must carry one
        // record per partial attempt — exact starved set, drop count,
        // replayable attempt index — with exactly one record marked as
        // the outcome the caller actually got. Multi-tenant callers
        // attribute degraded service from these records, not from the
        // winner's global starved set alone.
        let (out, log) = resilient_ladder(1, 12, &one_shot_levels());
        assert!(log.exhausted);
        // One attempt per level, all partial: three salvage records in
        // run order with replayable attempt indices.
        let levels: Vec<usize> = log.salvage.iter().map(|s| s.subgraphs).collect();
        assert_eq!(levels, vec![4, 2, 1]);
        let attempts: Vec<u64> = log.salvage.iter().map(|s| s.attempt).collect();
        assert_eq!(attempts, vec![0, 1, 2]);
        for s in &log.salvage {
            assert!(!s.starved.is_empty(), "a salvage record is a partial run");
            assert!(s.dropped > 0, "partial delivery here implies drops");
        }
        // Exactly one record is the returned outcome, and it is the one
        // with the fewest starved nodes (earliest on ties).
        let winners: Vec<&SalvageAttempt> = log.salvage.iter().filter(|s| s.salvaged).collect();
        assert_eq!(winners.len(), 1);
        let w = winners[0];
        assert_eq!(w.starved, out.starved_nodes());
        assert_eq!(w.dropped, out.dropped);
        assert_eq!(w.subgraphs, log.final_subgraphs);
        let min = log.salvage.iter().map(|s| s.starved.len()).min().unwrap();
        assert_eq!(w.starved.len(), min);
        assert!(log
            .salvage
            .iter()
            .take_while(|s| !s.salvaged)
            .all(|s| s.starved.len() > min));
        // A run that fully delivers leaves no salvage records behind.
        let (_, ok_log) = resilient_ladder(3, 3, &one_shot_levels());
        assert!(ok_log.salvage.is_empty());
    }

    #[test]
    fn resilient_degrading_stops_at_first_full_delivery() {
        // Watchdog off: harary(24,72) only supports λ′ = 2 by the
        // formula, and this test wants the undegraded r=3 run (pinned
        // all-delivered in resilient.rs) to return on attempt one.
        let policy = DegradePolicy {
            watchdog: WatchdogMode::Off,
            ..Default::default()
        };
        let (out, log) = resilient_ladder(3, 3, &policy);
        assert!(out.all_delivered(), "starved: {:?}", out.starved_nodes());
        assert!(!log.exhausted);
        assert_eq!(log.final_subgraphs, 4, "no degradation needed");
        assert_eq!(log.total_attempts(), 1);
    }

    #[test]
    fn watchdog_jumps_ladder_straight_to_viable_level() {
        let g = cycle(16);
        let input = BroadcastInput::random_spread(&g, 8, 0);
        let (out, log) = partition_broadcast_degrading_hosted(
            &mut Session::new(&g),
            &input,
            PartitionParams::explicit(16),
            &BroadcastConfig::with_seed(0),
            &DegradePolicy::default(),
        )
        .unwrap();
        assert!(out.all_delivered());
        assert_eq!(log.final_subgraphs, 1);
        assert_eq!(log.total_attempts(), 1, "no NotSpanning burned: {log:?}");
    }
}
