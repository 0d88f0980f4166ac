//! Sequential phase composition.
//!
//! The paper's algorithms are sums of phases (Theorem 1's proof literally
//! adds `O(D)` numbering + partition + per-subgraph BFS + pipelined
//! routing). [`PhaseLog`] records each phase's [`RunStats`] under a name
//! and exposes the composed totals, so experiment tables can show both the
//! total and the per-phase breakdown.
//!
//! A phase may additionally carry the engine's post-phase
//! [`crate::Session::state_hash`] ([`PhaseLog::record_hashed`]): eight
//! bytes per phase that let two hosts running the same composition diff
//! their logs and name the first phase where they diverged, without
//! shipping any buffer contents (see [`crate::snapshot`]).

use crate::engine::RunStats;

/// An ordered log of named phases and their costs.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    /// `(name, stats, post-phase state hash if recorded)`.
    entries: Vec<(String, RunStats, Option<u64>)>,
}

impl PhaseLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed phase.
    pub fn record(&mut self, name: impl Into<String>, stats: RunStats) {
        self.entries.push((name.into(), stats, None));
    }

    /// Record a completed phase together with the engine's post-phase
    /// state hash (the checkpoint signal — see [`crate::snapshot`]).
    pub fn record_hashed(&mut self, name: impl Into<String>, stats: RunStats, hash: u64) {
        self.entries.push((name.into(), stats, Some(hash)));
    }

    /// Append every phase of `later`, in order, each name prefixed by
    /// `prefix` and each state hash kept: how a composition files a
    /// sub-run's log (a Theorem 1 broadcast inside an application).
    pub fn append(&mut self, prefix: &str, later: PhaseLog) {
        self.entries.extend(
            later
                .entries
                .into_iter()
                .map(|(name, stats, hash)| (format!("{prefix}{name}"), stats, hash)),
        );
    }

    /// Iterate `(name, stats)` in execution order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &RunStats)> {
        self.entries.iter().map(|(n, s, _)| (n.as_str(), s))
    }

    /// Iterate `(name, state hash)` in execution order; `None` for
    /// phases recorded without a hash.
    pub fn hashes(&self) -> impl Iterator<Item = (&str, Option<u64>)> + '_ {
        self.entries.iter().map(|(n, _, h)| (n.as_str(), *h))
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cost of the sequential composition.
    pub fn total(&self) -> RunStats {
        self.entries
            .iter()
            .fold(RunStats::default(), |acc, (_, s, _)| acc.then(*s))
    }

    /// Total rounds across phases — the headline number.
    pub fn total_rounds(&self) -> u64 {
        self.entries.iter().map(|(_, s, _)| s.rounds).sum()
    }

    /// Rounds of a specific named phase (first match).
    pub fn rounds_of(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, s, _)| s.rounds)
    }

    /// Human-readable multi-line breakdown; the name column is as wide
    /// as the longest name, and at least 28 characters.
    pub fn breakdown(&self) -> String {
        use std::fmt::Write;
        let width = self
            .entries
            .iter()
            .map(|(name, _, _)| name.chars().count())
            .fold(28, usize::max);
        let mut s = String::new();
        let rows = self
            .entries
            .iter()
            .map(|(name, st, _)| (name.as_str(), *st));
        for (name, st) in rows.chain([("TOTAL", self.total())]) {
            let _ = writeln!(
                s,
                "  {name:<width$} {:>8} rounds  {:>10} msgs  congestion {:>6}",
                st.rounds, st.total_messages, st.max_edge_congestion
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: u64, msgs: u64) -> RunStats {
        RunStats {
            rounds,
            iterations: rounds,
            total_messages: msgs,
            max_edge_congestion: msgs.min(5),
            max_message_bits: 32,
            dropped_messages: 0,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut log = PhaseLog::new();
        log.record("bfs", stats(7, 100));
        log.record("broadcast", stats(20, 400));
        assert_eq!(log.total_rounds(), 27);
        assert_eq!(log.total().total_messages, 500);
        assert_eq!(log.rounds_of("bfs"), Some(7));
        assert_eq!(log.rounds_of("nope"), None);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn breakdown_mentions_each_phase() {
        let mut log = PhaseLog::new();
        log.record("alpha", stats(1, 2));
        log.record("beta", stats(3, 4));
        let text = log.breakdown();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn breakdown_widens_its_name_column_to_the_longest_name() {
        let mut log = PhaseLog::new();
        log.record("short", stats(1, 2));
        log.record("a-phase-name-longer-than-28-chars", stats(30, 400));
        let text = log.breakdown();
        let starts: Vec<usize> = text.lines().map(|l| l.find("rounds").unwrap()).collect();
        assert!(starts.windows(2).all(|w| w[0] == w[1]), "{text}");
    }

    #[test]
    fn append_prefixes_names_and_keeps_hashes() {
        let mut inner = PhaseLog::new();
        inner.record_hashed("bfs", stats(7, 100), 0xAB);
        inner.record("route", stats(20, 400));
        let mut log = PhaseLog::new();
        log.record("setup", stats(1, 1));
        log.append("b: ", inner);
        let names: Vec<&str> = log.phases().map(|(n, _)| n).collect();
        assert_eq!(names, ["setup", "b: bfs", "b: route"]);
        let hashes: Vec<Option<u64>> = log.hashes().map(|(_, h)| h).collect();
        assert_eq!(hashes, [None, Some(0xAB), None]);
        assert_eq!(log.total_rounds(), 28);
    }

    #[test]
    fn empty_log() {
        let log = PhaseLog::new();
        assert!(log.is_empty());
        assert_eq!(log.total_rounds(), 0);
    }
}
