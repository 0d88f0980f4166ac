//! Flood-max leader election.
//!
//! Lemma 1 (the pipelined broadcast) presupposes "a unique leader". The
//! classic flood-max algorithm elects the maximum id in `O(D)` rounds:
//! every node repeatedly forwards the largest id it has heard; when the
//! network quiesces, every node knows the global maximum and exactly one
//! node recognizes itself as leader.
//!
//! Message-driven: a node transmits only when its best-known id improves,
//! so total messages are `O(m · #improvements)` and rounds are `≤ D + 1`.

use congest_graph::Node;
use congest_sim::{NodeCtx, Protocol};

/// Per-node output of leader election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderInfo {
    /// The elected leader (the maximum id in the connected component).
    pub leader: Node,
    /// Whether this node is the leader.
    pub is_leader: bool,
}

/// The flood-max protocol.
pub struct FloodMax {
    me: Node,
    best: Node,
    dirty: bool,
}

impl FloodMax {
    pub fn new(me: Node) -> Self {
        FloodMax {
            me,
            best: me,
            dirty: true,
        }
    }
}

impl Protocol for FloodMax {
    type Msg = u32;
    type Output = LeaderInfo;
    /// Message-driven: with an empty inbox nothing can improve `best`,
    /// `dirty` is false after the round-0 announcement, so a done round
    /// reads nothing, sends nothing, and mutates nothing — the round
    /// loop may skip it.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
        // The composition's busiest loop: `fold` is the inbox's fast path.
        let best = ctx.inbox().fold(self.best, |best, (_, id)| best.max(id));
        if best > self.best {
            self.best = best;
            self.dirty = true;
        }
        if self.dirty {
            ctx.send_all(self.best);
            self.dirty = false;
        }
        ctx.set_done(true);
    }

    fn finish(self) -> LeaderInfo {
        LeaderInfo {
            leader: self.best,
            is_leader: self.best == self.me,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{cycle, path, torus2d};
    use congest_sim::{run_protocol, EngineConfig};

    #[test]
    fn everyone_agrees_on_max_id() {
        for g in [path(7), cycle(9), torus2d(4, 4)] {
            let out = run_protocol(&g, |v, _| FloodMax::new(v), EngineConfig::default()).unwrap();
            let n = g.n() as Node;
            for (v, info) in out.outputs.iter().enumerate() {
                assert_eq!(info.leader, n - 1, "node {v}");
                assert_eq!(info.is_leader, v as Node == n - 1);
            }
        }
    }

    #[test]
    fn rounds_bounded_by_diameter_plus_one() {
        let g = path(16); // max id sits at one end, D = 15
        let out = run_protocol(&g, |v, _| FloodMax::new(v), EngineConfig::default()).unwrap();
        assert!(out.stats.rounds <= 16, "rounds = {}", out.stats.rounds);
        assert!(out.stats.rounds >= 15);
    }

    #[test]
    fn disconnected_components_elect_separately() {
        let g = congest_graph::GraphBuilder::new(5)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        let out = run_protocol(&g, |v, _| FloodMax::new(v), EngineConfig::default()).unwrap();
        assert_eq!(out.outputs[0].leader, 1);
        assert_eq!(out.outputs[1].leader, 1);
        assert_eq!(out.outputs[2].leader, 3);
        assert_eq!(out.outputs[4].leader, 4);
        assert!(out.outputs[4].is_leader);
    }
}
