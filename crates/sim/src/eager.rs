//! Test support: the oracle for [`Protocol::QUIESCENT`].
//!
//! The round loop skips a done node with an empty inbox when its
//! protocol promises `QUIESCENT`, so on its own it cannot catch a wrong
//! promise. [`Eager`] withdraws the promise without touching the
//! protocol — the engine then steps every node every round — and
//! [`check_quiescent`] holds a run of `P` to a run of `Eager<P>`: if some
//! done node would have acted on an empty inbox, the two differ. No engine
//! switch and no config field is involved; nothing outside tests should
//! use either.

use crate::engine::{EngineConfig, RunOutcome};
use crate::protocol::{NodeCtx, Protocol};
use crate::session::Session;
use congest_graph::{Graph, Node};

/// `P` with `QUIESCENT = false`: `round` and `finish` are `P`'s.
pub struct Eager<P>(pub P);

impl<P: Protocol> Protocol for Eager<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, ctx: &mut NodeCtx<'_, P::Msg>) {
        self.0.round(ctx)
    }

    fn finish(self) -> P::Output {
        self.0.finish()
    }
}

/// Run `make`'s protocol and its [`Eager`] twin, each on a fresh session,
/// and report the first difference in outputs, [`crate::RunStats`], trace,
/// per-edge congestion or final `state_hash` — at shard counts 1, 4 and 6
/// pinned on a two-thread pool (so the forked passes run) × the sparse
/// path forced off, forced on and on its heuristic. `base` supplies the
/// seed, the fault plan and the round limit. The forced-off wing
/// (`sparse_threshold = Some(0)`) makes every delivering round a full
/// sweep, so there `P`'s listed rounds are the ones that follow a sweep,
/// whose receivers each shard lists by probing its occupancy words.
pub fn check_quiescent<P, F>(graph: &Graph, make: F, base: &EngineConfig) -> Result<(), String>
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(Node, &Graph) -> P,
{
    type Run<O> = (Result<RunOutcome<O>, crate::EngineError>, u64);
    fn run<Q: Protocol>(
        graph: &Graph,
        make: impl FnMut(Node, &Graph) -> Q,
        config: EngineConfig,
    ) -> Run<Q::Output> {
        let mut session = Session::new(graph);
        let outcome = session.run(make, config).map(|o| o.into_owned());
        (outcome, session.state_hash())
    }
    congest_par::with_threads(2, || {
        for shards in [1usize, 4, 6] {
            for threshold in [None, Some(0), Some(usize::MAX)] {
                let config = EngineConfig {
                    shards: Some(shards),
                    sparse_threshold: threshold,
                    collect_trace: true,
                    ..base.clone()
                };
                let at = format!("shards={shards} sparse_threshold={threshold:?}");
                let (lazy, lazy_hash) = run(graph, &make, config.clone());
                let (eager, eager_hash) = run(graph, |v, g| Eager(make(v, g)), config);
                match (lazy, eager) {
                    (Ok(lazy), Ok(eager)) => {
                        if lazy.outputs != eager.outputs {
                            return Err(format!("{at}: outputs differ"));
                        }
                        if lazy.stats != eager.stats {
                            return Err(format!(
                                "{at}: stats {:?} != eager {:?}",
                                lazy.stats, eager.stats
                            ));
                        }
                        if lazy.trace != eager.trace {
                            return Err(format!("{at}: traces differ"));
                        }
                        if lazy.edge_congestion != eager.edge_congestion {
                            return Err(format!("{at}: per-edge congestion differs"));
                        }
                    }
                    (Err(lazy), Err(eager)) if lazy == eager => {}
                    (lazy, eager) => {
                        return Err(format!(
                            "{at}: {:?} != eager {:?}",
                            lazy.map(|o| o.stats),
                            eager.map(|o| o.stats)
                        ));
                    }
                }
                if lazy_hash != eager_hash {
                    return Err(format!("{at}: state hashes differ"));
                }
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::harary;

    /// A flood that breaks the promise: in round 3 every node sends (on
    /// port 0, or on every port if it forwards) whether or not it has
    /// mail, yet it declares `QUIESCENT`.
    struct Liar {
        heard: bool,
    }

    impl Protocol for Liar {
        type Msg = u32;
        type Output = bool;
        const QUIESCENT: bool = true;

        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if !self.heard && (ctx.inbox_len() > 0 || (ctx.round == 0 && ctx.node == 0)) {
                self.heard = true;
                for p in 0..ctx.degree() as u32 {
                    ctx.send(p, 0);
                }
            } else if ctx.round == 3 {
                ctx.send(0, 1);
            }
            ctx.set_done(true);
        }

        fn finish(self) -> bool {
            self.heard
        }
    }

    #[test]
    fn the_oracle_catches_a_done_node_that_sends_on_an_empty_inbox() {
        let g = harary(4, 32);
        let found = check_quiescent(&g, |_, _| Liar { heard: false }, &EngineConfig::default());
        assert!(found.is_err(), "a broken QUIESCENT promise went unnoticed");
    }
}
