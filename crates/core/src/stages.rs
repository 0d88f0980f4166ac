//! The Theorem 1 composition, written once.
//!
//! Every driver of the family — the plain and wide drivers in
//! [`crate::broadcast`], [`crate::resilient`], [`crate::exp_search`] — is
//! the same sequence of stages over a [`Composition`]:
//!
//! | stage | method | phases | depends on the sources? |
//! |---|---|---|---|
//! | a | [`Composition::tree`] | leader election, BFS on `G` | no |
//! | b | [`Composition::number`] | Lemma 3 numbering | **yes** — the only such control phase |
//! | c | [`Composition::class_trees`] | Theorem 2 partition, per-class BFS | no |
//! | c | [`Composition::spanning`] | Theorem 2's event, checked locally | no |
//! | d | [`Composition::route`] | Lemma 1 on every class tree at once | yes |
//! | e | [`Composition::expected`], [`Composition::outcome`] | — (assembly) | yes |
//!
//! What differs between drivers stays with them: the `(lane, phase) →
//! EngineConfig` mapping (their seed offsets, and faults on the routing
//! phase), the phase numbers and names, the number of copies per message
//! and the node protocol that wraps the per-class cores. The single-tree
//! baseline ([`crate::textbook`]) borrows stage a and the phase runner.
//!
//! The composition runs `L` independent lanes in lockstep on the caller's
//! [`Session`], and the lane count it was built with picks the kernel: one
//! lane runs each phase through [`Session::run`] and records the post-phase
//! state hash; more run it through [`Session::run_wide`] on the live lanes
//! and record none (a wide phase does not move the hash). Lanes only ever
//! leave the live set between stages c and d, when their partition failed
//! to span.

use crate::bfs::{BfsNodeInfo, BfsProtocol, SubgraphBfs, SubgraphBfsInfo};
use crate::broadcast::{BroadcastError, BroadcastInput, BroadcastOutcome};
use crate::convergecast::{Numbering, TreeView};
use crate::leader::FloodMax;
use crate::partition::EdgePartitionProtocol;
use crate::pipeline::{expected_checksums, PipeCore, PipeMsg, PipeResult};
use congest_graph::{Graph, Node};
use congest_sim::{EngineConfig, EngineError, LaneSpec, PhaseLog, Protocol, Session};

/// Stage c's phase numbers and names in Theorem 1's own numbering.
pub(crate) const CLASS_PHASES: [(u64, &str); 2] = [(4, "edge-partition"), (5, "subgraph-bfs")];

/// What a phase hands back: `(lane, per-node outputs)` per live lane.
type PerLane<O> = Vec<(usize, Vec<O>)>;

/// The phase-running half of a [`Composition`]: the host, the caller's
/// seed discipline, the live lanes and one log per lane. Split from the
/// lane state so a phase's factory can read that state while it runs.
pub(crate) struct Phases<'r, 'g, E> {
    host: &'r mut Session<'g>,
    /// `(lane, phase) → EngineConfig`.
    engine: E,
    /// Lanes still running, ascending.
    live: Vec<usize>,
    logs: Vec<PhaseLog>,
}

impl<E: Fn(usize, u64) -> EngineConfig> Phases<'_, '_, E> {
    /// Run phase number `phase` on every live lane and record it under
    /// `name`; `factory(v, lane, g)` builds that lane's protocol state at
    /// `v`.
    pub(crate) fn run<P, F>(
        &mut self,
        (phase, name): (u64, &str),
        mut factory: F,
    ) -> Result<PerLane<P::Output>, EngineError>
    where
        P: Protocol,
        F: FnMut(Node, usize, &Graph) -> P,
    {
        let Some(&first) = self.live.first() else {
            return Ok(Vec::new());
        };
        // Everything but seed and faults is shared by the lanes of a phase.
        let shared = (self.engine)(first, phase);
        // Built with one lane: the sequential kernel, hashed.
        if self.logs.len() == 1 {
            let run = self.host.run(|v, g| factory(v, first, g), shared)?;
            let stats = run.stats;
            let outputs = run.take_outputs();
            // Hashed after the outcome released the engine: the checkpoint
            // signal of the phase boundary.
            self.logs[first].record_hashed(name, stats, self.host.state_hash());
            return Ok(vec![(first, outputs)]);
        }
        let live = &self.live;
        let specs: Vec<LaneSpec> = live
            .iter()
            .map(|&l| {
                let config = (self.engine)(l, phase);
                LaneSpec {
                    seed: config.seed,
                    faults: config.faults,
                }
            })
            .collect();
        let mut run = self
            .host
            .run_wide(&specs, |v, slot, g| factory(v, live[slot], g), shared)?;
        Ok(live
            .iter()
            .enumerate()
            .map(|(slot, &l)| {
                self.logs[l].record(name, run.stats(slot));
                (l, run.take_lane_outputs(slot))
            })
            .collect())
    }
}

/// What the control stages have established for one lane.
#[derive(Default)]
pub(crate) struct Lane {
    /// Stage a: the leader, and every node's place in the BFS tree of `G`.
    pub(crate) root: Node,
    pub(crate) tree: Vec<BfsNodeInfo>,
    /// Stage b: `own[v][j]` is `(global id, payload)` of `v`'s `j`-th message.
    pub(crate) own: Vec<Vec<(u32, u64)>>,
    /// Stage c: `class_trees[v][c]` is `v`'s place in class `c`'s BFS tree.
    pub(crate) class_trees: Vec<SubgraphBfsInfo>,
}

/// Theorem 1 in progress on `L` lanes; see the module docs.
pub(crate) struct Composition<'r, 'g, E> {
    pub(crate) phases: Phases<'r, 'g, E>,
    pub(crate) lanes: Vec<Lane>,
    /// Payloads by holder — the instance, shared by all lanes.
    payloads: Vec<Vec<u64>>,
    k: u64,
    /// λ′ of the latest stage c.
    lp: usize,
}

impl<'r, 'g, E: Fn(usize, u64) -> EngineConfig> Composition<'r, 'g, E> {
    pub(crate) fn new(
        host: &'r mut Session<'g>,
        input: &BroadcastInput,
        lanes: usize,
        engine: E,
    ) -> Self {
        let payloads = input.payloads_by_node(host.graph().n());
        Composition {
            phases: Phases {
                host,
                engine,
                live: (0..lanes).collect(),
                logs: vec![PhaseLog::new(); lanes],
            },
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            payloads,
            k: input.k() as u64,
            lp: 0,
        }
    }

    /// Stage a (phases 1 and 2 of every driver): elect a leader and build
    /// the BFS tree of `G` from it.
    pub(crate) fn tree(&mut self) -> Result<(), EngineError> {
        let leaders = self
            .phases
            .run((1, "leader-election"), |v, _, _| FloodMax::new(v))?;
        for (l, leaders) in leaders {
            self.lanes[l].root = leaders[0].leader;
        }
        let lanes = &self.lanes;
        let trees = self
            .phases
            .run((2, "bfs"), |v, l, _| BfsProtocol::new(lanes[l].root, v))?;
        for (l, tree) in trees {
            self.lanes[l].tree = tree;
        }
        Ok(())
    }

    /// Stage b: Lemma 3 numbering. Locally at each node, message `j`
    /// (input order) gets id `start_v + j`.
    pub(crate) fn number(&mut self, phase: u64) -> Result<(), EngineError> {
        let (lanes, payloads) = (&self.lanes, &self.payloads);
        let starts = self.phases.run((phase, "numbering"), |v, l, _| {
            let vi = v as usize;
            let view = TreeView::from_bfs(&lanes[l].tree[vi]);
            Numbering::new(view, payloads[vi].len() as u64)
        })?;
        for (l, starts) in starts {
            debug_assert!(starts.iter().all(|&(_, total)| total == self.k));
            self.lanes[l].own = starts
                .iter()
                .zip(&self.payloads)
                .map(|(&(start, _), own)| (start as u32..).zip(own.iter().copied()).collect())
                .collect();
        }
        Ok(())
    }

    /// Stage c: partition the edges into `lp` classes (one round; lane
    /// `l` colors under `seed(l)`) and grow a BFS tree from the leader in
    /// every class at once.
    pub(crate) fn class_trees(
        &mut self,
        [partition, bfs]: [(u64, &str); 2],
        lp: usize,
        seed: impl Fn(usize) -> u64,
    ) -> Result<(), EngineError> {
        self.lp = lp;
        let mut port_colors = vec![Vec::new(); self.lanes.len()];
        let colored = self.phases.run(partition, |v, l, g| {
            EdgePartitionProtocol::new(v, seed(l), lp, g.degree(v))
        })?;
        for (l, colors) in colored {
            port_colors[l] = colors;
        }
        let lanes = &self.lanes;
        let trees = self.phases.run(bfs, |v, l, _| {
            SubgraphBfs::new(lanes[l].root, v, port_colors[l][v as usize].clone(), lp)
        })?;
        for (l, class_trees) in trees {
            self.lanes[l].class_trees = class_trees;
        }
        Ok(())
    }

    /// Theorem 2's event for lane `l`: every class reached every node.
    pub(crate) fn spanning(&self, l: usize) -> Result<(), BroadcastError> {
        let trees = &self.lanes[l].class_trees;
        for c in 0..self.lp {
            let unreached = trees.iter().filter(|t| !t[c].reached).count();
            if unreached > 0 {
                return Err(BroadcastError::NotSpanning {
                    subgraph: c as u32,
                    unreached,
                });
            }
        }
        Ok(())
    }

    /// Drop the lanes `keep` rejects from every later phase.
    pub(crate) fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        self.phases.live.retain(|&l| keep(l));
    }

    /// Stage d: parallel pipelined routing. Message id `j` rides class
    /// `⌊j/K⌋`, `K = ⌈k/λ′⌉`, and the `copies − 1` classes after it
    /// (cyclically); `wrap` turns a node's λ′ cores, plus its own
    /// `(id, payload)` list, into the node protocol.
    pub(crate) fn route<Q, W>(
        &mut self,
        phase: (u64, &str),
        copies: usize,
        record: bool,
        wrap: W,
    ) -> Result<PerLane<Q::Output>, EngineError>
    where
        Q: Protocol,
        W: Fn(Vec<PipeCore>, &[(u32, u64)]) -> Q,
    {
        let lp = self.lp;
        let cap = self.k.max(1).div_ceil(lp as u64);
        let rides = |id: u32, c: usize| {
            let base = (id as u64 / cap).min(lp as u64 - 1) as usize;
            (c + lp - base) % lp < copies
        };
        let k_per_class: Vec<Vec<u64>> = self
            .lanes
            .iter()
            .map(|lane| {
                (0..lp)
                    .map(|c| {
                        let riding = lane.own.iter().flatten().filter(|&&(id, _)| rides(id, c));
                        riding.count() as u64
                    })
                    .collect()
            })
            .collect();
        let lanes = &self.lanes;
        self.phases.run(phase, |v, l, _| {
            let vi = v as usize;
            let own = &lanes[l].own[vi];
            let cores = (0..lp)
                .map(|c| {
                    let riding = own
                        .iter()
                        .filter(|&&(id, _)| rides(id, c))
                        .map(|&(id, payload)| PipeMsg { id, payload })
                        .collect();
                    PipeCore::new(
                        TreeView::from_bfs(&lanes[l].class_trees[vi][c]),
                        k_per_class[l][c],
                        riding,
                        record,
                    )
                })
                .collect();
            wrap(cores, own)
        })
    }

    /// Stage e: the `(xor, sum)` checksums every node of lane `l` should
    /// hold, from the id assignment.
    pub(crate) fn expected(&self, l: usize) -> (u64, u64) {
        expected_checksums(self.lanes[l].own.iter().flatten())
    }

    /// Lane `l`'s phase log so far, moved out.
    pub(crate) fn take_log(&mut self, l: usize) -> PhaseLog {
        std::mem::take(&mut self.phases.logs[l])
    }

    /// Stage e: assemble lane `l`'s outcome (takes its phase log).
    pub(crate) fn outcome(&mut self, l: usize, per_node: Vec<PipeResult>) -> BroadcastOutcome {
        let phases = self.take_log(l);
        let class_trees = &self.lanes[l].class_trees;
        BroadcastOutcome {
            total_rounds: phases.total_rounds(),
            stats: phases.total(),
            phases,
            num_subgraphs: self.lp,
            subgraph_heights: (0..self.lp)
                .map(|c| class_trees.iter().map(|t| t[c].depth).max().unwrap_or(0))
                .collect(),
            per_node,
            expected: self.expected(l),
            k: self.k,
        }
    }
}
