//! The Theorem 1 composition, written once.
//!
//! Every driver of the family — [`crate::broadcast`], [`crate::resilient`],
//! [`crate::exp_search`] — is the same sequence of stages over a
//! [`Composition`]:
//!
//! | stage | method | phases | depends on the sources? |
//! |---|---|---|---|
//! | a | [`Composition::tree`] | leader election, BFS on `G` | no |
//! | a | [`Composition::connected`] | — (the BFS tree reached everyone) | no |
//! | b | [`Composition::number`] | Lemma 3 numbering | **yes** — the only such control phase |
//! | c | [`Composition::class_trees`] | Theorem 2 partition, per-class BFS | no |
//! | c | [`Composition::spanning`] | Theorem 2's event, checked locally | no |
//! | d | [`Composition::route`] | Lemma 1 on every class tree at once | yes |
//! | e | [`Composition::expected`], [`Composition::outcome`] | — (assembly) | yes |
//!
//! What differs between drivers stays with them: the `phase →
//! EngineConfig` mapping (their seed offsets, and faults on the routing
//! phase), the phase numbers and names, the number of copies per message
//! and the node protocol that wraps the per-class cores. The single-tree
//! baseline ([`crate::textbook`]) borrows stage a and the phase runner.
//!
//! Both checks are reads of phase outputs, not phases. `connected` comes
//! right after stage a: on a disconnected `G` numbering would count only
//! the leader's component, and no partition could span.
//!
//! A composition is one attempt under one seed on the caller's
//! [`Session`]: every phase is one [`Session::run`], logged with the
//! host's post-phase state hash. A sweep over seeds is a loop of
//! compositions on one warm session.

use crate::bfs::{BfsNodeInfo, BfsProtocol, SubgraphBfs, SubgraphBfsInfo};
use crate::broadcast::{BroadcastError, BroadcastInput, BroadcastOutcome};
use crate::convergecast::{Numbering, TreeView};
use crate::leader::FloodMax;
use crate::partition::EdgePartitionProtocol;
use crate::pipeline::{expected_checksums, PipeCore, PipeMsg, PipeResult};
use congest_graph::{Graph, Node};
use congest_sim::{EngineConfig, EngineError, PhaseLog, Protocol, Session};

/// Stage c's phase numbers and names in Theorem 1's own numbering.
pub(crate) const CLASS_PHASES: [(u64, &str); 2] = [(4, "edge-partition"), (5, "subgraph-bfs")];

/// The phase-running half of a [`Composition`]: the host, the caller's
/// seed discipline and the log. Split from what the stages establish so a
/// phase's factory can read that while it runs.
pub(crate) struct Phases<'r, 'g, E> {
    host: &'r mut Session<'g>,
    /// `phase → EngineConfig`.
    engine: E,
    log: PhaseLog,
}

impl<E: Fn(u64) -> EngineConfig> Phases<'_, '_, E> {
    /// Run phase number `phase` and record it under `name`; `factory(v, g)`
    /// builds the protocol state at `v`. Returns the per-node outputs.
    pub(crate) fn run<P, F>(
        &mut self,
        (phase, name): (u64, &str),
        factory: F,
    ) -> Result<Vec<P::Output>, EngineError>
    where
        P: Protocol,
        F: FnMut(Node, &Graph) -> P,
    {
        let run = self.host.run(factory, (self.engine)(phase))?;
        let stats = run.stats;
        let outputs = run.take_outputs();
        // Hashed after the outcome released the engine: the checkpoint
        // signal of the phase boundary.
        self.log.record_hashed(name, stats, self.host.state_hash());
        Ok(outputs)
    }
}

/// Theorem 1 in progress; see the module docs.
pub(crate) struct Composition<'r, 'g, E> {
    pub(crate) phases: Phases<'r, 'g, E>,
    /// Stage a: the leader, and every node's place in the BFS tree of `G`.
    root: Node,
    pub(crate) tree: Vec<BfsNodeInfo>,
    /// Stage b: `own[v][j]` is `(global id, payload)` of `v`'s `j`-th message.
    own: Vec<Vec<(u32, u64)>>,
    /// Stage c: `class_trees[v][c]` is `v`'s place in class `c`'s BFS tree.
    pub(crate) class_trees: Vec<SubgraphBfsInfo>,
    /// Payloads by holder — the instance.
    payloads: Vec<Vec<u64>>,
    k: u64,
    /// λ′ of the latest stage c.
    lp: usize,
}

impl<'r, 'g, E: Fn(u64) -> EngineConfig> Composition<'r, 'g, E> {
    pub(crate) fn new(host: &'r mut Session<'g>, input: &BroadcastInput, engine: E) -> Self {
        let payloads = input.payloads_by_node(host.graph().n());
        Composition {
            phases: Phases {
                host,
                engine,
                log: PhaseLog::new(),
            },
            root: 0,
            tree: Vec::new(),
            own: Vec::new(),
            class_trees: Vec::new(),
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
            .run((1, "leader-election"), |v, _| FloodMax::new(v))?;
        let root = leaders[0].leader;
        self.root = root;
        self.tree = self
            .phases
            .run((2, "bfs"), |v, _| BfsProtocol::new(root, v))?;
        Ok(())
    }

    /// Stage b: Lemma 3 numbering. Locally at each node, message `j`
    /// (input order) gets id `start_v + j`.
    pub(crate) fn number(&mut self, phase: u64) -> Result<(), EngineError> {
        let (tree, payloads) = (&self.tree, &self.payloads);
        let starts = self.phases.run((phase, "numbering"), |v, _| {
            let vi = v as usize;
            Numbering::new(TreeView::from_bfs(&tree[vi]), payloads[vi].len() as u64)
        })?;
        debug_assert!(starts.iter().all(|&(_, total)| total == self.k));
        self.own = starts
            .iter()
            .zip(&self.payloads)
            .map(|(&(start, _), own)| (start as u32..).zip(own.iter().copied()).collect())
            .collect();
        Ok(())
    }

    /// Stage c: partition the edges into `lp` classes (one round, colored
    /// under `seed`) and grow a BFS tree from the leader in every class at
    /// once.
    pub(crate) fn class_trees(
        &mut self,
        [partition, bfs]: [(u64, &str); 2],
        lp: usize,
        seed: u64,
    ) -> Result<(), EngineError> {
        self.lp = lp;
        let port_colors = self.phases.run(partition, |v, g| {
            EdgePartitionProtocol::new(v, seed, lp, g.degree(v))
        })?;
        let root = self.root;
        self.class_trees = self.phases.run(bfs, |v, _| {
            SubgraphBfs::new(root, v, port_colors[v as usize].clone(), lp)
        })?;
        Ok(())
    }

    /// Stage a spanned `G`: its BFS tree reached every node.
    pub(crate) fn connected(&self) -> Result<(), BroadcastError> {
        if self.tree.iter().all(|t| t.reached) {
            Ok(())
        } else {
            Err(BroadcastError::Disconnected)
        }
    }

    /// Theorem 2's event: every class reached every node.
    pub(crate) fn spanning(&self) -> Result<(), BroadcastError> {
        for c in 0..self.lp {
            let unreached = self.class_trees.iter().filter(|t| !t[c].reached).count();
            if unreached > 0 {
                return Err(BroadcastError::NotSpanning {
                    subgraph: c as u32,
                    unreached,
                });
            }
        }
        Ok(())
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
    ) -> Result<Vec<Q::Output>, EngineError>
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
        let k_per_class: Vec<u64> = (0..lp)
            .map(|c| {
                let riding = self.own.iter().flatten().filter(|&&(id, _)| rides(id, c));
                riding.count() as u64
            })
            .collect();
        let (own, class_trees) = (&self.own, &self.class_trees);
        self.phases.run(phase, |v, _| {
            let vi = v as usize;
            let own = &own[vi];
            let cores = (0..lp)
                .map(|c| {
                    let riding = own
                        .iter()
                        .filter(|&&(id, _)| rides(id, c))
                        .map(|&(id, payload)| PipeMsg { id, payload })
                        .collect();
                    PipeCore::new(
                        TreeView::from_bfs(&class_trees[vi][c]),
                        k_per_class[c],
                        riding,
                        record,
                    )
                })
                .collect();
            wrap(cores, own)
        })
    }

    /// Stage e: the `(xor, sum)` checksums every node should hold, from
    /// the id assignment.
    pub(crate) fn expected(&self) -> (u64, u64) {
        expected_checksums(self.own.iter().flatten())
    }

    /// The phase log so far, moved out.
    pub(crate) fn take_log(&mut self) -> PhaseLog {
        std::mem::take(&mut self.phases.log)
    }

    /// Stage e: assemble the outcome (takes the phase log).
    pub(crate) fn outcome(&mut self, per_node: Vec<PipeResult>) -> BroadcastOutcome {
        let phases = self.take_log();
        let class_trees = &self.class_trees;
        BroadcastOutcome {
            total_rounds: phases.total_rounds(),
            root: self.root,
            stats: phases.total(),
            phases,
            num_subgraphs: self.lp,
            subgraph_heights: (0..self.lp)
                .map(|c| class_trees.iter().map(|t| t[c].depth).max().unwrap_or(0))
                .collect(),
            per_node,
            expected: self.expected(),
            k: self.k,
        }
    }
}
