//! The paper's main result (Theorem 1): `k`-broadcast in
//! `O((n log n)/δ + (k log n)/λ)` rounds.
//!
//! The algorithm is a sequential composition, exactly as in the proof:
//!
//! 1. **Leader election** (flood-max) — Lemma 1's prerequisite;
//! 2. **BFS** on `G` from the leader (Lemma 2) — `O(D)` rounds;
//! 3. **Numbering** of the `k` messages over the BFS tree (Lemma 3) —
//!    `O(D)` rounds;
//! 4. **Edge partition** into `λ′ = λ/(C log n)` classes (Theorem 2) —
//!    one round;
//! 5. **Parallel BFS** inside every class simultaneously
//!    ([`crate::bfs::SubgraphBfs`]) — `O((n log n)/δ)` rounds, no
//!    congestion conflicts because classes are edge-disjoint;
//! 6. **Parallel pipelined routing**: message `j` is assigned to class
//!    `⌊j/K⌋`, `K = ⌈k/λ′⌉`, and each class runs Lemma 1 on its own tree
//!    concurrently ([`ParallelPipeline`]) —
//!    `O(max_i (depth_i + k_i)) = O((n log n)/δ + (k log n)/λ)` rounds.
//!    This phase is where the rounds and the wall clock go when `k ≳ n`,
//!    so a node's round is kept to two passes that allocate nothing: the
//!    inbox folded straight into the λ′ [`PipeCore`]s, then one walk over
//!    them that transmits and gathers the done flag. A node whose cores
//!    have nothing to send is done, and leaves as soon as its inbox turns
//!    out empty ("Done is quiescence" in [`crate::pipeline`]). In the
//!    `n ≫ k` case most nodes wait most rounds, and the engine skips them.
//!
//! Every phase is executed as real message passing and its round count
//! recorded in a [`PhaseLog`]; the total is the number Theorem 1 bounds.
//!
//! **One driver.** The composition is written once, as stages in the
//! crate-private `stages` module: (a) leader + BFS, (b) numbering — the
//! only control phase that depends on who holds the messages —,
//! (c) partition + per-class BFS + the spanning check, (d) routing,
//! (e) checksums and outcome. [`partition_broadcast_hosted`] is one
//! attempt of it; [`crate::resilient`] and [`crate::exp_search`] run the
//! same stages under their own seeds. A graph that stage a did not span
//! ends every driver with [`BroadcastError::Disconnected`]. The family has
//! one retry loop, [`partition_broadcast_retrying_hosted`]: fresh seeds on
//! `NotSpanning`, nothing else. Every phase is one [`Session::run`] on the
//! caller's [`Session`], the one engine host, and a failed attempt leaves
//! the session as clean as a completed one: a sweep over partition seeds
//! is a loop of [`partition_broadcast_hosted`] calls on one warm session
//! (README, "Seed sweeps"; held to fresh sessions by this module's
//! `seed_sweep_on_one_warm_session_matches_fresh_sessions`).
//!
//! **One way up.** Every application the paper derives from Theorem 1
//! broadcasts `k` items at the graph's λ: a broadcast-congested-clique
//! round (§1.2, [`crate::congested_clique`]), the APSP pipelines and the
//! all-cuts sparsifier (§4). They all call [`partition_broadcast_at`],
//! which owns the λ → λ′ choice, the attempt budget and the delivery
//! check.
//!
//! Surface rule: only [`partition_broadcast`] and
//! [`partition_broadcast_retrying`] take a `&Graph`; each is
//! [`Session::new`] plus its hosted twin. Every other driver of the family
//! takes the caller's session.

use crate::partition::PartitionParams;
use crate::pipeline::{PipeCore, PipeMsg, PipeResult};
use crate::stages::{Composition, CLASS_PHASES};
use congest_graph::{Graph, Node};
use congest_sim::{
    EngineConfig, EngineError, NodeCtx, PhaseLog, Protocol, RunStats, Session, Tagged,
};

/// The broadcast problem instance: `k` messages, message `i` initially at
/// node `messages[i].0` with payload `messages[i].1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastInput {
    pub messages: Vec<(Node, u64)>,
}

impl BroadcastInput {
    /// All `k` messages at one node (the classic "source broadcast").
    pub fn at_single_node(g: &Graph, node: Node, k: usize) -> Self {
        assert!((node as usize) < g.n());
        BroadcastInput {
            messages: (0..k)
                .map(|i| (node, congest_sim::rng::mix64(0x0B0E ^ i as u64)))
                .collect(),
        }
    }

    /// `k` messages at independently uniform nodes.
    pub fn random_spread(g: &Graph, k: usize, seed: u64) -> Self {
        let n = g.n() as u64;
        assert!(n > 0);
        BroadcastInput {
            messages: (0..k)
                .map(|i| {
                    let h = congest_sim::rng::mix64(seed ^ congest_sim::rng::mix64(i as u64));
                    ((h % n) as Node, congest_sim::rng::mix64(h))
                })
                .collect(),
        }
    }

    /// One message per node ("everyone broadcasts"), k = n — the regime
    /// where the algorithm is universally optimal (§3.2) and which powers
    /// the broadcast-congested-clique simulation (§1.2).
    pub fn one_per_node(g: &Graph) -> Self {
        BroadcastInput {
            messages: (0..g.n() as Node)
                .map(|v| (v, congest_sim::rng::mix64(0xA11 ^ v as u64)))
                .collect(),
        }
    }

    pub fn k(&self) -> usize {
        self.messages.len()
    }

    /// Payloads grouped by holder, preserving input order within a node.
    pub fn payloads_by_node(&self, n: usize) -> Vec<Vec<u64>> {
        let mut per = vec![Vec::new(); n];
        for &(v, payload) in &self.messages {
            per[v as usize].push(payload);
        }
        per
    }
}

/// Tunables for the full pipeline.
#[derive(Debug, Clone)]
pub struct BroadcastConfig {
    pub seed: u64,
    /// Record full payload lists at every node (tests; memory-heavy).
    pub record_payloads: bool,
    /// Engine round limit per phase.
    pub max_rounds: u64,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            seed: 0xB10C,
            record_payloads: false,
            max_rounds: 4_000_000,
        }
    }
}

impl BroadcastConfig {
    pub fn with_seed(seed: u64) -> Self {
        BroadcastConfig {
            seed,
            ..Default::default()
        }
    }

    /// The engine configuration of phase number `phase`: every driver of
    /// the family derives its per-phase seeds this way, each from its own
    /// phase-number range.
    pub(crate) fn engine(&self, phase: u64) -> EngineConfig {
        EngineConfig::with_seed(congest_sim::rng::phase_seed(self.seed, phase))
            .max_rounds(self.max_rounds)
    }
}

/// Why a broadcast failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastError {
    /// Partition class `subgraph` left `unreached` nodes out of its BFS
    /// tree although `G` is connected: Theorem 2's low-probability failure
    /// event, checked after stage c. Another seed may span, and
    /// [`partition_broadcast_retrying_hosted`] tries one; a λ′ above what
    /// the graph supports fails at every seed (without λ, the paper's
    /// answer is [`crate::exp_search`]).
    NotSpanning {
        subgraph: u32,
        unreached: usize,
    },
    /// `G`'s BFS tree from the leader (stage a) left a node unreached: no
    /// partition can span `G`. Every driver returns it right after stage
    /// a, and no seed changes it, so the retry loop does not retry it.
    Disconnected,
    Engine(EngineError),
}

impl std::fmt::Display for BroadcastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BroadcastError::NotSpanning { subgraph, unreached } => write!(
                f,
                "partition class {subgraph} left {unreached} nodes unreached (Theorem 2 failure event)"
            ),
            BroadcastError::Disconnected => {
                write!(f, "graph is disconnected: no subgraph count can span it")
            }
            BroadcastError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for BroadcastError {}

impl From<EngineError> for BroadcastError {
    fn from(e: EngineError) -> Self {
        BroadcastError::Engine(e)
    }
}

/// A completed broadcast with its full cost breakdown.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Per-phase round/message/congestion log.
    pub phases: PhaseLog,
    /// Headline number: total rounds across all phases.
    pub total_rounds: u64,
    /// The leader stage a elected (the highest
    /// [`rank`](crate::leader::rank)): the root of every tree.
    pub root: Node,
    /// Composed stats (congestion summed pessimistically across phases).
    pub stats: RunStats,
    /// λ′ actually used.
    pub num_subgraphs: usize,
    /// BFS-tree height of every partition class.
    pub subgraph_heights: Vec<u32>,
    /// Per-node delivery results.
    pub per_node: Vec<PipeResult>,
    /// Expected (xor, sum) checksums over all k messages.
    pub expected: (u64, u64),
    /// k.
    pub k: u64,
}

impl BroadcastOutcome {
    /// Did every node receive every message? (Count + two independent
    /// order-invariant checksums.)
    pub fn all_delivered(&self) -> bool {
        self.per_node
            .iter()
            .all(|r| r.delivered == self.k && (r.xor_check, r.sum_check) == self.expected)
    }
}

/// The paper's constant `C` in `λ′ = λ/(C ln n)`. Each partition class has
/// expected degree `C·ln n`; `C = 1` sits exactly at the connectivity
/// threshold, so the default uses `C = 2` — still within Theorem 2's
/// `C = Ω(1)` regime, with failure probability decaying as `n^{-Ω(C)}`.
pub const DEFAULT_PARTITION_C: f64 = 2.0;

/// Theorem 1 with the paper's parameter choice `λ′ = max(1, ⌊λ/(C·ln n)⌋)`
/// at the default `C` ([`DEFAULT_PARTITION_C`]): one attempt on a host of
/// its own.
pub fn partition_broadcast(
    g: &Graph,
    input: &BroadcastInput,
    lambda: usize,
    seed: u64,
) -> Result<BroadcastOutcome, BroadcastError> {
    let params = PartitionParams::from_lambda(g.n(), lambda, DEFAULT_PARTITION_C);
    let mut host = Session::new(g);
    partition_broadcast_hosted(&mut host, input, params, &BroadcastConfig::with_seed(seed))
}

/// Theorem 1, one attempt with explicit parameters on the caller's
/// session: the six phases of the module docs under `cfg.seed`. Drivers
/// that compose several broadcasts (the BCC simulation, APSP, the
/// sparsifier pipeline, a sweep over seeds) pass one session so every
/// broadcast — and every phase inside it — reuses the same preallocated
/// engine. Every phase is logged with the host's post-phase state hash
/// (the snapshot/replay checkpoint signal). A disconnected graph is
/// `Err(Disconnected)` after phase 2, a partition that fails to span
/// `Err(NotSpanning)` after phase 5; either leaves the session as clean
/// as a completed broadcast does.
pub fn partition_broadcast_hosted(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    cfg: &BroadcastConfig,
) -> Result<BroadcastOutcome, BroadcastError> {
    let mut comp = Composition::new(host, input, |phase| cfg.engine(phase));
    comp.tree()?;
    comp.connected()?;
    comp.number(3)?;
    comp.class_trees(CLASS_PHASES, params.num_subgraphs, cfg.seed)?;
    comp.spanning()?;
    let per_node = comp.route(
        (6, "parallel-routing"),
        1,
        cfg.record_payloads,
        |cores, _| ParallelPipeline::new(cores),
    )?;
    Ok(comp.outcome(per_node))
}

/// [`partition_broadcast_retrying_hosted`] on a session of its own.
pub fn partition_broadcast_retrying(
    g: &Graph,
    input: &BroadcastInput,
    params: PartitionParams,
    cfg: &BroadcastConfig,
    attempts: usize,
) -> Result<(BroadcastOutcome, usize), BroadcastError> {
    partition_broadcast_retrying_hosted(&mut Session::new(g), input, params, cfg, attempts)
}

/// The family's one retry loop. Theorem 2 spans w.h.p., so on the rare
/// `NotSpanning` it re-randomizes: attempt `a` is one
/// [`partition_broadcast_hosted`] on the caller's session at seed
/// `cfg.seed + a·⌊2³²/φ⌋`, for `a < attempts.max(1)`. Any other error ends
/// the loop at once; when the attempts run out, the last attempt's error is
/// returned. On success, also returns how many attempts ran.
pub fn partition_broadcast_retrying_hosted(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    params: PartitionParams,
    cfg: &BroadcastConfig,
    attempts: usize,
) -> Result<(BroadcastOutcome, usize), BroadcastError> {
    let mut cfg = cfg.clone();
    let base = cfg.seed;
    let mut ran = 0;
    loop {
        cfg.seed = base.wrapping_add(ran as u64 * 0x9E37_79B9);
        ran += 1;
        match partition_broadcast_hosted(host, input, params, &cfg) {
            Err(BroadcastError::NotSpanning { .. }) if ran < attempts => {}
            result => return result.map(|out| (out, ran)),
        }
    }
}

/// How many partitions [`partition_broadcast_at`] draws before a
/// `NotSpanning` stands.
const APPLICATION_ATTEMPTS: usize = 20;

/// Theorem 1 as the applications call it: `input` at the graph's
/// `lambda` on the caller's session. λ′ is
/// `PartitionParams::from_lambda(n, λ, DEFAULT_PARTITION_C)`, up to 20
/// attempts of [`partition_broadcast_retrying_hosted`] start at `seed`,
/// and every node receives every message (debug-asserted).
pub fn partition_broadcast_at(
    host: &mut Session<'_>,
    input: &BroadcastInput,
    lambda: usize,
    seed: u64,
) -> Result<BroadcastOutcome, BroadcastError> {
    let params = PartitionParams::from_lambda(host.graph().n(), lambda, DEFAULT_PARTITION_C);
    let cfg = BroadcastConfig::with_seed(seed);
    let (out, _) =
        partition_broadcast_retrying_hosted(host, input, params, &cfg, APPLICATION_ATTEMPTS)?;
    debug_assert!(out.all_delivered());
    Ok(out)
}

/// λ′ pipelined broadcasts running concurrently, one per partition class,
/// each confined to its own class's tree edges. A message on the wire is
/// a [`Tagged`] [`PipeMsg`] whose tag is its class: classes are
/// edge-disjoint, so each port only ever carries its own class's
/// messages, and the tag only picks the receiving core. Bit budget:
/// `id(32) | payload(64) | class(16)`, 112 bits.
pub struct ParallelPipeline {
    cores: Vec<PipeCore>,
    /// Every core was quiescent when the previous round ended: the done
    /// flag ([`crate::pipeline`], "Done is quiescence"). No mail then
    /// means no work.
    idle: bool,
}

impl ParallelPipeline {
    pub fn new(cores: Vec<PipeCore>) -> Self {
        ParallelPipeline { cores, idle: false }
    }

    /// One round, the body this protocol shares with
    /// [`crate::resilient::ReplicatedPipeline`]: fold the inbox straight
    /// into the cores (`on_arrival` sees every message first), then one
    /// walk that transmits each core's messages — tagged with its class,
    /// on that class's own tree ports — and gathers quiescence into the
    /// done flag.
    pub(crate) fn round_with(
        &mut self,
        ctx: &mut NodeCtx<'_, Tagged<PipeMsg>>,
        mut on_arrival: impl FnMut(PipeMsg),
    ) {
        let mail = ctx.inbox().fold(false, |_, (port, m)| {
            on_arrival(m.msg);
            self.cores[m.algo as usize].on_receive(port, m.msg);
            true
        });
        if self.idle && !mail {
            return;
        }
        self.idle = true;
        for (c, core) in self.cores.iter_mut().enumerate() {
            let algo = c as u32;
            core.transmit(|port, msg| ctx.send(port, Tagged { algo, msg }));
            self.idle &= core.quiescent();
        }
        ctx.set_done(self.idle);
    }
}

impl Protocol for ParallelPipeline {
    type Msg = Tagged<PipeMsg>;
    type Output = PipeResult;
    /// Done is `idle`, set in the same round: a done round with an empty
    /// inbox returns before it touches a core, the wire or the flag.
    const QUIESCENT: bool = true;

    fn round(&mut self, ctx: &mut NodeCtx<'_, Tagged<PipeMsg>>) {
        self.round_with(ctx, |_| {});
    }

    fn finish(self) -> PipeResult {
        // Fold per-class results into one node-level result.
        let mut total = PipeResult {
            delivered: 0,
            xor_check: 0,
            sum_check: 0,
            recorded: None,
        };
        for core in self.cores {
            let r = core.into_result();
            total.delivered += r.delivered;
            total.xor_check ^= r.xor_check;
            total.sum_check = total.sum_check.wrapping_add(r.sum_check);
            if let Some(mut rec) = r.recorded {
                total.recorded.get_or_insert_with(Vec::new).append(&mut rec);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{clique_chain, complete, harary, hypercube};

    #[test]
    fn broadcast_on_harary_all_delivered() {
        let g = harary(16, 48);
        let input = BroadcastInput::random_spread(&g, 96, 5);
        let out = partition_broadcast(&g, &input, 16, 17).unwrap();
        assert!(out.all_delivered());
        assert_eq!(out.k, 96);
        assert!(out.num_subgraphs >= 2, "λ = 16 must yield parallelism");
        assert_eq!(out.phases.len(), 6);
    }

    #[test]
    fn broadcast_single_source() {
        let g = complete(32);
        let input = BroadcastInput::at_single_node(&g, 7, 50);
        let out = partition_broadcast(&g, &input, 31, 3).unwrap();
        assert!(out.all_delivered());
        // λ' = ⌊31/(2·ln 32)⌋ = 4 classes on K_32.
        assert_eq!(out.num_subgraphs, 4);
    }

    #[test]
    fn one_per_node_regime() {
        let g = hypercube(5); // n = 32, λ = 5
        let input = BroadcastInput::one_per_node(&g);
        // λ = 5, ln 32 ≈ 3.47 ⇒ λ' = 1 (degenerate single tree), still valid.
        let out = partition_broadcast(&g, &input, 5, 9).unwrap();
        assert!(out.all_delivered());
        assert_eq!(out.num_subgraphs, 1);
    }

    #[test]
    fn explicit_subgraph_count() {
        // λ = 16 split 3 ways: class degree ≈ 5.3 > ln 48 — spans w.h.p.;
        // retry wrapper absorbs the residual failure probability.
        let g = harary(16, 48);
        let input = BroadcastInput::random_spread(&g, 80, 1);
        let (out, _) = partition_broadcast_retrying(
            &g,
            &input,
            PartitionParams::explicit(3),
            &BroadcastConfig::with_seed(2),
            10,
        )
        .unwrap();
        assert!(out.all_delivered());
        assert_eq!(out.num_subgraphs, 3);
        assert_eq!(out.subgraph_heights.len(), 3);
    }

    #[test]
    fn failure_detected_when_too_many_classes() {
        // λ = 2 but demand 16 classes on a sparse graph: classes can't all
        // span; must report NotSpanning (never silently mis-deliver).
        let g = congest_graph::generators::cycle(16);
        let input = BroadcastInput::random_spread(&g, 8, 0);
        let err = partition_broadcast_hosted(
            &mut Session::new(&g),
            &input,
            PartitionParams::explicit(16),
            &BroadcastConfig::with_seed(0),
        )
        .unwrap_err();
        assert!(matches!(err, BroadcastError::NotSpanning { .. }));
    }

    /// The loop's contract, which `benchmark/`'s replica copies: attempt
    /// `a` runs at seed `cfg.seed + a·0x9E37_79B9`, the last attempt's
    /// `NotSpanning` is what exhaustion returns, and zero attempts is one.
    #[test]
    fn retrying_returns_the_last_attempts_error_when_attempts_run_out() {
        let g = congest_graph::generators::cycle(16);
        let input = BroadcastInput::random_spread(&g, 8, 0);
        let params = PartitionParams::explicit(16);
        let cfg = BroadcastConfig::with_seed(0);
        let attempt = |a: u64| {
            let cfg = BroadcastConfig::with_seed(cfg.seed.wrapping_add(a * 0x9E37_79B9));
            partition_broadcast_hosted(&mut Session::new(&g), &input, params, &cfg).unwrap_err()
        };
        let (first, last) = (attempt(0), attempt(2));
        assert!(matches!(last, BroadcastError::NotSpanning { .. }));
        assert_ne!(first, last, "the two attempts must be told apart");
        let retried = |attempts| {
            partition_broadcast_retrying(&g, &input, params, &cfg, attempts).unwrap_err()
        };
        assert_eq!(retried(3), last);
        assert_eq!(retried(0), first);
    }

    /// Two disjoint edges: stage a's tree misses a component, so every
    /// driver of the family stops with `Disconnected` instead of
    /// numbering half the graph.
    fn disconnected() -> (Graph, BroadcastInput) {
        let g = congest_graph::GraphBuilder::new(4)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        let input = BroadcastInput::at_single_node(&g, 0, 4);
        (g, input)
    }

    /// Only `NotSpanning` is retried, so `Disconnected` comes back from
    /// the loop's first attempt.
    #[test]
    fn retrying_reports_a_disconnected_graph() {
        let (g, input) = disconnected();
        let params = PartitionParams::explicit(1);
        let cfg = BroadcastConfig::with_seed(1);
        let plain = partition_broadcast_hosted(&mut Session::new(&g), &input, params, &cfg);
        assert_eq!(plain.unwrap_err(), BroadcastError::Disconnected);
        let retried = partition_broadcast_retrying(&g, &input, params, &cfg, 30);
        assert_eq!(retried.unwrap_err(), BroadcastError::Disconnected);
    }

    #[test]
    fn resilient_and_exp_search_report_a_disconnected_graph() {
        let (g, input) = disconnected();
        let cfg = BroadcastConfig::with_seed(1);
        let resilient = crate::resilient::resilient_broadcast_hosted(
            &mut Session::new(&g),
            &input,
            PartitionParams::explicit(1),
            1,
            None,
            &cfg,
        );
        assert_eq!(resilient.unwrap_err(), BroadcastError::Disconnected);
        let searched = crate::exp_search::exp_search_broadcast(&g, &input, &cfg);
        assert_eq!(searched.unwrap_err(), BroadcastError::Disconnected);
    }

    #[test]
    fn retrying_succeeds_on_borderline_partition() {
        let g = clique_chain(3, 12, 6);
        let input = BroadcastInput::random_spread(&g, 40, 4);
        let params = PartitionParams::explicit(2);
        // λ = 6; two classes is borderline. This member of the
        // `77 + a·0x9E37_79B9` family fails to span under its own seed
        // and spans under the next one, so the retry path really runs.
        let cfg = BroadcastConfig::with_seed(77 + 3 * 0x9E37_79B9);
        let (out, attempts) = partition_broadcast_retrying(&g, &input, params, &cfg, 20).unwrap();
        assert!(out.all_delivered());
        assert_eq!(attempts, 2);
        // Attempt `a` of the loop is one plain broadcast at seed
        // `cfg.seed + a·0x9E37_79B9`, on a host earlier attempts used.
        let mut host = Session::new(&g);
        let attempt = |host: &mut Session<'_>, a: u64| {
            let seed = cfg.seed.wrapping_add(a * 0x9E37_79B9);
            partition_broadcast_hosted(host, &input, params, &BroadcastConfig::with_seed(seed))
        };
        let first = attempt(&mut host, 0).unwrap_err();
        assert!(matches!(first, BroadcastError::NotSpanning { .. }));
        assert_same_run(&out, &attempt(&mut host, 1).unwrap(), true, "attempt 1");
    }

    #[test]
    fn record_payloads_collects_everything() {
        let g = complete(16);
        let input = BroadcastInput::random_spread(&g, 20, 6);
        let mut cfg = BroadcastConfig::with_seed(8);
        cfg.record_payloads = true;
        let mut host = Session::new(&g);
        let out = partition_broadcast_hosted(&mut host, &input, PartitionParams::explicit(2), &cfg)
            .unwrap();
        assert!(out.all_delivered());
        for r in &out.per_node {
            let rec = r.recorded.as_ref().unwrap();
            assert_eq!(rec.len(), 20);
            // Payload multiset must equal the input's.
            let mut got: Vec<u64> = rec.iter().map(|&(_, p)| p).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = input.messages.iter().map(|&(_, p)| p).collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    /// Nothing leaks across broadcasts on one resident host: the same
    /// `partition_broadcast_hosted` call run second on an already-used
    /// host must equal the call on a fresh host — per-phase rounds,
    /// messages and all six state hashes, deliveries, tree heights.
    #[test]
    fn second_broadcast_on_a_used_host_matches_a_fresh_host() {
        let g = harary(16, 48);
        let input = BroadcastInput::random_spread(&g, 96, 5);
        let params = PartitionParams::from_lambda(g.n(), 16, DEFAULT_PARTITION_C);
        let mut cfg = BroadcastConfig::with_seed(17);
        cfg.record_payloads = true;
        let mut used = Session::new(&g);
        // A different broadcast first (other placement, seed and k), so
        // every buffer the second call touches has been written before.
        let warmup = BroadcastInput::random_spread(&g, 40, 9);
        partition_broadcast_hosted(&mut used, &warmup, params, &BroadcastConfig::with_seed(3))
            .unwrap();
        let second = partition_broadcast_hosted(&mut used, &input, params, &cfg).unwrap();
        let fresh =
            partition_broadcast_hosted(&mut Session::new(&g), &input, params, &cfg).unwrap();
        assert_eq!(second.phases.len(), 6);
        assert_same_run(&second, &fresh, true, "second vs fresh");
    }

    /// Two outcomes of the same broadcast: totals, λ′, tree heights,
    /// deliveries, checksums and the per-phase log — with `hashed`, also
    /// a recorded and equal state hash after every phase.
    fn assert_same_run(a: &BroadcastOutcome, b: &BroadcastOutcome, hashed: bool, what: &str) {
        assert_eq!(a.total_rounds, b.total_rounds, "{what}");
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(a.num_subgraphs, b.num_subgraphs, "{what}");
        assert_eq!(a.subgraph_heights, b.subgraph_heights, "{what}");
        assert_eq!(a.per_node, b.per_node, "{what}");
        assert_eq!((a.expected, a.k), (b.expected, b.k), "{what}");
        assert_eq!(a.phases.len(), b.phases.len(), "{what}");
        for ((na, sa), (nb, sb)) in a.phases.phases().zip(b.phases.phases()) {
            assert_eq!(na, nb, "{what}");
            assert_eq!(sa, sb, "{what} phase {na}");
        }
        for ((na, ha), (_, hb)) in a.phases.hashes().zip(b.phases.hashes()) {
            assert!(!hashed || ha.is_some(), "{what}: {na} records a state hash");
            assert!(!hashed || ha == hb, "{what}: state hash after phase {na}");
        }
    }

    /// A seed sweep is a loop on one warm session: the retrying test's
    /// borderline family, twelve seeds in a row on one host, each result —
    /// the outcome with its hashed `PhaseLog`, or the `NotSpanning` error —
    /// equal to the same broadcast on a fresh host, and the warm host's
    /// state hash after every attempt equal to the fresh one's: a failed
    /// attempt that left the session dirty, or one word behind, shows there
    /// and in the spanning attempt after it.
    #[test]
    fn seed_sweep_on_one_warm_session_matches_fresh_sessions() {
        let g = clique_chain(3, 12, 6);
        let input = BroadcastInput::random_spread(&g, 40, 4);
        let params = PartitionParams::explicit(2);
        let mut warm = Session::new(&g);
        let mut verdicts = Vec::new();
        for a in 0..12u64 {
            let cfg = BroadcastConfig::with_seed(77u64.wrapping_add(a * 0x9E37_79B9));
            let swept = partition_broadcast_hosted(&mut warm, &input, params, &cfg);
            let mut fresh_host = Session::new(&g);
            let fresh = partition_broadcast_hosted(&mut fresh_host, &input, params, &cfg);
            assert_eq!(warm.state_hash(), fresh_host.state_hash(), "seed {a}");
            match (&swept, &fresh) {
                (Ok(s), Ok(f)) => {
                    assert!(s.all_delivered(), "seed {a}");
                    assert_same_run(s, f, true, &format!("seed {a}"));
                }
                (Err(s), Err(f)) => {
                    assert_eq!(s, f, "seed {a}");
                    assert!(matches!(s, BroadcastError::NotSpanning { .. }));
                }
                (s, f) => panic!("seed {a} diverged: warm {s:?} vs fresh {f:?}"),
            }
            verdicts.push(swept.is_ok());
        }
        assert!(
            verdicts.windows(2).any(|w| w == [false, true]),
            "no failing seed followed by a spanning one: {verdicts:?}"
        );
    }

    #[test]
    fn zero_messages() {
        let g = complete(16);
        let input = BroadcastInput {
            messages: Vec::new(),
        };
        let out = partition_broadcast(&g, &input, 15, 1).unwrap();
        assert!(out.all_delivered());
        assert_eq!(out.k, 0);
    }
}
