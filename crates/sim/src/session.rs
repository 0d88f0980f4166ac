//! Phase-resident engine sessions.
//!
//! The paper's algorithms are *sequential compositions* (Theorem 1 alone
//! chains leader election → BFS → numbering → partition → per-class BFS →
//! pipelined routing). Executing each phase through a fresh
//! [`crate::run_protocol`] call re-allocates and re-zeroes the full arc
//! slabs, occupancy bitsets, broadcast planes, congestion counters, and
//! shard worklists — hundreds of MB of setup work per phase at `n = 10^6`,
//! paid again for every phase and for every iteration of
//! `exp_search`'s doubling loop.
//!
//! A [`Session`] is a **graph-keyed engine instance** that owns all of
//! that state once and runs any number of protocols to termination on
//! it, in sequence — one instance per phase through [`Session::run`], the
//! crate's one round loop. It is the crate's only engine host; the pool
//! lends its warm ones out as one.
//!
//! * **Slab reuse across message widths.** The arc/broadcast message
//!   slabs are raw 16-byte-aligned storage keyed by the *widest*
//!   [`crate::PackedMsg::Word`] any phase has used, so a `u64` phase
//!   reuses (half of) a `u128` slab without touching the allocator.
//! * **Node state in a bump arena.** Per-node protocol cells (state +
//!   RNG + flags) and per-node outputs live in two reusable arenas sized
//!   by high-water mark — a phase whose footprint fits what an earlier
//!   phase already paid for allocates nothing. Nothing reads a slab's or
//!   an arena's contents across a growth, so growing one takes a fresh
//!   zeroed buffer instead of copying and zero-filling the old one: its
//!   pages stay unmapped until a phase first writes them.
//! * **Zeroed by breadcrumb.** The round loop's own termination
//!   discipline leaves the occupancy bitsets, staging masks, and the
//!   broadcast plane's staged-presence words all-zero when a run
//!   completes (sparse rounds zero by set-word breadcrumbs, full sweeps
//!   rebuild every word, every plane fold takes the staged words it
//!   reads, the final silent iteration clears the rest), and the
//!   end-of-run per-edge congestion fold zeroes the arc/node traffic
//!   counters once it has read them. The next phase starts on clean
//!   state without any O(arcs) scrub. Only a phase that *failed* (round-limit error or a
//!   panic inside a node program) marks the session dirty and pays one
//!   full scrub on the next run; debug builds assert, where a clean state
//!   skips that scrub, that the five buffers (`in_occ`, `out_mask`,
//!   `arc_traffic`, `bcast_stage`, `node_traffic`) are zero. So no phase
//!   reads what an earlier one left in them, nor in `bcast_occ` (rebuilt
//!   by every plane fold before anyone reads it): a continuation starts
//!   from the per-edge row, the trace and the clean flag alone. That is
//!   all a snapshot frame carries and all [`Session::state_hash`] reads,
//!   clean or dirty; buffer sizes and the shard plan are a cache that a
//!   restored session, like a fresh one, fills on first use.
//!
//! Between two phases on the same session **zero heap allocation**
//! happens (enforced by `tests/zero_alloc.rs`), with the documented
//! growth exceptions, each sized on first use: a phase using a wider
//! message word than any before it, a phase whose shard count differs
//! from the cached [`congest_graph::ShardPlan`], a phase whose
//! node-cell/output/trace footprint exceeds the session's high-water
//! mark, and the session's first phase (broadcast-plane bookkeeping).
//!
//! [`crate::run_protocol`] is a thin one-phase wrapper: it builds a
//! session, runs the protocol, and returns an owned outcome.
//!
//! # The round loop
//!
//! [`Session::run`]'s loop is `SessionState::run_phase`: a short loop over
//! the stage methods of a `PhaseView` (the session's buffers, the message
//! slabs typed at the phase's word), steered by one `RoundPlan` a round.
//!
//! Messages live in **dense arc-indexed slabs** of packed words
//! ([`crate::message::PackedMsg`]): arc `i` is position `i` in the graph's
//! flattened adjacency, so node `v`'s ports occupy
//! `arc_offset(v)..arc_offset(v)+deg(v)`. Presence is a word-packed
//! occupancy bitset on the inbox side and a byte-mask (one byte per arc,
//! one writer each) on the staging side, not per-slot `Option`s. The loop
//! runs on a [`congest_graph::ShardPlan`] — contiguous node shards
//! balanced by arc count, each owning a disjoint range of occupancy words
//! (64 arcs each) — across the `congest-par` pool. The pool width is the
//! one switch, and the phase's shard count its one fork decision
//! (`phase_shards`, once per phase: a pinned count, else four per lane
//! from `FORK_MIN_ARCS` arcs up on a pool wider than one lane, else one).
//! One shard runs on the calling thread, and a one-lane pool runs any
//! count there in shard order, so a serial run is a one-lane run. A round:
//!
//! * **Step** (`step_pass`) — each shard steps the nodes the previous
//!   round's plan names, **all** or **listed** ("The active-node list"
//!   below). A send lands straight in the *destination* arc slot of the
//!   staging slab through the `reverse_arc` permutation (a bijection: one
//!   writer per slot), the one write path ([`crate::protocol`]); a
//!   `send_all` lands in the broadcast plane. The shard's meter gets its
//!   `done` fold, what it staged — listed in its worklist region up to
//!   `min(threshold, out_arc_bound(s))`, past the cap only counted —
//!   whether it broadcast, and its broadcasters' degree sum (their reach).
//! * **Adversary** (`block`) — under a [`crate::FaultPlan`], one serial
//!   pass over the round's blocked edges. It **demotes** each endpoint
//!   that staged a plane word to per-arc staging (its arcs join its
//!   shard's staged count and worklist, as its own sends would, so a thin
//!   faulted round still takes the sparse merge), then drops what is
//!   staged on the blocked arcs: what an all-scatter round drops.
//! * **Plan** (`RoundPlan::new`) — the one place the round kind is
//!   decided, a pure function of the meters' totals, the arc count, the
//!   threshold and `QUIESCENT`: the deliver path, whether the plane is
//!   folded and its receivers listed, and how the next round steps. It
//!   reads no pool width and no shard count.
//! * **Deliver** (`deliver`) — the staging slabs *become* the inbox slabs
//!   (a swap), and the plan's path moves what the mask staged into the
//!   occupancy bitset, counted and metered, bit-identical whichever it is.
//!   **Skip**: nothing staged, so only the previous round's residue is
//!   cleared. **Sparse**: the staged total is within
//!   [`EngineConfig::sparse_threshold`]; one serial merge over the
//!   worklists notes each word it sets in `set_words`, the breadcrumb by
//!   which the next round clears O(traffic) words, not the bitset (the
//!   merge is random-access and O(traffic), so it never forks). **Full**:
//!   each shard sweeps its word range from the mask bytes. A plane fold
//!   rides the sweep's forked pass.
//! * **List** (`list_plane`) — after a small fold, one serial walk lists
//!   the fold's receivers.
//!
//! Each shard writes one private `ShardMeter`; the round's totals are
//! serial folds over them — sums, an and and an or, so the order cannot
//! reach a result. DESIGN.md §6 has a table of the stages: what selects
//! each, what it reads, what a shard writes, and whether it forks.
//!
//! **The active-node list.** Broadcast traffic is a thin frontier: most
//! nodes of most rounds are done and get no mail, and a protocol that
//! declares [`Protocol::QUIESCENT`] has promised that stepping such a node
//! changes nothing. For those protocols a round costs its frontier: one
//! byte per node (`active`) is rewritten to `!done` by every step of that
//! node and set for every receiver of the round's mail, and a **listed**
//! round steps only the nodes whose byte is set, walking the bytes eight
//! to a compare. Every round of such a protocol is listed except round 0
//! and a round after a large plane fold, which step every node and so
//! rewrite every byte: the list is rebuilt before it is next trusted, so
//! it needs no scrub after a failed phase, no `state_hash` tag and no
//! snapshot field. Who lists a receiver follows the path that brought its
//! mail. The sparse merge sets the byte as it delivers, and the listed
//! pass then stays on the calling thread, for the reason the merge does:
//! its work is O(frontier). A **small plane fold** — one whose senders
//! reach fewer than a quarter of the arcs, their degree sum, which
//! `send_all` counts as it stages and the adversary takes back from a
//! demoted sender — lists its receivers itself: after the fold, one
//! serial walk over the presence words visits each sender's neighbour
//! list and sets the bytes, so a rumor's lone source in round 0 makes
//! round 1 step its neighbours, not the graph. The gate reads the fold's
//! reach and the arc count only, never `sparse_threshold`, the pool width
//! or the shard count. After a large fold the walk would cost what
//! stepping everyone costs, and the next round steps everyone. After a
//! full sweep, each shard's step task first
//! **probes**: it walks the occupancy words over its own nodes' arc range
//! with a forward node cursor and sets the byte of each node owning a set
//! bit, then walks the list; that pass forks as the sweep did. The probe
//! reads only `in_occ`, which the sweep has joined, and writes only the
//! shard's own bytes. So `EngineConfig::sparse_threshold` picks the
//! merge, not who steps: the stepped set is the same at every threshold,
//! pool width and shard count. An unlisted node is done, so `all done`
//! folds over the stepped nodes only. Debug builds check the invariant
//! over every shard of every listed round, after its probe (an unlisted
//! node is done, has no occupancy bit in its arc range and has no
//! neighbour whose presence bit the plane carries), and
//! [`crate::eager::check_quiescent`] holds every protocol that makes the
//! promise to it.
//!
//! **The broadcast plane.** Through it a `send_all` stores one word in
//! the sender's slot of a per-node slab and sets the sender's bit in a
//! staged-presence bitset, in every round, with or without a fault plan
//! (the adversary demotes what it must drop from, above). So a `send_all`
//! never scatters `deg` words through `reverse_arc` in the round loop, a
//! cache miss per message on graphs whose neighbours are far apart in
//! memory; only [`crate::sched::Multiplexed`]'s node-local plane, which
//! has no broadcast plane, does. A presence word covers 64 nodes and the
//! step shards are balanced by arcs, so two shards may share a word: a
//! forked step pass sets the bit by an atomic OR, a pass on the calling
//! thread by a plain read-modify-write. Deliver **folds** the plane only in
//! rounds where a shard staged through it: each shard takes its own
//! staged words whole — n / 64 words, not n stage bytes — as the presence
//! words receivers read, leaves them zero, and each set bit adds one to
//! the sender's counter; what the fold delivers is its senders' reach.
//! Receivers are handed the plane only in the
//! round after a fold (a fold whose every sender was demoted finds none,
//! and its receivers probe an empty plane once), so rounds with no
//! broadcast probe nothing. In such a round a receiver reads its inbox in
//! **one pass over its neighbour list**, whichever way it iterates
//! ([`NodeCtx::inbox`]): per port, the slab word if the port's occupancy
//! bit is set (a per-port `send` of the same round), else the neighbour's
//! plane word if the neighbour's presence bit is. No presence word is
//! gathered ahead of that pass — until PR 24 one was, for the node's first
//! occupancy word, and the messages behind it were then found by a second
//! read of the same neighbours; with degrees up to 64 that was most of
//! every inbox (DESIGN.md §6 has what it cost).
//!
//! **The congestion meter.** Per-edge congestion is what Lemma 1 and
//! Theorem 1 bound, so every delivery is metered, by a plain `u32` bumped
//! where the delivery is counted anyway: `arc_traffic[arc]` in the sparse
//! merge and the full sweep, `node_traffic[v]` in the broadcast fold (one
//! bump per delivery on each of `v`'s out-arcs). A counter is at most the
//! phase's rounds, which `begin_phase` holds to `u32::MAX`. Phase exit
//! (`drain_traffic`) folds the counters into the per-edge row behind
//! [`PhaseOutcome::edge_congestion`] in one arc-ordered pass — each arc
//! adds its own counter and its owner's plane counter to its edge — then
//! zeroes both counter arrays wholesale and takes the row's maximum. The
//! reference interpreter's `u64` per-edge counters pin the totals.
//!
//! **Allocation and determinism.** The loop allocates nothing after setup
//! (`tests/zero_alloc.rs`; `collect_trace` appends one `u64` per round).
//! A node's step writes only its own slots, a shard only its own
//! mask/occupancy/counter/meter regions, and the reductions are order-free
//! integer folds: every pool width and shard count, serial included, is
//! bit-identical (`tests/proptest_engine.rs`).

use crate::engine::{EngineConfig, EngineError, RunOutcome, RunStats};
use crate::fault::FaultPlan;
use crate::message::{MsgWord, PackedMsg};
use crate::protocol::{BcastIn, BcastOut, InSlot, NodeCtx, Protocol, ScatterPlane, Sent};
use crate::rng::node_rng;
use crate::slab;
use congest_graph::{Edge, Graph, Node, ShardPlan};
use congest_par::RacyCells;
use rand::rngs::SmallRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The staging byte-mask value for "this arc carries a message".
const STAGED: u8 = 1;

/// Which nodes a round's step pass steps (module docs, "The active-node
/// list").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum StepSet {
    /// Every node, which rewrites the whole list: round 0, a round after a
    /// large plane fold, and every round of a protocol without
    /// [`Protocol::QUIESCENT`].
    #[default]
    All,
    /// The nodes `active` lists, after a skip or a sparse deliver (whose
    /// merge listed its receivers; a small plane fold lists its own), on
    /// the calling thread.
    Listed,
    /// The same, after a full sweep: each shard first lists its own
    /// receivers from their occupancy bits, across the shards.
    Probed,
}

/// How a round's mail reaches the occupancy bitset (module docs,
/// "Deliver"), and so which residue the next round clears before its own
/// bits land.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Deliver {
    /// Nothing went through the arc mask. Leaves no residue.
    #[default]
    Skip,
    /// The serial worklist merge. Leaves bits only in the words
    /// `set_words` lists, so the next clear is O(traffic).
    Sparse,
    /// Each shard sweeps its words from the mask. Leaves any word set, so
    /// the next clear is a whole-bitset fill.
    Full,
}

/// What a round does from its deliver on, and how the next round steps:
/// the one place the round kind is decided. The default is the plan
/// before round 0: step every node; no residue, no plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RoundPlan {
    /// This round's deliver path; the next round clears what it leaves.
    deliver: Deliver,
    /// Whether this round folds the broadcast plane, and so whether the
    /// next round's receivers are handed it.
    fold: bool,
    /// Whether the fold is small enough for `list_plane` to list its
    /// receivers.
    list_plane: bool,
    /// Which nodes the next round steps.
    next: StepSet,
}

impl RoundPlan {
    /// The plan of a round whose step pass and adversary left `meters`, on
    /// a graph of `arcs` arcs at sparse threshold `threshold`, for a
    /// protocol that does or does not promise [`Protocol::QUIESCENT`] — a
    /// function of the meters' totals alone (what they staged through the
    /// arc mask, whether any node broadcast, and the arcs the broadcasts
    /// reach), the same at every pool width and shard count.
    ///
    /// The merge takes at most `threshold` messages. A shard stages each
    /// of its ports at most once (`send` asserts it, a `send_all` stages
    /// nothing on the mask, and a demoted one only ports its sender did
    /// not send on), so at most `out_arc_bound(s)`: a merged round
    /// overflowed no shard's worklist slice. A fold whose senders reach
    /// fewer than a quarter of the arcs lists their receivers; after a
    /// larger one the next round steps everyone, and so rewrites the whole
    /// list. Mail that arrived by the sweep is listed by the next round's
    /// probe, the merge's by the merge itself.
    fn new(meters: &[ShardMeter], arcs: usize, threshold: usize, quiescent: bool) -> RoundPlan {
        let deliver = match meters.iter().map(|m| m.staged as u64).sum() {
            0 => Deliver::Skip,
            t if t <= threshold as u64 => Deliver::Sparse,
            _ => Deliver::Full,
        };
        let fold = meters.iter().any(|m| m.bcast_used);
        let reach: u64 = meters.iter().map(|m| m.reach).sum();
        let list_plane = quiescent && fold && 4 * reach < arcs as u64;
        let next = if !quiescent || (fold && !list_plane) {
            StepSet::All
        } else if deliver == Deliver::Full {
            StepSet::Probed
        } else {
            StepSet::Listed
        };
        RoundPlan {
            deliver,
            fold,
            list_plane,
            next,
        }
    }

    /// Whether the next round's step pass runs its shards on the calling
    /// thread: a pass listed by the merge or a small fold is O(frontier)
    /// work, like the listing. A probed pass reads its shard's occupancy
    /// words as the sweep before it wrote them, and forks as the sweep did.
    fn serial_step(&self) -> bool {
        self.next == StepSet::Listed
    }
}

/// An unpinned phase shards from this many arcs up (DESIGN.md §10's sharded
/// / serial table: below it a round is less work than the fork-join that
/// would shard it). A policy of wall clock only — results are identical on
/// either side.
pub(crate) const FORK_MIN_ARCS: usize = 1 << 17;

/// A phase's shard count, and with it the phase's one fork decision: the
/// count the caller pinned, else `4 · width` (at most [`MAX_AUTO_SHARDS`])
/// on a pool wider than one lane and a graph of at least
/// [`FORK_MIN_ARCS`] arcs, else one.
fn phase_shards(graph: &Graph, config: &EngineConfig) -> usize {
    let width = congest_par::num_threads();
    let auto = if width > 1 && graph.num_arcs() >= FORK_MIN_ARCS {
        (4 * width).min(MAX_AUTO_SHARDS)
    } else {
        1
    };
    config.shards.unwrap_or(auto).clamp(1, graph.n().max(1))
}

/// Run `task(0..shards)`: in shard order on the calling thread if
/// `serial` or for one shard, else across the pool (which runs them in
/// order on the calling thread at width 1). Tasks own disjoint regions, so
/// every width leaves the same bytes.
#[inline]
fn each_shard(shards: usize, serial: bool, task: impl Fn(usize) + Sync) {
    if serial || shards == 1 {
        (0..shards).for_each(task);
    } else {
        congest_par::run(shards, task);
    }
}

/// The probe of a round after a full sweep: set `active[i]` for each node
/// `v_lo + i` with an occupancy bit in its arc range. One pass over the
/// words of the nodes' arcs with a forward node cursor: list the node that
/// owns a set bit, then drop the rest of that node's bits in the word.
fn list_receivers(graph: &Graph, in_occ: &[u64], v_lo: usize, active: &mut [u8]) {
    let end = |v: usize| graph.arc_offset((v + 1) as Node);
    let a_lo = graph.arc_offset(v_lo as Node);
    let a_hi = graph.arc_offset((v_lo + active.len()) as Node);
    let (w_lo, w_hi) = (a_lo / 64, a_hi.div_ceil(64));
    let mut v = v_lo;
    for (w, &word) in (w_lo..w_hi).zip(&in_occ[w_lo..w_hi]) {
        let base = w * 64;
        let mut bits = word;
        if base < a_lo {
            bits &= !0u64 << (a_lo - base);
        }
        if a_hi - base < 64 {
            bits &= (1u64 << (a_hi - base)) - 1;
        }
        while bits != 0 {
            let arc = base + bits.trailing_zeros() as usize;
            while end(v) <= arc {
                v += 1;
            }
            active[v - v_lo] = 1;
            let past = end(v) - base;
            bits &= if past >= 64 { 0 } else { !0u64 << past };
        }
    }
}

/// The invariant every `RacyCells` region split of the round loop rests on,
/// checked in full once per phase in debug builds: each family of regions
/// [`each_shard`]'s tasks carve out of a shared buffer — nodes (cells,
/// active bytes), occupancy words and their arcs (mask, counters), node
/// words and their nodes (the broadcast plane), worklist slices — is a run
/// of consecutive ranges from 0 to the buffer's length: pairwise disjoint,
/// and covering it.
#[cfg(debug_assertions)]
fn check_shard_regions(plan: &ShardPlan, graph: &Graph, wl_starts: &[usize]) {
    let shards = plan.num_shards();
    let tiles = |what: &str, len: usize, region: &dyn Fn(usize) -> std::ops::Range<usize>| {
        let mut next = 0;
        for s in 0..shards {
            let r = region(s);
            assert!(
                r.start == next && r.end >= r.start,
                "shard {s}: {what} region {r:?} does not start at {next}, where the one before ends"
            );
            next = r.end;
        }
        assert_eq!(next, len, "{what} regions do not cover the buffer");
    };
    let (n, arcs) = (graph.n(), graph.num_arcs());
    tiles("node", n, &|s| {
        let r = plan.nodes(s);
        r.start as usize..r.end as usize
    });
    tiles("occupancy-word", arcs.div_ceil(64), &|s| plan.words(s));
    tiles("arc", arcs, &|s| plan.arcs_of(s));
    tiles("node-word", n.div_ceil(64), &|s| plan.node_words(s));
    tiles("node-word node", n, &|s| plan.node_word_nodes(s));
    tiles("worklist", wl_starts[shards], &|s| {
        wl_starts[s]..wl_starts[s + 1]
    });
}

/// The active-node list's invariant over one shard of a listed round,
/// after its probe: a node the round will not step (`active[i] == 0`) is
/// done and has an empty inbox, on the slab and on the plane. It holds
/// because the last step of a node wrote `!done`, no later step undid it,
/// and every delivery since was listed — by the merge, by the probe after
/// a sweep, or by a small fold's walk (a large fold makes the next round
/// step everyone instead).
#[cfg(debug_assertions)]
fn check_listed<P, M: PackedMsg>(
    graph: &Graph,
    cells: &[NodeCell<P>],
    active: &[u8],
    v_lo: usize,
    in_occ: &[u64],
    plane: Option<&BcastIn<'_, M>>,
    round: u64,
) {
    let broadcast = |u: Node| plane.is_some_and(|b| b.occ[u as usize >> 6] >> (u & 63) & 1 == 1);
    for (i, cell) in cells.iter().enumerate() {
        let v = (v_lo + i) as Node;
        let (lo, deg) = (graph.arc_offset(v), graph.degree(v));
        assert!(
            active[i] != 0
                || (cell.done
                    && slab::popcount_range(in_occ, lo, deg) == 0
                    && !graph.neighbors(v).iter().any(|&u| broadcast(u))),
            "round {round}: node {v} is unlisted but not done or has mail"
        );
    }
}

/// Cap on auto-derived shard counts (explicit configs may exceed it).
const MAX_AUTO_SHARDS: usize = 64;

/// The phase-exit fold: drain the per-arc delivery counters into
/// `edge_row`, both directions of an edge summed, and return the row's
/// maximum. `traffic[a]` counts the deliveries into arc `a`'s slot, which
/// came over `a`'s edge, and `node_traffic[v]` what `v` sent through the
/// broadcast plane, one delivery over every edge of `v`. So one pass in
/// arc order adds `traffic[a] + node_traffic[v]` to the edge of each arc
/// `a` of each node `v`: both arcs of an edge together carry its two
/// directions. The maximum is folded into the same pass: an entry only
/// grows, so each partial sum is at most the edge's final one, and the
/// largest value written is the row's maximum. Then both counter arrays
/// are zeroed wholesale — the "zeroed by breadcrumb" exit contract, so the
/// next phase pays nothing.
fn drain_traffic(
    graph: &Graph,
    traffic: &mut [u32],
    node_traffic: &mut [u32],
    edge_row: &mut [u64],
) -> u64 {
    edge_row.fill(0);
    let mut max = 0;
    for (v, &sent) in node_traffic.iter().enumerate() {
        let lo = graph.arc_offset(v as Node);
        let edges = graph.incident_edges(v as Node);
        for (&e, &t) in edges.iter().zip(&traffic[lo..lo + edges.len()]) {
            let entry = &mut edge_row[e as usize];
            *entry += t as u64 + sent as u64;
            max = max.max(*entry);
        }
    }
    traffic.fill(0);
    node_traffic.fill(0);
    max
}

/// Per-node hot state, kept together so one cache line serves one node's
/// step and shards walk nodes without any per-round bookkeeping.
struct NodeCell<P> {
    state: P,
    rng: SmallRng,
    done: bool,
}

/// One shard's private meter block, written only by the shard that owns it
/// during a phase and read only between phases, by the round's fold.
#[derive(Debug, Clone, Copy, Default)]
struct ShardMeter {
    /// Messages the full sweep delivered into this shard's arcs this
    /// round.
    delivered: u64,
    /// Whether every node of this shard reported `done` this round.
    all_done: bool,
    /// Messages this shard's nodes staged through the per-arc mask this
    /// round (per-port sends, and the arcs of its demoted broadcasters).
    /// Zero lets the deliver phase skip the arc plane; a small global
    /// total takes the sparse worklist path.
    staged: u32,
    /// Whether any node of this shard staged a broadcast-plane word this
    /// round (gates the per-node plane fold).
    bcast_used: bool,
    /// Arcs this shard's plane senders reach this round: their degree sum,
    /// counted by `send_all`, less the demoted ones' (the plane's share of
    /// the round's deliveries; a small total lists their receivers).
    reach: u64,
}

/// Raw 16-byte-aligned storage that grows to the high-water demand, keyed
/// in bytes, and then serves every later phase without touching the
/// allocator — in the two roles the round loop has for it: a message
/// slab ([`Arena::view`]) and a bump arena for per-phase typed arrays
/// ([`Arena::alloc`]: node cells, outputs).
#[derive(Default)]
struct Arena {
    buf: Vec<u128>,
}

impl Arena {
    /// A `len`-word message slab for whatever word width the current
    /// phase needs: a `u64` phase reuses a slab a `u128` phase grew.
    /// Contents are unspecified, and a growth does not keep them; the
    /// engine only reads word slots whose occupancy bit was set this
    /// phase, so stale words are unreachable.
    fn view<W: MsgWord>(&mut self, len: usize) -> &mut [W] {
        assert!(
            std::mem::align_of::<W>() <= 16 && std::mem::size_of::<W>() <= 16,
            "message words wider than u128 are not supported"
        );
        self.grow_to_bytes(len * std::mem::size_of::<W>());
        // SAFETY: the buffer is 16-byte aligned (a `Vec<u128>`), holds at
        // least `len * size_of::<W>()` initialized bytes (`grow_to_bytes`
        // zero-fills), `W` is `u64` or `u128` (the crate's only `MsgWord`
        // implementations: plain old data, valid for any bit pattern), and
        // the slice borrows `self` mutably for as long as it lives.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr() as *mut W, len) }
    }

    /// Storage for `n` values of `T`, aligned for `T`. Raw storage only:
    /// initialization, drop, and non-overlap are the caller's contract
    /// (see [`ArenaRow`]).
    fn alloc<T>(&mut self, n: usize) -> *mut T {
        let align = std::mem::align_of::<T>();
        // Slack so any alignment can be met inside the 16-aligned buffer.
        self.grow_to_bytes(n * std::mem::size_of::<T>() + align);
        let base = self.buf.as_mut_ptr() as usize;
        ((base + align - 1) & !(align - 1)) as *mut T
    }

    /// Current byte high-water mark.
    fn byte_capacity(&self) -> usize {
        self.buf.len() * 16
    }

    /// Grow to at least `bytes`. Growth takes a fresh zeroed buffer and
    /// drops the old one without copying it: no caller reads arena or
    /// slab contents across a growth (see [`Arena::view`]), and a large
    /// zeroed allocation is fresh pages, which stay unmapped until a
    /// phase touches them.
    fn grow_to_bytes(&mut self, bytes: usize) {
        let units = bytes.div_ceil(16);
        if self.buf.len() < units {
            // Free the old buffer first, so the two are never held at once.
            self.buf = Vec::new();
            self.buf = vec![0; units];
        }
    }
}

/// `n` initialized values in arena storage, owned until they are moved
/// out or dropped: the one place the round loop's results stop being raw
/// pointers. [`PhaseOutcome`] holds one; the loop keeps its node cells in
/// one, so an early return releases them.
struct ArenaRow<T> {
    ptr: *mut T,
    n: usize,
}

impl<T> ArenaRow<T> {
    /// Write `value(0), …, value(n − 1)` to `ptr..ptr + n` and own them.
    ///
    /// # Safety
    /// `ptr` must be valid and aligned for `n` values of `T`, hold nothing
    /// that still needs dropping, and be left alone by everyone else for
    /// as long as the row lives (the arena hands a region to one phase at
    /// a time, and every holder of a row borrows the session mutably). A
    /// panic in `value` leaks the written prefix.
    unsafe fn fill(ptr: *mut T, n: usize, mut value: impl FnMut(usize) -> T) -> Self {
        for i in 0..n {
            ptr.add(i).write(value(i));
        }
        ArenaRow { ptr, n }
    }

    /// Move every value through `f` into a new row at `dst`. A panic in
    /// `f` leaks the values not yet moved.
    ///
    /// # Safety
    /// `dst` as `ptr` in [`ArenaRow::fill`], for as many values of `U` as
    /// this row holds, not overlapping it.
    unsafe fn map_into<U>(self, dst: *mut U, mut f: impl FnMut(T) -> U) -> ArenaRow<U> {
        let src = std::mem::ManuallyDrop::new(self);
        // SAFETY (the reads): slot `i` is initialized, read exactly once,
        // and `src` is never dropped.
        ArenaRow::fill(dst, src.n, |i| f(src.ptr.add(i).read()))
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        // SAFETY: `fill` initialized `ptr..ptr + n` and nothing has moved
        // out (the consuming methods take `self`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.n) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as `as_slice`, and the row is the region's only owner.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.n) }
    }

    /// The values in a `Vec` of their own.
    fn into_vec(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.n);
        // SAFETY: every slot is moved exactly once into reserved
        // capacity; forgetting `self` keeps `Drop` off the moved values.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr, out.as_mut_ptr(), self.n);
            out.set_len(self.n);
        }
        std::mem::forget(self);
        out
    }
}

impl<T> Drop for ArenaRow<T> {
    fn drop(&mut self) {
        // SAFETY: still owned, so still initialized (see `as_slice`).
        unsafe { std::ptr::drop_in_place(self.as_mut_slice()) }
    }
}

/// One completed phase, borrowing the session's buffers.
///
/// Outputs live in the session's output arena; read them in place via
/// [`PhaseOutcome::outputs`] (no allocation) or move them out with
/// [`PhaseOutcome::take_outputs`]. Dropping the outcome drops any
/// outputs still in the arena, freeing it for the next phase.
pub struct PhaseOutcome<'s, O> {
    outputs: ArenaRow<O>,
    /// What the phase cost — the same [`RunStats`] `run_protocol` reports.
    pub stats: RunStats,
    trace: Option<&'s [u64]>,
    edge_congestion: &'s [u64],
    _borrow: std::marker::PhantomData<&'s mut O>,
}

impl<'s, O> PhaseOutcome<'s, O> {
    /// Per-node outputs, indexed by node id, in the session arena.
    #[inline]
    pub fn outputs(&self) -> &[O] {
        self.outputs.as_slice()
    }

    /// Messages delivered per round, when the phase collected a trace.
    #[inline]
    pub fn trace(&self) -> Option<&'s [u64]> {
        self.trace
    }

    /// Per-edge congestion meters (indexed by edge id), in the session's
    /// reusable buffer.
    #[inline]
    pub fn edge_congestion(&self) -> &'s [u64] {
        self.edge_congestion
    }

    /// Move the outputs out of the arena into an owned `Vec` (the one
    /// allocation this type can perform).
    pub fn take_outputs(self) -> Vec<O> {
        self.outputs.into_vec()
    }

    /// Convert into the owned [`RunOutcome`] shape `run_protocol` returns.
    pub fn into_owned(self) -> RunOutcome<O> {
        RunOutcome {
            stats: self.stats,
            trace: self.trace.map(<[u64]>::to_vec),
            edge_congestion: self.edge_congestion.to_vec(),
            outputs: self.take_outputs(),
        }
    }
}

/// The graph-independent half of a [`Session`]: every buffer the round
/// loop owns. A session is `graph + state`; the pool keeps the states of
/// its warm sessions next to their graphs and re-marries them per job
/// ([`Session::from_state`]).
#[derive(Default)]
pub(crate) struct SessionState {
    /// Double-buffered arc message slabs (inbox / staging).
    slab_a: Arena,
    slab_b: Arena,
    /// Per-node broadcast-plane message slabs (inbox / staging).
    bcast_slab_a: Arena,
    bcast_slab_b: Arena,
    /// Every other buffer: untyped, or typed per phase by its own type.
    bufs: RoundBufs,
    /// Shard plan cache, keyed by the clamped requested shard count.
    plan: Option<(usize, ShardPlan)>,
    /// Whether the previous phase completed cleanly (breadcrumb-zeroed
    /// state). A failed or panicked phase clears this and the next run
    /// pays one full scrub.
    pub(crate) clean: bool,
}

/// The buffers of a [`SessionState`] but its message slabs: the same
/// type at every message width.
#[derive(Default)]
struct RoundBufs {
    /// Word-packed inbox occupancy bitset (one bit per arc).
    in_occ: Vec<u64>,
    /// Staging byte-mask (one byte per arc).
    out_mask: Vec<u8>,
    /// The congestion meter: deliveries per arc this phase, drained into
    /// `per_edge` at phase exit.
    arc_traffic: Vec<u32>,
    /// Broadcast-plane staged-presence bits / delivered-presence bits /
    /// per-node send counts (the plane's share of the meter).
    bcast_stage: Vec<AtomicU64>,
    bcast_occ: Vec<u64>,
    node_traffic: Vec<u32>,
    /// The active-node list of a [`Protocol::QUIESCENT`] phase, one byte per
    /// node: nonzero iff the node must be stepped next round (it is not
    /// done, or it was delivered mail). Round 0 of every phase rewrites
    /// all of it, so it crosses no phase boundary: no scrub, no hash tag,
    /// no snapshot field.
    active: Vec<u8>,
    /// Fault-adversary scratch (the round's drawn edge ids).
    blocked: Vec<Edge>,
    meters: Vec<ShardMeter>,
    wl_starts: Vec<usize>,
    worklist: Vec<u32>,
    set_words: Vec<u32>,
    /// Per-edge congestion fold target, exposed through [`PhaseOutcome`].
    per_edge: Vec<u64>,
    /// Per-round trace buffer (reused across phases that collect traces).
    trace_buf: Vec<u64>,
    /// Node-cell and output arenas.
    cell_arena: Arena,
    out_arena: Arena,
}

impl RoundBufs {
    /// Full scrub of every buffer a failed phase may have left dirty.
    /// Only runs after an error or a panic escaped a phase; clean phases
    /// re-zero everything they touched on their way out.
    fn scrub(&mut self) {
        self.in_occ.fill(0);
        self.out_mask.fill(0);
        self.arc_traffic.fill(0);
        self.bcast_stage.iter_mut().for_each(|w| *w.get_mut() = 0);
        self.node_traffic.fill(0);
        // `bcast_occ` needs no scrub: receivers are handed it only in the
        // round after a fold, and every fold rebuilds all presence words.
    }

    /// Whether the buffers [`RoundBufs::scrub`] zeroes are zero: what
    /// a completed phase leaves ("Zeroed by breadcrumb").
    fn scrubbed(&self) -> bool {
        fn zero<W: Copy + Into<u64>>(words: &[W]) -> bool {
            words.iter().all(|&w| w.into() == 0)
        }
        zero(&self.in_occ)
            && zero(&self.out_mask)
            && zero(&self.arc_traffic)
            && self
                .bcast_stage
                .iter()
                .all(|w| w.load(Ordering::Relaxed) == 0)
            && zero(&self.node_traffic)
    }

    /// Size the broadcast plane's bookkeeping for `n` nodes: once per
    /// session, by its first phase.
    fn size_plane(&mut self, n: usize) {
        if self.node_traffic.len() < n {
            self.bcast_stage
                .resize_with(n.div_ceil(64), AtomicU64::default);
            self.bcast_occ.resize(n.div_ceil(64), 0);
            self.node_traffic.resize(n, 0);
        }
    }
}

/// A graph-keyed engine instance owning all round-loop state for a whole
/// multi-phase algorithm — the one engine host, and [`Session::run`] its
/// one round loop (one protocol instance per node per phase). See the
/// module docs for the reuse and zeroing contract.
pub struct Session<'g> {
    graph: &'g Graph,
    state: SessionState,
}

/// The name `benchmark/` spells the engine host by.
pub type PhaseHost<'g> = Session<'g>;

impl SessionState {
    /// Freshly sized state for `graph` — what [`Session::new`] allocates.
    pub(crate) fn new(graph: &Graph) -> SessionState {
        let arcs = graph.num_arcs();
        SessionState {
            // Broadcast-plane bookkeeping is sized lazily by the first
            // phase, the slabs and arenas by the first that needs them.
            bufs: RoundBufs {
                in_occ: vec![0; arcs.div_ceil(64)],
                out_mask: vec![0; arcs],
                arc_traffic: vec![0; arcs],
                active: vec![0; graph.n()],
                per_edge: vec![0; graph.m()],
                ..RoundBufs::default()
            },
            clean: true,
            ..SessionState::default()
        }
    }

    /// Whether this state's graph-sized buffers match `graph` (checked in
    /// debug builds wherever a state is married to a graph).
    fn fits(&self, graph: &Graph) -> bool {
        self.bufs.out_mask.len() == graph.num_arcs()
            && self.bufs.per_edge.len() == graph.m()
            && self.bufs.active.len() == graph.n()
    }

    /// Splitmix64-folded hash of what a continuation starts from: the
    /// buffer sizes that are semantic (arcs, edges) and the clean flag as
    /// a prefix, then the last phase's per-edge congestion row and trace
    /// — exactly what a snapshot frame carries. Every other buffer is
    /// zeroed or scrubbed before the next phase reads it (module docs),
    /// so it is not state.
    ///
    /// Only **nonzero** words contribute (tagged by buffer and index),
    /// which makes the hash invariant across pool widths, shard counts,
    /// and a reused vs a fresh engine — everything the differential
    /// oracles prove irrelevant to results. Each word adds its own term,
    /// so the order of the folds cannot reach the hash.
    pub(crate) fn state_hash(&self) -> u64 {
        use crate::rng::mix64;
        #[inline]
        fn fold(mut h: u64, tag: u64, words: &[u64]) -> u64 {
            for (i, &w) in words.iter().enumerate() {
                if w != 0 {
                    h = h.wrapping_add(mix64(w ^ mix64((tag << 48) ^ i as u64)));
                }
            }
            h
        }
        let h = mix64(0x5348_0001 ^ self.bufs.out_mask.len() as u64)
            ^ mix64(0x5348_0002 ^ self.bufs.per_edge.len() as u64)
            ^ mix64(0x5348_0003 ^ self.clean as u64);
        // Tags 8 and 9 are the ones these buffers have always had: every
        // clean-state hash recorded so far keeps its value.
        let h = fold(h, 8, &self.bufs.per_edge);
        mix64(fold(h, 9, &self.bufs.trace_buf))
    }

    /// Estimated resident heap footprint of this state's retained
    /// buffers, in bytes — what dropping the state would actually free,
    /// and the quantity [`crate::pool::EvictionPolicy::max_warm_bytes`]
    /// budgets. Counts the slabs and arenas exactly (byte capacities)
    /// plus the capacity of every long-lived scratch vector; the few
    /// remaining per-shard bookkeeping vectors are noise next to the
    /// arc-sized buffers and are not chased.
    pub(crate) fn warm_bytes(&self) -> usize {
        [
            &self.slab_a,
            &self.slab_b,
            &self.bcast_slab_a,
            &self.bcast_slab_b,
            &self.bufs.cell_arena,
            &self.bufs.out_arena,
        ]
        .iter()
        .map(|a| a.byte_capacity())
        .sum::<usize>()
            + self.bufs.in_occ.capacity() * 8
            + self.bufs.out_mask.capacity()
            + self.bufs.arc_traffic.capacity() * 4
            + self.bufs.bcast_stage.capacity() * 8
            + self.bufs.bcast_occ.capacity() * 8
            + self.bufs.node_traffic.capacity() * 4
            + self.bufs.active.capacity()
            + self.bufs.per_edge.capacity() * 8
            + self.bufs.trace_buf.capacity() * 8
    }

    /// Append the two buffers [`SessionState::state_hash`] signs to `out`
    /// as length-prefixed little-endian words — the snapshot frame's
    /// engine payload. Everything else is zeroed or scrubbed before the
    /// next phase reads it; see the [`crate::snapshot`] module docs.
    /// Appends only — steady-state encoding into a warm buffer allocates
    /// nothing.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_u64s(out, &self.bufs.per_edge);
        crate::snapshot::put_u64s(out, &self.bufs.trace_buf);
    }

    /// What a phase does first: scrub what a failed phase left behind,
    /// mark the state dirty until this phase completes (any early exit,
    /// error or panic, leaves partially-built state; only a completed
    /// phase restores the breadcrumb-zero invariant), make the cached
    /// shard plan the one [`phase_shards`] picks, and lay out the phase's
    /// bookkeeping: the broadcast plane's, one meter block per shard, and
    /// per-shard worklist slices of `min(threshold, out_arc_bound(s))`.
    /// Returns the phase's sparse threshold.
    fn begin_phase(&mut self, graph: &Graph, config: &EngineConfig) -> usize {
        debug_assert!(self.fits(graph), "state sized for a different graph");
        assert!(
            config.max_rounds <= u32::MAX as u64,
            "max_rounds {} does not fit the u32 per-arc congestion counters",
            config.max_rounds
        );
        if !self.clean {
            self.bufs.scrub();
        }
        debug_assert!(self.bufs.scrubbed(), "a completed phase left a live buffer");
        self.clean = false;
        let shards = phase_shards(graph, config);
        if self.plan.as_ref().map(|(k, _)| *k) != Some(shards) {
            self.plan = Some((shards, graph.shard_plan(shards)));
        }
        let (plan, b) = (&self.plan.as_ref().expect("cached above").1, &mut self.bufs);
        b.size_plane(graph.n());
        if let Some(fp) = &config.faults {
            b.blocked.reserve(fp.edges_per_round);
        }
        let arcs = graph.num_arcs();
        let threshold = config
            .sparse_threshold
            .unwrap_or_else(|| (arcs / 32).clamp(64, 1 << 20))
            .min(arcs);
        b.meters.clear();
        b.meters.resize(shards, ShardMeter::default());
        b.wl_starts.clear();
        b.wl_starts.push(0);
        for s in 0..shards {
            b.wl_starts
                .push(b.wl_starts[s] + threshold.min(plan.out_arc_bound(s)));
        }
        if b.worklist.len() < b.wl_starts[shards] {
            b.worklist.resize(b.wl_starts[shards], 0);
        }
        #[cfg(debug_assertions)]
        check_shard_regions(plan, graph, &b.wl_starts);
        b.set_words.clear();
        b.set_words.reserve(threshold.min(arcs.div_ceil(64)));
        self.bufs.trace_buf.clear();
        threshold
    }

    /// The round loop: run one protocol instance per node on `graph`
    /// until global termination or the round limit. [`Session::run`] is
    /// the public face. Each round runs the stages of a [`PhaseView`] in
    /// order, steered by the previous round's [`RoundPlan`] up to its
    /// adversary and by its own from its deliver on.
    fn run_phase<'s, P, F>(
        &'s mut self,
        graph: &'s Graph,
        mut factory: F,
        config: EngineConfig,
    ) -> Result<PhaseOutcome<'s, P::Output>, EngineError>
    where
        P: Protocol,
        F: FnMut(Node, &Graph) -> P,
    {
        debug_assert!(
            P::Msg::WIDTH <= <<P::Msg as PackedMsg>::Word as MsgWord>::BITS,
            "message WIDTH exceeds its storage word"
        );
        let (arcs, threshold) = (graph.num_arcs(), self.begin_phase(graph, &config));
        let mut phase = PhaseView::new(self, graph, |v| NodeCell {
            state: factory(v as Node, graph),
            rng: node_rng(config.seed, v as Node),
            done: false,
        });
        let mut stats = RunStats::default();
        let mut prev = RoundPlan::default();
        for round in 0..config.max_rounds {
            phase.step_pass(&prev, round);
            if let Some(faults) = &config.faults {
                stats.dropped_messages += phase.block(faults, round);
            }
            let plan = RoundPlan::new(&phase.bufs.meters, arcs, threshold, P::QUIESCENT);
            let delivered = phase.deliver(&plan, prev.deliver);
            if plan.list_plane {
                phase.list_plane();
            }
            stats.total_messages += delivered;
            if config.collect_trace {
                phase.bufs.trace_buf.push(delivered);
            }
            if delivered > 0 {
                stats.rounds = round + 1;
            }
            if delivered == 0 && phase.bufs.meters.iter().all(|m| m.all_done) {
                stats.iterations = round + 1;
                return Ok(phase.finish(stats, config.collect_trace));
            }
            prev = plan;
        }
        // The cells drop with the view; the session stays marked dirty and
        // scrubs on the next run.
        Err(EngineError::RoundLimitExceeded {
            limit: config.max_rounds,
        })
    }
}

/// A message word of `P`'s.
type Word<P> = <<P as Protocol>::Msg as PackedMsg>::Word;

/// One phase's view of a [`SessionState`]: the message slabs typed at
/// `P`'s word, `P`'s node cells, and the rest of the state as
/// `begin_phase` laid it out for the graph. The round loop's stages are
/// its methods — `step_pass`, `block`, `deliver` and `list_plane` — and
/// each carves the shard regions it hands out itself.
struct PhaseView<'s, P: Protocol> {
    graph: &'s Graph,
    plan: &'s ShardPlan,
    cells: ArenaRow<NodeCell<P>>,
    /// Arc message slabs and the broadcast plane's words, inbox and
    /// staging: every deliver swaps each pair.
    in_words: &'s mut [Word<P>],
    out_words: &'s mut [Word<P>],
    bcast_in_words: &'s mut [Word<P>],
    bcast_out_words: &'s mut [Word<P>],
    bufs: &'s mut RoundBufs,
    clean: &'s mut bool,
}

impl<'s, P: Protocol> PhaseView<'s, P> {
    /// The view of `state` on `graph`, with cells `cell(0), …, cell(n −
    /// 1)` in its cell arena.
    fn new(
        state: &'s mut SessionState,
        graph: &'s Graph,
        cell: impl FnMut(usize) -> NodeCell<P>,
    ) -> Self {
        let (n, arcs) = (graph.n(), graph.num_arcs());
        // SAFETY: the arena sized the region for `n` cells and hands it to
        // nobody else during this phase; a panic in `cell` leaks the
        // written prefix (the session stays dirty, and the arena is plain
        // bytes to later phases).
        let cells = unsafe { ArenaRow::fill(state.bufs.cell_arena.alloc(n), n, cell) };
        PhaseView {
            graph,
            plan: &state.plan.as_ref().expect("begin_phase caches the plan").1,
            cells,
            in_words: state.slab_a.view(arcs),
            out_words: state.slab_b.view(arcs),
            bcast_in_words: state.bcast_slab_a.view(n),
            bcast_out_words: state.bcast_slab_b.view(n),
            bufs: &mut state.bufs,
            clean: &mut state.clean,
        }
    }

    /// Step (module docs, "Step"): each shard steps the nodes `prev.next`
    /// names — after a sweep, probing its own receivers first — and its
    /// nodes' sends land in the staging slabs; its meter block gets what
    /// it staged and whether its nodes are done. Receivers are handed the
    /// plane if `prev` folded it.
    fn step_pass(&mut self, prev: &RoundPlan, round: u64) {
        let (graph, plan, wl_starts) = (self.graph, self.plan, &self.bufs.wl_starts);
        let (step, serial) = (prev.next, prev.serial_step() || plan.num_shards() == 1);
        let cells = RacyCells::new(self.cells.as_mut_slice());
        let active = RacyCells::new(&mut self.bufs.active);
        let meters = RacyCells::new(&mut self.bufs.meters);
        let words = RacyCells::new(&mut *self.out_words);
        let mask = RacyCells::new(&mut self.bufs.out_mask);
        let wl = RacyCells::new(&mut self.bufs.worklist);
        let bcast_words = RacyCells::new(&mut *self.bcast_out_words);
        let bcast_out = BcastOut {
            words: &bcast_words,
            stage: &self.bufs.bcast_stage,
            serial,
        };
        // One broadcast descriptor per round, shared by every node's
        // context; rounds after which nobody broadcast hand receivers
        // `None` outright.
        let bcast_in = BcastIn {
            words: &*self.bcast_in_words,
            occ: &self.bufs.bcast_occ,
            adj: graph.arc_targets(),
        };
        let bcast_in = prev.fold.then_some(&bcast_in);
        let (in_words, in_occ) = (&*self.in_words, &*self.bufs.in_occ);
        each_shard(plan.num_shards(), serial, |s| {
            let nodes = plan.nodes(s);
            let (v_lo, v_hi) = (nodes.start as usize, nodes.end as usize);
            // SAFETY: `plan.nodes(..)` partitions `0..n` (checked per phase
            // in debug builds, `check_shard_regions`), so shard `s` is the
            // only task of this pass that touches cells and active bytes
            // `v_lo..v_hi`, and meter block `s`; nothing else reads them
            // until the pass has joined. A node's byte is written by its
            // own step and its own shard's probe alone (the merge and the
            // small-fold walk, the other writers, run between step passes
            // on the calling thread); bytes, not bits, so two shards never
            // share a word.
            let (cells_s, active_s, meter) = unsafe {
                (
                    cells.slice_mut(v_lo, v_hi),
                    active.slice_mut(v_lo, v_hi),
                    &mut meters.slice_mut(s, s + 1)[0],
                )
            };
            // Equal lengths, said once so the loop's index into `active_s`
            // needs no bounds check of its own.
            assert_eq!(active_s.len(), cells_s.len());
            if step == StepSet::Probed {
                list_receivers(graph, in_occ, v_lo, active_s);
            }
            #[cfg(debug_assertions)]
            if step != StepSet::All {
                check_listed(graph, cells_s, active_s, v_lo, in_occ, bcast_in, round);
            }
            // One scatter-plane descriptor per shard per round; node
            // contexts carry a pointer to it instead of its fields.
            let out = ScatterPlane {
                graph,
                words: &words,
                mask: &mask,
                rev: graph.reverse_arcs(),
                bcast: Some(&bcast_out),
                wl: &wl,
                wl_lo: wl_starts[s],
                wl_cap: wl_starts[s + 1] - wl_starts[s],
                staged: Cell::new(0),
                bcast_used: Cell::new(false),
                reach: Cell::new(0),
            };
            // An unlisted node is done (`check_listed`), so the fold over
            // the stepped nodes is the fold over all.
            let mut all_done = true;
            let listed = step != StepSet::All;
            let mut i = 0;
            while i < cells_s.len() {
                if listed && active_s[i] == 0 {
                    i = slab::next_nonzero(active_s, i);
                    continue;
                }
                let cell = &mut cells_s[i];
                let v = (v_lo + i) as Node;
                let (lo, deg) = (graph.arc_offset(v), graph.degree(v));
                let mut ctx = NodeCtx {
                    node: v,
                    round,
                    inbox: InSlot {
                        words: &in_words[lo..lo + deg],
                        occ: in_occ,
                        bit0: lo,
                        bcast: bcast_in,
                    },
                    outbox: &out,
                    sent: Sent::Nothing,
                    rng: &mut cell.rng,
                    done: &mut cell.done,
                };
                cell.state.round(&mut ctx);
                all_done &= cell.done;
                if P::QUIESCENT {
                    active_s[i] = !cell.done as u8;
                }
                i += 1;
            }
            meter.all_done = all_done;
            meter.staged = out.staged.get();
            meter.bcast_used = out.bcast_used.get();
            meter.reach = out.reach.get();
        });
    }

    /// Adversary (module docs, "Adversary"): on each direction `from → to`
    /// of each of the round's blocked edges, demote `from`'s plane word to
    /// per-arc staging — its arcs join its shard's staged count and
    /// worklist, as its own sends would, and leave its reach — then drop
    /// what is staged on the arc. Returns the messages dropped.
    fn block(&mut self, faults: &FaultPlan, round: u64) -> u64 {
        let (graph, plan) = (self.graph, self.plan);
        let rev = graph.reverse_arcs();
        faults.blocked_edges_into(round, graph.m(), &mut self.bufs.blocked);
        let mut dropped = 0;
        for &e in self.bufs.blocked.iter() {
            let (u, v) = graph.endpoints(e);
            for (from, to) in [(u, v), (v, u)] {
                let (lo, deg) = (graph.arc_offset(from), graph.degree(from));
                let bit = 1u64 << (from & 63);
                let stage = self.bufs.bcast_stage[from as usize >> 6].get_mut();
                if *stage & bit != 0 {
                    *stage &= !bit;
                    let s = (0..plan.num_shards())
                        .rfind(|&s| plan.nodes(s).start <= from)
                        .expect("shard 0 starts at node 0");
                    let meter = &mut self.bufs.meters[s];
                    let at = self.bufs.wl_starts[s] + meter.staged as usize;
                    for (j, &d) in rev[lo..lo + deg].iter().enumerate() {
                        self.out_words[d as usize] = self.bcast_out_words[from as usize];
                        self.bufs.out_mask[d as usize] = STAGED;
                        if at + j < self.bufs.wl_starts[s + 1] {
                            self.bufs.worklist[at + j] = d;
                        }
                    }
                    meter.staged += deg as u32;
                    meter.reach -= deg as u64;
                }
                let port = graph
                    .port_to(from, to)
                    .expect("edge endpoints are adjacent");
                let dest = rev[lo + port as usize] as usize;
                if self.bufs.out_mask[dest] == STAGED {
                    self.bufs.out_mask[dest] = 0;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Deliver (module docs, "Deliver"): the staging slabs become the
    /// inbox slabs, and `plan.deliver` moves what the arc mask staged into
    /// the occupancy bitset, counted and metered. A skip and a merge first
    /// clear the bits the round before left — the words `set_words` lists,
    /// and every word if `residue` says it swept; a sweep rewrites every
    /// word itself. A fold rides the sweep's pass. Returns the messages
    /// delivered.
    fn deliver(&mut self, plan: &RoundPlan, residue: Deliver) -> u64 {
        std::mem::swap(&mut self.in_words, &mut self.out_words);
        std::mem::swap(&mut self.bcast_in_words, &mut self.bcast_out_words);
        let (in_occ, set_words) = (&mut self.bufs.in_occ[..], &mut self.bufs.set_words);
        if plan.deliver != Deliver::Full {
            if residue == Deliver::Full {
                in_occ.fill(0);
            }
            set_words.drain(..).for_each(|w| in_occ[w as usize] = 0);
        }
        let mut delivered = 0;
        if plan.deliver == Deliver::Sparse {
            delivered += self.merge();
        }
        if plan.deliver == Deliver::Full || plan.fold {
            delivered += self.sweep(plan.deliver == Deliver::Full, plan.fold);
        }
        delivered
    }

    /// The sparse merge: one serial pass over the shards' worklists. An
    /// entry whose mask byte the adversary cleared drops out; for the
    /// rest, zero the byte, set the occupancy bit, bump the arc's counter,
    /// list the receiver, and note each word that went nonzero in
    /// `set_words`. Returns the messages it delivered.
    fn merge(&mut self) -> u64 {
        let b = &mut *self.bufs;
        debug_assert!(
            (b.meters.iter().enumerate())
                .all(|(s, m)| m.staged as usize <= b.wl_starts[s + 1] - b.wl_starts[s]),
            "a sparse round overflowed a shard's worklist"
        );
        let (targets, rev) = (self.graph.arc_targets(), self.graph.reverse_arcs());
        let (in_occ, mask, active) = (&mut b.in_occ[..], &mut b.out_mask[..], &mut b.active[..]);
        let traffic = &mut b.arc_traffic[..];
        let mut merged = 0;
        for (s, m) in b.meters.iter().enumerate() {
            let base = b.wl_starts[s];
            for &dest in &b.worklist[base..base + m.staged as usize] {
                let dest = dest as usize;
                if mask[dest] == 0 {
                    continue;
                }
                mask[dest] = 0;
                let w = dest >> 6;
                if in_occ[w] == 0 {
                    b.set_words.push(w as u32);
                }
                in_occ[w] |= 1u64 << (dest & 63);
                merged += 1;
                traffic[dest] += 1;
                if P::QUIESCENT {
                    // `dest` is the receiver's in-arc, so the reverse arc
                    // points back at it.
                    active[targets[rev[dest] as usize] as usize] = 1;
                }
            }
        }
        merged
    }

    /// The forked half of deliver: each shard sweeps its occupancy words
    /// from the mask bytes if `sweep` — 64 bytes pack into a word, the
    /// bytes are re-zeroed, the set bits counted and their arcs' counters
    /// bumped — and, if `fold`, takes its staged presence words whole as
    /// the ones receivers read, leaves them zero, and bumps each sender's
    /// counter. Returns what the pass delivered: the sweep's bits, and
    /// the fold's senders' reach.
    fn sweep(&mut self, sweep: bool, fold: bool) -> u64 {
        let plan = self.plan;
        let mask = RacyCells::new(&mut self.bufs.out_mask);
        let occ = RacyCells::new(&mut self.bufs.in_occ);
        let traffic = RacyCells::new(&mut self.bufs.arc_traffic);
        let bcast_occ = RacyCells::new(&mut self.bufs.bcast_occ);
        let sent = RacyCells::new(&mut self.bufs.node_traffic);
        let meters = RacyCells::new(&mut self.bufs.meters);
        let stage = &*self.bufs.bcast_stage;
        each_shard(plan.num_shards(), false, |s| {
            let (words, arcs) = (plan.words(s), plan.arcs_of(s));
            let (nw, nodes) = (plan.node_words(s), plan.node_word_nodes(s));
            let (a_lo, b_lo) = (arcs.start, nodes.start);
            // SAFETY: `plan.words(..)` partitions the occupancy words and
            // `plan.arcs_of(s)` is exactly the arcs of shard `s`'s words
            // (`a_lo == 64 * words.start`); `plan.node_words(..)` partitions
            // the presence words and `plan.node_word_nodes(s)` is exactly
            // their nodes (`b_lo == 64 * nw.start`). So no two shards share
            // a mask byte, occupancy word, arc counter, presence word or
            // send counter (`check_shard_regions` in debug builds), and
            // meter block `s` is task `s`'s alone. The step pass that wrote
            // the mask and the staged words has joined, and nothing reads
            // these buffers before this pass does.
            let (mask_s, occ_s, traffic_s, bocc_s, sent_s, meter) = unsafe {
                (
                    mask.slice_mut(a_lo, arcs.end),
                    occ.slice_mut(words.start, words.end),
                    traffic.slice_mut(a_lo, arcs.end),
                    bcast_occ.slice_mut(nw.start, nw.end),
                    sent.slice_mut(b_lo, nodes.end),
                    &mut meters.slice_mut(s, s + 1)[0],
                )
            };
            let mut delivered = 0u64;
            if sweep {
                for (i, occ_word) in occ_s.iter_mut().enumerate() {
                    let lo = words.start * 64 + i * 64;
                    let hi = (lo + 64).min(arcs.end);
                    let mask = &mut mask_s[lo - a_lo..hi - a_lo];
                    let bits = slab::pack_bytes(mask);
                    *occ_word = bits;
                    if bits != 0 {
                        mask.fill(0);
                        delivered += bits.count_ones() as u64;
                        let traffic = &mut traffic_s[lo - a_lo..hi - a_lo];
                        let mut b = bits;
                        while b != 0 {
                            traffic[b.trailing_zeros() as usize] += 1;
                            b &= b - 1;
                        }
                    }
                }
            }
            if fold {
                // The plane's deliveries: shard `s`'s senders' reach, as its
                // step pass counted it (the sum over the shards is the
                // fold's, whichever nodes each one folds).
                delivered += meter.reach;
                let stage_s = &stage[nw.start..nw.end];
                for (i, (occ_word, staged)) in bocc_s.iter_mut().zip(stage_s).enumerate() {
                    // Shard `s` alone reads and clears these staged words
                    // in this pass.
                    let bits = staged.load(Ordering::Relaxed);
                    *occ_word = bits;
                    if bits != 0 {
                        staged.store(0, Ordering::Relaxed);
                        let lo = nw.start * 64 + i * 64;
                        let mut b = bits;
                        while b != 0 {
                            sent_s[lo + b.trailing_zeros() as usize - b_lo] += 1;
                            b &= b - 1;
                        }
                    }
                }
            }
            meter.delivered = delivered;
        });
        self.bufs.meters.iter().map(|m| m.delivered).sum()
    }

    /// A small fold's receiver listing: one serial walk over the presence
    /// words sets the active byte of each sender's neighbours, so the next
    /// round steps them and not the graph.
    fn list_plane(&mut self) {
        let (graph, active) = (self.graph, &mut self.bufs.active[..]);
        for (w, &word) in self.bufs.bcast_occ.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                let v = (w * 64 + b.trailing_zeros() as usize) as Node;
                b &= b - 1;
                for &u in graph.neighbors(v) {
                    active[u as usize] = 1;
                }
            }
        }
    }

    /// Phase exit: trim the trace to the last delivering round, fold the
    /// congestion counters into the per-edge row (`drain_traffic`), turn
    /// the cells into arena-resident outputs and mark the state clean.
    fn finish(self, mut stats: RunStats, collect_trace: bool) -> PhaseOutcome<'s, P::Output> {
        let (graph, b) = (self.graph, self.bufs);
        b.trace_buf.truncate(stats.rounds as usize);
        // Every message of a phase has its type's fixed width.
        if stats.total_messages + stats.dropped_messages > 0 {
            stats.max_message_bits = P::Msg::WIDTH as usize;
        }
        stats.max_edge_congestion = drain_traffic(
            graph,
            &mut b.arc_traffic,
            &mut b.node_traffic,
            &mut b.per_edge,
        );
        // SAFETY: the output arena sized the region for `n` outputs, the
        // previous phase's outcome (its last user) is gone, and the two
        // arenas never overlap; a panic in `finish` leaks the tail, which
        // the dirty flag covers.
        let outputs =
            unsafe { (self.cells).map_into(b.out_arena.alloc(graph.n()), |c| c.state.finish()) };
        *self.clean = true;
        PhaseOutcome {
            outputs,
            stats,
            trace: collect_trace.then_some(&b.trace_buf[..]),
            edge_congestion: &b.per_edge,
            _borrow: std::marker::PhantomData,
        }
    }
}

impl<'g> Session<'g> {
    /// Build a session for `graph`, allocating every graph-keyed buffer
    /// once. Message slabs and arenas are sized lazily by the first
    /// phase that needs them (and re-keyed upward if a later phase needs
    /// more — e.g. a `u128` phase after `u64` ones).
    pub fn new(graph: &'g Graph) -> Session<'g> {
        Session {
            graph,
            state: SessionState::new(graph),
        }
    }

    /// [`Session::new`], under the name `benchmark/` calls through
    /// [`PhaseHost`].
    pub fn resident(graph: &'g Graph) -> Session<'g> {
        Session::new(graph)
    }

    /// Re-marry a state with its graph — how the pool lends a state it
    /// owns out as a session.
    pub(crate) fn from_state(graph: &'g Graph, state: SessionState) -> Session<'g> {
        debug_assert!(state.fits(graph), "state sized for a different graph");
        Session { graph, state }
    }

    /// Take the state back out (inverse of [`Session::from_state`]).
    pub(crate) fn into_state(self) -> SessionState {
        self.state
    }

    /// The graph this session is keyed to.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Hash of the resident engine state — eight bytes that sign the
    /// state a continuation would start from. Invariant across pool
    /// widths, shard counts, and a reused vs a fresh engine; see
    /// [`crate::snapshot`].
    pub fn state_hash(&self) -> u64 {
        self.state.state_hash()
    }

    /// Serialize the session at a phase boundary into `out` (cleared
    /// first) as a versioned, checksummed snapshot frame — see
    /// [`crate::snapshot`] for the format. Encoding into a warm
    /// (previously used) buffer allocates nothing.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        out.clear();
        crate::snapshot::begin(out, &crate::snapshot::Frame::of(self.graph, &self.state));
        self.state.encode_payload(out);
        crate::snapshot::finish(out);
    }

    /// [`Session::snapshot_into`] into a fresh buffer.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Restore a snapshot frame onto `graph`, which must be the graph
    /// the frame was taken from (fingerprint and shape are verified).
    /// The restored session is a fresh one ([`Session::new`]) holding the
    /// frame's per-edge row, trace and clean flag, and it continues
    /// **bit-identically** to the one that was snapshotted: every buffer
    /// the next phase would zero or scrub starts zero, slabs, arenas and
    /// the shard plan are sized on first use, as a fresh session's are,
    /// and the recomputed [`Session::state_hash`] must equal the recorded
    /// one, or the restore is refused.
    pub fn restore(
        graph: &'g Graph,
        bytes: &[u8],
    ) -> Result<Session<'g>, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let (header, mut r) = crate::snapshot::open(bytes)?;
        let found = graph.fingerprint();
        if header.fingerprint != found {
            return Err(SnapshotError::FingerprintMismatch {
                expected: found,
                found: header.fingerprint,
            });
        }
        if (header.n, header.m, header.arcs)
            != (graph.n() as u64, graph.m() as u64, graph.num_arcs() as u64)
        {
            return Err(SnapshotError::SizeMismatch("graph shape"));
        }
        let mut state = SessionState::new(graph);
        state.bufs.per_edge = r.u64s()?;
        if state.bufs.per_edge.len() != graph.m() {
            return Err(SnapshotError::SizeMismatch("per_edge"));
        }
        state.bufs.trace_buf = r.u64s()?;
        if !r.at_end() {
            return Err(SnapshotError::SizeMismatch("frame length"));
        }
        state.clean = header.clean;
        let rehash = state.state_hash();
        if rehash != header.state_hash {
            return Err(SnapshotError::StateHashMismatch {
                expected: header.state_hash,
                found: rehash,
            });
        }
        Ok(Session::from_state(graph, state))
    }

    /// Run one protocol instance per node until global termination (all
    /// nodes done and no message in flight) or the round limit — the
    /// session-resident equivalent of [`crate::run_protocol`], reusing
    /// every buffer of the previous phase. Per-node RNGs are re-derived
    /// from `config.seed` exactly as `run_protocol` derives them, so a
    /// session-hosted composition is bit-identical to one `run_protocol`
    /// call per phase.
    ///
    /// # Example
    ///
    /// Elect a leader by flood-max ([`crate::leader::FloodMax`]); every
    /// node agrees on the node of highest rank, and a second phase on the
    /// same session reuses every buffer of the first:
    ///
    /// ```
    /// use congest_graph::generators::complete;
    /// use congest_sim::leader::{rank, FloodMax};
    /// use congest_sim::{EngineConfig, Session};
    ///
    /// let g = complete(8);
    /// let highest = (0..8).max_by_key(|&v| rank(v)).unwrap();
    /// let mut session = Session::new(&g);
    /// for phase in 0..2 {
    ///     let out = session
    ///         .run(|v, _| FloodMax::new(v), EngineConfig::with_seed(phase))
    ///         .unwrap();
    ///     assert!(out.outputs().iter().all(|o| o.leader == highest));
    /// }
    /// ```
    pub fn run<'s, P, F>(
        &'s mut self,
        factory: F,
        config: EngineConfig,
    ) -> Result<PhaseOutcome<'s, P::Output>, EngineError>
    where
        P: Protocol,
        F: FnMut(Node, &Graph) -> P,
    {
        self.state.run_phase(self.graph, factory, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix64;
    use crate::FaultPlan;
    use congest_graph::generators::{
        barbell, clique_chain, clique_ring, cycle, gk13_lower_bound, gnp, harary, hypercube, path,
        random_regular, theorem9_instance, thick_path, torus2d,
    };
    use congest_graph::GraphBuilder;
    use proptest::prelude::*;

    /// Every generator family, sparse and dense, connected or not, with
    /// its node ids shuffled (`congest_core`'s `arb_family()`).
    fn arb_family() -> impl Strategy<Value = Graph> {
        (0u32..12, 2usize..6, 3usize..7, any::<u64>()).prop_map(|(kind, a, b, seed)| {
            let pick = |upto: usize| 1 + (seed % upto as u64) as usize;
            let g = match kind {
                0 => gnp(6 * a + b, 0.1 * (a + 1) as f64, seed),
                1 => random_regular(2 * (a + b), b, seed),
                2 => clique_chain(a, b + 1, pick(b)),
                3 => clique_ring(a + 1, 2 * b, pick(b)),
                4 => barbell(b, a),
                5 => thick_path(a, b),
                6 => gk13_lower_bound(a + 2, b).0,
                7 => theorem9_instance(a + b + 4, a, 3.0, 2.0, seed)
                    .graph
                    .graph()
                    .clone(),
                8 => path(a * b + 2),
                9 => cycle(a * b + 3),
                10 => torus2d(a + 1, b),
                _ => harary(2 * a, 8 * b),
            };
            let mut id: Vec<u32> = (0..g.n() as u32).collect();
            for i in (1..id.len()).rev() {
                id.swap(i, (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize);
            }
            GraphBuilder::new(g.n())
                .edges(
                    g.edge_list()
                        .map(|(_, u, v)| (id[u as usize], id[v as usize])),
                )
                .build()
                .unwrap()
        })
    }

    /// A reference for `drain_traffic`: clear the row, add every arc's
    /// counter and its sender's plane counter to the arc's edge, then scan
    /// the row for its maximum. The sender behind arc `a` of `v` is the
    /// neighbour `a` points at, so this reads the plane counters through
    /// the neighbour lists, where the one pass reads them by owner.
    fn two_pass_fold(graph: &Graph, traffic: &[u32], node_traffic: &[u32]) -> (Vec<u64>, u64) {
        let mut row = vec![0u64; graph.m()];
        for v in 0..graph.n() as Node {
            let lo = graph.arc_offset(v);
            let neighbors = graph.neighbors(v);
            for (i, &e) in graph.incident_edges(v).iter().enumerate() {
                row[e as usize] +=
                    traffic[lo + i] as u64 + node_traffic[neighbors[i] as usize] as u64;
            }
        }
        let max = row.iter().copied().max().unwrap_or(0);
        (row, max)
    }

    /// Drain counters drawn from `seed` over a stale row and compare with
    /// the two-pass fold: `mode` 0 fills the arc counters only, 1 both, 2
    /// the plane's only (a phase whose every send was a `send_all`).
    fn check_drain(g: &Graph, seed: u64, mode: u8) {
        // Zero a quarter of the time, else anywhere in u32's range.
        let counter = |i: u64| {
            let c = mix64(seed ^ i);
            if c.is_multiple_of(4) {
                0
            } else {
                (c >> 32) as u32 >> (c % 32)
            }
        };
        let (arcs, plane) = (mode < 2, mode > 0);
        let mut traffic: Vec<u32> = (0..g.num_arcs() as u64)
            .map(|a| if arcs { counter(a) } else { 0 })
            .collect();
        let mut node_traffic: Vec<u32> = (0..g.n() as u64)
            .map(|v| if plane { counter(!v) } else { 0 })
            .collect();
        let (want_row, want_max) = two_pass_fold(g, &traffic, &node_traffic);
        let mut row = vec![u64::MAX; g.m()];
        let max = drain_traffic(g, &mut traffic, &mut node_traffic, &mut row);
        prop_assert_eq!(row, want_row);
        prop_assert_eq!(max, want_max);
        prop_assert!(traffic.iter().all(|&t| t == 0));
        prop_assert!(node_traffic.iter().all(|&t| t == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One arc-ordered pass writes the row and the maximum the
        /// two-pass fold computes, over a stale row, with arc counters, plane
        /// counters or both, and leaves every counter it read at zero — on
        /// every family, and on a random-regular graph numbered as its
        /// generator numbers it, whose edge ids are not contiguous per node.
        #[test]
        fn drain_traffic_matches_the_two_pass_fold(
            g in arb_family(),
            seed in any::<u64>(),
            mode in 0u8..3,
        ) {
            check_drain(&g, seed, mode);
            let size = 2 * (8 + seed % 24) as usize;
            check_drain(&random_regular(size, 5, seed), seed, mode);
        }
    }

    /// `EvictionPolicy::max_warm_bytes` budgets what a parked state holds,
    /// the active-node list included.
    #[test]
    fn warm_bytes_counts_every_graph_sized_buffer() {
        let g = cycle(100); // 200 arcs, 100 edges
        let state = SessionState::new(&g);
        let (in_occ, out_mask, arc_traffic, active, per_edge) = (4 * 8, 200, 200 * 4, 100, 100 * 8);
        assert_eq!(
            state.warm_bytes(),
            in_occ + out_mask + arc_traffic + active + per_edge
        );
    }

    /// A frame carries no buffer sizes: a restored state holds what a
    /// fresh one holds, and its first phase grows it as a fresh one's does.
    #[test]
    fn a_restored_session_sizes_its_buffers_as_a_fresh_one_does() {
        /// One word to every neighbour in round 0.
        struct Hello;
        impl Protocol for Hello {
            type Msg = u64;
            type Output = ();
            fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
                if ctx.round == 0 {
                    ctx.send_all(1);
                }
                ctx.set_done(true);
            }
            fn finish(self) {}
        }
        let g = cycle(100);
        let mut original = Session::new(&g);
        original.run(|_, _| Hello, EngineConfig::default()).unwrap();
        let mut restored = Session::restore(&g, &original.snapshot()).unwrap();
        let mut fresh = Session::new(&g);
        assert_eq!(restored.state.warm_bytes(), fresh.state.warm_bytes());
        for session in [&mut restored, &mut fresh] {
            session.run(|_, _| Hello, EngineConfig::default()).unwrap();
        }
        assert_eq!(restored.state.warm_bytes(), fresh.state.warm_bytes());
        assert_eq!(restored.state.warm_bytes(), original.state.warm_bytes());
    }

    /// Who steps does not hang on the deliver path: with every delivering
    /// round a full sweep (`sparse_threshold(0)`) or every scattering
    /// round sparse (`usize::MAX`), a `QUIESCENT` flood-max steps as many
    /// nodes — the probe after a sweep lists the receivers the sparse
    /// merge would have listed — unfaulted and faulted.
    #[test]
    fn a_quiescent_flood_steps_as_many_nodes_at_every_sparse_threshold() {
        use crate::leader::{FloodMax, LeaderInfo};
        thread_local! {
            static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        /// `FloodMax`, counting its steps.
        struct Counted(FloodMax);
        impl Protocol for Counted {
            type Msg = u32;
            type Output = LeaderInfo;
            const QUIESCENT: bool = true;
            fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
                STEPS.with(|s| s.set(s.get() + 1));
                self.0.round(ctx);
            }
            fn finish(self) -> LeaderInfo {
                self.0.finish()
            }
        }
        let steps = |g: &Graph, config: EngineConfig| {
            STEPS.with(|s| s.set(0));
            let stats = Session::new(g)
                .run(|v, _| Counted(FloodMax::new(v)), config)
                .unwrap()
                .stats;
            (STEPS.with(|s| s.get()), stats)
        };
        // One lane: every shard steps on this thread, where `STEPS` lives.
        congest_par::with_threads(1, || {
            for g in [
                harary(16, 1024),
                torus2d(32, 32),
                random_regular(1024, 6, 42),
            ] {
                for faults in [None, Some(FaultPlan::new(2, 7))] {
                    let config = EngineConfig {
                        faults,
                        ..EngineConfig::default()
                    };
                    let swept = steps(&g, config.clone().sparse_threshold(0));
                    let merged = steps(&g, config.sparse_threshold(usize::MAX));
                    assert_eq!(swept, merged, "n = {}, faults = {faults:?}", g.n());
                }
            }
        });
    }

    /// A small plane fold lists its receivers: after one source's round-0
    /// `send_all`, round 1 steps exactly the source's neighbours, not every
    /// node — unfaulted and faulted (a demoted source's receivers are
    /// listed by the sparse merge instead).
    #[test]
    fn a_lone_broadcast_steps_only_its_receivers() {
        use std::cell::RefCell;
        thread_local! {
            static ROUND1: RefCell<Vec<Node>> = const { RefCell::new(Vec::new()) };
        }
        /// Node 0 broadcasts once; everyone records stepping in round 1.
        struct Lone;
        impl Protocol for Lone {
            type Msg = u32;
            type Output = ();
            const QUIESCENT: bool = true;
            fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
                if ctx.round == 1 {
                    ROUND1.with(|r| r.borrow_mut().push(ctx.node));
                }
                if ctx.round == 0 && ctx.node == 0 {
                    ctx.send_all(7);
                }
                ctx.set_done(true);
            }
            fn finish(self) {}
        }
        // One lane: every shard steps on this thread, where `ROUND1` lives.
        congest_par::with_threads(1, || {
            for g in [harary(16, 1024), hypercube(10), random_regular(1024, 6, 42)] {
                for faults in [None, Some(FaultPlan::new(2, 7))] {
                    ROUND1.with(|r| r.borrow_mut().clear());
                    let config = EngineConfig {
                        faults,
                        ..EngineConfig::default()
                    };
                    Session::new(&g).run(|_, _| Lone, config).unwrap();
                    let stepped = ROUND1.with(|r| r.take());
                    assert_eq!(
                        stepped,
                        g.neighbors(0),
                        "n = {}, faults = {faults:?}",
                        g.n()
                    );
                }
            }
        });
    }

    /// `RoundPlan::new` at every boundary of its inputs: a staged total of
    /// 0, 1, the threshold and one past it; a fold or none, with `4 ·
    /// reach` just under and at the arc count; the `QUIESCENT` promise made
    /// or not. Each row is split over two shard meters, whose totals are
    /// what the plan reads, and pins the deliver path (and so the residue
    /// the next round clears), whether the next round's receivers are
    /// handed the plane, whether the fold lists them, which nodes the next
    /// round steps, and whether its step pass stays on the calling thread.
    #[test]
    fn a_round_plan_is_fixed_by_its_meter_totals() {
        use Deliver::{Full, Skip, Sparse};
        use StepSet::{All, Listed, Probed};
        let (arcs, t) = (1024, 32);
        // 4 · 255 < 1024 = 4 · 256.
        let (under, at) = (255, 256);
        #[rustfmt::skip]
        let rows = [
            // staged, fold, reach, quiescent → deliver, lists, next, serial
            (0,     false, 0,     false, Skip,   false, All,    false),
            (1,     false, 0,     false, Sparse, false, All,    false),
            (t,     false, 0,     false, Sparse, false, All,    false),
            (t + 1, false, 0,     false, Full,   false, All,    false),
            (0,     false, 0,     true,  Skip,   false, Listed, true),
            (1,     false, 0,     true,  Sparse, false, Listed, true),
            (t,     false, 0,     true,  Sparse, false, Listed, true),
            (t + 1, false, 0,     true,  Full,   false, Probed, false),
            (0,     true,  under, true,  Skip,   true,  Listed, true),
            (0,     true,  at,    true,  Skip,   false, All,    false),
            (1,     true,  under, true,  Sparse, true,  Listed, true),
            (t,     true,  at,    true,  Sparse, false, All,    false),
            (t + 1, true,  under, true,  Full,   true,  Probed, false),
            (t + 1, true,  at,    true,  Full,   false, All,    false),
            (0,     true,  under, false, Skip,   false, All,    false),
            (t + 1, true,  at,    false, Full,   false, All,    false),
            // Every sender demoted: the fold finds nothing, and lists it.
            (1,     true,  0,     true,  Sparse, true,  Listed, true),
        ];
        for (staged, fold, reach, quiescent, deliver, list_plane, next, serial) in rows {
            let row = (staged, fold, reach, quiescent);
            let meters = [
                ShardMeter {
                    staged: staged / 2,
                    reach: reach / 2,
                    ..ShardMeter::default()
                },
                ShardMeter {
                    staged: staged - staged / 2,
                    bcast_used: fold,
                    reach: reach - reach / 2,
                    ..ShardMeter::default()
                },
            ];
            let plan = RoundPlan::new(&meters, arcs, t as usize, quiescent);
            let expected = RoundPlan {
                deliver,
                fold,
                list_plane,
                next,
            };
            assert_eq!(plan, expected, "{row:?}");
            assert_eq!(plan.serial_step(), serial, "{row:?}");
        }
        // Round 0 steps every node, clears nothing and reads no plane.
        let first = RoundPlan::default();
        assert_eq!((first.deliver, first.fold, first.next), (Skip, false, All));
    }

    #[test]
    fn a_phase_forks_from_fork_min_arcs_up_or_on_a_pinned_shard_count() {
        let below = harary(126, 1024);
        let at = harary(128, 1024);
        assert!(below.num_arcs() < FORK_MIN_ARCS);
        assert_eq!(at.num_arcs(), FORK_MIN_ARCS);
        let small = cycle(8);
        let unpinned = EngineConfig::default();
        let pinned = EngineConfig::default().shards(3);
        congest_par::with_threads(4, || {
            assert_eq!(phase_shards(&below, &unpinned), 1);
            assert_eq!(phase_shards(&at, &unpinned), 16);
            assert_eq!(phase_shards(&small, &pinned), 3);
        });
        // A one-lane pool derives one shard, and runs a pinned count in
        // shard order on the calling thread.
        congest_par::with_threads(1, || {
            assert_eq!(phase_shards(&at, &unpinned), 1);
            assert_eq!(phase_shards(&small, &pinned), 3);
            let order = std::sync::Mutex::new(Vec::new());
            let caller = std::thread::current().id();
            each_shard(3, false, |s| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(s);
            });
            assert_eq!(order.into_inner().unwrap(), [0, 1, 2]);
        });
    }
}
