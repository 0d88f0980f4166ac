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
//! [`Session::run`]'s loop (`run_phase` below).
//!
//! Messages live in **dense arc-indexed slabs** of packed words
//! ([`crate::message::PackedMsg`]): arc `i` is position `i` in the graph's
//! flattened adjacency, so node `v`'s ports occupy
//! `arc_offset(v)..arc_offset(v)+deg(v)`. Presence is a word-packed
//! occupancy bitset on the inbox side and a byte-mask (one byte per arc,
//! one writer each) on the staging side, not per-slot `Option`s. The loop
//! runs on a [`congest_graph::ShardPlan`] — contiguous node shards
//! balanced by arc count, each owning a disjoint range of occupancy words
//! (64 arcs each) — and a round is three phases, the first and last a
//! pass over the shards, across the `congest-par` pool. The pool width is
//! the one switch, and the phase's shard count its one fork decision
//! (`phase_shards`, once per phase: a pinned count, else four per lane
//! from `FORK_MIN_ARCS` arcs up on a pool wider than one lane, else one).
//! One shard runs on the calling thread, and a one-lane pool runs any
//! count there in shard order, so a serial run is a one-lane run:
//!
//! * **Step** — shard `s` steps its own nodes; a send is scattered
//!   straight into the *destination* arc slot of the staging slab through
//!   the `reverse_arc` permutation (a bijection: one writer per slot), the
//!   one write path ([`crate::protocol`]). The
//!   shard folds its nodes' `done` flags, counts what it staged, and lists
//!   the staged arcs in its worklist region (capped at `min(threshold,
//!   out_arc_bound(s))`; past the cap only the count goes on). Which nodes
//!   a shard steps is one of two choices, **all** or **listed** — see
//!   "The active-node list" below.
//! * **Adversary** — under a [`crate::FaultPlan`], one serial pass over the
//!   round's blocked edges. It **demotes** each endpoint that staged a
//!   broadcast-plane word — the word goes to the node's per-arc staging
//!   slots through `reverse_arc`, its staged-presence bit is cleared, and
//!   its arcs join its shard's staged count and worklist, as its own
//!   per-port sends would (so a thin faulted round still takes the sparse
//!   merge) — then clears what is staged on the blocked arcs and counts it
//!   dropped: what an all-scatter round drops.
//! * **Deliver** — the staging slab *becomes* the inbox slab (a swap), and
//!   what was staged is folded into the occupancy bitset, counted and
//!   metered by one of three paths, chosen from the staged counts alone
//!   (the same at every pool width and shard count) and bit-identical in
//!   what they leave. **Skip**: nothing went through the arc mask, so only
//!   the previous round's occupancy residue is zeroed. **Sparse**: the
//!   staged total is within [`EngineConfig::sparse_threshold`] (then no
//!   shard's worklist overflowed: a shard stages each port at most once).
//!   One serial pass over the shards' worklists: an entry whose mask byte
//!   the adversary cleared drops out; for the rest, zero the mask byte,
//!   set the occupancy bit, bump the arc's counter, and note each word
//!   that went nonzero in `set_words`, the breadcrumb by which the next
//!   round zeroes O(traffic) words, not the bitset (the pass is
//!   random-access and O(traffic), so it never forks). **Full**: each
//!   shard sweeps its word range — 64 mask bytes pack into one occupancy
//!   word, the mask is re-zeroed, the set bits counted and their arcs'
//!   counters bumped.
//!
//! Each shard writes one private `ShardMeter`; the round's totals
//! (delivered, all done, staged) are a serial fold over them — sums and an
//! and, so the order cannot reach a result.
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
//! reach fewer than a quarter of the arcs, the degree sum of the presence
//! bits it folded — lists its receivers itself: after the fold, one
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
//! words receivers read, leaves them zero, and each set bit adds the
//! sender's degree to the delivered count (and to the fold's reach) and
//! one to the sender's counter. Receivers are handed the plane only in the
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
use crate::message::{MsgWord, PackedMsg};
use crate::protocol::{BcastIn, BcastOut, InSlot, NodeCtx, Protocol, ScatterPlane};
use crate::rng::node_rng;
use crate::slab;
use congest_graph::{Edge, Graph, Node, ShardPlan};
use congest_par::RacyCells;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// The staging byte-mask value for "this arc carries a message".
const STAGED: u8 = 1;

/// Which nodes a round's step pass steps (module docs, "The active-node
/// list").
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepSet {
    /// Every node, which rewrites the whole list: round 0, a round after a
    /// large plane fold, and every round of a protocol without
    /// [`Protocol::QUIESCENT`].
    All,
    /// The nodes `active` lists, after a skip or a sparse deliver (whose
    /// merge listed its receivers; a small plane fold lists its own), on
    /// the calling thread.
    Listed,
    /// The same, after a full sweep: each shard first lists its own
    /// receivers from their occupancy bits, across the shards.
    Probed,
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

/// Run `task(0..shards)`: one shard on the calling thread, more across the
/// pool (which runs them in order on the calling thread at width 1). Tasks
/// own disjoint regions, so every width leaves the same bytes.
#[inline]
fn each_shard(shards: usize, task: impl Fn(usize) + Sync) {
    if shards == 1 {
        task(0);
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

impl<P> NodeCell<P> {
    /// Node `v`'s cell at the start of a run seeded `seed`.
    fn new(state: P, seed: u64, v: Node) -> Self {
        NodeCell {
            state,
            rng: node_rng(seed, v),
            done: false,
        }
    }
}

/// One shard's private meter block, written only by the shard that owns it
/// during a phase and read only between phases, by the round's fold.
#[derive(Debug, Clone, Copy, Default)]
struct ShardMeter {
    /// Messages delivered into this shard's arcs (and out of its
    /// broadcasting nodes) this round.
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
    /// Arcs this shard's plane senders reached this round (their degree
    /// sum, part of `delivered`): a small total lists their receivers.
    reach: u64,
}

/// Does the inbox occupancy bitset need zeroing before this round's bits
/// land, and how cheaply can that be done?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OccState {
    /// All-zero (nothing to do).
    Clean,
    /// Nonzero only at the words listed in the engine's `set_words`
    /// scratch (sparse rounds leave this breadcrumb so the next round
    /// zeroes O(traffic) words, not O(arcs/64)).
    Tracked,
    /// Arbitrary (a full-sweep round rebuilt every word; zeroing takes a
    /// whole-bitset fill).
    Unknown,
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

    /// Move the values into `dst` (cleared first), allocating only if
    /// `dst`'s retained capacity is too small.
    fn move_into(self, dst: &mut Vec<T>) {
        dst.clear();
        dst.reserve(self.n);
        // SAFETY: every slot is moved exactly once into reserved
        // capacity; forgetting `self` keeps `Drop` off the moved values.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr, dst.as_mut_ptr(), self.n);
            dst.set_len(self.n);
        }
        std::mem::forget(self);
    }

    /// The values in a `Vec` of their own.
    fn into_vec(self) -> Vec<T> {
        let mut out = Vec::new();
        self.move_into(&mut out);
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
        let stats = self.stats;
        let trace = self.trace.map(|t| t.to_vec());
        let edge_congestion = self.edge_congestion.to_vec();
        RunOutcome {
            outputs: self.take_outputs(),
            stats,
            trace,
            edge_congestion,
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
    /// Shard plan cache, keyed by the clamped requested shard count.
    plan: Option<(usize, ShardPlan)>,
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
    /// Whether the previous phase completed cleanly (breadcrumb-zeroed
    /// state). A failed or panicked phase clears this and the next run
    /// pays one full scrub.
    pub(crate) clean: bool,
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
        let occ_words = arcs.div_ceil(64);
        SessionState {
            slab_a: Arena::default(),
            slab_b: Arena::default(),
            bcast_slab_a: Arena::default(),
            bcast_slab_b: Arena::default(),
            in_occ: vec![0; occ_words],
            out_mask: vec![0; arcs],
            arc_traffic: vec![0; arcs],
            // Broadcast-plane bookkeeping is sized lazily by the first
            // phase.
            bcast_stage: Vec::new(),
            bcast_occ: Vec::new(),
            node_traffic: Vec::new(),
            active: vec![0; graph.n()],
            blocked: Vec::new(),
            plan: None,
            meters: Vec::new(),
            wl_starts: Vec::new(),
            worklist: Vec::new(),
            set_words: Vec::new(),
            per_edge: vec![0; graph.m()],
            trace_buf: Vec::new(),
            cell_arena: Arena::default(),
            out_arena: Arena::default(),
            clean: true,
        }
    }

    /// Whether this state's graph-sized buffers match `graph` (checked in
    /// debug builds wherever a state is married to a graph).
    fn fits(&self, graph: &Graph) -> bool {
        self.out_mask.len() == graph.num_arcs()
            && self.per_edge.len() == graph.m()
            && self.active.len() == graph.n()
    }

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

    /// Whether the buffers [`SessionState::scrub`] zeroes are zero: what
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
        let h = mix64(0x5348_0001 ^ self.out_mask.len() as u64)
            ^ mix64(0x5348_0002 ^ self.per_edge.len() as u64)
            ^ mix64(0x5348_0003 ^ self.clean as u64);
        // Tags 8 and 9 are the ones these buffers have always had: every
        // clean-state hash recorded so far keeps its value.
        let h = fold(h, 8, &self.per_edge);
        mix64(fold(h, 9, &self.trace_buf))
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
            &self.cell_arena,
            &self.out_arena,
        ]
        .iter()
        .map(|a| a.byte_capacity())
        .sum::<usize>()
            + self.in_occ.capacity() * 8
            + self.out_mask.capacity()
            + self.arc_traffic.capacity() * 4
            + self.bcast_stage.capacity() * 8
            + self.bcast_occ.capacity() * 8
            + self.node_traffic.capacity() * 4
            + self.active.capacity()
            + self.per_edge.capacity() * 8
            + self.trace_buf.capacity() * 8
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

    /// Append the two buffers [`SessionState::state_hash`] signs to `out`
    /// as length-prefixed little-endian words — the snapshot frame's
    /// engine payload. Everything else is zeroed or scrubbed before the
    /// next phase reads it; see the [`crate::snapshot`] module docs.
    /// Appends only — steady-state encoding into a warm buffer allocates
    /// nothing.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_u64s(out, &self.per_edge);
        crate::snapshot::put_u64s(out, &self.trace_buf);
    }

    /// What a phase does first: scrub what a failed phase left behind,
    /// mark the state dirty until this phase completes (any early exit,
    /// error or panic, leaves partially-built state; only a completed
    /// phase restores the breadcrumb-zero invariant), and make the cached
    /// shard plan the one [`phase_shards`] picks.
    fn begin_phase(&mut self, graph: &Graph, config: &EngineConfig) {
        debug_assert!(self.fits(graph), "state sized for a different graph");
        assert!(
            config.max_rounds <= u32::MAX as u64,
            "max_rounds {} does not fit the u32 per-arc congestion counters",
            config.max_rounds
        );
        if !self.clean {
            self.scrub();
        }
        debug_assert!(self.scrubbed(), "a completed phase left a live buffer");
        self.clean = false;
        let shards = phase_shards(graph, config);
        if self.plan.as_ref().map(|(k, _)| *k) != Some(shards) {
            self.plan = Some((shards, graph.shard_plan(shards)));
        }
    }

    /// The round loop: run one protocol instance per node on `graph`
    /// until global termination or the round limit. [`Session::run`] is
    /// the public face.
    fn run_phase<'s, P, F>(
        &'s mut self,
        graph: &Graph,
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
        self.begin_phase(graph, &config);

        let n = graph.n();
        let arcs = graph.num_arcs();
        let occ_words = arcs.div_ceil(64);
        let node_words = n.div_ceil(64);
        self.size_plane(n);

        if let Some(fp) = &config.faults {
            self.blocked.reserve(fp.edges_per_round);
        }

        // --- Sparse fast-path worklist layout for this phase's threshold.
        let threshold = config
            .sparse_threshold
            .unwrap_or_else(|| (arcs / 32).clamp(64, 1 << 20))
            .min(arcs);

        // --- Split the state into independently borrowed buffers.
        let SessionState {
            slab_a,
            slab_b,
            bcast_slab_a,
            bcast_slab_b,
            in_occ,
            out_mask,
            arc_traffic,
            bcast_stage,
            bcast_occ,
            node_traffic,
            active,
            blocked,
            plan,
            meters,
            wl_starts,
            worklist,
            set_words,
            per_edge,
            trace_buf,
            cell_arena,
            out_arena,
            clean,
        } = self;
        let plan: &ShardPlan = &plan.as_ref().expect("plan built above").1;
        let s_count = plan.num_shards();

        meters.clear();
        meters.resize(s_count, ShardMeter::default());
        wl_starts.clear();
        wl_starts.push(0);
        for s in 0..s_count {
            let cap = threshold.min(plan.out_arc_bound(s));
            wl_starts.push(wl_starts[s] + cap);
        }
        if worklist.len() < wl_starts[s_count] {
            worklist.resize(wl_starts[s_count], 0);
        }
        #[cfg(debug_assertions)]
        check_shard_regions(plan, graph, wl_starts);
        set_words.clear();
        set_words.reserve(threshold.min(occ_words));
        trace_buf.clear();

        // --- Message slabs for this phase's word width (byte-capacity
        // keyed: a u64 phase reuses a u128 phase's slab).
        let mut in_words: &mut [<P::Msg as PackedMsg>::Word] = slab_a.view(arcs);
        let mut out_words: &mut [<P::Msg as PackedMsg>::Word] = slab_b.view(arcs);
        let mut bcast_in_words: &mut [<P::Msg as PackedMsg>::Word] = bcast_slab_a.view(n);
        let mut bcast_out_words: &mut [<P::Msg as PackedMsg>::Word] = bcast_slab_b.view(n);

        let in_occ: &mut [u64] = in_occ;
        let out_mask: &mut [u8] = out_mask;
        let arc_traffic: &mut [u32] = arc_traffic;
        let bcast_stage: &mut [AtomicU64] = &mut bcast_stage[..node_words];
        let bcast_occ: &mut [u64] = &mut bcast_occ[..node_words];
        let node_traffic: &mut [u32] = &mut node_traffic[..n];
        let active: &mut [u8] = active;
        let meters: &mut [ShardMeter] = meters;
        let worklist: &mut [u32] = &mut worklist[..wl_starts[s_count]];

        // --- Node cells in the bump arena.
        // SAFETY: the arena sized the region for `n` cells and hands it to
        // nobody else during this phase; a panic in `factory` leaks the
        // written prefix (the session stays dirty, and the arena is plain
        // bytes to later phases).
        let mut cells: ArenaRow<NodeCell<P>> = unsafe {
            ArenaRow::fill(cell_arena.alloc(n), n, |v| {
                let v = v as Node;
                NodeCell::new(factory(v, graph), config.seed, v)
            })
        };

        // Whether the last round folded the broadcast plane: receivers are
        // handed the plane only then.
        let mut bcast_any = false;

        let (arc_targets, rev) = (graph.arc_targets(), graph.reverse_arcs());
        let mut stats = RunStats::default();
        let mut round: u64 = 0;
        // What zeroing the inbox occupancy bitset needs before new bits
        // land. The previous phase's exit leaves the bitset all-zero.
        let mut occ_state = OccState::Clean;
        // Which nodes this round steps (see the module docs): everyone in
        // round 0 and in every round of a protocol that has not promised
        // `QUIESCENT`.
        let mut step_set = StepSet::All;
        loop {
            if round >= config.max_rounds {
                // The cells drop here; the session stays marked dirty and
                // scrubs on the next run.
                return Err(EngineError::RoundLimitExceeded {
                    limit: config.max_rounds,
                });
            }
            // --- Step phase: each shard steps its own nodes; sends
            // scatter into the staging slab's destination slots.
            {
                let racy_cells = RacyCells::new(cells.as_mut_slice());
                let racy_out = RacyCells::new(&mut *out_words);
                let racy_mask = RacyCells::new(&mut *out_mask);
                let racy_bcast_out = RacyCells::new(&mut *bcast_out_words);
                let racy_meters = RacyCells::new(&mut *meters);
                let racy_wl = RacyCells::new(&mut *worklist);
                let racy_active = RacyCells::new(&mut *active);
                let in_words = &in_words[..];
                let in_occ = &in_occ[..];
                // One broadcast descriptor per round, shared by every
                // node's context; rounds after which nobody broadcast
                // hand receivers `None` outright.
                let bcast_in = BcastIn {
                    words: &bcast_in_words[..],
                    occ: &bcast_occ[..],
                    adj: graph.arc_targets(),
                };
                let bcast_in = bcast_any.then_some(&bcast_in);
                // A pass listed by the sparse merge or a small fold is
                // O(frontier) work, like the listing: it stays on the
                // calling thread. A probed pass reads its shard's occupancy
                // words, as the sweep before it wrote them, and forks as
                // the sweep did.
                let one_task = s_count == 1 || step_set == StepSet::Listed;
                let bcast_out = BcastOut {
                    words: &racy_bcast_out,
                    stage: &*bcast_stage,
                    one_task,
                };
                let wl_starts = &wl_starts[..];
                let step_shard = |s: usize| {
                    let nodes = plan.nodes(s);
                    let (v_lo, v_hi) = (nodes.start as usize, nodes.end as usize);
                    // SAFETY: `plan.nodes(..)` partitions `0..n` (checked
                    // per phase in debug builds, `check_shard_regions`), so
                    // shard `s` is the only task of this pass that touches
                    // cells `v_lo..v_hi`; nothing else reads the cells until
                    // the pass has joined.
                    let cells_s = unsafe { racy_cells.slice_mut(v_lo, v_hi) };
                    // SAFETY: one meter block per shard, and task `s` is the
                    // only one that touches block `s`; the round's fold
                    // reads them after the join.
                    let meter = unsafe { &mut racy_meters.slice_mut(s, s + 1)[0] };
                    // SAFETY: one byte per node, and shard `s` is the only
                    // task of this pass that touches the bytes of its own
                    // nodes `v_lo..v_hi` (a node's byte is written by that
                    // node's step and by its own shard's probe alone; the
                    // sparse merge and the small-fold listing, the other
                    // writers, run between step passes on the calling
                    // thread). Bytes, not bits: two shards never share a
                    // word. Invariant once a listed round has listed its
                    // receivers, for every node `v`: `active[v] == 0`
                    // implies `v` is done, no occupancy bit is set in its
                    // arc range and no neighbour of `v` broadcast — the
                    // last step of `v` wrote `!done`, no later step un-did
                    // it, and every delivery since went through the sparse
                    // merge, which sets the receiver's byte, through the
                    // full sweep, whose receivers the probe below lists, or
                    // through a small plane fold, which lists its senders'
                    // neighbours (a large fold makes the next round step
                    // everyone instead).
                    let active_s = unsafe { racy_active.slice_mut(v_lo, v_hi) };
                    // Equal lengths, said once so the loop's index into
                    // `active_s` needs no bounds check of its own.
                    assert_eq!(active_s.len(), cells_s.len());
                    if step_set == StepSet::Probed {
                        list_receivers(graph, in_occ, v_lo, active_s);
                    }
                    // The list's invariant, checked in full over the shard
                    // in debug builds: a node a listed round will not step
                    // is done and has an empty inbox, on the slab and on
                    // the plane.
                    #[cfg(debug_assertions)]
                    if step_set != StepSet::All {
                        let broadcast = |u: Node| {
                            bcast_in.is_some_and(|b| b.occ[u as usize >> 6] >> (u & 63) & 1 == 1)
                        };
                        for (i, cell) in cells_s.iter().enumerate() {
                            let v = (v_lo + i) as Node;
                            let (lo, deg) = (graph.arc_offset(v), graph.degree(v));
                            debug_assert!(
                                active_s[i] != 0
                                    || (cell.done
                                        && slab::popcount_range(in_occ, lo, deg) == 0
                                        && !graph.neighbors(v).iter().any(|&u| broadcast(u))),
                                "round {round}: node {v} is unlisted but not done or has mail"
                            );
                        }
                    }
                    // One scatter-plane descriptor per shard per round;
                    // node contexts carry a pointer to it instead of its
                    // fields.
                    let plane = ScatterPlane {
                        graph,
                        words: &racy_out,
                        mask: &racy_mask,
                        rev: graph.reverse_arcs(),
                        bcast: Some(&bcast_out),
                        wl: &racy_wl,
                        wl_lo: wl_starts[s],
                        wl_cap: wl_starts[s + 1] - wl_starts[s],
                        staged: std::cell::Cell::new(0),
                        bcast_used: std::cell::Cell::new(false),
                    };
                    // An unlisted node is done (the invariant above), so
                    // the fold over the stepped nodes is the fold over all.
                    let mut all_done = true;
                    let listed = step_set != StepSet::All;
                    let mut i = 0;
                    while i < cells_s.len() {
                        if listed && active_s[i] == 0 {
                            i = slab::next_nonzero(active_s, i);
                            continue;
                        }
                        let cell = &mut cells_s[i];
                        let v = (v_lo + i) as Node;
                        let lo = graph.arc_offset(v);
                        let deg = graph.degree(v);
                        let mut ctx = NodeCtx {
                            node: v,
                            round,
                            inbox: InSlot {
                                words: &in_words[lo..lo + deg],
                                occ: in_occ,
                                bit0: lo,
                                bcast: bcast_in,
                            },
                            outbox: &plane,
                            bcast_staged: false,
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
                    meter.staged = plane.staged.get();
                    meter.bcast_used = plane.bcast_used.get();
                };
                if one_task {
                    (0..s_count).for_each(step_shard);
                } else {
                    each_shard(s_count, step_shard);
                }
            }
            // --- Adversary phase: on each direction `from → to` of each
            // blocked edge, demote `from`'s plane word to per-arc staging,
            // then destroy what is staged on the arc (see the module docs).
            if let Some(fault_plan) = &config.faults {
                fault_plan.blocked_edges_into(round, graph.m(), blocked);
                for &e in blocked.iter() {
                    let (u, v) = graph.endpoints(e);
                    for (from, to) in [(u, v), (v, u)] {
                        let lo = graph.arc_offset(from);
                        let deg = graph.degree(from);
                        let bit = 1u64 << (from & 63);
                        let stage = bcast_stage[from as usize >> 6].get_mut();
                        if *stage & bit != 0 {
                            *stage &= !bit;
                            // The demoted arcs join the sender's shard's
                            // staged count and worklist, as its own sends
                            // would have.
                            let s = (0..s_count)
                                .rfind(|&s| plan.nodes(s).start <= from)
                                .expect("shard 0 starts at node 0");
                            let (base, cap) = (wl_starts[s], wl_starts[s + 1] - wl_starts[s]);
                            let k = meters[s].staged as usize;
                            for (j, &d) in rev[lo..lo + deg].iter().enumerate() {
                                out_words[d as usize] = bcast_out_words[from as usize];
                                out_mask[d as usize] = STAGED;
                                if k + j < cap {
                                    worklist[base + k + j] = d;
                                }
                            }
                            meters[s].staged += deg as u32;
                        }
                        let port = graph
                            .port_to(from, to)
                            .expect("edge endpoints are adjacent");
                        let dest = rev[lo + port as usize] as usize;
                        if out_mask[dest] == STAGED {
                            out_mask[dest] = 0;
                            stats.dropped_messages += 1;
                        }
                    }
                }
            }
            // --- Deliver phase: skip / sparse worklist / full sweep, chosen
            // from the staged counts alone; see the module docs for the
            // invariants.
            std::mem::swap(&mut in_words, &mut out_words);
            std::mem::swap(&mut bcast_in_words, &mut bcast_out_words);
            let staged_total = meters.iter().map(|m| m.staged as u64).sum::<u64>();
            let fold_bcast = meters.iter().any(|m| m.bcast_used);
            // A shard stages each of its ports at most once (`send`
            // asserts it, a `send_all` stages nothing on the mask, and a
            // demoted one only ports its sender did not send on), so at
            // most `out_arc_bound(s)`: overflowing its worklist slice
            // (`min(threshold, out_arc_bound(s))`) means the round staged
            // more than `threshold` in all. The round kind is a function
            // of the staged total alone, the same at every shard count.
            let sparse_round = staged_total > 0 && staged_total <= threshold as u64;
            debug_assert!(
                !sparse_round
                    || (meters.iter().enumerate())
                        .all(|(s, m)| m.staged as usize <= wl_starts[s + 1] - wl_starts[s]),
                "round {round}: a sparse round overflowed a shard's worklist"
            );
            let run_full_sweep = staged_total > 0 && !sparse_round;
            for m in meters.iter_mut() {
                m.delivered = 0;
                m.reach = 0;
            }
            let mut sparse_delivered: u64 = 0;
            if !run_full_sweep {
                match occ_state {
                    OccState::Clean => {}
                    OccState::Tracked => {
                        for &w in set_words.iter() {
                            in_occ[w as usize] = 0;
                        }
                        set_words.clear();
                    }
                    OccState::Unknown => {
                        in_occ.fill(0);
                        set_words.clear();
                    }
                }
                occ_state = OccState::Clean;
            }
            if sparse_round {
                // One serial pass over the per-shard worklists: an entry
                // whose mask byte the adversary cleared drops out, the rest
                // are delivered (see the module docs).
                for (s, m) in meters.iter().enumerate() {
                    let base = wl_starts[s];
                    for &dest in &worklist[base..base + m.staged as usize] {
                        let dest = dest as usize;
                        if out_mask[dest] == 0 {
                            continue;
                        }
                        out_mask[dest] = 0;
                        let w = dest >> 6;
                        if in_occ[w] == 0 {
                            set_words.push(w as u32);
                        }
                        in_occ[w] |= 1u64 << (dest & 63);
                        sparse_delivered += 1;
                        arc_traffic[dest] += 1;
                        if P::QUIESCENT {
                            // List the receiver: `dest` is its in-arc, so
                            // the reverse arc points back at it.
                            active[arc_targets[rev[dest] as usize] as usize] = 1;
                        }
                    }
                }
                if !set_words.is_empty() {
                    occ_state = OccState::Tracked;
                }
            }
            if run_full_sweep || fold_bcast {
                let racy_mask = RacyCells::new(&mut *out_mask);
                let racy_occ = RacyCells::new(&mut *in_occ);
                let racy_traffic = RacyCells::new(&mut *arc_traffic);
                let bcast_stage = &*bcast_stage;
                let racy_bcast_occ = RacyCells::new(&mut *bcast_occ);
                let racy_node_traffic = RacyCells::new(&mut *node_traffic);
                let racy_meters = RacyCells::new(&mut *meters);
                let deliver_shard = |s: usize| {
                    let words = plan.words(s);
                    let arcs_range = plan.arcs_of(s);
                    let (w_lo, w_hi) = (words.start, words.end);
                    let (a_lo, a_hi) = (arcs_range.start, arcs_range.end);
                    // SAFETY: `plan.words(..)` partitions the occupancy
                    // words and `plan.arcs_of(s)` is exactly the arcs of
                    // shard `s`'s words (`a_lo == 64 * w_lo`), so the mask,
                    // occupancy and counter regions of two shards never
                    // overlap (`check_shard_regions` in debug builds); meter
                    // block `s` is task `s`'s alone. The step pass that
                    // wrote the mask has joined, and nothing reads these
                    // buffers before this pass does.
                    let (mask_s, occ_s, traffic_s, meter) = unsafe {
                        (
                            racy_mask.slice_mut(a_lo, a_hi),
                            racy_occ.slice_mut(w_lo, w_hi),
                            racy_traffic.slice_mut(a_lo, a_hi),
                            &mut racy_meters.slice_mut(s, s + 1)[0],
                        )
                    };
                    let mut delivered = 0u64;
                    if run_full_sweep {
                        for (i, occ_word) in occ_s.iter_mut().enumerate() {
                            let lo = w_lo * 64 + i * 64;
                            let hi = (lo + 64).min(a_hi);
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
                    // --- Broadcast fold (see the module docs).
                    if fold_bcast {
                        let nw = plan.node_words(s);
                        let nodes_cov = plan.node_word_nodes(s);
                        let b_lo = nodes_cov.start;
                        // SAFETY: `plan.node_words(..)` partitions the
                        // presence words and `plan.node_word_nodes(s)` is
                        // exactly the nodes of shard `s`'s words (`b_lo ==
                        // 64 * nw.start`), so no two shards share a
                        // presence word or a send counter
                        // (`check_shard_regions`); their writers — the
                        // step pass — have joined.
                        let (bocc_s, sent_s) = unsafe {
                            (
                                racy_bcast_occ.slice_mut(nw.start, nw.end),
                                racy_node_traffic.slice_mut(b_lo, nodes_cov.end),
                            )
                        };
                        let stage_s = &bcast_stage[nw.start..nw.end];
                        let mut reach = 0u64;
                        for (i, (occ_word, staged)) in bocc_s.iter_mut().zip(stage_s).enumerate() {
                            // Shard `s` alone reads and clears these staged
                            // words in this pass.
                            let bits = staged.load(Ordering::Relaxed);
                            *occ_word = bits;
                            if bits != 0 {
                                staged.store(0, Ordering::Relaxed);
                                let lo = nw.start * 64 + i * 64;
                                let mut b = bits;
                                while b != 0 {
                                    let v = lo + b.trailing_zeros() as usize;
                                    b &= b - 1;
                                    reach += graph.degree(v as Node) as u64;
                                    sent_s[v - b_lo] += 1;
                                }
                            }
                        }
                        delivered += reach;
                        meter.reach = reach;
                    }
                    meter.delivered = delivered;
                };
                each_shard(s_count, deliver_shard);
            }
            if run_full_sweep {
                occ_state = OccState::Unknown;
            }
            // A fold whose senders reach fewer than a quarter of the arcs
            // lists their receivers from their neighbour lists, serially;
            // after a larger one the next round steps everyone, and thereby
            // rewrites the whole list. Mail that arrived by the full sweep
            // is listed by the next round's probe, the sparse merge's by
            // the merge itself.
            let reach: u64 = meters.iter().map(|m| m.reach).sum();
            let list_plane = P::QUIESCENT && fold_bcast && 4 * reach < arcs as u64;
            if list_plane {
                for (w, &word) in bcast_occ.iter().enumerate() {
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
            step_set = if !P::QUIESCENT || (fold_bcast && !list_plane) {
                StepSet::All
            } else if run_full_sweep {
                StepSet::Probed
            } else {
                StepSet::Listed
            };
            // --- Combine the shard meter blocks (sum / and / or: the
            // order of the fold cannot reach a result).
            let delivered = sparse_delivered + meters.iter().map(|m| m.delivered).sum::<u64>();
            let all_done = meters.iter().all(|m| m.all_done);
            // A fold whose every sender the adversary demoted leaves the
            // presence words zero: receivers probe an empty plane, once.
            bcast_any = fold_bcast;
            stats.total_messages += delivered;
            if config.collect_trace {
                trace_buf.push(delivered);
            }
            round += 1;
            if delivered > 0 {
                stats.rounds = round;
            }
            if delivered == 0 && all_done {
                stats.iterations = round;
                break;
            }
        }
        trace_buf.truncate(stats.rounds as usize);
        // Every message of a phase has its type's fixed width.
        if stats.total_messages + stats.dropped_messages > 0 {
            stats.max_message_bits = P::Msg::WIDTH as usize;
        }

        stats.max_edge_congestion = drain_traffic(graph, arc_traffic, node_traffic, per_edge);

        // Consume the cells into arena-resident outputs.
        // SAFETY: the output arena sized the region for `n` outputs, the
        // previous phase's outcome (its last user) is gone, and the two
        // arenas never overlap; a panic in `finish` leaks the tail, which
        // the dirty flag covers.
        let outputs = unsafe { cells.map_into(out_arena.alloc(n), |cell| cell.state.finish()) };

        *clean = true;
        let trace: Option<&'s [u64]> = if config.collect_trace {
            Some(&trace_buf[..])
        } else {
            None
        };
        Ok(PhaseOutcome {
            outputs,
            stats,
            trace,
            edge_congestion: &per_edge[..],
            _borrow: std::marker::PhantomData,
        })
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
        state.per_edge = r.u64s()?;
        if state.per_edge.len() != graph.m() {
            return Err(SnapshotError::SizeMismatch("per_edge"));
        }
        state.trace_buf = r.u64s()?;
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
            each_shard(3, |s| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(s);
            });
            assert_eq!(order.into_inner().unwrap(), [0, 1, 2]);
        });
    }
}
