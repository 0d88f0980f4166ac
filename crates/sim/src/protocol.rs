//! The node-program abstraction.
//!
//! A [`Protocol`] is the state of **one node**; the engine owns one
//! instance per node and calls [`Protocol::round`] every round. Inside a
//! round the node sees only its own state, the messages delivered to it
//! this round, and local randomness — the CONGEST locality discipline is
//! enforced by construction, not convention.
//!
//! Messages travel packed ([`PackedMsg`]): the context unpacks on read and
//! packs on send, so protocols handle ordinary typed values while the
//! engine moves raw words.
//!
//! A [`NodeCtx`] has one write path: every send goes through the
//! `ScatterPlane` it points at — a per-shard plane over the graph's arcs
//! in [`crate::Session::run`]'s round loop, a node-local plane over one
//! node's ports for a sub-protocol that [`crate::sched::Multiplexed`]
//! hosts. There is no second mode to match on.

use crate::message::PackedMsg;
use crate::slab;
use congest_graph::{Graph, Node, Port};
use congest_par::RacyCells;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// One node's program. The engine drives every node's `round` once per
/// CONGEST round; messages written via [`NodeCtx::send`] are delivered at
/// the start of the next round.
pub trait Protocol: Send {
    /// Wire message type: one such message fits one edge-direction-round.
    type Msg: PackedMsg;
    /// Per-node output collected when the run ends.
    type Output: Send;

    /// Opt-in idle contract: `true` promises that once a node has declared
    /// [`NodeCtx::set_done`] and receives an **empty inbox**, its `round`
    /// is a semantic no-op — it sends nothing, mutates no state (including
    /// its RNG), and leaves the done flag set. The round loop then skips
    /// the `round` call for such nodes: [`crate::Session::run`] steps only
    /// the nodes its active-node list names (see [`crate::session`]) — a
    /// round costs its frontier, not its graph. The loop cannot check a
    /// promise it relies on: it is held by
    /// [`crate::eager::check_quiescent`], which runs the protocol against
    /// its [`crate::Eager`] twin (the same `round`, promise withdrawn), so
    /// a wrong one is caught, not silently wrong — every protocol in this
    /// workspace that sets the flag is on that oracle's list. Default
    /// `false`: every node is stepped every round.
    const QUIESCENT: bool = false;

    /// Execute one round. On round 0 the inbox is empty (initialization).
    fn round(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>);

    /// Consume the node state into its output after the run terminates.
    fn finish(self) -> Self::Output;
}

/// Receiver view of the **broadcast plane**: per-node broadcast words and
/// presence bits from last round. A `send_all` stores its message once in
/// the sender's broadcast slot instead of `deg` scattered arc slots;
/// receivers look broadcasters up through their (cache-resident) neighbor
/// lists. The engine hands it in only in rounds after someone broadcast,
/// so rounds with no broadcast anywhere cost receivers nothing.
pub(crate) struct BcastIn<'a, M: PackedMsg> {
    pub(crate) words: &'a [M::Word],
    /// One presence bit per *node* (folded by last round's deliver).
    pub(crate) occ: &'a [u64],
    /// The graph's flattened arc → target table ([`Graph::arc_targets`]):
    /// global arc position → neighbor id. Shared by every node, so the
    /// engine builds one `BcastIn` per round and hands contexts a pointer.
    pub(crate) adj: &'a [Node],
}

/// Sender view of the broadcast plane: the node's own broadcast slot
/// (single writer — the owning node) and its bit of the staged-presence
/// set. A presence word covers 64 nodes, and a step shard's nodes need not
/// start at a multiple of 64, so two shards stepping at once may share a
/// word: then the bit is set by an atomic OR. A pass that steps every
/// shard on the calling thread (`serial`, as the round's plan says) has
/// no second writer, and sets it by a plain read-modify-write, which costs
/// a send what a byte store does.
pub(crate) struct BcastOut<'a, M: PackedMsg> {
    pub(crate) words: &'a RacyCells<'a, M::Word>,
    pub(crate) stage: &'a [AtomicU64],
    pub(crate) serial: bool,
}

/// This node's received messages: a port-indexed word slice plus the
/// word-packed occupancy bits starting at `bit0`, and the broadcast plane
/// in rounds after someone broadcast (`None` otherwise, and always for a
/// sub-protocol [`crate::sched::Multiplexed`] hosts).
pub(crate) struct InSlot<'a, M: PackedMsg> {
    pub(crate) words: &'a [M::Word],
    pub(crate) occ: &'a [u64],
    pub(crate) bit0: usize,
    pub(crate) bcast: Option<&'a BcastIn<'a, M>>,
}

/// Where sends land — the one write path. A node's per-port send is
/// scattered straight into the *destination* slot of the staging slab
/// through `rev`, a bijection on slot positions whose entries
/// `rev[bit0..bit0 + deg]` are exactly this node's destinations (the
/// context's inbox range doubles as its outbox range), so every staging
/// byte has one writer, a plain store, and delivery is a buffer swap.
/// `send_all` stores one word and one presence bit in the broadcast plane
/// when `bcast` is set (always, in the round loop), and scatters like
/// `deg` sends otherwise.
///
/// The round loop builds one **per shard per round** over the graph's
/// arcs (`rev` = [`Graph::reverse_arcs`]) and shares it by reference
/// across every node context the shard constructs — one pointer per
/// context (sparse rounds are step-dominated, so context construction is
/// hot). [`crate::sched::Multiplexed`] builds a node-local one per hosted
/// sub-protocol step: `rev` the identity over the node's ports, one mask
/// byte per port, a zero-capacity worklist and no broadcast plane. The
/// counters are `Cell`s: a plane lives on its builder's stack and is
/// touched by that task alone; only the `RacyCells` slabs inside are
/// cross-thread.
pub(crate) struct ScatterPlane<'a, M: PackedMsg> {
    pub(crate) graph: &'a Graph,
    pub(crate) words: &'a RacyCells<'a, M::Word>,
    pub(crate) mask: &'a RacyCells<'a, u8>,
    pub(crate) rev: &'a [u32],
    pub(crate) bcast: Option<&'a BcastOut<'a, M>>,
    /// The engine's active-send worklist slab: the first `wl_cap` staged
    /// destination arcs of this shard land in `wl[wl_lo..wl_lo+wl_cap]`
    /// (recording stops past the cap — the engine only trusts the list
    /// when the round's global total fits its sparse threshold, which
    /// the per-shard caps dominate).
    pub(crate) wl: &'a RacyCells<'a, u32>,
    pub(crate) wl_lo: usize,
    pub(crate) wl_cap: usize,
    /// Count of messages this shard staged through the per-arc mask this
    /// round (per-port `send`, or a node-local plane's `send_all`). Zero
    /// lets the deliver sweep skip the arc plane entirely; a small
    /// global total takes the sparse worklist fast path.
    pub(crate) staged: std::cell::Cell<u32>,
    /// Whether this shard staged anything through the broadcast plane
    /// this round (gates the per-node plane fold).
    pub(crate) bcast_used: std::cell::Cell<bool>,
    /// The degree sum of this shard's broadcast-plane senders this round:
    /// the arcs their words reach.
    pub(crate) reach: std::cell::Cell<u64>,
}

impl<'a, M: PackedMsg> ScatterPlane<'a, M> {
    /// Record one staged destination arc in the shard worklist.
    #[inline]
    fn record(&self, dest: usize) {
        let k = self.staged.get() as usize;
        if k < self.wl_cap {
            // SAFETY: `wl_lo..wl_lo + wl_cap` is this shard's slice of the
            // worklist (the slices of two shards are disjoint and inside
            // the slab, as `SessionState::begin_phase` lays them out),
            // `k < wl_cap`, and the plane is touched by its shard's task
            // alone.
            unsafe { self.wl.write(self.wl_lo + k, dest as u32) };
        }
        self.staged.set(k as u32 + 1);
    }
}

/// Iterator over one round's delivered `(port, message)` pairs, ascending
/// by port. A round reads its inbox by one of two walks, fixed when the
/// iterator is built (see [`NodeCtx::inbox`]): with no broadcast plane, the
/// occupancy *words* of the node's arc range; with one, a cursor over the
/// node's ports, one neighbour-list pass for presence and message together.
pub struct InboxIter<'a, M: PackedMsg> {
    words: &'a [M::Word],
    occ: &'a [u64],
    bit0: usize,
    /// The broadcast plane, in rounds where someone broadcast.
    plane: Option<&'a BcastIn<'a, M>>,
    /// Plane rounds: the next port to probe.
    port: usize,
    /// Plane-less rounds: current occupancy word index (global, into `occ`).
    w: usize,
    /// Last occupancy word index overlapping this node's port range.
    last_w: usize,
    /// Remaining slab-delivered bits of word `w` (range-masked).
    cur_slab: u64,
}

impl<'a, M: PackedMsg> InboxIter<'a, M> {
    /// Load occupancy word `w`, masked to this node's port range.
    #[inline]
    fn slab_word(&self, w: usize) -> u64 {
        let mut bits = self.occ[w];
        if w << 6 < self.bit0 {
            bits &= !0u64 << (self.bit0 & 63);
        }
        if w == self.last_w {
            let top = (self.bit0 + self.words.len() - 1) & 63;
            bits &= !0u64 >> (63 - top);
        }
        bits
    }

    /// The message on `port` in a plane round: the slab word if the port's
    /// occupancy bit is set, else what [`BcastIn::heard`] finds behind it.
    /// The two never both hold — a sender cannot `send` on a port and
    /// `send_all` in one round (enforced at send time).
    #[inline]
    fn probe(&self, b: &BcastIn<'a, M>, port: usize) -> Option<M> {
        // Every caller's loop already bounds `port` by the degree, so this
        // folds away once inlined.
        if port >= self.words.len() {
            return None;
        }
        let pos = self.bit0 + port;
        // SAFETY: `port < deg == words.len()`, so `pos` is one of this
        // node's arc positions: `pos >> 6` is a word of the arc occupancy
        // bitset and `pos < adj.len()` (one entry per arc).
        unsafe {
            if *self.occ.get_unchecked(pos >> 6) >> (pos & 63) & 1 == 1 {
                return Some(M::unpack(*self.words.get_unchecked(port)));
            }
            b.heard(pos)
        }
    }
}

impl<'a, M: PackedMsg> BcastIn<'a, M> {
    /// The broadcast word of the neighbour behind arc position `pos`, if
    /// that neighbour broadcast last round: presence and message from one
    /// read of the neighbour list.
    ///
    /// # Safety
    /// `pos < adj.len()` — an arc position of the graph the plane serves.
    #[inline]
    unsafe fn heard(&self, pos: usize) -> Option<M> {
        // SAFETY: `pos < adj.len()` is the caller's; the neighbour id read
        // there is `< n`, which bounds the `⌈n / 64⌉`-word presence set and
        // the n-slot broadcast word table.
        unsafe {
            let nb = *self.adj.get_unchecked(pos) as usize;
            (*self.occ.get_unchecked(nb >> 6) >> (nb & 63) & 1 == 1)
                .then(|| M::unpack(*self.words.get_unchecked(nb)))
        }
    }
}

impl<'a, M: PackedMsg> Iterator for InboxIter<'a, M> {
    type Item = (Port, M);

    #[inline]
    fn next(&mut self) -> Option<(Port, M)> {
        if let Some(b) = self.plane {
            while self.port < self.words.len() {
                let port = self.port;
                self.port += 1;
                if let Some(m) = self.probe(b, port) {
                    return Some((port as Port, m));
                }
            }
            return None;
        }
        loop {
            if self.cur_slab != 0 {
                let t = self.cur_slab.trailing_zeros() as usize;
                self.cur_slab &= self.cur_slab - 1;
                let port = (self.w << 6) + t - self.bit0;
                // SAFETY: the bit survived `slab_word`'s range mask, so
                // `port < deg == words.len()`.
                let m = M::unpack(unsafe { *self.words.get_unchecked(port) });
                return Some((port as Port, m));
            }
            if self.w >= self.last_w {
                return None;
            }
            self.w += 1;
            self.cur_slab = self.slab_word(self.w);
        }
    }

    /// Internal iteration without the per-item state machine. Plane-less
    /// rounds run a word loop with a bit loop inside, plus a sequential
    /// fast path for fully occupied words — the dense-traffic case becomes
    /// a linear scan the compiler can unroll, instead of 64
    /// `trailing_zeros` round-trips. Plane rounds run the port cursor as
    /// counted loops (`fold_plane`).
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, (Port, M)) -> B,
    {
        let mut acc = init;
        // Degree 0 leaves before either walk is set up, as it always has:
        // the plane-less prologue below is kept as it was compiled.
        if self.words.is_empty() {
            return acc;
        }
        if let Some(b) = self.plane {
            return self.fold_plane(b, acc, &mut f);
        }
        // No broadcast anywhere this round (the sparse regime's common
        // case): a minimal word loop over the slab bits alone, with the
        // dense full-word fast path — no plane probes, no per-item source
        // dispatch. Quiescent nodes fall straight through.
        let mut w = self.w;
        let mut bits = self.cur_slab;
        loop {
            if bits == u64::MAX {
                // Full word ⇒ 64 consecutive in-range ports.
                let base = (w << 6) - self.bit0;
                for j in 0..64 {
                    let port = (base + j) as Port;
                    // SAFETY: no bit of the word was range-masked off,
                    // so all 64 positions lie in `bit0..bit0 + deg`
                    // and `port < deg == words.len()`.
                    let m = M::unpack(unsafe { *self.words.get_unchecked(port as usize) });
                    acc = f(acc, (port, m));
                }
            } else {
                while bits != 0 {
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let port = ((w << 6) + t - self.bit0) as Port;
                    // SAFETY: the bit survived `slab_word`'s range
                    // mask, so `port < deg == words.len()`.
                    let m = M::unpack(unsafe { *self.words.get_unchecked(port as usize) });
                    acc = f(acc, (port, m));
                }
            }
            if w >= self.last_w {
                return acc;
            }
            w += 1;
            bits = self.slab_word(w);
        }
    }
}

impl<'a, M: PackedMsg> InboxIter<'a, M> {
    /// Internal iteration in a plane round: the port cursor as counted
    /// loops, one occupancy word's share of the ports at a time, so the
    /// common plane round — nothing on the slab — is a neighbour scan with
    /// no per-port slab test (testing per port read flood-max at degree 64
    /// 95 ms against 61). Forced inline, as measured (PR 24, flood-max ms a
    /// job out of line → inline: degree 6 24.5 → 21.3, 8 2.23 → 1.84,
    /// 12 34.1 → 31.1, 16 1.39 → 1.25, 64 60.0 → 60.9): out of line the
    /// whole iterator is spilled for the call ahead of the branch, so
    /// plane-less folds pay for it too. `thm1_routing`, whose folds never
    /// see a plane, reads the same either way (DESIGN.md §6).
    #[inline(always)]
    fn fold_plane<B, F>(&self, b: &BcastIn<'a, M>, mut acc: B, f: &mut F) -> B
    where
        F: FnMut(B, (Port, M)) -> B,
    {
        let deg = self.words.len();
        let mut port = self.port;
        while port < deg {
            let pos = self.bit0 + port;
            let end = deg.min(port + 64 - (pos & 63));
            if self.occ[pos >> 6] >> (pos & 63) == 0 {
                for p in port..end {
                    // SAFETY: `p < deg`, so `bit0 + p` is one of this
                    // node's arc positions.
                    if let Some(m) = unsafe { b.heard(self.bit0 + p) } {
                        acc = f(acc, (p as Port, m));
                    }
                }
            } else {
                for p in port..end {
                    if let Some(m) = self.probe(b, p) {
                        acc = f(acc, (p as Port, m));
                    }
                }
            }
            port = end;
        }
        acc
    }
}

/// What a node has sent so far this round. `send` and `send_all` read it
/// before they write, so either one after a `send_all`, and a `send_all`
/// after a `send`, panics in O(1), on every plane.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sent {
    Nothing,
    PerPort,
    Broadcast,
}

/// Everything one node may legitimately touch during one round.
///
/// Kept deliberately small: contexts are rebuilt for every node every
/// round (and for every hosted sub-protocol under the multiplexer), so
/// the write side and the graph live behind one `ScatterPlane` pointer and
/// the per-port ranges are derived from the inbox slice instead of being
/// stored twice.
pub struct NodeCtx<'a, M: PackedMsg> {
    /// This node's id.
    pub node: Node,
    /// Current round number (0-based).
    pub round: u64,
    pub(crate) inbox: InSlot<'a, M>,
    pub(crate) outbox: &'a ScatterPlane<'a, M>,
    /// What this node sent so far this round: a context-local byte, so
    /// the send paths test it instead of re-reading the shared presence
    /// word or scanning the node's mask bytes.
    pub(crate) sent: Sent,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) done: &'a mut bool,
}

impl<'a, M: PackedMsg> NodeCtx<'a, M> {
    /// The graph, reached through the context's scatter plane.
    #[inline]
    pub(crate) fn graph(&self) -> &'a Graph {
        self.outbox.graph
    }

    /// Degree of this node = number of ports.
    #[inline]
    pub fn degree(&self) -> usize {
        self.inbox.words.len()
    }

    /// Neighbor reached through `port`.
    #[inline]
    pub fn neighbor(&self, port: Port) -> Node {
        self.graph().neighbor_at(self.node, port)
    }

    /// Undirected edge id behind `port` — stable across the run, usable as
    /// an index into edge-colored structures (e.g. the Theorem 2 partition).
    #[inline]
    pub fn edge(&self, port: Port) -> congest_graph::Edge {
        self.graph().edge_at(self.node, port)
    }

    /// All neighbor ids (sorted ascending; index = port).
    #[inline]
    pub fn neighbors(&self) -> &'a [Node] {
        self.graph().neighbors(self.node)
    }

    /// Total number of nodes in the network. CONGEST algorithms may assume
    /// knowledge of `n` (or a polynomial upper bound) — the paper does, for
    /// its `C log n` thresholds.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph().n()
    }

    /// Iterate `(port, message)` over all messages delivered this round,
    /// in ascending port order. In a round with no broadcast plane —
    /// nobody broadcast last round — this walks the
    /// occupancy *words*, so quiescent ports cost nothing: an empty inbox
    /// is a couple of word loads regardless of degree, and internal
    /// iteration (`fold`, and
    /// everything built on it: `for_each`, `sum`, folds over `map`/`filter`
    /// adapters) runs a word-nested loop with a dense fast path, so
    /// saturated inboxes cost a sequential scan instead of per-bit
    /// extraction. In a round where someone broadcast, every read path —
    /// `for`, `fold`, a `fold` resumed after `next` — is **one pass over
    /// the neighbour list**: per port, the slab word if its occupancy bit
    /// is set, else the neighbour's plane word if the neighbour's presence
    /// bit is. Nothing is gathered here ahead of that pass.
    #[inline]
    pub fn inbox(&self) -> InboxIter<'_, M> {
        let deg = self.degree();
        let bit0 = self.inbox.bit0;
        let first_w = bit0 >> 6;
        let last_w = if deg == 0 {
            first_w
        } else {
            (bit0 + deg - 1) >> 6
        };
        let mut it = InboxIter {
            words: self.inbox.words,
            occ: self.inbox.occ,
            bit0,
            plane: self.inbox.bcast,
            port: 0,
            w: first_w,
            last_w,
            cur_slab: 0,
        };
        if deg > 0 {
            it.cur_slab = it.slab_word(first_w);
        }
        it
    }

    /// Number of messages delivered this round: a word-packed popcount
    /// over the arc slab, plus (in rounds where anyone broadcast) a
    /// neighbor scan over the broadcast-presence bits.
    pub fn inbox_len(&self) -> usize {
        let mut len = slab::popcount_range(self.inbox.occ, self.inbox.bit0, self.degree());
        if let Some(b) = self.inbox.bcast {
            for &nb in &b.adj[self.inbox.bit0..self.inbox.bit0 + self.degree()] {
                len += (b.occ[nb as usize >> 6] >> (nb & 63) & 1) as usize;
            }
        }
        len
    }

    /// Send `msg` through `port`. Panics if a message was already written
    /// to this port this round — that would violate the CONGEST bandwidth
    /// of one message per edge-direction per round.
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        let word = msg.pack();
        let plane = self.outbox;
        assert!(
            (port as usize) < self.degree(),
            "send on nonexistent port {port}"
        );
        let dest = plane.rev[self.inbox.bit0 + port as usize] as usize;
        // A prior `send_all` this round already claimed every port
        // (tracked context-locally — the staging bytes are always zero at
        // context construction).
        // SAFETY (this read and the two writes below): `rev` is a
        // bijection on the plane's slots and `bit0 + port` is one of this
        // node's own positions (`port < deg`, asserted above), so staging
        // slot `dest` is written and read by this (node, port) alone
        // during the step pass; the adversary and the deliver pass touch
        // it only after the pass joins.
        let already = self.sent == Sent::Broadcast || unsafe { plane.mask.read(dest) } != 0;
        if !already {
            plane.record(dest);
            unsafe {
                plane.mask.write(dest, 1);
                plane.words.write(dest, word);
            }
        }
        assert!(
            !already,
            "CONGEST violation: node {} sent twice on port {} in round {}",
            self.node, port, self.round
        );
        self.sent = Sent::PerPort;
    }

    /// Send a copy of `msg` to every neighbor. In the round loop this is
    /// **O(1)**: the message is stored once in the sender's broadcast slot,
    /// its presence bit is set, and receivers read it through the plane —
    /// no per-arc scatter, no per-arc delivery work. A sub-protocol's
    /// node-local plane has no broadcast plane, and there it scatters
    /// through `rev`: one packed word, `deg` plain stores. Under a fault
    /// plan the adversary moves the plane word of a node behind a blocked
    /// edge onto per-arc slots the same way before it drops anything
    /// ([`crate::session`]), so the receivers see the same messages either
    /// way. Panics if this node already sent or broadcast this round: it
    /// would put a second message on an edge direction.
    pub fn send_all(&mut self, msg: M) {
        if self.sent != Sent::Nothing {
            let what = match self.sent {
                Sent::Broadcast => "twice",
                _ => "after sending",
            };
            panic!(
                "CONGEST violation: node {} broadcast {what} in round {}",
                self.node, self.round
            );
        }
        self.sent = Sent::Broadcast;
        let lo = self.inbox.bit0;
        let deg = self.degree();
        let plane = self.outbox;
        let word = msg.pack();
        if let Some(b) = plane.bcast {
            let node = self.node as usize;
            // SAFETY: slot `node < n` of the n-slot broadcast staging slab
            // is written by `node`'s own step alone (the fold and the
            // adversary read it after the pass joins).
            unsafe { b.words.write(node, word) };
            let (staged, bit) = (&b.stage[node >> 6], 1 << (node & 63));
            if b.serial {
                staged.store(staged.load(Ordering::Relaxed) | bit, Ordering::Relaxed);
            } else {
                staged.fetch_or(bit, Ordering::Relaxed);
            }
            plane.bcast_used.set(true);
            plane.reach.set(plane.reach.get() + deg as u64);
            return;
        }
        // Only a node-local plane has no broadcast plane, and it keeps no
        // worklist: its host collects the sends from the mask bytes.
        debug_assert_eq!(plane.wl_cap, 0, "a scattering send_all lists nothing");
        for &dest in &plane.rev[lo..lo + deg] {
            let dest = dest as usize;
            // SAFETY: `rev[lo..lo + deg]` are this node's own destination
            // slots (see `send`), all zero: this node sent nothing yet.
            unsafe {
                plane.mask.write(dest, 1);
                plane.words.write(dest, word);
            }
        }
        plane.staged.set(plane.staged.get() + deg as u32);
    }

    /// Whether this node already wrote to `port` this round.
    #[inline]
    pub fn port_used(&self, port: Port) -> bool {
        let plane = self.outbox;
        assert!(
            (port as usize) < self.degree(),
            "port_used on nonexistent port {port}"
        );
        // SAFETY: `port < deg` (just asserted), so this reads this node's
        // own destination slot (see `send`).
        self.sent == Sent::Broadcast
            || unsafe {
                plane
                    .mask
                    .read(plane.rev[self.inbox.bit0 + port as usize] as usize)
                    != 0
            }
    }

    /// This node's private RNG (deterministic per `(run_seed, node)`).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Declare local completion. The run ends when *all* nodes are done and
    /// no message is in flight. A node may clear its flag again later
    /// (e.g. when reactivated by an unexpected message).
    #[inline]
    pub fn set_done(&mut self, done: bool) {
        *self.done = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, EngineConfig};
    use congest_graph::generators::cycle;

    /// Every node sends its id once and records what it hears.
    struct HelloNode {
        heard: Vec<Node>,
    }

    impl Protocol for HelloNode {
        type Msg = u32;
        type Output = Vec<Node>;

        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if ctx.round == 0 {
                ctx.send_all(ctx.node);
                return;
            }
            let msgs: Vec<u32> = ctx.inbox().map(|(_, m)| m).collect();
            self.heard.extend(msgs);
            ctx.set_done(true);
        }

        fn finish(self) -> Vec<Node> {
            self.heard
        }
    }

    #[test]
    fn hello_exchange_on_cycle() {
        let g = cycle(5);
        let out = run_protocol(
            &g,
            |_, _| HelloNode { heard: Vec::new() },
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.rounds, 1);
        for v in 0..5u32 {
            let mut heard = out.outputs[v as usize].clone();
            heard.sort_unstable();
            let mut expect = vec![(v + 4) % 5, (v + 1) % 5];
            expect.sort_unstable();
            assert_eq!(heard, expect);
        }
    }

    /// `InboxIter::fold` (internal iteration, dense fast path) must visit
    /// exactly what `next` visits, in the same order — including full-word
    /// inboxes, partial words, and word-straddling port ranges.
    struct FoldVsNext {
        deg: usize,
        ok: bool,
    }
    impl Protocol for FoldVsNext {
        type Msg = u64;
        type Output = bool;
        fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            if ctx.round == 0 {
                // Saturate every port.
                for p in 0..self.deg as Port {
                    ctx.send(p, (ctx.node as u64) << 32 | p as u64);
                }
                return;
            }
            let by_next: Vec<(Port, u64)> = ctx.inbox().collect();
            let by_fold: Vec<(Port, u64)> = ctx.inbox().fold(Vec::new(), |mut acc, it| {
                acc.push(it);
                acc
            });
            self.ok = by_next == by_fold && by_next.len() == self.deg;
            ctx.set_done(true);
        }
        fn finish(self) -> bool {
            self.ok
        }
    }

    #[test]
    fn inbox_fold_matches_next_on_saturated_inboxes() {
        // 70 nodes of degree 69 straddle several occupancy words at odd
        // offsets; every port is occupied, exercising the dense path.
        let g = congest_graph::generators::complete(70);
        let out = run_protocol(
            &g,
            |_, gr| FoldVsNext {
                deg: gr.degree(0),
                ok: false,
            },
            EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs.iter().all(|&x| x));
    }

    /// A node that (incorrectly) double-sends must panic.
    struct DoubleSender;
    impl Protocol for DoubleSender {
        type Msg = u32;
        type Output = ();
        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if ctx.round == 0 {
                ctx.send(0, 1);
                ctx.send(0, 2); // violation
            }
        }
        fn finish(self) {}
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn double_send_panics() {
        let g = cycle(3);
        let _ = run_protocol(&g, |_, _| DoubleSender, EngineConfig::default());
    }
}
