//! Random-delay scheduling of many protocols over one network.
//!
//! Paper Theorem 12 (Ghaffari \[Gha15b\]): any collection of distributed
//! algorithms with given *congestion* (max messages per edge, summed over
//! all algorithms) and *dilation* (max individual round complexity) can be
//! executed together in `O(congestion + dilation·log² n)` rounds w.h.p.,
//! by starting each algorithm at a random delay and letting edges serve
//! queued messages one per round.
//!
//! [`Multiplexed`] implements exactly that: each node hosts one instance
//! of each sub-protocol; outgoing messages are tagged with their algorithm
//! index and queued per port (FIFO); each real round, every port transmits
//! at most one queued message — preserving the global CONGEST discipline.
//!
//! ## Packed port queues
//!
//! The port FIFOs are **fixed-capacity rings** ([`PortRings`]), one per
//! port, carved from one `degree × capacity` `u128` slab. The capacity is
//! the caller's per-edge congestion bound — exactly the quantity
//! Theorem 12 is parameterized by (for `k` one-shot broadcasts, `k`; for
//! a shared tree packing, the packing's congestion × messages per tree).
//! Push and pop are index arithmetic into the slab sized at
//! construction, so a multiplexed node performs **zero heap allocation
//! per round**: the multiplexer is engine-hostable on the hot path,
//! composable with the fault adversary, and covered by
//! `tests/zero_alloc.rs` like any other protocol. Exceeding the declared
//! capacity panics with the observed port — an honest signal that the
//! congestion bound fed to the scheduler was wrong.
//!
//! Sub-protocols run against node-local **packed** buffers in the engine's
//! shape: each its own inbox of port-indexed words + occupancy bits, and
//! one node-local scatter plane to send through, the write path every
//! node context has ([`crate::protocol`]): the identity over the node's
//! ports for its reverse-arc map, one mask byte per port, no worklist and
//! no broadcast plane, so a sub's `send_all` scatters per port. The subs
//! step one at a time, and each one's sends are collected from the mask
//! bytes into the port queues before the next steps. A multiplexed
//! protocol pays the packed encoding exactly once per hop. Sub-protocols
//! that declared `done` are only re-stepped when a message arrives for
//! them. This leans
//! on the **message-driven contract below** (which this multiplexer
//! already demands for delay tolerance): a done sub may only resume
//! because traffic arrived, never by counting rounds — under that
//! contract, skipping a done sub's idle rounds changes nothing observable
//! while making quiescent algorithms free. (`Session::run` skips a done
//! node with an empty inbox only for a protocol that declares
//! `Protocol::QUIESCENT`, and steps every other protocol's done nodes
//! every round; round-counting wake-ups are legal solo for a protocol
//! that does not declare it, but out of contract under the scheduler.)
//!
//! **Delay tolerance.** Under queuing, a sub-protocol's messages may
//! arrive in later virtual rounds than in a solo run. Sub-protocols must
//! therefore be *message-driven* (progress when messages arrive, rather
//! than count on round-exact delivery). All tree broadcast/convergecast
//! protocols in `congest-core` satisfy this. The paper's own use (proof of
//! Theorem 13) runs Lemma 1 pipelined broadcasts, which are message-driven
//! too.

use crate::message::{PackedMsg, Tagged};
use crate::protocol::{InSlot, NodeCtx, Protocol, ScatterPlane};
use crate::rng::mix64;
use crate::slab;
use congest_par::RacyCells;
use std::cell::Cell;

/// Per-port **FIFO queues**: port `p` owns the ring
/// `slab[p·cap..(p+1)·cap]` of one pre-sized `u128` slab.
///
/// The capacity is **exactly the declared bound**: exceeding it panics
/// with the observed port — an honest signal that the congestion bound
/// fed to the scheduler (Theorem 12's parameter) was wrong. A ring wraps
/// by one compare, never a division, and a word-packed nonempty bitset
/// over ports lets the serve-one-per-port scan skip idle ports wholesale.
pub struct PortRings {
    /// `cap` slots per port, port after port.
    slab: Vec<u128>,
    /// Ring head per port (slot of the oldest queued word, `< cap`).
    head: Vec<u32>,
    /// Queue length per port.
    len: Vec<u32>,
    /// Capacity per port — the declared Theorem-12 bound.
    cap: u32,
    /// Word-packed bitset of ports with a nonempty queue.
    nonempty: Vec<u64>,
    /// Total queued words across all ports (O(1) emptiness check).
    queued: usize,
    /// Peak per-port queue length observed (scheduling-quality metric).
    peak: usize,
}

impl PortRings {
    /// Build queues for `degree` ports, each with capacity exactly `cap`
    /// (the per-edge congestion bound of the multiplexed collection).
    pub fn new(degree: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        PortRings {
            slab: vec![0; degree * cap],
            head: vec![0; degree],
            len: vec![0; degree],
            cap: cap as u32,
            nonempty: vec![0; slab::words_for(degree)],
            queued: 0,
            peak: 0,
        }
    }

    /// Capacity per port — the declared bound, exactly.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Queued words across all ports.
    #[inline]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Queue length of one port.
    #[inline]
    pub fn len(&self, port: usize) -> usize {
        self.len[port] as usize
    }

    /// Peak per-port queue length observed so far.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Append `word` to `port`'s queue. Panics past the capacity bound.
    #[inline]
    pub fn push(&mut self, port: usize, word: u128) {
        let len = self.len[port];
        assert!(
            len < self.cap,
            "multiplexer ring overflow on port {port}: capacity {} exhausted — \
             the queue capacity must be at least the per-edge congestion bound \
             (Theorem 12) of the multiplexed collection",
            self.cap
        );
        let mut slot = self.head[port] + len;
        if slot >= self.cap {
            slot -= self.cap;
        }
        self.slab[port * self.cap as usize + slot as usize] = word;
        if len == 0 {
            self.nonempty[port >> 6] |= 1u64 << (port & 63);
        }
        self.len[port] = len + 1;
        self.queued += 1;
        if (len + 1) as usize > self.peak {
            self.peak = (len + 1) as usize;
        }
    }

    /// Pop the oldest word queued on `port`.
    #[inline]
    pub fn pop(&mut self, port: usize) -> Option<u128> {
        let len = self.len[port];
        if len == 0 {
            return None;
        }
        let h = self.head[port];
        let word = self.slab[port * self.cap as usize + h as usize];
        self.head[port] = if h + 1 == self.cap { 0 } else { h + 1 };
        self.len[port] = len - 1;
        self.queued -= 1;
        if len == 1 {
            self.nonempty[port >> 6] &= !(1u64 << (port & 63));
        }
        Some(word)
    }

    /// Pop one word from every nonempty port, ascending by port — the
    /// Theorem-12 "each edge serves one queued message per round" step.
    /// Idle ports cost nothing: the scan walks the nonempty bitset words,
    /// so a quiescent multiplexer pays a few word loads regardless of
    /// degree.
    #[inline]
    pub fn serve(&mut self, mut f: impl FnMut(usize, u128)) {
        if self.queued == 0 {
            return;
        }
        for wi in 0..self.nonempty.len() {
            let mut bits = self.nonempty[wi];
            while bits != 0 {
                let p = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let word = self.pop(p).expect("nonempty bit implies a queued word");
                f(p, word);
            }
        }
    }
}

/// One hosted sub-protocol: its state plus its node-local inbox in the
/// engine's slab shape (port-indexed words + occupancy bits).
struct Sub<P: Protocol> {
    proto: P,
    delay: u64,
    virtual_round: u64,
    done: bool,
    /// A message arrived for this sub this round (re-steps a done sub).
    woke: bool,
    in_words: Vec<<P::Msg as PackedMsg>::Word>,
    in_occ: Vec<u64>,
}

/// One node's multiplexer hosting `k` sub-protocol instances over packed
/// ring-buffer port queues.
pub struct Multiplexed<P: Protocol> {
    subs: Vec<Sub<P>>,
    rings: PortRings,
    /// The node-local scatter plane every sub sends through, one sub at a
    /// time: port-indexed words and mask bytes, drained into the rings
    /// after each sub's step, and the identity over ports for its
    /// reverse-arc map.
    out_words: Vec<<P::Msg as PackedMsg>::Word>,
    out_mask: Vec<u8>,
    rev: Vec<u32>,
}

impl<P: Protocol> Multiplexed<P> {
    /// Build a node multiplexer from per-algorithm instances and their
    /// (globally agreed) start delays. `degree` is this node's degree;
    /// `queue_capacity` bounds each port's FIFO and must be at least the
    /// per-edge congestion of the multiplexed collection — the exact
    /// quantity Theorem 12's `O(congestion + dilation·log² n)` bound is
    /// stated in terms of (`k` suffices for `k` one-shot floods; a shared
    /// tree packing needs congestion × messages per tree).
    pub fn new(instances: Vec<P>, delays: &[u64], degree: usize, queue_capacity: usize) -> Self {
        assert_eq!(instances.len(), delays.len());
        let subs = instances
            .into_iter()
            .zip(delays.iter())
            .map(|(proto, &delay)| Sub {
                proto,
                delay,
                virtual_round: 0,
                done: false,
                woke: false,
                in_words: vec![Default::default(); degree],
                in_occ: vec![0; slab::words_for(degree)],
            })
            .collect();
        Multiplexed {
            subs,
            rings: PortRings::new(degree, queue_capacity),
            out_words: vec![Default::default(); degree],
            out_mask: vec![0; degree],
            rev: (0..degree as u32).collect(),
        }
    }
}

impl<P: Protocol> Protocol for Multiplexed<P> {
    type Msg = Tagged<P::Msg>;
    type Output = (Vec<P::Output>, usize);

    fn round(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        let graph = ctx.graph();
        // 1. Distribute arrivals to sub-inboxes (and wake their subs).
        for (p, t) in ctx.inbox() {
            let sub = &mut self.subs[t.algo as usize];
            debug_assert!(!slab::test(&sub.in_occ, p as usize));
            slab::set(&mut sub.in_occ, p as usize);
            sub.in_words[p as usize] = t.msg.pack();
            sub.woke = true;
        }
        // 2. Step every sub-protocol whose delay has elapsed and that can
        // still make progress (not yet done, or woken by an arrival),
        // against its inbox and the node-local scatter plane.
        for (i, sub) in self.subs.iter_mut().enumerate() {
            if ctx.round < sub.delay || (sub.done && !sub.woke) {
                continue;
            }
            sub.woke = false;
            let staged = {
                let words = RacyCells::new(&mut self.out_words[..]);
                let mask = RacyCells::new(&mut self.out_mask[..]);
                let plane = ScatterPlane {
                    graph,
                    words: &words,
                    mask: &mask,
                    rev: &self.rev,
                    bcast: None,
                    wl: &RacyCells::new(&mut []),
                    wl_lo: 0,
                    wl_cap: 0,
                    staged: Cell::new(0),
                    bcast_used: Cell::new(false),
                };
                let mut sub_ctx = NodeCtx {
                    node: ctx.node,
                    round: sub.virtual_round,
                    inbox: InSlot {
                        words: &sub.in_words,
                        occ: &sub.in_occ,
                        bit0: 0,
                        bcast: None,
                    },
                    outbox: &plane,
                    bcast_staged: false,
                    rng: ctx.rng,
                    done: &mut sub.done,
                };
                sub.proto.round(&mut sub_ctx);
                plane.staged.get()
            };
            sub.virtual_round += 1;
            // Queue this sub's `staged` sends, ascending by port: the mask
            // bytes eight to a compare, and no scan past the last send.
            let mut p = 0;
            for _ in 0..staged {
                p = slab::next_nonzero(&self.out_mask, p);
                self.out_mask[p] = 0;
                let tagged = Tagged {
                    algo: i as u32,
                    msg: P::Msg::unpack(self.out_words[p]),
                };
                self.rings.push(p, tagged.pack());
                p += 1;
            }
            slab::clear_all(&mut sub.in_occ);
        }
        // 3. Serve one queued message per port (nonempty ports only — the
        // bitset scan makes idle ports free).
        let rings = &mut self.rings;
        rings.serve(|p, word| ctx.send(p as u32, Tagged::unpack(word)));
        // 4. Done when all subs are done and no message waits.
        let all_done = self.subs.iter().all(|s| s.done);
        ctx.set_done(all_done && self.rings.queued() == 0);
    }

    fn finish(self) -> Self::Output {
        (
            self.subs.into_iter().map(|s| s.proto.finish()).collect(),
            self.rings.peak(),
        )
    }
}

/// Globally agreed random delays for `k` algorithms, uniform in
/// `[0, max_delay]`, derived from a seed (all nodes must use the same
/// values — in CONGEST this is shared randomness or one O(D)-round
/// agreement; the paper treats it as given).
pub fn random_delays(k: usize, max_delay: u64, seed: u64) -> Vec<u64> {
    (0..k)
        .map(|i| {
            if max_delay == 0 {
                0
            } else {
                mix64(seed ^ mix64(i as u64)) % (max_delay + 1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, EngineConfig};
    use congest_graph::generators::{cycle, path};
    use congest_graph::{Graph, Node};

    /// Message-driven flood from a designated source (tolerates delays).
    struct Flood {
        informed: bool,
        relayed: bool,
    }
    impl Flood {
        fn new(source: Node, me: Node) -> Self {
            Flood {
                informed: source == me,
                relayed: false,
            }
        }
    }
    impl Protocol for Flood {
        type Msg = ();
        type Output = bool;
        fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
            if ctx.inbox_len() > 0 {
                self.informed = true;
            }
            if self.informed && !self.relayed {
                ctx.send_all(());
                self.relayed = true;
            }
            ctx.set_done(self.relayed);
        }
        fn finish(self) -> bool {
            self.informed
        }
    }

    #[test]
    fn tagged_packing_roundtrips() {
        let t = Tagged {
            algo: 0xBEEF & 0xFFFF,
            msg: 0xDEAD_CAFEu32,
        };
        assert_eq!(Tagged::<u32>::unpack(t.pack()), t);
        assert_eq!(Tagged::<u32>::WIDTH, 48);
    }

    #[test]
    fn rings_fifo_per_port() {
        let mut rings = PortRings::new(3, 2);
        rings.push(0, 10);
        rings.push(0, 11);
        rings.push(2, 30);
        assert_eq!(rings.queued(), 3);
        assert_eq!(rings.peak(), 2);
        assert_eq!(rings.pop(0), Some(10));
        rings.push(0, 12); // wraps around port 0's ring
        assert_eq!(rings.pop(0), Some(11));
        assert_eq!(rings.pop(0), Some(12));
        assert_eq!(rings.pop(0), None);
        assert_eq!(rings.pop(1), None);
        assert_eq!(rings.pop(2), Some(30));
        assert_eq!(rings.queued(), 0);
    }

    #[test]
    fn rings_wrap_preserves_fifo() {
        let mut rings = PortRings::new(2, 12);
        for i in 0..12u128 {
            rings.push(1, 100 + i);
        }
        assert_eq!(rings.len(0), 0, "port 0's ring is untouched");
        assert_eq!(rings.peak(), 12);
        // Interleave pops and pushes across the ring's wrap point.
        for i in 0..6u128 {
            assert_eq!(rings.pop(1), Some(100 + i));
            rings.push(1, 200 + i);
        }
        for i in 6..12u128 {
            assert_eq!(rings.pop(1), Some(100 + i));
        }
        for i in 0..6u128 {
            assert_eq!(rings.pop(1), Some(200 + i));
        }
        assert_eq!(rings.pop(1), None);
        assert_eq!(rings.queued(), 0);
    }

    #[test]
    fn rings_serve_pops_one_per_nonempty_port_ascending() {
        let mut rings = PortRings::new(70, 3);
        for p in [0usize, 3, 64, 69] {
            rings.push(p, p as u128);
            rings.push(p, 1000 + p as u128);
        }
        let mut seen = Vec::new();
        rings.serve(|p, w| seen.push((p, w)));
        assert_eq!(seen, vec![(0, 0), (3, 3), (64, 64), (69, 69)]);
        assert_eq!(rings.queued(), 4);
        let mut seen = Vec::new();
        rings.serve(|p, w| seen.push((p, w)));
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|&(p, w)| w == 1000 + p as u128));
        assert_eq!(rings.queued(), 0);
        rings.serve(|_, _| panic!("empty rings serve nothing"));
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn ring_overflow_panics_with_congestion_hint() {
        let mut rings = PortRings::new(1, 2);
        for i in 0..=rings.capacity() as u128 {
            rings.push(0, i);
        }
    }

    #[test]
    fn multiplexed_floods_all_complete() {
        let g = cycle(8);
        let k = 4;
        let delays = random_delays(k, 6, 99);
        let outcome = run_protocol(
            &g,
            |v, gr: &Graph| {
                let instances: Vec<Flood> = (0..k).map(|i| Flood::new(i as Node, v)).collect();
                Multiplexed::new(instances, &delays, gr.degree(v), k)
            },
            EngineConfig::default(),
        )
        .unwrap();
        // Every node must end up informed in every sub-flood.
        for (v, (flags, _)) in outcome.outputs.iter().enumerate() {
            for (i, &informed) in flags.iter().enumerate() {
                assert!(informed, "node {v} missed flood {i}");
            }
        }
    }

    #[test]
    fn queues_enforce_one_message_per_edge_round() {
        // With k simultaneous floods and zero delays, an edge can carry at
        // most `rounds` messages per direction; the run must still finish.
        let g = cycle(6);
        let k = 5;
        let delays = vec![0; k];
        let outcome = run_protocol(
            &g,
            |v, gr: &Graph| {
                let instances: Vec<Flood> = (0..k).map(|i| Flood::new(i as Node, v)).collect();
                Multiplexed::new(instances, &delays, gr.degree(v), k)
            },
            EngineConfig::default(),
        )
        .unwrap();
        for (flags, _) in &outcome.outputs {
            assert!(flags.iter().all(|&x| x));
        }
        // The real guarantee: the engine never saw two messages on one
        // edge-direction in one round (engine would have panicked), and the
        // total rounds exceed a single flood's (queuing happened).
        assert!(outcome.stats.rounds >= 3);
    }

    #[test]
    fn multiplexed_survives_faults_like_any_protocol() {
        // Ring-hosted scheduling composes with the fault adversary: a
        // light adversary delays but cannot stop re-flooding subs.
        use crate::fault::FaultPlan;
        struct Stubborn {
            informed: bool,
        }
        impl Protocol for Stubborn {
            type Msg = ();
            type Output = bool;
            fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
                if ctx.round == 0 && ctx.node == 0 {
                    self.informed = true;
                }
                if ctx.inbox_len() > 0 {
                    self.informed = true;
                }
                if self.informed && ctx.round < 30 {
                    for p in 0..ctx.degree() as u32 {
                        if !ctx.port_used(p) {
                            ctx.send(p, ());
                        }
                    }
                }
                ctx.set_done(ctx.round >= 30);
            }
            fn finish(self) -> bool {
                self.informed
            }
        }
        // The path is irregular: node 0 has one port and its neighbour
        // two, so a ring sized by the wrong node's degree fails here.
        for g in [cycle(8), path(8)] {
            let k = 2;
            let delays = vec![0, 1];
            let outcome = run_protocol(
                &g,
                |v, gr: &Graph| {
                    let instances: Vec<Stubborn> =
                        (0..k).map(|_| Stubborn { informed: false }).collect();
                    Multiplexed::new(instances, &delays, gr.degree(v), 64)
                },
                EngineConfig::default()
                    .max_rounds(500)
                    .with_faults(FaultPlan::new(1, 11)),
            )
            .unwrap();
            assert!(outcome.stats.dropped_messages > 0, "adversary acted");
            for (flags, _) in &outcome.outputs {
                assert!(
                    flags.iter().all(|&x| x),
                    "floods must survive the adversary"
                );
            }
        }
    }

    #[test]
    fn random_delays_in_range_and_deterministic() {
        let d1 = random_delays(10, 7, 1);
        let d2 = random_delays(10, 7, 1);
        assert_eq!(d1, d2);
        assert!(d1.iter().all(|&d| d <= 7));
        assert_eq!(random_delays(3, 0, 5), vec![0, 0, 0]);
    }
}
