//! Flood-max leader election, by rank.
//!
//! Lemma 1 (the pipelined broadcast) presupposes "a unique leader"; any
//! one will do, as long as every node agrees on it. Flood-max elects one
//! in `O(D)` rounds: every node repeatedly forwards the largest value it
//! has heard, and when the network quiesces every node holds the global
//! maximum and exactly one node recognizes itself in it.
//!
//! **What is elected.** The values flooded are *ranks*, not ids: node `v`
//! enters [`rank`]`(v)`, a fixed bijection on `u32` (murmur3's 32-bit
//! finalizer), and the leader is the node of highest rank in its
//! connected component, recovered at the end as [`unrank`]`(best)`.
//!
//! **Why not the maximum id.** Message-driven flood-max sends `deg(v)`
//! messages every time `v`'s best improves. Every generator here numbers
//! its nodes along the topology (Harary and cycle ids run round the ring,
//! torus ids row by row), so with raw ids `v`'s best improves in nearly
//! every one of its `ecc(v)` rounds, and the election costs `≈ m · D`
//! messages — 65 per arc on harary(64, 8 192), 513 on cycle(2 048).
//! Under a ranking that ignores position, `v`'s best after round `r` is
//! the maximum over its ball `B_r(v)`, which improves in round `r ≥ 1`
//! only if that maximum lies on the sphere `S_r(v)`: probability
//! `|S_r| / |B_r|` for a uniformly random ranking. Summed over rounds that
//! is `≤ H_n − 1 ≤ ln n` improvements after the round-0 announcement, so
//! the expected total is `≤ 2m · (1 + ln n)` messages. The hash is not
//! random, so the tests pin the slack form `2m · (2 + ln n)` on the ring,
//! torus and Harary families.
//!
//! **The worst case.** The rank is fixed and public, so ids chosen against
//! it — numbering the nodes along the topology in order of increasing
//! rank, `id = unrank(position)` — bring back the raw-id flood exactly:
//! `≈ m · D` messages. Rounds never suffer: the election takes
//! `ecc(leader) + 1 ≤ D + 1` rounds whatever the ids. The rank takes no
//! seed because every caller must agree on the leader without sharing
//! one: the drivers and any independent replica of them call
//! [`FloodMax::new`] with nothing but the node.
//!
//! **Why the message stays a `u32`.** A bijection on `u32` makes a rank
//! exactly as wide as an id and distinct ranks distinct nodes, so there
//! are no ties to break and no `(rank, id)` pair to carry: one
//! `O(log n)`-bit word per message, as before.
//!
//! **One election.** This is the repo's only flood-max: the Theorem 1
//! drivers (re-exported as `congest_core::leader`) and the job plane's
//! [`JobSpec::FloodMax`](crate::JobSpec::FloodMax) both run it, so a
//! served flood-max job outputs the root the drivers build on.

use crate::protocol::{NodeCtx, Protocol};
use congest_graph::Node;

/// Where node `id` stands in the election: murmur3's `fmix32`, a
/// bijection on `u32` whose order carries no trace of the id order.
#[inline]
pub const fn rank(id: Node) -> u32 {
    let mut h = id;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

/// The node of rank `r`: the inverse of [`rank`].
#[inline]
pub const fn unrank(r: u32) -> Node {
    let mut h = r;
    h ^= h >> 16;
    // Multiplicative inverses of fmix32's constants mod 2³².
    h = h.wrapping_mul(0x7ed1_b41d);
    h ^= (h >> 13) ^ (h >> 26);
    h = h.wrapping_mul(0xa5cb_9243);
    h ^ (h >> 16)
}

/// Per-node output of leader election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderInfo {
    /// The elected leader: the node of highest [`rank`] in this node's
    /// connected component.
    pub leader: Node,
    /// Whether this node is the leader.
    pub is_leader: bool,
}

/// The flood-max protocol, flooding [`rank`]s.
pub struct FloodMax {
    me: Node,
    /// The highest rank heard so far, this node's own included.
    best: u32,
    dirty: bool,
}

impl FloodMax {
    pub fn new(me: Node) -> Self {
        FloodMax {
            me,
            best: rank(me),
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
        let best = ctx.inbox().fold(self.best, |best, (_, r)| best.max(r));
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
        let leader = unrank(self.best);
        LeaderInfo {
            leader,
            is_leader: leader == self.me,
        }
    }
}
