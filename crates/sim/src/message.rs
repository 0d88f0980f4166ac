//! The packed wire encoding, which is also each message's bit budget.
//!
//! CONGEST allows `O(log n)` bits per message. A message type's size is
//! its fixed [`PackedMsg::WIDTH`]: a phase that sends at least one
//! message reports its protocol's `Msg::WIDTH` as
//! [`crate::RunStats::max_message_bits`] (0 for a silent phase); tests
//! then assert the discipline (e.g. ≤ c·⌈log₂ n⌉ for a small constant c —
//! a constant number of node ids / counters per message). Every width is
//! the *declared* field width, not `⌈log₂ n⌉` per id — conservative, and
//! every bound in the paper tolerates constant factors.
//!
//! ## Packed encoding ([`PackedMsg`])
//!
//! The model's O(log n)-bit budget means every wire message fits a machine
//! word. The engine exploits that: message slabs are flat `Vec<Word>`
//! (`Word` = `u64` or `u128`), with a word-packed occupancy bitset instead
//! of per-slot `Option` discriminants. Every protocol message type
//! therefore implements [`PackedMsg`]: a fixed-width, branch-free
//! `pack`/`unpack` pair into the low [`PackedMsg::WIDTH`] bits of its
//! word. Benefits in the round loop:
//!
//! * delivery moves raw words — no `Option` matching, no `Clone` calls,
//!   no per-message heap data;
//! * occupancy is one bit per arc, so clearing an outbox is a 64×-denser
//!   memset and quiescent ports cost nothing;
//! * the encoding *is* the bit budget: a type whose fields don't fit its
//!   word fails at `pack` time (debug assertions), keeping the O(log n)
//!   discipline honest at the representation level.

/// Storage word for packed messages: `u64` or `u128`.
pub trait MsgWord: Copy + Default + Send + Sync + PartialEq + 'static {
    /// Width of the word in bits.
    const BITS: u32;
    /// Widen to `u128` (for compositional encodings such as tagging).
    fn to_u128(self) -> u128;
    /// Truncating narrow from `u128`.
    fn from_u128(x: u128) -> Self;
}

impl MsgWord for u64 {
    const BITS: u32 = 64;
    #[inline]
    fn to_u128(self) -> u128 {
        self as u128
    }
    #[inline]
    fn from_u128(x: u128) -> Self {
        x as u64
    }
}

impl MsgWord for u128 {
    const BITS: u32 = 128;
    #[inline]
    fn to_u128(self) -> u128 {
        self
    }
    #[inline]
    fn from_u128(x: u128) -> Self {
        x
    }
}

/// A message with a fixed-width packed wire encoding.
///
/// Contract: `unpack(pack(m)) == m` for every value the protocol sends,
/// and `pack` only sets the low [`PackedMsg::WIDTH`] bits of the word.
/// The engine stores exactly one word per arc; the `Copy` bound is what
/// makes delivery a raw word move.
pub trait PackedMsg: Copy + Send + Sync + 'static {
    /// Slab storage type — smallest of `u64`/`u128` that fits `WIDTH`.
    type Word: MsgWord;
    /// Fixed encoding width in bits (`≤ Word::BITS`): the wire budget of
    /// every value of the type, and what [`crate::RunStats`] reports.
    const WIDTH: u32;

    fn pack(self) -> Self::Word;
    fn unpack(word: Self::Word) -> Self;
}

impl PackedMsg for () {
    type Word = u64;
    const WIDTH: u32 = 0;
    #[inline]
    fn pack(self) -> u64 {
        0
    }
    #[inline]
    fn unpack(_: u64) {}
}

impl PackedMsg for u32 {
    type Word = u64;
    const WIDTH: u32 = 32;
    #[inline]
    fn pack(self) -> u64 {
        self as u64
    }
    #[inline]
    fn unpack(word: u64) -> u32 {
        word as u32
    }
}

impl PackedMsg for u64 {
    type Word = u64;
    const WIDTH: u32 = 64;
    #[inline]
    fn pack(self) -> u64 {
        self
    }
    #[inline]
    fn unpack(word: u64) -> u64 {
        word
    }
}

/// Pairs pack by concatenation into a `u128` (first element in the low
/// bits). Both components must fit `u64` words, so the pair fits 128 bits.
impl<A, B> PackedMsg for (A, B)
where
    A: PackedMsg<Word = u64>,
    B: PackedMsg<Word = u64>,
{
    type Word = u128;
    // Post-monomorphization error if the encoding can't fit the word;
    // `pack` forces the evaluation.
    const WIDTH: u32 = {
        assert!(A::WIDTH + B::WIDTH <= 128, "pair exceeds 128 bits");
        A::WIDTH + B::WIDTH
    };
    #[inline]
    fn pack(self) -> u128 {
        let _guard = Self::WIDTH;
        (self.0.pack() as u128) | ((self.1.pack() as u128) << A::WIDTH)
    }
    #[inline]
    fn unpack(word: u128) -> Self {
        let mask = low_mask(A::WIDTH);
        (
            A::unpack((word & mask) as u64),
            B::unpack((word >> A::WIDTH) as u64),
        )
    }
}

/// A message tagged with the index of the concurrent algorithm it belongs
/// to: a sub-protocol of [`crate::sched::Multiplexed`], or one partition
/// class's pipeline in Theorem 1's parallel routing (`congest_core`'s
/// `ParallelPipeline`, whose classes are edge-disjoint, so there the tag
/// only selects the receiving class's state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged<M> {
    pub algo: u32,
    pub msg: M,
}

/// The tag rides in the 16 bits above the inner encoding (`algo < 2¹⁶`,
/// a generous constant for every algorithm count here). The combined
/// width must fit a `u128` word — enforced at compile time (a
/// post-monomorphization error when `M::WIDTH > 112`).
impl<M: PackedMsg> PackedMsg for Tagged<M> {
    type Word = u128;
    const WIDTH: u32 = {
        assert!(M::WIDTH + 16 <= 128, "tagged message exceeds 128 bits");
        16 + M::WIDTH
    };
    #[inline]
    fn pack(self) -> u128 {
        let _guard = Self::WIDTH;
        debug_assert!(self.algo < 1 << 16);
        self.msg.pack().to_u128() | ((self.algo as u128) << M::WIDTH)
    }
    #[inline]
    fn unpack(word: u128) -> Self {
        let _guard = Self::WIDTH;
        Tagged {
            algo: (word >> M::WIDTH) as u32 & 0xFFFF,
            msg: M::unpack(MsgWord::from_u128(word & low_mask(M::WIDTH))),
        }
    }
}

/// Mask of the `width` low bits of a `u128` (`width ≤ 128`).
#[inline]
pub const fn low_mask(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: PackedMsg + PartialEq + std::fmt::Debug>(m: M) {
        assert_eq!(M::unpack(m.pack()), m);
        assert!(M::WIDTH <= <M::Word as MsgWord>::BITS);
    }

    #[test]
    fn packing_roundtrips() {
        roundtrip(());
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip((u32::MAX, 7u32));
        roundtrip((u64::MAX, u32::MAX));
    }

    #[test]
    fn pair_packs_first_component_low() {
        let w = (0xAAAAu32, 0xBBBBu32).pack();
        assert_eq!(w & 0xFFFF_FFFF, 0xAAAA);
        assert_eq!(w >> 32, 0xBBBB);
    }

    #[test]
    fn low_mask_edges() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(64), u64::MAX as u128);
        assert_eq!(low_mask(128), u128::MAX);
    }
}
