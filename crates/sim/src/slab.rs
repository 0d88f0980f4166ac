//! Occupancy machinery for the arc-indexed message slabs.
//!
//! Two representations, each used where it is cheapest:
//!
//! * **Staging byte-mask** (`Vec<u8>`, one byte per arc): what sends write.
//!   The reverse-arc permutation is a bijection, so every staging byte has
//!   exactly one writer per round — plain unsynchronized stores, no atomic
//!   read-modify-write anywhere on the hot path.
//! * **Word-packed bitset** (`Vec<u64>`, one bit per arc): what receivers
//!   read. Built from the byte-mask during the delivery sweep (64 arcs
//!   fold into one word), it makes `port_used` a bit test and `inbox_len` a
//!   masked popcount, and clearing it is a 64×-denser memset than per-slot
//!   `Option` writes.

/// Number of `u64` words needed for `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Read bit `i` of a word-packed bitset.
#[inline]
pub(crate) fn test(occ: &[u64], i: usize) -> bool {
    occ[i >> 6] >> (i & 63) & 1 == 1
}

/// Set bit `i`; returns whether it was already set.
#[inline]
pub(crate) fn set(occ: &mut [u64], i: usize) -> bool {
    let mask = 1u64 << (i & 63);
    let prior = occ[i >> 6] & mask != 0;
    occ[i >> 6] |= mask;
    prior
}

/// Zero every word.
#[inline]
pub(crate) fn clear_all(occ: &mut [u64]) {
    occ.fill(0);
}

/// Index of the first nonzero byte of `bytes` at or after `from`
/// (`bytes.len()` if there is none), eight bytes to a compare — how a
/// listed step pass walks the active-node bytes.
#[inline]
pub(crate) fn next_nonzero(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i + 8 <= bytes.len() {
        let lanes = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        if lanes != 0 {
            return i + (lanes.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] == 0 {
        i += 1;
    }
    i
}

/// Pack 64 staging bytes (each 0 or 1) into one occupancy word; byte `j`
/// becomes bit `j`.
#[inline]
pub(crate) fn pack_bytes(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= 64);
    let mut word = 0u64;
    if bytes.len() == 64 {
        // 8 bytes at a time: multiplying a 0/1 byte lane vector by this
        // constant parks byte j's LSB at bit 56 + j; shifting down yields
        // the packed octet (classic SWAR LSB-gather).
        for (k, chunk) in bytes.chunks_exact(8).enumerate() {
            let lanes = u64::from_le_bytes(chunk.try_into().unwrap());
            let octet = lanes.wrapping_mul(0x0102_0408_1020_4080) >> 56;
            word |= octet << (8 * k);
        }
    } else {
        for (j, &b) in bytes.iter().enumerate() {
            word |= (b as u64) << j;
        }
    }
    word
}

/// Population count of the bit range `[start, start + len)`.
pub(crate) fn popcount_range(occ: &[u64], start: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let (first_w, last_w) = (start >> 6, (end - 1) >> 6);
    let lo_mask = !0u64 << (start & 63);
    let hi_mask = !0u64 >> (63 - ((end - 1) & 63));
    if first_w == last_w {
        return (occ[first_w] & lo_mask & hi_mask).count_ones() as usize;
    }
    let mut total = (occ[first_w] & lo_mask).count_ones() as usize;
    for w in &occ[first_w + 1..last_w] {
        total += w.count_ones() as usize;
    }
    total + (occ[last_w] & hi_mask).count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_nonzero_finds_every_byte_at_every_alignment() {
        for len in [0usize, 1, 7, 8, 9, 23, 64] {
            for hot in 0..=len {
                // One nonzero byte at `hot` (none when `hot == len`).
                let mut bytes = vec![0u8; len];
                if hot < len {
                    bytes[hot] = 1;
                }
                for from in 0..=len {
                    let expect = if from <= hot { hot } else { len };
                    assert_eq!(next_nonzero(&bytes, from), expect, "{len} {hot} {from}");
                }
            }
        }
    }

    #[test]
    fn set_test_clear() {
        let mut occ = vec![0u64; words_for(130)];
        assert!(!test(&occ, 129));
        assert!(!set(&mut occ, 129));
        assert!(set(&mut occ, 129), "second set reports prior occupancy");
        assert!(test(&occ, 129));
        clear_all(&mut occ);
        assert!(!test(&occ, 129));
    }

    #[test]
    fn pack_bytes_orders_bit_j_from_byte_j() {
        let mut bytes = [0u8; 64];
        bytes[0] = 1;
        bytes[9] = 1;
        bytes[63] = 1;
        assert_eq!(pack_bytes(&bytes), 1 | 1 << 9 | 1 << 63);
        // Short tail path.
        assert_eq!(pack_bytes(&[1, 0, 1]), 0b101);
        // Exhaustive single-bit check.
        for j in 0..64 {
            let mut b = [0u8; 64];
            b[j] = 1;
            assert_eq!(pack_bytes(&b), 1u64 << j, "byte {j}");
        }
    }

    #[test]
    fn popcount_over_unaligned_ranges() {
        let mut occ = vec![0u64; words_for(256)];
        for i in (0..256).step_by(3) {
            set(&mut occ, i);
        }
        for start in [0usize, 1, 63, 64, 65, 100] {
            for len in [0usize, 1, 5, 64, 120] {
                if start + len > 256 {
                    continue;
                }
                let expect = (start..start + len).filter(|i| i % 3 == 0).count();
                assert_eq!(popcount_range(&occ, start, len), expect, "[{start}; {len})");
            }
        }
    }
}
