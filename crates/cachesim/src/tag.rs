//! Compact 32-bit cache tags and the branch-free set probe.
//!
//! A line's set index already names its low `log2(sets)` line-number
//! bits, so a cache only stores the rest: `tag = line >> log2(sets)`,
//! where `line = addr / LINE_BYTES`. In the LLC the slice comes from a
//! hash of the whole line number, so a `(slice, set, tag)` triple still
//! names exactly one line. Thirty-two tag bits cover every address below
//! `2^(32 + log2(sets) + 6)` ([`crate::CacheGeometry::max_tagged_addr`]):
//! 2^48 bytes (256 TiB) for the Xeon 6140's 1024-set L2 and 2^49 for its
//! 2048-set LLC slices. An address beyond that range panics with
//! [`OUT_OF_RANGE`] instead of aliasing another line.

use crate::LINE_BYTES;

/// The panic message of an address beyond a cache's 32-bit tag range.
pub(crate) const OUT_OF_RANGE: &str = "address beyond the cache's 32-bit tag range";

/// Way `w`'s bit in a per-set way mask, as a table: the probe loop ORs in
/// a loaded constant instead of shifting by the loop counter, which lets
/// it compile to packed compares.
const WAY_BIT: [u32; crate::order::MAX_WAYS] = {
    let mut bits = [0u32; crate::order::MAX_WAYS];
    let mut w = 0;
    while w < bits.len() {
        bits[w] = 1 << w;
        w += 1;
    }
    bits
};

/// The compact tag of `addr` in a cache with `2^set_bits` sets (per slice).
///
/// # Panics
///
/// Panics with [`OUT_OF_RANGE`] if the tag does not fit in 32 bits.
#[inline]
pub(crate) fn tag_of(addr: u64, set_bits: u32) -> u32 {
    let tag = (addr / LINE_BYTES) >> set_bits;
    assert!(tag <= u32::MAX as u64, "{OUT_OF_RANGE}: {addr:#x}");
    tag as u32
}

/// The line-aligned address a `(tag, set)` pair names: the inverse of
/// [`tag_of`] up to the byte offset within the line.
#[inline]
pub(crate) fn line_addr(tag: u32, set: usize, set_bits: u32) -> u64 {
    (((tag as u64) << set_bits) | set as u64) * LINE_BYTES
}

/// Bitmask of the ways of `row` (one set's tags) that hold `tag`, valid
/// or not: every way is compared, with no early exit, and the caller ANDs
/// the result with the set's valid bits.
#[inline]
pub(crate) fn match_ways(row: &[u32], tag: u32) -> u32 {
    debug_assert!(row.len() <= WAY_BIT.len());
    let mut hits = 0;
    for (&t, &bit) in row.iter().zip(&WAY_BIT) {
        hits |= if t == tag { bit } else { 0 };
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_and_set_round_trip() {
        let set_bits = 10;
        for addr in [0u64, 0x40, 0x1234_5678, (1 << 48) - 1] {
            let set = (addr / LINE_BYTES) as usize & ((1 << set_bits) - 1);
            let tag = tag_of(addr, set_bits);
            assert_eq!(line_addr(tag, set, set_bits), crate::line_of(addr));
        }
    }

    #[test]
    #[should_panic(expected = "32-bit tag range")]
    fn tag_beyond_range_panics() {
        tag_of(1 << 48, 10);
    }

    #[test]
    fn match_ways_reports_every_equal_way() {
        let row = [7, 3, 7, 0, 9, 7, 1, 2, 3, 4, 7];
        assert_eq!(match_ways(&row, 7), 0b100_0010_0101);
        assert_eq!(match_ways(&row, 5), 0);
        assert_eq!(match_ways(&[5; 16], 5), 0xFFFF);
    }
}
