//! Cache geometry: associativity, sets, slices.

use crate::error::{Error, Result};
use crate::LINE_BYTES;

/// Shape of a set-associative cache.
///
/// For the LLC the cache is additionally split into `slices` (one per core
/// on Intel server CPUs, each managed by a CHA); addresses are distributed
/// over slices by a hash so that traffic from both cores and DDIO spreads
/// evenly — the property the paper exploits to sample a single slice's CHA
/// counters and multiply by the slice count.
///
/// ```
/// use iat_cachesim::CacheGeometry;
/// let g = CacheGeometry::xeon_6140_llc();
/// assert_eq!(g.ways(), 11);
/// assert_eq!(g.slices(), 18);
/// assert_eq!(g.total_bytes(), 25_344 * 1024); // 24.75 MiB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    ways: u8,
    sets_per_slice: u32,
    slices: u16,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGeometry`] if any parameter is zero, if
    /// `ways > 32`, or if `sets_per_slice` is not a power of two (set-index
    /// extraction requires it).
    pub fn new(ways: u8, sets_per_slice: u32, slices: u16) -> Result<Self> {
        if ways == 0 || ways > 32 {
            return Err(Error::InvalidGeometry { field: "ways", value: ways as u64 });
        }
        if sets_per_slice == 0 || !sets_per_slice.is_power_of_two() {
            return Err(Error::InvalidGeometry {
                field: "sets_per_slice",
                value: sets_per_slice as u64,
            });
        }
        if slices == 0 {
            return Err(Error::InvalidGeometry { field: "slices", value: 0 });
        }
        Ok(CacheGeometry { ways, sets_per_slice, slices })
    }

    /// The LLC of the paper's Intel Xeon Gold 6140 (Table I): 11-way,
    /// 24.75 MB, non-inclusive, split into 18 slices of 2048 sets each.
    pub fn xeon_6140_llc() -> Self {
        CacheGeometry { ways: 11, sets_per_slice: 2048, slices: 18 }
    }

    /// The per-core L2 of the Xeon Gold 6140: 16-way, 1 MB.
    pub fn xeon_6140_l2() -> Self {
        CacheGeometry { ways: 16, sets_per_slice: 1024, slices: 1 }
    }

    /// A small geometry handy for unit tests (4-way, 2 slices, 16 KB).
    pub fn tiny() -> Self {
        CacheGeometry { ways: 4, sets_per_slice: 32, slices: 2 }
    }

    /// Associativity (number of ways).
    pub fn ways(&self) -> u8 {
        self.ways
    }

    /// Number of sets in each slice.
    pub fn sets_per_slice(&self) -> u32 {
        self.sets_per_slice
    }

    /// Number of slices.
    pub fn slices(&self) -> u16 {
        self.slices
    }

    /// Total number of cache lines.
    pub fn total_lines(&self) -> u64 {
        self.ways as u64 * self.sets_per_slice as u64 * self.slices as u64
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_lines() * LINE_BYTES
    }

    /// Capacity in bytes of a single way across all slices.
    ///
    /// This is the granularity at which CAT and the DDIO ways register
    /// partition the LLC: the Xeon 6140's way is 2.25 MB.
    pub fn way_bytes(&self) -> u64 {
        self.sets_per_slice as u64 * self.slices as u64 * LINE_BYTES
    }

    /// `log2(sets_per_slice)`: the line-number bits the set index holds.
    #[inline]
    pub(crate) fn set_bits(&self) -> u32 {
        self.sets_per_slice.trailing_zeros()
    }

    /// The set (within its slice) of `addr`: the low line-number bits.
    #[inline]
    pub(crate) fn set_of(&self, addr: u64) -> u32 {
        ((addr / LINE_BYTES) as u32) & (self.sets_per_slice - 1)
    }

    /// The largest address this geometry's 32-bit cache tags cover:
    /// `2^(32 + log2(sets_per_slice) + 6) - 1`, capped at `u64::MAX`.
    /// That is 2^48 - 1 for the Xeon 6140's L2 and 2^49 - 1 for its LLC;
    /// accessing a cache beyond it panics ("address beyond the cache's
    /// 32-bit tag range").
    ///
    /// ```
    /// use iat_cachesim::CacheGeometry;
    /// assert_eq!(CacheGeometry::xeon_6140_l2().max_tagged_addr(), (1 << 48) - 1);
    /// assert_eq!(CacheGeometry::xeon_6140_llc().max_tagged_addr(), (1 << 49) - 1);
    /// ```
    pub fn max_tagged_addr(&self) -> u64 {
        let bits = 32 + self.set_bits() + LINE_BYTES.trailing_zeros();
        u64::MAX >> 64u32.saturating_sub(bits)
    }

    /// Maps a line address to `(slice, set)`.
    ///
    /// The slice hash XOR-folds the upper address bits, modelling Intel's
    /// (undocumented, reverse-engineered) complex addressing whose relevant
    /// property is an even spread of both core and DDIO traffic across
    /// slices.
    #[inline]
    pub fn index(&self, addr: u64) -> (u16, u32) {
        let line = addr / LINE_BYTES;
        let set = self.set_of(addr);
        // Hash the full line number for slice selection (Intel's complex
        // addressing also draws on low address bits, which is what makes
        // sequential streams spread evenly over slices).
        let mut h = line;
        h ^= h >> 17;
        h ^= h >> 7;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        let slice = (h % self.slices as u64) as u16;
        (slice, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_capacity_matches_table_1() {
        let g = CacheGeometry::xeon_6140_llc();
        assert_eq!(g.total_bytes(), 25_344 * 1024); // 24.75 MB
        assert_eq!(g.way_bytes(), 2_304 * 1024); // 2.25 MB per way
        let l2 = CacheGeometry::xeon_6140_l2();
        assert_eq!(l2.total_bytes(), 1024 * 1024);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(CacheGeometry::new(0, 64, 1).is_err());
        assert!(CacheGeometry::new(33, 64, 1).is_err());
        assert!(CacheGeometry::new(4, 63, 1).is_err());
        assert!(CacheGeometry::new(4, 64, 0).is_err());
        assert!(CacheGeometry::new(4, 64, 1).is_ok());
    }

    #[test]
    fn index_in_range() {
        let g = CacheGeometry::xeon_6140_llc();
        for i in 0..10_000u64 {
            let (slice, set) = g.index(i * 64);
            assert!(slice < g.slices());
            assert!(set < g.sets_per_slice());
        }
    }

    #[test]
    fn slice_hash_spreads_evenly() {
        // Sequential lines must spread over slices within ~15% of uniform,
        // the property IAT's one-slice CHA sampling relies on.
        let g = CacheGeometry::xeon_6140_llc();
        let n = 1_000_000u64;
        let mut counts = vec![0u64; g.slices() as usize];
        for i in 0..n {
            let (slice, _) = g.index(i * 64);
            counts[slice as usize] += 1;
        }
        let expect = n / g.slices() as u64;
        for &c in &counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect * 15 / 100,
                "slice count {c} far from uniform {expect}"
            );
        }
    }

    #[test]
    fn same_line_same_index() {
        let g = CacheGeometry::tiny();
        assert_eq!(g.index(0x1000), g.index(0x1001));
        assert_eq!(g.index(0x1000), g.index(0x103F));
    }
}
