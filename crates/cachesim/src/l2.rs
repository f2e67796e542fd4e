//! Private per-core L2 cache.
//!
//! Storage uses the same struct-of-arrays layout as the LLC (see
//! `llc.rs`): contiguous per-line compact `u32` tags (`line >> log2(sets)`,
//! see the `tag` module), per-set valid/dirty bitmasks, and a
//! nibble-packed per-set LRU recency list (see [`crate::order`]) instead
//! of a global `u64` tick plus full-set scan. A lookup compares every way
//! of the set at once and ANDs the match mask with the valid bits.

use crate::geometry::CacheGeometry;
use crate::order;
use crate::tag;

/// Result of an L2 access-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// The access hit in L2.
    pub hit: bool,
    /// On a miss, the line address of a dirty victim that must be written
    /// back to the LLC (non-inclusive hierarchy).
    pub dirty_victim: Option<u64>,
}

/// A private, unpartitioned, LRU set-associative cache (the Xeon 6140's
/// 1 MB 16-way L2).
///
/// The L2 filters core traffic before it reaches the LLC: a workload whose
/// working set fits in L2 barely touches the LLC and is therefore
/// insensitive to LLC allocation — the reason the paper's X-Mem experiments
/// start at working sets above the L2 size.
///
/// ```
/// use iat_cachesim::{CacheGeometry, L2Cache};
/// let mut l2 = L2Cache::new(CacheGeometry::xeon_6140_l2());
/// assert!(!l2.access(0x80, false).hit);
/// assert!(l2.access(0x80, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    geom: CacheGeometry,
    /// Associativity, cached as `usize` for indexing.
    ways: usize,
    /// `log2(sets)`: the line-number bits the set index supplies.
    set_bits: u32,
    /// Per-line compact tags (`line >> set_bits`), set-major.
    tags: Vec<u32>,
    /// Per-set packed LRU recency lists (see [`crate::order`]).
    order: Vec<u64>,
    /// Per-set valid bitmasks.
    valid: Vec<u32>,
    /// Per-set dirty bitmasks.
    dirty: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Creates an empty L2.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than one slice (L2s are private and
    /// unsliced) or more ways than the packed LRU list supports (16).
    /// Accessing an address above [`CacheGeometry::max_tagged_addr`]
    /// panics ("address beyond the cache's 32-bit tag range").
    pub fn new(geom: CacheGeometry) -> Self {
        assert_eq!(geom.slices(), 1, "L2 caches are unsliced");
        let ways = geom.ways() as usize;
        assert!(ways <= order::MAX_WAYS, "packed LRU list supports at most 16 ways");
        let n = geom.total_lines() as usize;
        L2Cache {
            geom,
            ways,
            set_bits: geom.set_bits(),
            tags: vec![0; n],
            order: vec![order::IDENTITY; n / ways],
            valid: vec![0; n / ways],
            dirty: vec![0; n / ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses served (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// The set `addr` maps to.
    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        self.geom.set_of(addr) as usize
    }

    /// Whether `set` holds no valid line.
    #[inline]
    pub(crate) fn set_is_empty(&self, set: usize) -> bool {
        self.valid[set] == 0
    }

    /// Bitmask of the valid ways of `set` that hold `tag` (at most one).
    #[inline]
    fn lookup(&self, set: usize, tag: u32) -> u32 {
        let base = set * self.ways;
        tag::match_ways(&self.tags[base..base + self.ways], tag) & self.valid[set]
    }

    /// Makes `way` the most recently used line of its set (same packed
    /// recency-list scheme as the LLC).
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let o = self.order[set];
        self.order[set] = order::promote(o, order::pos_of(o, way), way);
    }

    /// Accesses `addr`; on a miss the line is filled (replacing the LRU way)
    /// and a dirty victim, if any, is reported for write-back to the LLC.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> L2Outcome {
        let tag = tag::tag_of(addr, self.set_bits);
        let set = self.set_of(addr);
        let hit = self.lookup(set, tag);
        if hit != 0 {
            self.touch(set, hit.trailing_zeros() as usize);
            if write {
                self.dirty[set] |= hit;
            }
            self.hits += 1;
            return L2Outcome { hit: true, dirty_victim: None };
        }
        self.misses += 1;
        let base = set * self.ways;
        // Victim: lowest invalid way, else LRU (the oldest recency slot).
        let full = (1u32 << self.ways) - 1;
        let invalid = full & !self.valid[set];
        let victim = if invalid != 0 {
            invalid.trailing_zeros() as usize
        } else {
            order::at(self.order[set], self.ways as u32 - 1)
        };
        let bit = 1u32 << victim;
        let was_valid = self.valid[set] & bit != 0;
        let dirty_victim = (was_valid && self.dirty[set] & bit != 0)
            .then(|| tag::line_addr(self.tags[base + victim], set, self.set_bits));
        self.valid[set] |= bit;
        if write {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.tags[base + victim] = tag;
        self.touch(set, victim);
        L2Outcome { hit: false, dirty_victim }
    }

    /// Invalidates the line containing `addr` if resident, returning `true`
    /// if it was dirty (used when DDIO-written data supersedes stale copies).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let tag = tag::tag_of(addr, self.set_bits);
        let set = self.set_of(addr);
        // An empty set cannot hold the line: skip reading its tag row.
        if self.valid[set] == 0 {
            return false;
        }
        let bit = self.lookup(set, tag);
        let dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        dirty
    }

    /// FNV-1a digest over the complete cache body: every valid line's
    /// address (as a `u64` line address), the valid and dirty bits and
    /// the LRU order of every set. Two L2s with equal digests hold the
    /// same lines in the same ways, equally dirty and equally aged.
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for set in 0..self.valid.len() {
            h = eat(h, self.valid[set] as u64);
            h = eat(h, self.dirty[set] as u64);
            h = eat(h, self.order[set]);
            let base = set * self.ways;
            for w in 0..self.ways {
                if self.valid[set] & (1 << w) != 0 {
                    h = eat(h, tag::line_addr(self.tags[base + w], set, self.set_bits));
                }
            }
        }
        h
    }

    /// Drops all contents and statistics.
    pub fn clear(&mut self) {
        self.valid.fill(0);
        self.dirty.fill(0);
        self.order.fill(order::IDENTITY);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_l2() -> L2Cache {
        L2Cache::new(CacheGeometry::new(2, 4, 1).unwrap())
    }

    #[test]
    fn hit_after_fill() {
        let mut l2 = tiny_l2();
        assert!(!l2.access(0x100, false).hit);
        assert!(l2.access(0x100, false).hit);
        assert_eq!(l2.hits(), 1);
        assert_eq!(l2.misses(), 1);
        assert_eq!(l2.accesses(), 2);
    }

    #[test]
    fn dirty_victim_reported() {
        let mut l2 = tiny_l2();
        let geom = *l2.geometry();
        // Three conflicting addresses in a 2-way set.
        let mut addrs = vec![0u64];
        let mut x = 64u64;
        while addrs.len() < 3 {
            if geom.index(x).1 == geom.index(0).1 {
                addrs.push(x);
            }
            x += 64;
        }
        l2.access(addrs[0], true); // dirty
        l2.access(addrs[1], false);
        let o = l2.access(addrs[2], false); // evicts addrs[0], dirty
        assert_eq!(o.dirty_victim, Some(addrs[0]));
    }

    #[test]
    fn clean_victim_not_reported() {
        let mut l2 = tiny_l2();
        let geom = *l2.geometry();
        let mut addrs = vec![0u64];
        let mut x = 64u64;
        while addrs.len() < 3 {
            if geom.index(x).1 == geom.index(0).1 {
                addrs.push(x);
            }
            x += 64;
        }
        l2.access(addrs[0], false);
        l2.access(addrs[1], false);
        let o = l2.access(addrs[2], false);
        assert_eq!(o.dirty_victim, None);
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut l2 = tiny_l2();
        l2.access(0x200, true);
        assert!(l2.invalidate(0x200));
        assert!(!l2.access(0x200, false).hit, "invalidated line must miss");
        assert!(!l2.invalidate(0x999), "absent line");
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let mut l2 = tiny_l2();
        l2.access(0x200, true);
        l2.access(0x200, false);
        l2.clear();
        assert_eq!(l2.hits(), 0);
        assert_eq!(l2.misses(), 0);
        assert!(!l2.access(0x200, false).hit, "cleared line must miss");
    }

    #[test]
    #[should_panic(expected = "unsliced")]
    fn sliced_geometry_rejected() {
        let _ = L2Cache::new(CacheGeometry::tiny());
    }
}
