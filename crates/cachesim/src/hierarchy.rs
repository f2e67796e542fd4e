//! The full memory hierarchy: per-core L2s in front of the shared LLC.

use crate::agent::AgentId;
use crate::geometry::CacheGeometry;
use crate::l2::L2Cache;
use crate::latency::{AccessLevel, LatencyModel};
use crate::llc::{CoreOp, Llc};
use crate::mask::WayMask;
use crate::memory::MemCounters;
use crate::stats::IoOutcome;

/// Per-core state: the private L2.
///
/// Exposed read-only through [`MemoryHierarchy::core`] so experiments can
/// inspect L2 hit/miss counts.
#[derive(Debug, Clone)]
pub struct CoreCache {
    l2: L2Cache,
}

impl CoreCache {
    /// The core's private L2.
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }
}

/// A socket's memory hierarchy: `n` cores with private L2s sharing one
/// sliced LLC with DDIO.
///
/// All core traffic flows L2 → LLC → memory; DDIO traffic flows directly
/// into the LLC (devices bypass private caches). On a DDIO write the
/// hierarchy invalidates any stale private copy, as the coherence protocol
/// would. An exact per-L2-set presence summary (one core bitmask per set)
/// limits that invalidation to the L2s that hold any line of the written
/// line's set, so a DMA write does not probe every core.
///
/// # Example
///
/// ```
/// use iat_cachesim::{AccessLevel, AgentId, CacheGeometry, CoreOp,
///                    LatencyModel, MemoryHierarchy, WayMask};
/// let mut h = MemoryHierarchy::xeon_6140(4);
/// let t = AgentId::new(0);
/// let mask = WayMask::contiguous(0, 2).unwrap();
/// let lvl = h.core_access(0, t, mask, 0x1000, CoreOp::Read);
/// assert_eq!(lvl, AccessLevel::Memory);          // cold miss
/// let lvl = h.core_access(0, t, mask, 0x1000, CoreOp::Read);
/// assert_eq!(lvl, AccessLevel::L2);              // now in L2
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    llc: Llc,
    cores: Vec<CoreCache>,
    /// The geometry every core's L2 shares.
    l2_geom: CacheGeometry,
    /// Per-L2-set presence summary: bit `c` of `present[set]` is set iff
    /// core `c`'s L2 holds at least one valid line in `set`. Set on every
    /// L2 fill, cleared when an invalidation empties the set; L2 sets
    /// only fill on a miss and only empty by invalidation, so the bits
    /// stay exact.
    present: Vec<u64>,
    latency: LatencyModel,
    /// Scratch for [`Self::core_access_cycles_batch`]: positions of ops
    /// that missed L2, paired with their LLC batch handles.
    pending: Vec<(u32, crate::llc::BatchHandle)>,
}

impl MemoryHierarchy {
    /// Builds a hierarchy with explicit geometries.
    ///
    /// # Panics
    ///
    /// Panics if `core_count` exceeds 64 (the width of the per-set
    /// presence summary) or if [`L2Cache::new`] rejects `l2_geom`.
    pub fn new(
        llc_geom: CacheGeometry,
        l2_geom: CacheGeometry,
        core_count: usize,
        latency: LatencyModel,
    ) -> Self {
        assert!(
            core_count <= u64::BITS as usize,
            "the L2 presence summary supports at most 64 cores, got {core_count}"
        );
        let cores = (0..core_count).map(|_| CoreCache { l2: L2Cache::new(l2_geom) }).collect();
        MemoryHierarchy {
            llc: Llc::new(llc_geom),
            cores,
            l2_geom,
            present: vec![0; l2_geom.sets_per_slice() as usize],
            latency,
            pending: Vec::new(),
        }
    }

    /// The paper's Xeon Gold 6140 hierarchy (Table I) with `core_count`
    /// cores and default latencies.
    pub fn xeon_6140(core_count: usize) -> Self {
        Self::new(
            CacheGeometry::xeon_6140_llc(),
            CacheGeometry::xeon_6140_l2(),
            core_count,
            LatencyModel::default(),
        )
    }

    /// A small hierarchy for tests: tiny LLC, tiny L2s.
    pub fn tiny(core_count: usize) -> Self {
        Self::new(
            CacheGeometry::tiny(),
            CacheGeometry::new(2, 8, 1).expect("valid geometry"),
            core_count,
            LatencyModel::default(),
        )
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Read-only view of one core's private caches.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &CoreCache {
        &self.cores[core]
    }

    /// The shared LLC.
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Memory traffic counters (fills + writebacks + uncached I/O reads).
    pub fn mem(&self) -> &MemCounters {
        self.llc.mem()
    }

    /// Total cache operations simulated across the hierarchy: every L2
    /// access plus every LLC operation (demand fills after L2 misses,
    /// writebacks, and DDIO traffic). Monotonic — the numerator for
    /// simulated-accesses-per-second throughput reporting.
    pub fn accesses(&self) -> u64 {
        self.llc.accesses() + self.cores.iter().map(|c| c.l2.accesses()).sum::<u64>()
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Performs a core access through the full hierarchy and reports the
    /// level that served it.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; panics in debug builds if
    /// `alloc_mask` is empty.
    #[inline]
    pub fn core_access(
        &mut self,
        core: usize,
        agent: AgentId,
        alloc_mask: WayMask,
        addr: u64,
        op: CoreOp,
    ) -> AccessLevel {
        let l2 = &mut self.cores[core].l2;
        let out = l2.access(addr, op == CoreOp::Write);
        if out.hit {
            return AccessLevel::L2;
        }
        self.present[self.l2_geom.set_of(addr) as usize] |= 1 << core;
        if let Some(victim) = out.dirty_victim {
            self.llc.core_writeback(agent, alloc_mask, victim);
        }
        match self.llc.core_access(agent, alloc_mask, addr, op) {
            crate::stats::AccessOutcome::Hit => AccessLevel::Llc,
            crate::stats::AccessOutcome::Miss { .. } => AccessLevel::Memory,
        }
    }

    /// Cycle cost of a core access (convenience over [`Self::core_access`]).
    pub fn core_access_cycles(
        &mut self,
        core: usize,
        agent: AgentId,
        alloc_mask: WayMask,
        addr: u64,
        op: CoreOp,
    ) -> u32 {
        let level = self.core_access(core, agent, alloc_mask, addr, op);
        self.latency.cycles(level)
    }

    /// Resolves a window of core accesses through the batched LLC pipeline.
    ///
    /// The (cheap, per-core) L2 stage runs serially in issue order; L2
    /// misses are enqueued into the LLC's slice buckets and resolved at a
    /// single flush. `costs` is overwritten with the per-op cycle cost, in
    /// op order. Equivalent to calling [`Self::core_access_cycles`] per op
    /// — the addresses in a window must therefore not depend on earlier
    /// ops' outcomes (callers window their streams so this holds).
    pub fn core_access_cycles_batch(
        &mut self,
        core: usize,
        agent: AgentId,
        alloc_mask: WayMask,
        ops: &[(u64, CoreOp)],
        costs: &mut Vec<u32>,
    ) {
        costs.clear();
        let mut pending = std::mem::take(&mut self.pending);
        debug_assert!(pending.is_empty());
        let l2 = &mut self.cores[core].l2;
        for (i, &(addr, op)) in ops.iter().enumerate() {
            let out = l2.access(addr, op == CoreOp::Write);
            if out.hit {
                costs.push(self.latency.l2_cycles);
                continue;
            }
            self.present[self.l2_geom.set_of(addr) as usize] |= 1 << core;
            if let Some(victim) = out.dirty_victim {
                self.llc.batch_core_writeback(agent, alloc_mask, victim);
            }
            let h = self.llc.batch_core_access(agent, alloc_mask, addr, op);
            pending.push((i as u32, h));
            costs.push(0);
        }
        self.llc.batch_flush();
        for &(i, h) in &pending {
            costs[i as usize] = if self.llc.batch_hit(h) {
                self.latency.llc_cycles
            } else {
                self.latency.memory_cycles
            };
        }
        pending.clear();
        self.pending = pending;
    }

    /// Invalidates every private copy of `addr` ahead of a DDIO write,
    /// probing only the L2s whose presence bit for the line's set is set
    /// (a core without it holds nothing in that set, so no copy).
    #[inline]
    fn invalidate_private(&mut self, addr: u64) {
        let set = self.l2_geom.set_of(addr) as usize;
        let mut holders = self.present[set];
        while holders != 0 {
            let core = holders.trailing_zeros() as usize;
            holders &= holders - 1;
            let l2 = &mut self.cores[core].l2;
            l2.invalidate(addr);
            if l2.set_is_empty(set) {
                self.present[set] &= !(1 << core);
            }
        }
    }

    /// Enqueues an inbound DDIO write into the batched LLC pipeline; stale
    /// private copies are invalidated immediately (invalidation does not
    /// depend on, or alter, LLC state). Resolve with [`Self::batch_flush`].
    #[inline]
    pub fn batch_io_write(&mut self, ddio_mask: WayMask, addr: u64) {
        self.invalidate_private(addr);
        self.llc.batch_io_write(ddio_mask, addr);
    }

    /// Enqueues a device read into the batched LLC pipeline.
    #[inline]
    pub fn batch_io_read(&mut self, addr: u64) {
        self.llc.batch_io_read(addr);
    }

    /// Resolves all enqueued batched I/O operations.
    #[inline]
    pub fn batch_flush(&mut self) {
        self.llc.batch_flush();
    }

    /// Inbound DDIO write of one line; stale private copies are invalidated.
    #[inline]
    pub fn io_write(&mut self, ddio_mask: WayMask, addr: u64) -> IoOutcome {
        self.invalidate_private(addr);
        self.llc.io_write(ddio_mask, addr)
    }

    /// Device read of one line (never allocates in the LLC).
    ///
    /// If a private cache holds the line dirty the coherence protocol would
    /// source the data from there; the LLC outcome is still what the CHA
    /// counters observe, so we keep the LLC path authoritative.
    #[inline]
    pub fn io_read(&mut self, addr: u64) -> IoOutcome {
        self.llc.io_read(addr)
    }

    /// Resets all statistics (LLC + memory) but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.llc.reset_stats();
    }

    /// Switches the LLC's statistic accrual on or off (functional-warmup
    /// mode for sampled execution). See [`Llc::set_stats_frozen`]. L2 hit
    /// and access counters stay live either way: they feed the simulator
    /// work counter ([`MemoryHierarchy::accesses`]), not measured metrics.
    pub fn set_stats_frozen(&mut self, frozen: bool) {
        self.llc.set_stats_frozen(frozen);
    }

    /// Whether LLC statistic accrual is currently frozen.
    pub fn stats_frozen(&self) -> bool {
        self.llc.stats_frozen()
    }

    /// Recounts per-agent LLC occupancy from the resident lines (stale
    /// after a frozen span). See [`Llc::repair_occupancy`].
    pub fn repair_occupancy(&mut self) {
        self.llc.repair_occupancy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_filters_llc_traffic() {
        let mut h = MemoryHierarchy::tiny(1);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        h.core_access(0, t, m, 0x40, CoreOp::Read);
        let refs_before = h.llc().stats().agent(t).references;
        // Repeated hits stay in L2 and never reach the LLC.
        for _ in 0..10 {
            assert_eq!(h.core_access(0, t, m, 0x40, CoreOp::Read), AccessLevel::L2);
        }
        assert_eq!(h.llc().stats().agent(t).references, refs_before);
    }

    #[test]
    fn llc_hit_after_l2_eviction() {
        let mut h = MemoryHierarchy::tiny(1);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        // Touch enough lines to overflow the tiny 2-way/8-set (1 KB) L2 but
        // stay within the 16 KB LLC.
        let lines = 64u64;
        for i in 0..lines {
            h.core_access(0, t, m, i * 64, CoreOp::Read);
        }
        // Re-touch the first line: gone from L2, still in LLC.
        let lvl = h.core_access(0, t, m, 0, CoreOp::Read);
        assert_eq!(lvl, AccessLevel::Llc);
    }

    #[test]
    fn ddio_write_invalidates_private_copies() {
        let mut h = MemoryHierarchy::tiny(2);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        h.core_access(0, t, m, 0x80, CoreOp::Read);
        h.io_write(WayMask::single(3), 0x80);
        // The next core access must not be served by a stale L2 line.
        let lvl = h.core_access(0, t, m, 0x80, CoreOp::Read);
        assert_eq!(lvl, AccessLevel::Llc);
    }

    #[test]
    fn dirty_l2_victim_written_back_to_llc() {
        let mut h = MemoryHierarchy::tiny(1);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        h.core_access(0, t, m, 0, CoreOp::Write);
        // Overflow L2 so line 0 gets evicted (dirty).
        for i in 1..64u64 {
            h.core_access(0, t, m, i * 64, CoreOp::Read);
        }
        // Line 0 must be findable in the LLC and dirty there (write-back
        // hits the already-resident copy or re-installs it).
        assert!(h.llc().contains(0));
    }

    #[test]
    fn batched_core_window_matches_serial() {
        let mut serial = MemoryHierarchy::tiny(1);
        let mut batched = MemoryHierarchy::tiny(1);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        let addr = |i: u64| (i.wrapping_mul(0x5851_F42D)) % (1 << 13) * 64;
        let mut costs = Vec::new();
        for window in 0..32u64 {
            let ops: Vec<(u64, CoreOp)> = (0..17)
                .map(|j| {
                    let i = window * 17 + j;
                    let op = if i % 3 == 0 { CoreOp::Write } else { CoreOp::Read };
                    (addr(i), op)
                })
                .collect();
            let want: Vec<u32> = ops
                .iter()
                .map(|&(a, op)| serial.core_access_cycles(0, t, m, a, op))
                .collect();
            batched.core_access_cycles_batch(0, t, m, &ops, &mut costs);
            assert_eq!(costs, want, "window {window}");
        }
        assert_eq!(serial.accesses(), batched.accesses());
        assert_eq!(serial.mem(), batched.mem());
        assert_eq!(
            serial.llc().state_digest(),
            batched.llc().state_digest(),
            "LLC state must be bit-identical"
        );
    }

    #[test]
    fn batched_io_matches_serial() {
        let mut serial = MemoryHierarchy::tiny(2);
        let mut batched = MemoryHierarchy::tiny(2);
        let t = AgentId::new(0);
        let m = WayMask::all(4);
        let ddio = WayMask::contiguous(2, 2).unwrap();
        // Seed both with some core state so invalidations matter.
        for i in 0..64u64 {
            serial.core_access(0, t, m, i * 64, CoreOp::Write);
            batched.core_access(0, t, m, i * 64, CoreOp::Write);
        }
        for burst in 0..16u64 {
            for j in 0..40u64 {
                let a = (burst * 40 + j) % 96 * 64;
                if j % 4 == 3 {
                    serial.io_read(a);
                    batched.batch_io_read(a);
                } else {
                    serial.io_write(ddio, a);
                    batched.batch_io_write(ddio, a);
                }
            }
            batched.batch_flush();
        }
        assert_eq!(serial.accesses(), batched.accesses());
        assert_eq!(serial.mem(), batched.mem());
        assert_eq!(serial.llc().state_digest(), batched.llc().state_digest());
        assert_eq!(serial.llc().stats().ddio_hits(), batched.llc().stats().ddio_hits());
        assert_eq!(serial.llc().stats().ddio_misses(), batched.llc().stats().ddio_misses());
    }

    #[test]
    fn per_core_l2s_are_private() {
        let mut h = MemoryHierarchy::tiny(2);
        let t0 = AgentId::new(0);
        let t1 = AgentId::new(1);
        let m = WayMask::all(4);
        h.core_access(0, t0, m, 0x40, CoreOp::Read);
        // Core 1 misses its own L2 (hits LLC instead).
        let lvl = h.core_access(1, t1, m, 0x40, CoreOp::Read);
        assert_eq!(lvl, AccessLevel::Llc);
        assert_eq!(h.core(0).l2().hits(), 0);
    }
}
