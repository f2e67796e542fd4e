//! The workload execution contract: contexts, results, and the
//! [`Workload`] trait.

use iat_cachesim::{AgentId, CoreOp, MemoryHierarchy, WayMask};
use iat_netsim::{RxRing, VirtualFunction};
use std::fmt;

/// Index of an inter-workload channel (a virtio-style queue pair endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan({})", self.0)
    }
}

/// One direction of a virtio-style shared-memory queue between two
/// workloads (e.g. OVS → tenant).
///
/// Unlike a VF ring, data moves through a channel by *core* copies: the
/// producer writes payload lines through its own CAT mask, so channels
/// exercise the cache like the shared-memory rings of a real virtual
/// switch.
#[derive(Debug, Clone)]
pub struct Channel {
    /// The backing ring (slot metadata + buffer/descriptor addresses).
    pub ring: RxRing,
}

/// The set of channels in the system, owned by the platform and lent to
/// every workload during its slice.
#[derive(Debug, Clone, Default)]
pub struct Channels {
    channels: Vec<Channel>,
}

impl Channels {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a channel and returns its id.
    pub fn add(&mut self, ring: RxRing) -> ChannelId {
        self.channels.push(Channel { ring });
        ChannelId(self.channels.len() - 1)
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if no channels exist.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Borrows a channel.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0]
    }

    /// Mutably borrows a channel.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get_mut(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.channels[id.0]
    }
}

/// Everything a workload may touch during one scheduling slice.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// The memory hierarchy every access resolves against. Direct use
    /// (`core_access_cycles`) skips phase observation — the per-packet
    /// path of the networking workloads, which never fed the observer.
    pub cache: &'a mut MemoryHierarchy,
    /// Inter-workload channels.
    pub channels: &'a mut Channels,
    /// The core this slice runs on.
    pub core: usize,
    /// The tenant's agent id (RMID) for cache attribution.
    pub agent: AgentId,
    /// The tenant's current CAT allocation mask.
    pub mask: WayMask,
    /// Cycles available in this slice.
    pub cycle_budget: u64,
}

impl ExecCtx<'_> {
    /// Convenience: performs a core read and returns its cycle cost.
    pub fn read(&mut self, addr: u64) -> u32 {
        crate::phase::observe(addr);
        self.cache.core_access_cycles(self.core, self.agent, self.mask, addr, CoreOp::Read)
    }

    /// Convenience: performs a core write and returns its cycle cost.
    pub fn write(&mut self, addr: u64) -> u32 {
        crate::phase::observe(addr);
        self.cache.core_access_cycles(self.core, self.agent, self.mask, addr, CoreOp::Write)
    }

    /// Whether application-level metrics (op counts, latency samples, drop
    /// counters) should accrue for work done now.
    ///
    /// `false` only during the functional-warmup epochs of a sampled run,
    /// when the hierarchy's statistics are frozen: the cache and the rings
    /// still evolve, but warmup work must not contaminate measured-window
    /// metrics. Functional state (RNGs, rings, tables) is **never** gated
    /// on this — only metric accrual is.
    #[inline]
    pub fn accrue(&self) -> bool {
        !self.cache.stats_frozen()
    }

    /// Upper bound on the cycle cost of a single core access — the window
    /// sizing bound for batched workload loops.
    #[inline]
    pub fn max_access_cycles(&self) -> u32 {
        let lat = self.cache.latency();
        lat.memory_cycles.max(lat.llc_cycles).max(lat.l2_cycles)
    }

    /// Resolves a window of core accesses in one batched LLC flush,
    /// overwriting `costs` with per-access cycle costs in op order.
    /// Bit-identical to issuing [`ExecCtx::read`]/[`ExecCtx::write`] per
    /// element.
    #[inline]
    pub fn access_batch(&mut self, ops: &[(u64, CoreOp)], costs: &mut Vec<u32>) {
        crate::phase::observe_ops(ops);
        self.cache.core_access_cycles_batch(self.core, self.agent, self.mask, ops, costs);
    }
}

/// What a workload reports back for one slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecResult {
    /// Instructions retired during the slice.
    pub instructions: u64,
    /// Cycles actually consumed (at most the budget).
    pub cycles_used: u64,
}

/// Coarse classification used by IAT's Get Tenant Info step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Drives or consumes device I/O (networking, in this paper).
    Network,
    /// Pure compute/memory workload.
    Compute,
}

/// Cumulative application-level metrics a workload exposes.
///
/// Units of `ops` are workload-specific (packets forwarded, KV operations,
/// X-Mem reads, instruction blocks); latency moments are in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadMetrics {
    /// Operations completed.
    pub ops: u64,
    /// Mean per-operation latency in cycles (0 when no ops).
    pub avg_op_cycles: f64,
    /// 99th-percentile per-operation latency in cycles (0 when no ops).
    pub p99_op_cycles: f64,
    /// Workload-level drops (e.g. packets lost at an internal queue).
    pub drops: u64,
}

/// A runnable workload model.
///
/// Implementations must be deterministic given their construction seed and
/// must never consume more than `ctx.cycle_budget` cycles.
pub trait Workload {
    /// Short human-readable name (e.g. `"x-mem"`, `"ovs"`).
    fn name(&self) -> &str;

    /// Whether this workload is I/O ("networking") for IAT's tenant info.
    fn kind(&self) -> WorkloadKind;

    /// Runs one scheduling slice.
    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult;

    /// Cumulative application metrics since the last reset.
    fn metrics(&self) -> WorkloadMetrics;

    /// Clears application metrics (between experiment phases).
    fn reset_metrics(&mut self);

    /// The VF ports this workload terminates, for the platform's DMA
    /// delivery and Tx drain. Compute workloads return an empty slice.
    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        &mut []
    }

    /// Downcasting hook so experiments can drive phase changes on concrete
    /// workload types (e.g. resize an X-Mem working set mid-run).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_indexing() {
        let mut ch = Channels::new();
        assert!(ch.is_empty());
        let a = ch.add(RxRing::new(0, 4, 2048));
        let b = ch.add(RxRing::new(0x10000, 8, 2048));
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.get(a).ring.capacity(), 4);
        assert_eq!(ch.get_mut(b).ring.capacity(), 8);
    }

    #[test]
    fn exec_ctx_access_charges_cycles() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let mut ctx = ExecCtx {
            cache: &mut h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: 10_000,
        };
        let miss_cost = ctx.read(0x40);
        let hit_cost = ctx.read(0x40);
        assert!(miss_cost > hit_cost, "memory fetch must cost more than an L2 hit");
    }
}
