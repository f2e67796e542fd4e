//! The tenant front end: per chunk, every tenant's traffic is delivered
//! into its Rx rings, its cores execute, and its Tx rings drain.
//!
//! The front end runs as three phases in canonical tenant order —
//! [`deliver`] (traffic generation and Rx ring claims), [`execute`]
//! (core slices through [`ExecCtx`]) and [`drain`] (Tx pops) — all on
//! the calling thread, against the one shared hierarchy.
//!
//! ## The ordering contract
//!
//! Hierarchy operations are issued in this order, per chunk:
//!
//! 1. Every tenant's DDIO line writes in tenant order (ring decisions
//!    depend only on ring occupancy, never on cache outcomes), enqueued
//!    into the hierarchy's batched pipeline, then one flush.
//! 2. Core windows in canonical (tenant, core, window) order; each
//!    window flushes itself, and phase observation follows the same
//!    order, so sampled-mode schedules are reproducible. Finished slices
//!    retire into the counter bank in the same order.
//! 3. Every tenant's device reads in tenant order, then one flush.

use crate::tenant::Tenant;
use iat_cachesim::{MemoryHierarchy, WayMask};
use iat_perf::CounterBank;
use iat_workloads::{Channels, ExecCtx};

/// Per-epoch constants the front end shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochParams {
    /// Sub-slices of the epoch.
    pub chunks: u64,
    /// Modelled nanoseconds of traffic per chunk.
    pub dt: u64,
    /// Cycle budget per core per chunk.
    pub budget: u64,
    /// Whether this is a measured epoch (counters retire, drop tallies
    /// stick).
    pub measured: bool,
    /// The DDIO way mask (constant within an epoch).
    pub ddio: WayMask,
}

/// Delivers one chunk of every tenant's traffic: generates it, claims Rx
/// ring slots and enqueues the DDIO line writes into `hierarchy`'s
/// batched pipeline. Returns `(packets_delivered, packets_dropped)`.
fn deliver(tenants: &mut [Tenant], p: &EpochParams, hierarchy: &mut MemoryHierarchy) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for t in tenants.iter_mut() {
        for b in &mut t.bindings {
            let batch = b.gen.generate(p.dt);
            let vfs = t.workload.ports_mut();
            assert!(b.port < vfs.len(), "binding port out of range");
            let vf = &mut vfs[b.port];
            let before_drops = vf.dma.rx_dropped;
            delivered += vf
                .dma
                .rx_batch(&mut vf.rx, &batch, |a| hierarchy.batch_io_write(p.ddio, a))
                as u64;
            dropped += vf.dma.rx_dropped - before_drops;
            if !p.measured {
                // Warmup delivery must not inflate cumulative drop
                // counters (they extrapolate from measured epochs only);
                // the ring state itself keeps the warmed backlog.
                vf.dma.rx_dropped = before_drops;
            }
        }
    }
    (delivered, dropped)
}

/// Runs every core of every tenant for one chunk's budget, in canonical
/// (tenant, core) order, retiring measured slices into `bank`. Cores
/// never halt (busy polling / continuous compute), so the full budget
/// elapses as cycles.
fn execute(
    tenants: &mut [Tenant],
    masks: &[WayMask],
    channels: &mut Channels,
    p: &EpochParams,
    hierarchy: &mut MemoryHierarchy,
    bank: &mut CounterBank,
) {
    for (t, &mask) in tenants.iter_mut().zip(masks) {
        for &core in &t.cores {
            let mut ctx = ExecCtx {
                cache: &mut *hierarchy,
                channels: &mut *channels,
                core,
                agent: t.agent,
                mask,
                cycle_budget: p.budget,
            };
            let result = t.workload.run(&mut ctx);
            if p.measured {
                bank.retire(core, result.instructions, p.budget);
            }
        }
    }
}

/// Drains every tenant's Tx rings, enqueueing the device reads into
/// `hierarchy`'s batched pipeline.
fn drain(tenants: &mut [Tenant], hierarchy: &mut MemoryHierarchy) {
    for t in tenants.iter_mut() {
        for vf in t.workload.ports_mut() {
            vf.dma.tx_drain(&mut vf.tx, |a| hierarchy.batch_io_read(a));
        }
    }
}

/// Executes one epoch's tenant front end; one flush closes each of the
/// deliver and drain phases (windows flush themselves). Returns
/// `(packets_delivered, packets_dropped)`.
pub(crate) fn exec_epoch(
    p: EpochParams,
    hierarchy: &mut MemoryHierarchy,
    bank: &mut CounterBank,
    channels: &mut Channels,
    tenants: &mut [Tenant],
    masks: &[WayMask],
) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for _ in 0..p.chunks {
        let (d, dr) = deliver(tenants, &p, hierarchy);
        delivered += d;
        dropped += dr;
        hierarchy.batch_flush();
        execute(tenants, masks, channels, &p, hierarchy, bank);
        drain(tenants, hierarchy);
        hierarchy.batch_flush();
    }
    (delivered, dropped)
}
