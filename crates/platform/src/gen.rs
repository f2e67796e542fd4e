//! The tenant front end: per chunk, every tenant's traffic is delivered
//! into its Rx rings, its cores execute, and its Tx rings drain.
//!
//! The front end is written once, as three phases in canonical tenant
//! order — [`deliver`] (traffic generation and Rx ring claims),
//! [`execute`] (core slices through [`ExecCtx`]) and [`drain`] (Tx
//! pops) — generic over a [`FrontPort`] that decides where the hierarchy
//! traffic they generate goes. Two adapters exist:
//!
//! * **Inline** (the default, and the reference): DDIO writes and device
//!   reads enqueue straight into the hierarchy's batched pipeline, core
//!   windows resolve through [`CacheBackend::Direct`], and finished
//!   slices retire into the counter bank, all on the calling thread.
//! * **Lane** (an explicit `--gen-workers N >= 1`): tenants are grouped
//!   into contiguous *shards* (tenants sharing an inter-workload channel
//!   never split), a pool of generation workers runs the shards' front
//!   ends, and the calling thread becomes the *merge* thread, owning the
//!   hierarchy and replaying every shard's plans and windows strictly in
//!   canonical tenant order.
//!
//! Sharding is sound because everything a tenant *generates* — traffic
//! batches, ring claims, workload address streams, window boundaries —
//! depends only on that tenant's private state plus the cycle costs of
//! its own earlier windows; only the *resolution* of accesses against
//! the shared hierarchy couples tenants.
//!
//! ## The interleave-order contract (bit-identity by construction)
//!
//! Both adapters issue hierarchy operations in the same order:
//!
//! 1. Per chunk, every tenant's DDIO line writes in tenant order (ring
//!    decisions depend only on ring occupancy, never on cache
//!    outcomes), then one flush.
//! 2. Core windows in canonical (tenant, core, window) order. A lane
//!    worker blocks on each window's costs before cutting the next — the
//!    certain-bound-or-flush contract makes window content independent
//!    of other tenants, while boundaries wait for costs. Phase
//!    observation follows the same order (inline in `Direct`, replayed
//!    on the merge thread for lanes), so sampled-mode schedules agree.
//! 3. Every tenant's device reads in tenant order, then one flush.
//!
//! A lane worker sends the phase-1 plans of *all* its shards before
//! running any phase 2 (a shard's phase-1 state is private and
//! independent of phase 2), so the merge thread can always collect every
//! phase-1 plan without deadlock; a shard's phase-3 plan is sent right
//! after its own phase 2 (its Tx rings are final then — later shards
//! cannot touch them), though the merge thread applies it only after
//! every shard's windows resolved.
//!
//! Lane workers are spawned per epoch from
//! [`iat_cachesim::config::gen_workers`]'s answer and hold worker-budget
//! slots for the epoch, so auto-mode flush workers on the merge thread
//! never oversubscribe the machine (DESIGN.md §6.4).

use crate::tenant::Tenant;
use iat_cachesim::{config, LatencyModel, MemoryHierarchy, WayMask};
use iat_perf::CounterBank;
use iat_workloads::gen::{GenLane, GenMsg, GenReply};
use iat_workloads::{phase, CacheBackend, ChannelId, Channels, ExecCtx, ExecResult};
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};

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

/// Where the front end sends what it generates.
trait FrontPort {
    /// One inbound DDIO line write ([`deliver`]).
    fn io_write(&mut self, addr: u64);
    /// One device line read ([`drain`]).
    fn io_read(&mut self, addr: u64);
    /// The backend a core slice resolves its accesses through
    /// ([`execute`]).
    fn cache(&mut self) -> CacheBackend<'_>;
    /// Retires one finished core slice.
    fn retire(&mut self, core: usize, result: ExecResult);
}

/// Delivers one chunk of every tenant's traffic: generates it, claims Rx
/// ring slots and emits the DDIO line writes to `port`. Returns
/// `(packets_delivered, packets_dropped)`.
fn deliver(tenants: &mut [Tenant], p: &EpochParams, port: &mut impl FrontPort) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for t in tenants.iter_mut() {
        for b in &mut t.bindings {
            let batch = b.gen.generate(p.dt);
            let vfs = t.workload.ports_mut();
            assert!(b.port < vfs.len(), "binding port out of range");
            let vf = &mut vfs[b.port];
            let before_drops = vf.dma.rx_dropped;
            delivered += vf.dma.rx_batch(&mut vf.rx, &batch, |a| port.io_write(a)) as u64;
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
/// (tenant, core) order. Cores never halt (busy polling / continuous
/// compute), so the full budget elapses as cycles.
fn execute(
    tenants: &mut [Tenant],
    masks: &[WayMask],
    channels: &mut Channels,
    budget: u64,
    port: &mut impl FrontPort,
) {
    for (t, &mask) in tenants.iter_mut().zip(masks) {
        for &core in &t.cores {
            let mut ctx = ExecCtx {
                cache: port.cache(),
                channels: &mut *channels,
                core,
                agent: t.agent,
                mask,
                cycle_budget: budget,
            };
            let result = t.workload.run(&mut ctx);
            port.retire(core, result);
        }
    }
}

/// Drains every tenant's Tx rings, emitting the device reads to `port`.
fn drain(tenants: &mut [Tenant], port: &mut impl FrontPort) {
    for t in tenants.iter_mut() {
        for vf in t.workload.ports_mut() {
            vf.dma.tx_drain(&mut vf.tx, |a| port.io_read(a));
        }
    }
}

/// The inline adapter: every phase resolves on the calling thread.
struct Inline<'a> {
    hierarchy: &'a mut MemoryHierarchy,
    bank: &'a mut CounterBank,
    p: EpochParams,
}

impl FrontPort for Inline<'_> {
    fn io_write(&mut self, addr: u64) {
        self.hierarchy.batch_io_write(self.p.ddio, addr);
    }

    fn io_read(&mut self, addr: u64) {
        self.hierarchy.batch_io_read(addr);
    }

    fn cache(&mut self) -> CacheBackend<'_> {
        CacheBackend::Direct(self.hierarchy)
    }

    fn retire(&mut self, core: usize, result: ExecResult) {
        if self.p.measured {
            self.bank.retire(core, result.instructions, self.p.budget);
        }
    }
}

/// The lane adapter's worker side: DDIO writes and device reads collect
/// into the chunk's plans, windows and finished slices travel to the
/// merge thread over the lane.
struct LanePort {
    lane: GenLane,
    writes: Vec<u64>,
    reads: Vec<u64>,
}

impl FrontPort for LanePort {
    fn io_write(&mut self, addr: u64) {
        self.writes.push(addr);
    }

    fn io_read(&mut self, addr: u64) {
        self.reads.push(addr);
    }

    fn cache(&mut self) -> CacheBackend<'_> {
        CacheBackend::Sharded(&mut self.lane)
    }

    fn retire(&mut self, core: usize, result: ExecResult) {
        self.lane.send(GenMsg::SliceDone { core, result });
    }
}

/// Executes one epoch's tenant front end: inline unless generation
/// workers were granted. Returns `(packets_delivered, packets_dropped)`.
pub(crate) fn exec_epoch(
    p: EpochParams,
    hierarchy: &mut MemoryHierarchy,
    bank: &mut CounterBank,
    channels: &mut Channels,
    tenants: &mut [Tenant],
    masks: &[WayMask],
) -> (u64, u64) {
    let workers = config::gen_workers();
    if workers == 0 || tenants.is_empty() {
        return exec_inline(p, hierarchy, bank, channels, tenants, masks);
    }
    exec_sharded(workers, p, hierarchy, bank, channels, tenants, masks)
}

/// Executes one epoch through the inline adapter; one flush closes each
/// of the deliver and drain phases (windows flush themselves).
fn exec_inline(
    p: EpochParams,
    hierarchy: &mut MemoryHierarchy,
    bank: &mut CounterBank,
    channels: &mut Channels,
    tenants: &mut [Tenant],
    masks: &[WayMask],
) -> (u64, u64) {
    let mut port = Inline { hierarchy, bank, p };
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for _ in 0..p.chunks {
        let (d, dr) = deliver(tenants, &p, &mut port);
        delivered += d;
        dropped += dr;
        port.hierarchy.batch_flush();
        execute(tenants, masks, channels, p.budget, &mut port);
        drain(tenants, &mut port);
        port.hierarchy.batch_flush();
    }
    (delivered, dropped)
}

/// Splits `tenants` into maximal contiguous ranges that never separate
/// two tenants sharing an inter-workload channel. Each range is one
/// shard; the merge thread serves shards in range order, which equals
/// canonical tenant order.
pub(crate) fn shard_ranges(tenants: &[Tenant]) -> Vec<Range<usize>> {
    // For each channel: the span of tenant indices touching it. A shard
    // boundary after tenant `i` is legal iff no channel spans i → i+1.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut chan_span: std::collections::BTreeMap<usize, (usize, usize)> = Default::default();
    for (i, t) in tenants.iter().enumerate() {
        for id in t.workload.channel_ids() {
            let e = chan_span.entry(id.0).or_insert((i, i));
            e.1 = e.1.max(i);
        }
    }
    spans.extend(chan_span.into_values());
    let mut ranges = Vec::new();
    let mut start = 0;
    for i in 0..tenants.len() {
        let crossed = spans.iter().any(|&(lo, hi)| lo <= i && i < hi);
        if !crossed {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges
}

/// One shard's worker-side state: the tenants (moved in by mutable
/// borrow), their CAT masks, and the lent channel subset.
struct Shard<'a> {
    tenants: &'a mut [Tenant],
    masks: &'a [WayMask],
    channels: Channels,
    chan_ids: Vec<ChannelId>,
}

/// Runs one lane worker: the front ends of `shards`, each wired to the
/// merge thread through its own lane. Returns the lent channel subsets
/// for the caller to restore.
fn run_worker(mut shards: Vec<(Shard<'_>, LanePort)>, p: EpochParams) -> Vec<(Vec<ChannelId>, Channels)> {
    for _ in 0..p.chunks {
        // Phase-1 plans for *every* owned shard go out before any
        // phase 2, so the merge thread can collect all plans while this
        // worker ping-pongs windows of an earlier shard.
        for (shard, port) in shards.iter_mut() {
            let (delivered, dropped) = deliver(shard.tenants, &p, port);
            let writes = std::mem::take(&mut port.writes);
            port.lane.send(GenMsg::Phase1 { writes, delivered, dropped });
        }
        for (shard, port) in shards.iter_mut() {
            execute(shard.tenants, shard.masks, &mut shard.channels, p.budget, port);
            port.lane.send(GenMsg::Phase2Done);
            // This shard's Tx rings are final: later shards cannot
            // touch them (channel co-sharding), so the phase-3 plan can
            // be cut now and applied by the merge thread after all
            // shards' windows.
            drain(shard.tenants, port);
            let reads = std::mem::take(&mut port.reads);
            port.lane.send(GenMsg::Phase3 { reads });
        }
    }
    shards.into_iter().map(|(s, _)| (s.chan_ids, s.channels)).collect()
}

/// Executes one epoch with `workers` lane workers, bit-identical to the
/// inline front end. Returns `(packets_delivered, packets_dropped)`.
#[allow(clippy::too_many_arguments)]
fn exec_sharded(
    workers: usize,
    p: EpochParams,
    hierarchy: &mut MemoryHierarchy,
    bank: &mut CounterBank,
    channels: &mut Channels,
    tenants: &mut [Tenant],
    masks: &[WayMask],
) -> (u64, u64) {
    let ranges = shard_ranges(tenants);
    let nworkers = workers.min(ranges.len()).max(1);
    let accrue = !hierarchy.stats_frozen();
    let latency: LatencyModel = *hierarchy.latency();

    // Wire one message/reply channel pair per shard, and lend each
    // shard its channel subset.
    let mut shard_rx: Vec<Receiver<GenMsg>> = Vec::with_capacity(ranges.len());
    let mut reply_tx: Vec<Sender<GenReply>> = Vec::with_capacity(ranges.len());
    let mut plumbing: Vec<(Sender<GenMsg>, Receiver<GenReply>)> = Vec::with_capacity(ranges.len());
    for _ in &ranges {
        let (mtx, mrx) = channel::<GenMsg>();
        let (rtx, rrx) = channel::<GenReply>();
        shard_rx.push(mrx);
        reply_tx.push(rtx);
        plumbing.push((mtx, rrx));
    }

    // Carve the tenant and mask slices into per-shard pieces (ranges
    // are contiguous and in order) and group shards per worker.
    let mut shards: Vec<(Shard<'_>, LanePort)> = Vec::with_capacity(ranges.len());
    let mut rest_t = tenants;
    let mut rest_m = masks;
    let mut cursor = 0;
    for (range, (mtx, rrx)) in ranges.iter().zip(plumbing) {
        let (head_t, tail_t) = rest_t.split_at_mut(range.end - cursor);
        let (head_m, tail_m) = rest_m.split_at(range.end - cursor);
        rest_t = tail_t;
        rest_m = tail_m;
        cursor = range.end;
        let mut chan_ids: Vec<ChannelId> = Vec::new();
        for t in head_t.iter() {
            chan_ids.extend(t.workload.channel_ids());
        }
        chan_ids.sort_unstable();
        chan_ids.dedup();
        let shadow = channels.lend(&chan_ids);
        shards.push((
            Shard { tenants: head_t, masks: head_m, channels: shadow, chan_ids },
            LanePort {
                lane: GenLane::new(mtx, rrx, accrue, latency),
                writes: Vec::new(),
                reads: Vec::new(),
            },
        ));
    }

    // Deal shards to workers in contiguous runs so worker order equals
    // shard order (the merge loop's serving order).
    let per = shards.len().div_ceil(nworkers);
    let mut worker_loads: Vec<Vec<(Shard<'_>, LanePort)>> = Vec::with_capacity(nworkers);
    let mut it = shards.into_iter();
    for _ in 0..nworkers {
        worker_loads.push(it.by_ref().take(per).collect());
    }

    let mut delivered = 0u64;
    let mut dropped = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = worker_loads
            .into_iter()
            .filter(|load| !load.is_empty())
            .map(|load| {
                config::acquire_slot();
                s.spawn(move || {
                    let out = run_worker(load, p);
                    config::release_slot();
                    out
                })
            })
            .collect();

        // The merge loop: replay every shard's plans and windows in
        // canonical order against the hierarchy.
        for _ in 0..p.chunks {
            for rx in &shard_rx {
                match rx.recv().expect("generation worker hung up") {
                    GenMsg::Phase1 { writes, delivered: d, dropped: dr } => {
                        for addr in writes {
                            hierarchy.batch_io_write(p.ddio, addr);
                        }
                        delivered += d;
                        dropped += dr;
                    }
                    other => unreachable!("expected Phase1, got {other:?}"),
                }
            }
            hierarchy.batch_flush();

            for (rx, rtx) in shard_rx.iter().zip(&reply_tx) {
                loop {
                    match rx.recv().expect("generation worker hung up") {
                        GenMsg::Window { core, agent, mask, observe, ops, mut scratch } => {
                            if observe {
                                phase::observe_ops(&ops);
                            }
                            hierarchy.core_access_cycles_batch(core, agent, mask, &ops, &mut scratch);
                            rtx.send(GenReply { ops, costs: scratch })
                                .expect("generation worker hung up");
                        }
                        GenMsg::SliceDone { core, result } => {
                            if p.measured {
                                bank.retire(core, result.instructions, p.budget);
                            }
                        }
                        GenMsg::Phase2Done => break,
                        other => unreachable!("expected phase-2 message, got {other:?}"),
                    }
                }
            }

            for rx in &shard_rx {
                match rx.recv().expect("generation worker hung up") {
                    GenMsg::Phase3 { reads } => {
                        for addr in reads {
                            hierarchy.batch_io_read(addr);
                        }
                    }
                    other => unreachable!("expected Phase3, got {other:?}"),
                }
            }
            hierarchy.batch_flush();
        }

        for h in handles {
            for (chan_ids, shadow) in h.join().expect("generation worker panicked") {
                channels.restore(&chan_ids, shadow);
            }
        }
    });

    (delivered, dropped)
}
