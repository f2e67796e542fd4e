//! Hot-path benches of the SoA cache core: the three access mixes that
//! dominate the repro sweep's wall clock.
//!
//! * `hit_dominated` — a resident working set re-walked in place: pure
//!   probe + compact-LRU touch, no victim selection.
//! * `miss_dominated` — a working set far beyond the masked capacity:
//!   probe failure + bitwise victim selection + install + eviction
//!   accounting on every access.
//! * `ddio_write_allocate` — the paper's inbound-DMA pattern: a device
//!   ring buffer cycling through the 2-way DDIO mask, write-allocating
//!   and evicting dirty lines (writebacks) at steady state.
//! * `batched_window/1w` — the batch pipeline over 1024-access windows,
//!   resolved slice bucket by slice bucket in the calling thread;
//!   informational, for comparing batching overhead against the serial
//!   calls above (results are bit-identical either way).
//! * `gen_window/{1,8}agent` — the shape of the inline tenant front
//!   end's execute phase: a 1024-access miss-heavy window issued either
//!   as one agent's window or as eight consecutive per-agent subwindows
//!   (eight tenants' windows in canonical tenant order, each with its
//!   own attribution agent and address stream). The gap is the
//!   per-window attribution/mask switch cost consecutive tenants pay
//!   over a monolithic window.
//! * `warmup_window/warm_frozen_fast` — the same batched window with
//!   statistics frozen, the functional-warmup configuration: the flush
//!   resolves against the warmup sink, which drops every statistic event
//!   and keeps only the valid-line count. The gap against
//!   `batched_window/1w` is what frozen statistics save every warm epoch.
//! * `ddio_write_invalidate/4of18cores` — a 64-line DMA burst through
//!   the whole hierarchy (`MemoryHierarchy::batch_io_write` plus one
//!   flush) on the 18-core Xeon with four cores' L2s full: every write
//!   first invalidates stale private copies, then write-allocates in the
//!   DDIO ways. Divide by 64 for the per-line cost.
//!
//! Run with `cargo bench -p iat-bench --bench llc_hotpath`; CI runs
//! `cargo bench -p iat-bench --bench llc_hotpath -- --test` as a smoke.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iat_cachesim::{AgentId, CacheGeometry, CoreOp, Llc, MemoryHierarchy, WayMask};
use std::hint::black_box;

const LINE: u64 = 64;

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("llc_hotpath");
    group.throughput(Throughput::Elements(1));

    group.bench_function("hit_dominated", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        let mask = WayMask::all(geom.ways());
        // A working set of half the masked capacity, fully resident.
        let lines = geom.total_lines() / 2;
        for i in 0..lines {
            llc.core_access(agent, mask, i * LINE, CoreOp::Read);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % lines;
            black_box(llc.core_access(agent, mask, i * LINE, CoreOp::Read))
        });
    });

    group.bench_function("miss_dominated", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        // Two ways only, streamed far beyond their capacity: every
        // access probes, misses, selects a victim, and installs.
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let span = geom.total_lines() * 8;
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % span;
            black_box(llc.core_access(agent, mask, i * LINE, CoreOp::Read))
        });
    });

    group.bench_function("ddio_write_allocate", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        // The paper's default: DDIO confined to 2 ways, written by a
        // ring buffer larger than those ways hold — steady-state
        // write-allocates with dirty evictions (Leaky DMA).
        let ddio = WayMask::contiguous(9, 2).expect("mask");
        let ring_lines = geom.total_lines(); // 4x the 2-way capacity
        let mut slot = 0u64;
        b.iter(|| {
            slot = (slot + 1) % ring_lines;
            black_box(llc.io_write(ddio, slot * LINE))
        });
    });

    group.finish();

    // The batch pipeline over the same miss-heavy mix: enqueue a window,
    // flush, read outcomes. The `1w` name predates the removal of slice
    // workers and is kept so recorded numbers stay comparable.
    const WINDOW: u64 = 1024;
    let mut group = c.benchmark_group("llc_hotpath_batched");
    group.throughput(Throughput::Elements(WINDOW));
    group.bench_function("batched_window/1w", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let span = geom.total_lines() * 8;
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..WINDOW {
                i = (i + 1) % span;
                llc.batch_core_access(agent, mask, i * LINE, CoreOp::Read);
            }
            llc.batch_flush();
            black_box(llc.accesses())
        });
    });

    // The same miss-heavy window with statistics frozen — the
    // functional-warmup configuration the sampled execution path runs
    // between fast-forward and measured segments. The name predates the
    // single flush body and is kept so recorded numbers stay comparable.
    group.bench_function("warmup_window/warm_frozen_fast", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        llc.set_stats_frozen(true);
        let agent = AgentId::new(0);
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let span = geom.total_lines() * 8;
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..WINDOW {
                i = (i + 1) % span;
                llc.batch_core_access(agent, mask, i * LINE, CoreOp::Read);
            }
            llc.batch_flush();
            black_box(llc.valid_lines())
        });
    });
    group.finish();

    // The inline front end's execute phase: consecutive tenants'
    // windows reach the batch pipeline back to back in canonical tenant
    // order. `1agent` is the monolithic window; `8agent` splits the same
    // access count into eight consecutive per-agent subwindows with
    // distinct attribution agents and address streams — the shape of
    // eight tenants sharing one chunk.
    let mut group = c.benchmark_group("llc_hotpath_frontend");
    group.throughput(Throughput::Elements(WINDOW));
    for agents in [1u64, 8] {
        group.bench_function(format!("gen_window/{agents}agent"), |b| {
            let geom = CacheGeometry::xeon_6140_llc();
            let mut llc = Llc::new(geom);
            let mask = WayMask::contiguous(0, 2).expect("mask");
            let span = geom.total_lines() * 8;
            let sub = WINDOW / agents;
            let mut cursors = vec![0u64; agents as usize];
            b.iter(|| {
                for (a, cursor) in cursors.iter_mut().enumerate() {
                    let agent = AgentId::new(a as u16);
                    for _ in 0..sub {
                        *cursor = (*cursor + 1) % span;
                        // Distinct per-agent streams: offset by a third
                        // of the span per agent so streams never align.
                        let addr = (*cursor + a as u64 * (span / 3)) % span;
                        llc.batch_core_access(agent, mask, addr * LINE, CoreOp::Read);
                    }
                }
                llc.batch_flush();
                black_box(llc.accesses())
            });
        });
    }
    group.finish();

    // Line-rate DMA through the full hierarchy: each write invalidates
    // private copies before it reaches the LLC. Four of the eighteen
    // cores have full L2s (their own 1 MB working sets); the rest idle.
    const BURST: u64 = 64;
    let mut group = c.benchmark_group("ddio_write_invalidate");
    group.throughput(Throughput::Elements(BURST));
    group.bench_function("4of18cores", |b| {
        let mut h = MemoryHierarchy::xeon_6140(18);
        let mask = WayMask::contiguous(0, 9).expect("mask");
        let l2_lines = CacheGeometry::xeon_6140_l2().total_lines();
        for core in 0..4u64 {
            let agent = AgentId::new(core as u16);
            for i in 0..l2_lines {
                let addr = ((core + 1) << 30) + i * LINE;
                h.core_access(core as usize, agent, mask, addr, CoreOp::Read);
            }
        }
        let ddio = WayMask::contiguous(9, 2).expect("mask");
        let ring_lines = 8192u64;
        let mut slot = 0u64;
        b.iter(|| {
            for _ in 0..BURST {
                slot = (slot + 1) % ring_lines;
                h.batch_io_write(ddio, (64 << 30) + slot * LINE);
            }
            h.batch_flush();
            black_box(h.accesses())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
