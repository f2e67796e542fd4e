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
//! * `batched_window/{1,2}w` — the slice-parallel batch pipeline over
//!   1024-access windows, resolved in the calling thread and with one
//!   extra worker; informational, for comparing batching overhead and
//!   multi-worker scaling against the serial calls above (results are
//!   bit-identical either way).
//! * `gen_window/{1,8}agent` — the shape of the inline tenant front
//!   end's execute phase: a 1024-access miss-heavy window issued either
//!   as one agent's window or as eight consecutive per-agent subwindows
//!   (eight tenants' windows in canonical tenant order, each with its
//!   own attribution agent and address stream). The gap is the
//!   per-window attribution/mask switch cost consecutive tenants pay
//!   over a monolithic window.
//! * `warmup_window/frozen_1w` — the same batched window with
//!   statistics frozen but the frozen fast body disabled: the full
//!   per-access pipeline running against a frozen sink.
//! * `warmup_window/warm_frozen_fast` — the default frozen-stats
//!   configuration: the shard dispatches the delta-free fast body, which
//!   skips outcome recording, occupancy deltas, and stat merging
//!   entirely. The gap against `frozen_1w` is what the fast body buys
//!   every warm epoch.
//!
//! Run with `cargo bench -p iat-bench --bench llc_hotpath`; CI runs
//! `cargo bench -p iat-bench --bench llc_hotpath -- --test` as a smoke.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iat_cachesim::{AgentId, CacheGeometry, CoreOp, Llc, WayMask};
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
    // flush, read outcomes. Worker counts only move wall clock, never
    // results, so the bench restores auto mode when it finishes.
    const WINDOW: u64 = 1024;
    let mut group = c.benchmark_group("llc_hotpath_batched");
    group.throughput(Throughput::Elements(WINDOW));
    for workers in [1u32, 2] {
        group.bench_function(format!("batched_window/{workers}w"), |b| {
            iat_cachesim::config::set_slice_workers(Some(workers));
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
    }

    // The same miss-heavy window with statistics frozen — the
    // functional-warmup configuration the sampled execution path runs
    // between fast-forward and measured segments. `frozen_1w` pins the
    // fast body *off* (the pre-fast-path baseline: full per-access
    // pipeline against a frozen sink); `warm_frozen_fast` is the default
    // configuration, where the shard runs the delta-free fast body.
    // Cache state is bit-identical either way (pinned by the
    // `frozen_fast_body_matches_full_body` proptest); only the work per
    // access differs.
    for (name, fast) in [("frozen_1w", false), ("warm_frozen_fast", true)] {
        group.bench_function(format!("warmup_window/{name}"), |b| {
            iat_cachesim::config::set_slice_workers(Some(1));
            let geom = CacheGeometry::xeon_6140_llc();
            let mut llc = Llc::new(geom);
            llc.set_stats_frozen(true);
            llc.set_frozen_fast(fast);
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
    }
    iat_cachesim::config::set_slice_workers(None);
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
            iat_cachesim::config::set_slice_workers(Some(1));
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
    iat_cachesim::config::set_slice_workers(None);
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
