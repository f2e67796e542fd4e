//! Criterion benches of the simulation substrate itself: how fast the
//! cache model, the DMA path and the traffic generators execute. These
//! bound how much modelled time the experiment binaries can cover per
//! wall-clock second.
//!
//! * `traffic/zipf_table_build/1M` — building the 1M-flow, 0.99-Zipfian
//!   table the Redis co-runs draw their keys from (once per compile).
//! * `traffic/zipf_generate/1M` — per-packet cost of generating that
//!   traffic: one RNG draw and one guide-indexed table lookup.
//!
//! Run with `cargo bench -p iat-bench --bench substrate`; CI runs
//! `cargo bench -p iat-bench --bench substrate -- --test` as a smoke.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iat_cachesim::{AgentId, CacheGeometry, CoreOp, Llc, MemoryHierarchy, WayMask};
use iat_netsim::{
    rate_for_pps, FlowDist, FlowId, PacketSlot, RxRing, TrafficGen, TrafficPattern, ZipfTable,
};
use std::hint::black_box;

fn bench_llc(c: &mut Criterion) {
    let mut group = c.benchmark_group("llc");
    group.throughput(Throughput::Elements(1));

    group.bench_function("core_access_hit", |b| {
        let mut llc = Llc::new(CacheGeometry::xeon_6140_llc());
        let agent = AgentId::new(0);
        let mask = WayMask::all(11);
        llc.core_access(agent, mask, 0x1000, CoreOp::Read);
        b.iter(|| black_box(llc.core_access(agent, mask, 0x1000, CoreOp::Read)));
    });

    group.bench_function("core_access_streaming_miss", |b| {
        let mut llc = Llc::new(CacheGeometry::xeon_6140_llc());
        let agent = AgentId::new(0);
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64 * 1024; // conflict-heavy stride
            black_box(llc.core_access(agent, mask, addr, CoreOp::Read))
        });
    });

    group.bench_function("io_write_update", |b| {
        let mut llc = Llc::new(CacheGeometry::xeon_6140_llc());
        let ddio = WayMask::contiguous(9, 2).expect("mask");
        llc.io_write(ddio, 0x2000);
        b.iter(|| black_box(llc.io_write(ddio, 0x2000)));
    });

    group.bench_function("hierarchy_l2_hit", |b| {
        let mut h = MemoryHierarchy::xeon_6140(1);
        let agent = AgentId::new(0);
        let mask = WayMask::all(11);
        h.core_access(0, agent, mask, 0x3000, CoreOp::Read);
        b.iter(|| black_box(h.core_access(0, agent, mask, 0x3000, CoreOp::Read)));
    });
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring");
    group.throughput(Throughput::Elements(1));
    group.bench_function("push_pop", |b| {
        let mut ring = RxRing::with_pool(0, 1024, 2048, 4096);
        b.iter(|| {
            ring.push(PacketSlot::new(FlowId(1), 64));
            black_box(ring.pop())
        });
    });
    group.finish();
}

fn bench_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic");
    group.bench_function("zipf_table_build/1M", |b| {
        b.iter(|| black_box(ZipfTable::new(1_000_000, 0.99)))
    });

    // 1.7 Mpps of 128 B requests, the Redis co-run's per-port load, in
    // 1 ms chunks: 1700 packets per call.
    let chunk_ns = 1_000_000;
    let mut gen = TrafficGen::new(
        rate_for_pps(1.7e6, 128),
        128,
        FlowDist::Zipf { count: 1_000_000, s: 0.99 },
        TrafficPattern::Constant,
        7,
    );
    let per_chunk = gen.generate(chunk_ns).len() as u64;
    group.throughput(Throughput::Elements(per_chunk));
    group.bench_function("zipf_generate/1M", |b| {
        b.iter(|| black_box(gen.generate(chunk_ns).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_llc, bench_ring, bench_traffic);
criterion_main!(benches);
