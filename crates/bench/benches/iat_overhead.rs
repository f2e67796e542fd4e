//! Criterion benches for the paper's Fig. 15: the *actual* wall-clock cost
//! of this implementation's daemon iteration (poll parsing, FSM, layout
//! planning), complementing the modelled rdmsr/wrmsr costs the `fig15`
//! binary reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, TenantInfo};
use iat_cachesim::AgentId;
use iat_perf::{CoreCounters, Poll, SystemSample, TenantSample};
use iat_rdt::{ClosId, Rdt};
use iat_telemetry::{NullRecorder, RingRecorder};
use std::hint::black_box;

fn tenants(count: usize) -> Vec<TenantInfo> {
    (0..count)
        .map(|i| TenantInfo {
            agent: AgentId::new(i as u16),
            clos: ClosId::new((i % 15 + 1) as u8),
            cores: vec![i],
            priority: if i % 2 == 0 {
                Priority::Pc
            } else {
                Priority::Be
            },
            is_io: i == 0,
            initial_ways: 1,
        })
        .collect()
}

fn poll(count: usize, base: u64, jitter: f64) -> Poll {
    Poll {
        tenants: (0..count)
            .map(|i| TenantSample {
                agent: AgentId::new(i as u16),
                core: CoreCounters {
                    instructions: (base as f64 * jitter) as u64,
                    cycles: base,
                },
                llc_references: (base as f64 / 10.0 * jitter) as u64,
                llc_misses: (base as f64 / 100.0 * jitter) as u64,
            })
            .collect(),
        system: SystemSample {
            ddio_hits: (base as f64 / 5.0 * jitter) as u64,
            ddio_misses: (base as f64 / 50.0 * jitter) as u64,
            mem_read_bytes: 0,
            mem_write_bytes: 0,
        },
        cost_ns: 0.0,
    }
}

fn bench_daemon_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("daemon_step_stable");
    for &count in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, &count| {
            let mut rdt = Rdt::new(11, 18);
            let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
            daemon.set_tenants(tenants(count), &mut rdt);
            let mut acc = 1_000_000u64;
            daemon.step(&mut rdt, poll(count, acc, 1.0));
            b.iter(|| {
                acc += 1_000_000;
                black_box(daemon.step(&mut rdt, poll(count, acc, 1.0)))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("daemon_step_unstable");
    for &count in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, &count| {
            let mut rdt = Rdt::new(11, 18);
            let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
            daemon.set_tenants(tenants(count), &mut rdt);
            let mut acc = 1_000_000u64;
            let mut jitter = 1.0f64;
            daemon.step(&mut rdt, poll(count, acc, jitter));
            b.iter(|| {
                acc += 1_000_000;
                // Alternate jitter so every step sees >3% deltas.
                jitter = if jitter > 1.2 { 1.0 } else { 1.4 };
                black_box(daemon.step(&mut rdt, poll(count, acc, jitter)))
            });
        });
    }
    group.finish();
}

/// The telemetry overhead guard companion: `step` *is*
/// `step_traced(&mut NullRecorder)` (one virtual `enabled()` call per
/// instrumentation site), so "null_recorder" here is the production
/// fast path and "ring_recorder" shows the full flight-recorder cost.
/// `tests/telemetry_trace.rs` pins the <2% bound.
fn bench_recorder_overhead(c: &mut Criterion) {
    let count = 4usize;
    let mut group = c.benchmark_group("daemon_step_recorder");
    group.bench_function("null_recorder", |b| {
        let mut rdt = Rdt::new(11, 18);
        let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        daemon.set_tenants(tenants(count), &mut rdt);
        let mut acc = 1_000_000u64;
        daemon.step(&mut rdt, poll(count, acc, 1.0));
        b.iter(|| {
            acc += 1_000_000;
            black_box(daemon.step_traced(&mut rdt, poll(count, acc, 1.0), acc, &mut NullRecorder))
        });
    });
    group.bench_function("ring_recorder", |b| {
        let mut rdt = Rdt::new(11, 18);
        let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        daemon.set_tenants(tenants(count), &mut rdt);
        let mut rec = RingRecorder::new(1024);
        let mut acc = 1_000_000u64;
        daemon.step(&mut rdt, poll(count, acc, 1.0));
        b.iter(|| {
            acc += 1_000_000;
            black_box(daemon.step_traced(&mut rdt, poll(count, acc, 1.0), acc, &mut rec))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_daemon_step, bench_recorder_overhead);
criterion_main!(benches);
