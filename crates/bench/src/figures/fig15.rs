//! Fig. 15: IAT daemon execution time per iteration vs tenant count, for
//! one and two cores per tenant, split into Stable (Poll Prof Data only)
//! and Unstable (Poll + State Transition + LLC Re-alloc) iterations.
//!
//! The modelled cost (rdmsr/context-switch per counter read, wrmsr per
//! re-allocation) reproduces the paper's envelope; `cargo bench -p
//! iat-bench` additionally measures the *actual* wall-clock time of this
//! implementation's step function.
//!
//! A single cheap job. Fully deterministic (the synthetic polls take no
//! seed) and independent of run length, so it is part of the smoke set.

use crate::report::{f, FigureReport};
use iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, TenantInfo};
use iat_cachesim::AgentId;
use iat_perf::{CoreCounters, Poll, SystemSample, TenantSample};
use iat_rdt::{ClosId, Rdt};
use iat_runner::{JobCtx, JobSpec, Registry};
use serde_json::Value;

fn tenants(count: usize, cores_each: usize) -> Vec<TenantInfo> {
    (0..count)
        .map(|i| TenantInfo {
            agent: AgentId::new(i as u16),
            clos: ClosId::new((i % 15 + 1) as u8),
            cores: (0..cores_each).map(|c| i * cores_each + c).collect(),
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

/// A synthetic cumulative poll for `count` tenants; `jitter` scales the
/// counters so consecutive polls look stable or unstable as desired.
fn poll(count: usize, cores_each: usize, base: u64, jitter: f64) -> Poll {
    let cost_ns = iat_perf::CostModel::default().poll_ns(&vec![cores_each; count]);
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
        cost_ns,
    }
}

const GROUP: &str = "fig15";

fn run(ctx: &mut JobCtx) -> Result<Value, String> {
    let mut fig = FigureReport::new(
        GROUP,
        "Fig. 15 — IAT iteration execution time (modelled, us)",
        &["tenants", "cores/tenant", "stable us", "unstable us"],
    );

    for &cores_each in &[1usize, 2] {
        for &count in &[2usize, 4, 6, 8] {
            if count * cores_each > 17 {
                // The paper's 18-core CPU minus the daemon's core.
                continue;
            }
            let mut rdt = Rdt::new(11, 18);
            let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
            iat::LlcPolicy::set_tenants(&mut daemon, tenants(count, cores_each), &mut rdt);

            // Prime with two identical polls, then measure a stable step.
            let mut acc = 1_000_000u64;
            daemon.step(&mut rdt, poll(count, cores_each, acc, 1.0));
            acc += 1_000_000;
            daemon.step(&mut rdt, poll(count, cores_each, acc, 1.0));
            acc += 1_000_000;
            let stable = daemon.step(&mut rdt, poll(count, cores_each, acc, 1.0));
            assert!(stable.stable, "identical deltas must read as stable");

            // An unstable step: all counters jump 40%.
            let unstable = daemon.step(&mut rdt, poll(count, cores_each, acc + 1_400_000, 1.4));
            assert!(!unstable.stable);

            fig.row(
                &[
                    count.to_string(),
                    cores_each.to_string(),
                    f(stable.cost_ns / 1000.0, 1),
                    f(unstable.cost_ns / 1000.0, 1),
                ],
                serde_json::json!({
                    "tenants": count,
                    "cores_per_tenant": cores_each,
                    "stable_us": stable.cost_ns / 1000.0,
                    "unstable_us": unstable.cost_ns / 1000.0,
                }),
            );
        }
    }
    // CAT offers 16 CLOS but only 11 ways; beyond ~9 tenants the paper
    // groups tenants per CLOS. The poll cost (the dominant term) is still
    // modelled exactly for those sizes:
    for &count in &[12usize, 16] {
        let cost = iat_perf::CostModel::default().poll_ns(&vec![1; count]);
        fig.row(
            &[
                count.to_string(),
                "1".into(),
                f(cost / 1000.0, 1),
                "-".into(),
            ],
            serde_json::json!({
                "tenants": count, "cores_per_tenant": 1,
                "stable_us": cost / 1000.0, "unstable_us": null,
            }),
        );
    }
    fig.note(
        "Paper shape: cost grows sub-linearly with monitored cores, is dominated by\n\
         Poll Prof Data (the stable component), and stays under 800 us even at the\n\
         largest tenant counts; re-allocation adds only a few microseconds.",
    );
    fig.finish(ctx);
    Ok(Value::Null)
}

pub(crate) fn register(reg: &mut Registry) {
    reg.add(JobSpec::new(GROUP, GROUP, run).smoke());
}
