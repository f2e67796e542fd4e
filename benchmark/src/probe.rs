//! The per-layer probe: steps one workload scenario by hand and times
//! each call into a public layer under the benchmark's own spans —
//! scenario compilation (`bench`), `Platform::step_epoch` (`platform`,
//! with its LLC flush share), `Managed::observe` (`perf` counter polls)
//! and `LlcPolicy::step` (`core`).

use crate::workloads::Workload;
use iat::StepReport;
use iat_bench::Managed;
use iat_telemetry::phases;
use iat_telemetry::span::SpanTracer;
use serde_json::json;
use std::time::Instant;

/// Scenario compilations timed per probe.
const BUILDS: usize = 5;
/// Counter polls timed per policy interval.
const OBSERVES_PER_INTERVAL: usize = 50;

/// Probe samples, in microseconds unless named otherwise.
#[derive(Debug, Default)]
pub struct Timings {
    /// `catalog::build` wall, milliseconds.
    pub compile_ms: Vec<f64>,
    /// Every `step_epoch`.
    pub step_epoch_us: Vec<f64>,
    /// The `step_epoch` calls that ran a functional-warmup body.
    pub warm_epoch_us: Vec<f64>,
    /// Every `observe`.
    pub poll_us: Vec<f64>,
    /// Every `LlcPolicy::step`.
    pub policy_step_us: Vec<f64>,
    /// LLC flush time inside the timed epochs, nanoseconds.
    pub flush_ns: u64,
    /// MSR writes the policy steps performed.
    pub msr_writes: u64,
    /// Wall clock of the interval loop, and the part of it inside spans.
    pub loop_s: f64,
    pub spanned_s: f64,
}

/// Runs `f` as one probe span named `name`; returns its result and
/// duration in seconds.
fn timed<T>(tracer: &SpanTracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    tracer.record("probe", name, t0, t1, serde_json::Value::Null);
    (out, (t1 - t0).as_secs_f64())
}

/// One policy interval unrolled: every epoch stepped and timed on its
/// own, then `OBSERVES_PER_INTERVAL` counter polls, then one policy step
/// on the last poll. In exact mode this is `Managed::step_interval`
/// call for call (the self-test pins that), so the timings describe the
/// code the figures run.
pub fn interval(m: &mut Managed, tracer: &SpanTracer, t: &mut Timings) -> StepReport {
    for _ in 0..m.epochs_per_interval() {
        let (_, s) = timed(tracer, "Platform::step_epoch", || m.platform.step_epoch());
        let epoch = phases::take_phases();
        t.spanned_s += s;
        t.flush_ns += epoch.flush_ns;
        t.step_epoch_us.push(s * 1e6);
        if epoch.warmup_ns > 0 {
            t.warm_epoch_us.push(s * 1e6);
        }
    }
    let mut poll = None;
    for _ in 0..OBSERVES_PER_INTERVAL {
        let (p, s) = timed(tracer, "Managed::observe", || m.observe());
        t.spanned_s += s;
        t.poll_us.push(s * 1e6);
        poll = Some(p);
    }
    let poll = poll.expect("at least one poll per interval");
    let (report, s) = timed(tracer, "LlcPolicy::step", || {
        m.policy.step(m.platform.rdt_mut(), poll)
    });
    t.spanned_s += s;
    t.policy_step_us.push(s * 1e6);
    t.msr_writes += report.msr_writes;
    report
}

/// Runs the probe of `w`: `BUILDS` timed compilations of its scenario
/// (convergence checkpoints cleared before each, so none is a restore),
/// then `w.probe_intervals` unrolled intervals on the last one.
pub fn run(w: &Workload, seed: u64, tracer: &SpanTracer) -> Timings {
    let (params, sampling) = (w.probe)();
    iat_cachesim::config::set_thread_sampling(sampling);
    let mut t = Timings::default();
    let mut built = None;
    for _ in 0..BUILDS {
        iat_runner::checkpoint::clear();
        let (b, s) = timed(tracer, "catalog::build", || {
            iat_bench::catalog::build(&params, seed)
        });
        t.compile_ms.push(s * 1e3);
        built = Some(b);
    }
    let mut m = built.expect("at least one build").into_managed();
    let _ = phases::take_phases();
    let loop0 = Instant::now();
    for i in 0..w.probe_intervals {
        let _span = tracer.begin("probe", "interval").arg("interval", json!(i));
        interval(&mut m, tracer, &mut t);
    }
    t.loop_s = loop0.elapsed().as_secs_f64();
    drop(m);
    iat_cachesim::config::set_thread_sampling(None);
    iat_runner::checkpoint::clear();
    let _ = iat_bench::harness::take_sim_accesses();
    let _ = iat_bench::harness::take_skipped_epochs();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_bench::catalog::{build, ScenarioParams};
    use iat_bench::scenarios::PolicyKind;

    #[test]
    fn unrolled_interval_matches_step_interval() {
        iat_cachesim::config::set_slice_workers(Some(1));
        iat_cachesim::config::set_gen_workers(Some(0));
        let params = ScenarioParams::Aggregation {
            packet_bytes: 64,
            flows_per_port: 1,
            policy: PolicyKind::Iat,
        };
        let mut reference = build(&params, 7).into_managed();
        let mut probed = build(&params, 7).into_managed();
        let tracer = SpanTracer::disabled();
        let mut t = Timings::default();
        for _ in 0..4 {
            assert_eq!(
                reference.step_interval(),
                interval(&mut probed, &tracer, &mut t)
            );
        }
        assert_eq!(reference.observe(), probed.observe());
        assert_eq!(
            format!("{:?}", reference.platform.llc().stats()),
            format!("{:?}", probed.platform.llc().stats())
        );
        assert_eq!(t.step_epoch_us.len(), 4 * probed.epochs_per_interval());
        assert_eq!(t.poll_us.len(), 4 * OBSERVES_PER_INTERVAL);
    }
}
