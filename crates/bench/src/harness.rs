//! The managed run: platform + policy + monitor, stepped in policy
//! intervals.

use iat::{LlcPolicy, StepReport, TenantInfo};
use iat_perf::{DdioSampleMode, IntervalDeltas, Monitor, Poll};
use iat_platform::Platform;
use iat_telemetry::{Event, Recorder, Stamp};

pub use iat_platform::{take_sim_accesses, take_skipped_epochs};

/// A platform under management by an LLC policy.
///
/// Each [`Managed::step_interval`] runs the platform for one policy
/// interval (the paper's 1 s sleep), polls the performance counters the
/// way the daemon would, and hands the poll to the policy.
pub struct Managed {
    /// The simulated server.
    pub platform: Platform,
    /// The management policy (IAT or a baseline).
    pub policy: Box<dyn LlcPolicy>,
    /// The policy-facing tenant description, in registration order.
    tenants: Vec<TenantInfo>,
    monitor: Monitor,
    epochs_per_interval: usize,
    intervals: u64,
    last_poll: Option<Poll>,
    last_report: Option<StepReport>,
    /// Sampled mode: the previous interval's *raw* cumulative poll, the
    /// running *extrapolated* cumulative poll handed to the policy, and
    /// the platform's measured-epoch total at the last interval end.
    raw_prev: Option<Poll>,
    extrap: Option<Poll>,
    measured_base: u64,
}

impl Managed {
    /// Couples `platform` and `policy`; `tenants` is the policy-facing
    /// tenant description (order must match the platform's registration
    /// order) and `interval_ns` the policy interval.
    pub fn new(
        mut platform: Platform,
        mut policy: Box<dyn LlcPolicy>,
        tenants: Vec<TenantInfo>,
        interval_ns: u64,
    ) -> Self {
        let spec = platform.monitor_spec();
        let monitor = Monitor::new(spec, DdioSampleMode::OneSlice(0));
        if iat_telemetry::decision::capture_enabled() {
            let seed: Vec<(u16, u8)> =
                tenants.iter().map(|t| (t.agent.index(), t.initial_ways)).collect();
            iat_telemetry::decision::seed_thread(platform.rdt().ddio_ways(), &seed);
        }
        policy.set_tenants(tenants.clone(), platform.rdt_mut());
        let epochs_per_interval = (interval_ns / platform.config().epoch_ns).max(1) as usize;
        Managed {
            platform,
            policy,
            tenants,
            monitor,
            epochs_per_interval,
            intervals: 0,
            last_poll: None,
            last_report: None,
            raw_prev: None,
            extrap: None,
            measured_base: 0,
        }
    }

    /// Swaps in a different management policy, registering the same
    /// tenant set with it (which programs its initial layout).
    pub(crate) fn replace_policy(&mut self, mut policy: Box<dyn LlcPolicy>) {
        policy.set_tenants(self.tenants.clone(), self.platform.rdt_mut());
        self.policy = policy;
    }

    /// Epochs executed per policy interval.
    pub fn epochs_per_interval(&self) -> usize {
        self.epochs_per_interval
    }

    /// The last policy step report, if any interval has run.
    pub fn last_report(&self) -> Option<&StepReport> {
        self.last_report.as_ref()
    }

    /// Runs one policy interval: platform epochs, then a poll, then the
    /// policy step. Returns the policy's report.
    pub fn step_interval(&mut self) -> StepReport {
        // Under `repro --trace-out` every otherwise-untraced interval is
        // folded into the thread's decision flight recorder. Recorders
        // are observational (pinned by the traced-vs-untraced
        // bit-identity test), so captures never perturb figure outputs.
        if iat_telemetry::decision::capture_enabled() {
            iat_telemetry::decision::with_thread(|rec| self.step_interval_traced(rec))
        } else {
            self.step_interval_traced(&mut iat_telemetry::NullRecorder)
        }
    }

    /// [`Managed::step_interval`]'s body with a structured trace: the
    /// poll emits its [`iat_telemetry::Event::PollSample`], the policy
    /// narrates its decision, and the platform sweeps per-VF ring
    /// occupancy and drop telemetry — all stamped with the interval
    /// number and the simulated time at the end of the interval.
    fn step_interval_traced(&mut self, rec: &mut dyn Recorder) -> StepReport {
        self.platform.run_epochs(self.epochs_per_interval);
        self.intervals += 1;
        let stamp = Stamp {
            iter: self.intervals,
            time_ns: self.platform.time_ns(),
        };
        for b in self.platform.take_phase_boundaries() {
            if rec.enabled() {
                rec.record(Event::PhaseBoundary {
                    stamp,
                    interval: b.interval,
                    phase: b.phase,
                    novel: b.novel,
                });
            }
        }
        let poll = self.monitor.poll(self.platform.llc(), self.platform.bank());
        iat_platform::record_poll(&poll, stamp, rec);
        self.last_poll = Some(poll.clone());
        self.platform.sweep_nic_telemetry(stamp, rec);
        let policy_poll = if self.platform.sampled() {
            self.extrapolate(poll)
        } else {
            poll
        };
        let report = self
            .policy
            .step_traced(self.platform.rdt_mut(), policy_poll, stamp.time_ns, rec);
        self.last_report = Some(report);
        report
    }

    /// Converts one raw cumulative poll into the extrapolated cumulative
    /// poll the policy sees under sampling.
    ///
    /// The policy diffs consecutive cumulative polls and divides by its
    /// fixed 1 s sleep interval, so under sampling — where only the
    /// measured tail of each interval accrues counters — raw deltas would
    /// read `measured/interval_len` times too low. Each interval's raw
    /// delta is therefore scaled by `interval_len / measured_this_interval`
    /// (integer arithmetic, deterministic) and accumulated into a synthetic
    /// cumulative poll whose deltas are unbiased estimates of full-fidelity
    /// interval deltas.
    fn extrapolate(&mut self, raw: Poll) -> Poll {
        let measured = self.platform.measured_epochs().unwrap_or(0);
        let dm = (measured - self.measured_base).max(1);
        self.measured_base = measured;
        let nominal = self.epochs_per_interval as u64;
        let scale = |cur: u64, prev: u64| cur.saturating_sub(prev) * nominal / dm;

        let prev = self.raw_prev.take();
        let prev_tenant = |agent: iat_cachesim::AgentId| {
            prev.as_ref().and_then(|p| p.tenants.iter().find(|t| t.agent == agent).copied())
        };
        let extrap_tenant = |agent: iat_cachesim::AgentId| {
            self.extrap
                .as_ref()
                .and_then(|p| p.tenants.iter().find(|t| t.agent == agent).copied())
        };

        let mut out = raw.clone();
        for t in &mut out.tenants {
            let p = prev_tenant(t.agent).unwrap_or(iat_perf::TenantSample {
                agent: t.agent,
                core: Default::default(),
                llc_references: 0,
                llc_misses: 0,
            });
            let e = extrap_tenant(t.agent);
            let (ei, ec, er, em) = e.map_or((0, 0, 0, 0), |e| {
                (e.core.instructions, e.core.cycles, e.llc_references, e.llc_misses)
            });
            t.core.instructions = ei + scale(t.core.instructions, p.core.instructions);
            t.core.cycles = ec + scale(t.core.cycles, p.core.cycles);
            t.llc_references = er + scale(t.llc_references, p.llc_references);
            t.llc_misses = em + scale(t.llc_misses, p.llc_misses);
        }
        let (ps, es) = (
            prev.as_ref().map(|p| p.system),
            self.extrap.as_ref().map(|p| p.system),
        );
        let z = iat_perf::SystemSample {
            ddio_hits: 0,
            ddio_misses: 0,
            mem_read_bytes: 0,
            mem_write_bytes: 0,
        };
        let (ps, es) = (ps.unwrap_or(z), es.unwrap_or(z));
        out.system.ddio_hits = es.ddio_hits + scale(raw.system.ddio_hits, ps.ddio_hits);
        out.system.ddio_misses = es.ddio_misses + scale(raw.system.ddio_misses, ps.ddio_misses);
        out.system.mem_read_bytes =
            es.mem_read_bytes + scale(raw.system.mem_read_bytes, ps.mem_read_bytes);
        out.system.mem_write_bytes =
            es.mem_write_bytes + scale(raw.system.mem_write_bytes, ps.mem_write_bytes);

        self.raw_prev = Some(raw);
        self.extrap = Some(out.clone());
        out
    }

    /// Runs `n` intervals.
    pub fn run_intervals(&mut self, n: usize) {
        for _ in 0..n {
            self.step_interval();
        }
    }

    /// Intervals executed so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Takes a fresh cumulative poll without advancing the platform or the
    /// policy (an independent measurement process, like the paper's
    /// side-band pqos monitor in Fig. 11).
    pub fn observe(&self) -> Poll {
        self.monitor.poll(self.platform.llc(), self.platform.bank())
    }

    /// Deltas between two cumulative observations.
    pub fn deltas_between(before: &Poll, after: &Poll) -> IntervalDeltas {
        let mut w = iat_perf::DeltaWindow::new();
        w.advance(before.clone());
        w.advance(after.clone()).expect("same tenant set")
    }

    /// Modelled time in seconds.
    pub fn time_s(&self) -> f64 {
        self.platform.time_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{compile, NicDesc, ScenarioBuilder, TenantDesc, TrafficDesc, WorkloadDesc};
    use crate::scenarios::PolicyKind;
    use iat_netsim::{FlowDist, FlowId};
    use iat_platform::PlatformConfig;
    use iat_telemetry::RingRecorder;

    /// A tiny managed platform with one testpmd tenant at 10 Gb/s, so
    /// the poll carries DDIO traffic.
    fn managed() -> Managed {
        let traffic = TrafficDesc::new(0, 10_000_000_000, 64, FlowDist::Single(FlowId(0)));
        let pmd = TenantDesc::new("pmd", WorkloadDesc::TestPmd { ports: vec![0] })
            .cores(&[0])
            .io()
            .traffic(traffic);
        let desc = ScenarioBuilder::new("poll")
            .geometry(PlatformConfig::tiny())
            .nic(NicDesc::ports(1))
            .policy(PolicyKind::Baseline(0))
            .interval_ns(10_000_000)
            .tenant(pmd)
            .desc();
        compile(&desc, 1).into_managed()
    }

    #[test]
    fn traced_interval_emits_one_poll_sample_matching_the_poll() {
        let mut m = managed();
        let mut rec = RingRecorder::new(1024);
        m.step_interval_traced(&mut rec);
        let samples: Vec<Event> =
            rec.drain().into_iter().filter(|e| e.kind() == "poll_sample").collect();
        assert_eq!(samples.len(), 1, "one poll sample per interval");
        let poll = m.last_poll.as_ref().expect("the interval polled");
        let Event::PollSample {
            stamp,
            tenant_count,
            llc_refs,
            llc_misses,
            ddio_hits,
            ddio_misses,
            cost_ns,
        } = &samples[0]
        else {
            unreachable!("filtered to poll samples")
        };
        assert_eq!(*stamp, Stamp { iter: 1, time_ns: m.platform.time_ns() });
        assert_eq!(usize::from(*tenant_count), poll.tenants.len());
        assert_eq!(*llc_refs, poll.tenants.iter().map(|t| t.llc_references).sum::<u64>());
        assert_eq!(*llc_misses, poll.tenants.iter().map(|t| t.llc_misses).sum::<u64>());
        assert_eq!((*ddio_hits, *ddio_misses), (poll.system.ddio_hits, poll.system.ddio_misses));
        assert_eq!(*cost_ns, poll.cost_ns as u64);
        assert!(*llc_refs > 0 && *ddio_hits + *ddio_misses > 0, "the sample saw traffic");
    }

    #[test]
    fn disabled_recorder_interval_records_nothing() {
        /// Counts every event it is handed, while reporting itself
        /// disabled the way `NullRecorder` does.
        struct Disabled(usize);
        impl Recorder for Disabled {
            fn record(&mut self, _: Event) {
                self.0 += 1;
            }
            fn enabled(&self) -> bool {
                false
            }
        }
        let mut m = managed();
        let mut rec = Disabled(0);
        m.step_interval_traced(&mut rec);
        assert!(m.last_poll.is_some(), "the interval still polled");
        assert_eq!(rec.0, 0, "a disabled recorder is handed no events");
    }
}
