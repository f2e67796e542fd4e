//! The common policy interface and the paper's baselines.
//!
//! * **baseline** — [`StaticCat`]: default DDIO configuration, basic static
//!   CAT for cores, never adjusted (paper Sec. VI-B).
//! * **Core-only** — [`crate::IatDaemon`] with [`crate::IatFlags::core_only`].
//! * **I/O-iso** — [`crate::IatDaemon`] with [`crate::IatFlags::io_iso`].
//! * **IAT** — [`crate::IatDaemon`] with [`crate::IatFlags::full`].

use crate::daemon::{Action, StepReport};
use crate::fsm::State;
use crate::layout::LayoutPlanner;
use crate::tenant_info::TenantInfo;
use iat_perf::Poll;
use iat_rdt::Rdt;
use iat_telemetry::{NullRecorder, Recorder};

/// An LLC management policy stepped once per polling interval.
pub trait LlcPolicy {
    /// Short policy name for reports (e.g. `"iat"`, `"baseline"`).
    fn name(&self) -> &str;

    /// Registers the tenant set and programs the initial allocation.
    fn set_tenants(&mut self, tenants: Vec<TenantInfo>, rdt: &mut Rdt);

    /// One management iteration given a fresh cumulative counter poll,
    /// narrating its decision to `rec` with events stamped at `now_ns`
    /// of simulated time. Static policies have no decisions to narrate
    /// and ignore the recorder.
    fn step_traced(
        &mut self,
        rdt: &mut Rdt,
        poll: Poll,
        now_ns: u64,
        rec: &mut dyn Recorder,
    ) -> StepReport;

    /// [`LlcPolicy::step_traced`] with a [`NullRecorder`] at time zero.
    fn step(&mut self, rdt: &mut Rdt, poll: Poll) -> StepReport {
        self.step_traced(rdt, poll, 0, &mut NullRecorder)
    }
}

/// The paper's *baseline*: a static CAT layout programmed once, DDIO-
/// unaware, and never revisited; DDIO keeps its hardware default of two
/// ways.
///
/// The paper's baselines "randomly shuffle" the initial layout, so some
/// layouts happen to place tenants on DDIO's ways (the max-degradation
/// runs) and some do not (the min): `with_rotation`'s parameter seeds a
/// deterministic shuffle of both tenant *order* and the packing *offset*
/// within the LLC.
#[derive(Debug, Clone)]
pub struct StaticCat {
    planner: LayoutPlanner,
    rotation: usize,
}

impl StaticCat {
    /// Creates the baseline for an LLC with `ways` ways (seed 0).
    pub fn new(ways: u8) -> Self {
        StaticCat { planner: LayoutPlanner::new(ways), rotation: 0 }
    }

    /// Creates a baseline whose layout is the deterministic shuffle
    /// number `rotation`.
    pub fn with_rotation(ways: u8, rotation: usize) -> Self {
        StaticCat { planner: LayoutPlanner::new(ways), rotation }
    }
}

impl LlcPolicy for StaticCat {
    fn name(&self) -> &str {
        "baseline"
    }

    fn set_tenants(&mut self, tenants: Vec<TenantInfo>, rdt: &mut Rdt) {
        let mut inputs: Vec<crate::layout::PlanInput> = tenants
            .iter()
            .map(|t| crate::layout::PlanInput {
                agent: t.agent,
                clos: t.clos,
                priority: t.priority,
                ways: t.initial_ways,
                llc_refs: 0,
            })
            .collect();
        // Deterministic Fisher–Yates keyed by the rotation seed.
        let mut state = self.rotation as u64 ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..inputs.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            inputs.swap(i, j);
        }
        // Random packing offset within the unallocated slack, so layouts
        // can land on the (DDIO) top ways.
        let total: u32 = inputs.iter().map(|t| t.ways as u32).sum();
        let slack = (self.planner.ways() as u32).saturating_sub(total) as u64;
        let offset = if slack == 0 { 0 } else { next() % (slack + 1) } as u8;
        for p in self.planner.plan(&inputs, 0, false, false) {
            let shifted =
                iat_cachesim::WayMask::from_bits(p.mask.bits() << offset);
            rdt.set_clos_mask(p.clos, shifted).expect("valid static layout");
        }
    }

    fn step_traced(
        &mut self,
        _rdt: &mut Rdt,
        poll: Poll,
        _now_ns: u64,
        _rec: &mut dyn Recorder,
    ) -> StepReport {
        StepReport {
            state: State::LowKeep,
            action: Action::None,
            stable: true,
            cost_ns: poll.cost_ns,
            msr_writes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IatConfig;
    use crate::daemon::{IatDaemon, IatFlags};
    use crate::tenant_info::Priority;
    use iat_cachesim::AgentId;
    use iat_perf::{CoreCounters, SystemSample, TenantSample};
    use iat_rdt::ClosId;

    fn tenants() -> Vec<TenantInfo> {
        (0..3u16)
            .map(|i| TenantInfo {
                agent: AgentId::new(i),
                clos: ClosId::new((i + 1) as u8),
                cores: vec![i as usize],
                priority: Priority::Be,
                is_io: false,
                initial_ways: 2,
            })
            .collect()
    }

    fn empty_poll() -> Poll {
        Poll {
            tenants: (0..3u16)
                .map(|i| TenantSample {
                    agent: AgentId::new(i),
                    core: CoreCounters::default(),
                    llc_references: 0,
                    llc_misses: 0,
                })
                .collect(),
            system: SystemSample {
                ddio_hits: 0,
                ddio_misses: 0,
                mem_read_bytes: 0,
                mem_write_bytes: 0,
            },
            cost_ns: 1.0,
        }
    }

    #[test]
    fn static_cat_never_changes_anything() {
        let mut rdt = Rdt::new(11, 4);
        let mut p = StaticCat::new(11);
        p.set_tenants(tenants(), &mut rdt);
        let writes = rdt.msr_writes();
        for _ in 0..5 {
            let r = p.step(&mut rdt, empty_poll());
            assert!(r.stable);
        }
        assert_eq!(rdt.msr_writes(), writes);
        assert_eq!(rdt.ddio_ways(), 2);
    }

    #[test]
    fn rotation_changes_who_sits_on_top() {
        let mut rdt_a = Rdt::new(11, 4);
        StaticCat::with_rotation(11, 0).set_tenants(tenants(), &mut rdt_a);
        let mut rdt_b = Rdt::new(11, 4);
        StaticCat::with_rotation(11, 1).set_tenants(tenants(), &mut rdt_b);
        assert_ne!(rdt_a.clos_mask(ClosId::new(1)), rdt_b.clos_mask(ClosId::new(1)));
    }

    #[test]
    fn policy_names() {
        assert_eq!(StaticCat::new(11).name(), "baseline");
        assert_eq!(IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11).name(), "iat");
        assert_eq!(
            IatDaemon::new(IatConfig::paper(), IatFlags::core_only(), 11).name(),
            "core-only"
        );
        assert_eq!(IatDaemon::new(IatConfig::paper(), IatFlags::io_iso(), 11).name(), "io-iso");
    }
}
