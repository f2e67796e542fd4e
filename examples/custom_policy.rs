//! Writing your own LLC management policy against the same interfaces IAT
//! uses: implement [`LlcPolicy`], observe only performance counters, act
//! only through the RDT register file.
//!
//! The toy policy below is a DDIO "ping-pong": it widens DDIO whenever the
//! DDIO miss share of traffic exceeds 20%, and narrows it when below 5% —
//! a crude, hysteresis-free cousin of IAT's FSM, useful as a starting
//! point for experimentation.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use iat_repro::cachesim::{AgentId, WayMask};
use iat_repro::iat::{Action, LlcPolicy, State, StepReport, TenantInfo};
use iat_repro::netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
use iat_repro::perf::{DdioSampleMode, DeltaWindow, Monitor, Poll};
use iat_repro::platform::{Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_repro::rdt::{ClosId, Rdt};
use iat_repro::telemetry::Recorder;
use iat_repro::workloads::TestPmd;

struct PingPong {
    window: DeltaWindow,
}

impl LlcPolicy for PingPong {
    fn name(&self) -> &str {
        "ping-pong"
    }

    fn set_tenants(&mut self, tenants: Vec<TenantInfo>, rdt: &mut Rdt) {
        // Static layout: pack tenants from way 0.
        let mut start = 0u8;
        for t in &tenants {
            let mask = WayMask::contiguous(start, t.initial_ways).expect("fits");
            rdt.set_clos_mask(t.clos, mask).expect("valid mask");
            start += t.initial_ways;
        }
    }

    // A policy implements the traced step; `LlcPolicy::step` calls it
    // with a `NullRecorder`. This toy narrates nothing.
    fn step_traced(
        &mut self,
        rdt: &mut Rdt,
        poll: Poll,
        _now_ns: u64,
        _rec: &mut dyn Recorder,
    ) -> StepReport {
        let cost_ns = poll.cost_ns;
        let Some(d) = self.window.advance(poll) else {
            return StepReport {
                state: State::LowKeep,
                action: Action::None,
                stable: true,
                cost_ns,
                msr_writes: 0,
            };
        };
        let total = (d.system.ddio_hits + d.system.ddio_misses).max(1) as f64;
        let miss_share = d.system.ddio_misses as f64 / total;
        let ways = rdt.ddio_ways();
        let top = rdt.ways();
        let action = if miss_share > 0.20 && ways < 6 {
            rdt.set_ddio_mask(WayMask::contiguous(top - ways - 1, ways + 1).expect("mask"))
                .expect("valid mask");
            Action::GrowDdio
        } else if miss_share < 0.05 && ways > 1 {
            rdt.set_ddio_mask(WayMask::contiguous(top - ways + 1, ways - 1).expect("mask"))
                .expect("valid mask");
            Action::ShrinkDdio
        } else {
            Action::None
        };
        StepReport {
            state: State::LowKeep,
            action,
            stable: action == Action::None,
            cost_ns,
            msr_writes: u64::from(action != Action::None),
        }
    }
}

fn main() {
    let config = PlatformConfig::xeon_6140();
    let mut platform = Platform::new(config);
    let mut nic = Nic::with_pool(64 << 30, 1, 1024, 2112, 3072);
    platform.add_tenant(Tenant {
        id: TenantId(0),
        name: "testpmd".into(),
        agent: AgentId::new(0),
        cores: vec![0, 1],
        clos: ClosId::new(1),
        workload: Box::new(TestPmd::new(nic.vf_mut(VfId(0)).clone())),
        bindings: vec![TrafficBinding {
            port: 0,
            gen: TrafficGen::new(
                40_000_000_000,
                1024,
                FlowDist::Single(FlowId(0)),
                TrafficPattern::Constant,
                1,
            ),
        }],
    });

    let mut policy = PingPong { window: DeltaWindow::new() };
    policy.set_tenants(
        vec![TenantInfo {
            agent: AgentId::new(0),
            clos: ClosId::new(1),
            cores: vec![0, 1],
            priority: iat_repro::iat::Priority::Pc,
            is_io: true,
            initial_ways: 2,
        }],
        platform.rdt_mut(),
    );
    let monitor = Monitor::new(platform.monitor_spec(), DdioSampleMode::OneSlice(0));

    println!("t(s)  action       ddio_ways");
    for t in 1..=8 {
        platform.run_epochs(platform.epochs_per_second());
        let poll = monitor.poll(platform.llc(), platform.bank());
        let r = policy.step(platform.rdt_mut(), poll);
        println!("{:>4}  {:<11}  {:>9}", t, format!("{:?}", r.action), platform.rdt().ddio_ways());
    }
    println!("\nSwap `PingPong` for `iat::IatDaemon` to get the full paper mechanism.");
}
