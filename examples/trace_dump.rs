//! Flight-recorder tour: run the Leaky-DMA scenario (1.5 KB line-rate
//! traffic through testpmd) under the IAT daemon with a [`RingRecorder`]
//! attached, then dump the decision timeline — poll samples, Fig. 6 FSM
//! edges, DDIO resizes, the CLOS mask writes behind them, and one
//! `decision` line per iteration.
//!
//! ```sh
//! cargo run --example trace_dump
//! ```

use iat_repro::cachesim::AgentId;
use iat_repro::iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, TenantInfo};
use iat_repro::netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
use iat_repro::perf::{DdioSampleMode, Monitor};
use iat_repro::platform::{record_poll, Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_repro::rdt::ClosId;
use iat_repro::telemetry::{render_timeline, summarize, RingRecorder, Stamp};
use iat_repro::workloads::TestPmd;

fn main() {
    let config = PlatformConfig { time_scale: 500, ..PlatformConfig::xeon_6140() };
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
                1500,
                FlowDist::Single(FlowId(0)),
                TrafficPattern::Constant,
                42,
            ),
        }],
    });
    let mut daemon = IatDaemon::new(
        IatConfig { threshold_miss_low_per_s: config.scale_rate(1e6), ..IatConfig::paper() },
        IatFlags::full(),
        config.llc.ways(),
    );
    daemon.set_tenants(
        vec![TenantInfo {
            agent: AgentId::new(0),
            clos: ClosId::new(1),
            cores: vec![0, 1],
            priority: Priority::Pc,
            is_io: true,
            initial_ways: 2,
        }],
        platform.rdt_mut(),
    );
    let monitor = Monitor::new(platform.monitor_spec(), DdioSampleMode::OneSlice(0));

    // Ten daemon intervals of sustained line rate: DDIO grows from its
    // 2-way default to the configured maximum, then the FSM settles.
    let mut rec = RingRecorder::new(1024);
    for iter in 1..=10u64 {
        platform.run_epochs(platform.epochs_per_second());
        let stamp = Stamp { iter, time_ns: platform.time_ns() };
        let poll = monitor.poll(platform.llc(), platform.bank());
        record_poll(&poll, stamp, &mut rec);
        daemon.step_traced(platform.rdt_mut(), poll, stamp.time_ns, &mut rec);
    }

    let events = rec.drain();
    println!("== Leaky-DMA decision timeline ({} events) ==\n", events.len());
    print!("{}", render_timeline(&events));
    println!("\n== Metrics summary ==\n");
    println!("{}", summarize(&events).snapshot().to_json().pretty());
}
