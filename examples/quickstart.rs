//! Quickstart: build a simulated server, run a networking tenant under
//! line-rate traffic, and let the IAT daemon manage the LLC.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use iat_repro::cachesim::AgentId;
use iat_repro::iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, TenantInfo};
use iat_repro::netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
use iat_repro::perf::{DdioSampleMode, Monitor};
use iat_repro::platform::{Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_repro::rdt::ClosId;
use iat_repro::workloads::{TestPmd, XMem};

fn main() {
    // 1. The paper's Xeon Gold 6140 socket (Table I), time-scaled 1/100.
    let config = PlatformConfig::xeon_6140();
    let mut platform = Platform::new(config);

    // 2. A networking tenant: testpmd on a VF, fed 40 Gb/s of 1.5 KB
    //    packets — the Leaky DMA regime.
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

    // 3. A compute tenant: X-Mem with an 8 MB random-read working set.
    platform.add_tenant(Tenant {
        id: TenantId(1),
        name: "x-mem".into(),
        agent: AgentId::new(1),
        cores: vec![2],
        clos: ClosId::new(2),
        workload: Box::new(XMem::new(1 << 30, 8 << 20, 7)),
        bindings: vec![],
    });

    // 4. The IAT daemon: it learns the tenants, programs the initial CAT
    //    layout, then manages the LLC from performance counters alone.
    let mut daemon = IatDaemon::new(
        IatConfig { threshold_miss_low_per_s: config.scale_rate(1e6), ..IatConfig::paper() },
        IatFlags::full(),
        config.llc.ways(),
    );
    daemon.set_tenants(
        vec![
            TenantInfo {
                agent: AgentId::new(0),
                clos: ClosId::new(1),
                cores: vec![0, 1],
                priority: Priority::Pc,
                is_io: true,
                initial_ways: 2,
            },
            TenantInfo {
                agent: AgentId::new(1),
                clos: ClosId::new(2),
                cores: vec![2],
                priority: Priority::Be,
                is_io: false,
                initial_ways: 2,
            },
        ],
        platform.rdt_mut(),
    );
    let monitor = Monitor::new(platform.monitor_spec(), DdioSampleMode::OneSlice(0));

    // 5. Run ten one-second management intervals.
    println!("t(s)  state        action            ddio_ways  ddio_miss_total");
    for t in 1..=10 {
        platform.run_epochs(platform.epochs_per_second());
        let poll = monitor.poll(platform.llc(), platform.bank());
        let report = daemon.step(platform.rdt_mut(), poll);
        println!(
            "{:>4}  {:<11}  {:<16}  {:>9}  {:>15}",
            t,
            report.state.to_string(),
            format!("{:?}", report.action),
            platform.rdt().ddio_ways(),
            platform.llc().stats().ddio_misses(),
        );
    }

    let m = platform.metrics_of(TenantId(0));
    println!(
        "\ntestpmd forwarded {} packets (avg {:.0} cycles/pkt); x-mem did {} reads.",
        m.ops,
        m.avg_op_cycles,
        platform.metrics_of(TenantId(1)).ops
    );
    println!(
        "Under sustained 1.5 KB line-rate traffic IAT grows DDIO from its default 2 \n\
         ways toward DDIO_WAYS_MAX, relieving the Leaky DMA pressure."
    );
}
