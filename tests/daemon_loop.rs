//! Closed-loop integration of the IAT daemon against the simulated
//! platform: the daemon observes only performance counters and acts only
//! through the RDT register file, and the paper's adaptive behaviours
//! emerge.

use iat_repro::cachesim::AgentId;
use iat_repro::iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, State, TenantInfo};
use iat_repro::netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
use iat_repro::perf::{DdioSampleMode, Monitor};
use iat_repro::platform::{Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_repro::rdt::ClosId;
use iat_repro::workloads::TestPmd;

fn test_config() -> PlatformConfig {
    PlatformConfig { time_scale: 500, ..PlatformConfig::xeon_6140() }
}

fn build() -> (Platform, IatDaemon, Monitor) {
    let config = test_config();
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
    (platform, daemon, monitor)
}

fn one_interval(platform: &mut Platform, daemon: &mut IatDaemon, monitor: &Monitor) -> State {
    platform.run_epochs(platform.epochs_per_second());
    let poll = monitor.poll(platform.llc(), platform.bank());
    daemon.step(platform.rdt_mut(), poll).state
}

#[test]
fn daemon_grows_ddio_under_line_rate_and_reclaims_when_idle() {
    let (mut platform, mut daemon, monitor) = build();
    assert_eq!(platform.rdt().ddio_ways(), 2, "hardware default");

    // Sustained 1.5 KB line rate: the daemon must reach DDIO_WAYS_MAX.
    for _ in 0..10 {
        one_interval(&mut platform, &mut daemon, &monitor);
    }
    assert_eq!(
        platform.rdt().ddio_ways(),
        daemon.config().ddio_ways_max,
        "line-rate MTU traffic must drive DDIO to its maximum ways"
    );
    assert_eq!(daemon.state(), State::HighKeep);

    // Traffic dies: the daemon must hand the capacity back.
    platform.tenant_mut(TenantId(0)).bindings[0].gen.set_rate(50_000_000);
    for _ in 0..12 {
        one_interval(&mut platform, &mut daemon, &monitor);
    }
    assert_eq!(
        platform.rdt().ddio_ways(),
        daemon.config().ddio_ways_min,
        "idle I/O must be reclaimed to DDIO_WAYS_MIN"
    );
    assert_eq!(daemon.state(), State::LowKeep);
}

#[test]
fn daemon_never_programs_invalid_masks() {
    let (mut platform, mut daemon, monitor) = build();
    for _ in 0..8 {
        one_interval(&mut platform, &mut daemon, &monitor);
        let rdt = platform.rdt();
        // Tenant mask stays contiguous and non-empty throughout.
        let mask = rdt.clos_mask(ClosId::new(1));
        assert!(mask.is_contiguous());
        assert!(mask.count() >= 1);
        assert!(rdt.ddio_ways() >= 1 && rdt.ddio_ways() <= 6);
    }
}

#[test]
fn stable_traffic_means_sleeping_daemon() {
    let (mut platform, mut daemon, monitor) = build();
    // Let the system converge first.
    for _ in 0..10 {
        one_interval(&mut platform, &mut daemon, &monitor);
    }
    let writes_before = platform.rdt().msr_writes();
    // Converged + constant traffic: further iterations must be no-ops.
    for _ in 0..3 {
        platform.run_epochs(platform.epochs_per_second());
        let poll = monitor.poll(platform.llc(), platform.bank());
        daemon.step(platform.rdt_mut(), poll);
    }
    assert_eq!(
        platform.rdt().msr_writes(),
        writes_before,
        "a stable system must not trigger register writes"
    );
}
