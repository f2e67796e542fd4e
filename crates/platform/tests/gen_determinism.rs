//! Sharded front-end determinism: the lane adapter (`--gen-workers N`)
//! must be **bit-identical** to the inline front end (the default,
//! `--gen-workers 0`) — same LLC state digest, same per-agent counters,
//! same memory traffic, same workload metrics, same epoch report — for
//! any worker count, in both exact and sampled (warm→measure,
//! checkpoint/repair) modes.
//!
//! The scenario is chosen to exercise the co-sharding rules: an OVS
//! switch and a channel-echo tenant share a channel pair (must land in
//! one shard), while an X-Mem tenant and an L3Fwd tenant are
//! independent (own shards) — three shards total, so `--gen-workers 4`
//! also covers the workers-capped-by-shards case.

use iat_cachesim::config::{set_gen_workers, set_thread_sampling, SamplingLevel, SamplingSpec};
use iat_cachesim::AgentId;
use iat_netsim::{FlowDist, Nic, RxRing, TrafficGen, TrafficPattern, VfId};
use iat_platform::{
    take_sim_accesses, take_skipped_epochs, Platform, PlatformConfig, Tenant, TenantId,
    TrafficBinding,
};
use iat_rdt::ClosId;
use iat_workloads::{
    Attachment, ChannelEcho, HashRegion, L3Fwd, OvsConfig, OvsSwitch, WorkloadMetrics, XMem,
};
use proptest::prelude::*;

/// Restores the process-global generation knob even if a case panics
/// (proptest catches unwinds while shrinking).
struct GenGuard;
impl Drop for GenGuard {
    fn drop(&mut self) {
        set_gen_workers(None);
        set_thread_sampling(None);
    }
}

fn build(config: PlatformConfig, rate_bps: u64, pkt: u32, seed: u64) -> Platform {
    let mut platform = Platform::new(config);

    // Tenants 0+1: OVS switch and a guest echoing packets back through a
    // shared channel pair — an inter-workload dependency that forces the
    // two tenants into the same shard.
    let ring_base = 1 << 30;
    let c0 = platform.channels_mut().add(RxRing::new(ring_base, 256, 2112));
    let c1 = platform.channels_mut().add(RxRing::new(ring_base + (1 << 20), 256, 2112));
    let mut ovs_nic = Nic::with_pool(64 << 30, 1, 256, 2112, 512);
    let ovs = OvsSwitch::new(
        vec![ovs_nic.vf_mut(VfId(0)).clone()],
        vec![Attachment { to_tenant: c0, from_tenant: c1 }],
        2 << 30,
        3 << 30,
        OvsConfig::default(),
    );
    platform.add_tenant(Tenant {
        id: TenantId(0),
        name: "ovs".into(),
        agent: AgentId::new(0),
        cores: vec![0],
        clos: ClosId::new(1),
        workload: Box::new(ovs),
        bindings: vec![TrafficBinding {
            port: 0,
            gen: TrafficGen::new(
                rate_bps,
                pkt,
                FlowDist::Uniform { count: 1 << 10 },
                TrafficPattern::Constant,
                seed,
            ),
        }],
    });
    platform.add_tenant(Tenant {
        id: TenantId(1),
        name: "echo".into(),
        agent: AgentId::new(1),
        cores: vec![1],
        clos: ClosId::new(1),
        workload: Box::new(ChannelEcho::new(c0, c1)),
        bindings: vec![],
    });

    // Tenant 2: pure compute, its own shard.
    platform.add_tenant(Tenant {
        id: TenantId(2),
        name: "xmem".into(),
        agent: AgentId::new(2),
        cores: vec![2],
        clos: ClosId::new(2),
        workload: Box::new(XMem::new(4 << 30, 1 << 20, seed ^ 0x9e37)),
        bindings: vec![],
    });

    // Tenant 3: its own NIC and traffic, its own shard.
    let mut fwd_nic = Nic::with_pool(80 << 30, 1, 256, 2112, 512);
    let table = HashRegion::new(5 << 30, 1 << 12, 1);
    platform.add_tenant(Tenant {
        id: TenantId(3),
        name: "l3fwd".into(),
        agent: AgentId::new(3),
        cores: vec![3],
        clos: ClosId::new(3),
        workload: Box::new(L3Fwd::new(fwd_nic.vf_mut(VfId(0)).clone(), table)),
        bindings: vec![TrafficBinding {
            port: 0,
            gen: TrafficGen::new(
                rate_bps / 2,
                pkt,
                FlowDist::Uniform { count: 1 << 12 },
                TrafficPattern::Constant,
                seed + 7,
            ),
        }],
    });
    platform
}

/// Everything observable that must match bit-for-bit across worker
/// counts.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    digest: u64,
    accesses: u64,
    agents: Vec<iat_cachesim::AgentStats>,
    ddio_hits: u64,
    ddio_misses: u64,
    mem_read_lines: u64,
    mem_write_lines: u64,
    metrics: Vec<WorkloadMetrics>,
    time_ns: u64,
    delivered: u64,
    dropped: u64,
    sim_accesses: u64,
    skipped_epochs: u64,
    measured_epochs: Option<u64>,
}

fn run(workers: Option<u32>, sampled: Option<SamplingSpec>, rate: u64, pkt: u32, seed: u64,
       epochs: usize) -> Fingerprint {
    let config = if sampled.is_some() {
        // Long epochs → 10-epoch sampling intervals (`1 s / epoch_ns`),
        // so a short run crosses several skip→warm→measure cycles; the
        // higher time_scale keeps the per-epoch work small.
        PlatformConfig {
            epoch_ns: 100_000_000,
            time_scale: 20_000,
            ..PlatformConfig::tiny()
        }
    } else {
        PlatformConfig::tiny()
    };
    // Drain any leftovers from a previous run on this thread.
    take_sim_accesses();
    take_skipped_epochs();
    set_thread_sampling(sampled);
    set_gen_workers(workers);
    let mut platform = build(config, rate, pkt, seed);
    let report = platform.run_epochs(epochs);
    set_gen_workers(None);
    set_thread_sampling(None);

    let st = platform.llc().stats();
    let mut agents: Vec<_> =
        (0..4).map(|i| st.agent(AgentId::new(i))).collect();
    agents.push(st.agent(AgentId::IO));
    let mut fp = Fingerprint {
        digest: platform.llc().state_digest(),
        accesses: platform.hierarchy().accesses(),
        agents,
        ddio_hits: st.ddio_hits(),
        ddio_misses: st.ddio_misses(),
        mem_read_lines: platform.llc().mem().read_lines(),
        mem_write_lines: platform.llc().mem().write_lines(),
        metrics: (0..4).map(|i| platform.metrics_of(TenantId(i))).collect(),
        time_ns: report.time_ns,
        delivered: report.packets_delivered,
        dropped: report.packets_dropped,
        sim_accesses: 0,
        skipped_epochs: 0,
        measured_epochs: platform.measured_epochs(),
    };
    // The thread-local attribution counters accumulate on Platform drop.
    drop(platform);
    fp.sim_accesses = take_sim_accesses();
    fp.skipped_epochs = take_skipped_epochs();
    fp
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn sharded_generation_matches_serial_oracle(
        rate_gbps in 1u64..=4,
        pkt_idx in 0usize..3,
        seed in 1u64..1000,
    ) {
        let _guard = GenGuard;
        let rate = rate_gbps * 1_000_000_000;
        let pkt = [64u32, 256, 1024][pkt_idx];

        // Exact mode: every epoch simulated, stats always accruing.
        let oracle = run(Some(0), None, rate, pkt, seed, 10);
        for workers in [1u32, 4] {
            let got = run(Some(workers), None, rate, pkt, seed, 10);
            prop_assert_eq!(
                &got, &oracle,
                "exact mode diverged with --gen-workers {}", workers
            );
        }
        prop_assert!(oracle.delivered > 0, "scenario must move packets");

        // Sampled mode: cold start, warm→measure transitions with frozen
        // stats in fast-forwarded epochs, and the checkpoint/
        // repair_occupancy hand-off all run through the same sharded
        // front end and must stay bit-identical too.
        let spec = SamplingSpec {
            cold_start_epochs: 4,
            reconverge_epochs: 6,
            ..SamplingLevel::Standard.spec()
        };
        let oracle = run(Some(0), Some(spec), rate, pkt, seed, 40);
        prop_assert!(oracle.skipped_epochs > 0, "sampled run must fast-forward");
        prop_assert!(
            oracle.measured_epochs.unwrap_or(0) > 0,
            "sampled run must reach measured epochs"
        );
        for workers in [1u32, 4] {
            let got = run(Some(workers), Some(spec), rate, pkt, seed, 40);
            prop_assert_eq!(
                &got, &oracle,
                "sampled mode diverged with --gen-workers {}", workers
            );
        }
    }
}
