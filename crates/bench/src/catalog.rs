//! The named-scenario registry: every platform setup the paper figures
//! use, as enumerable *data* ([`ScenarioParams`] → [`describe`] →
//! [`ScenarioDesc`]), plus the figure catalog ([`FIGURES`]) that lists
//! each of the 13 figures/tables with its runner-job registration.
//!
//! [`build`] is the only way a figure gets a simulation, and
//! [`crate::builder::apply_action`] the only way it changes one
//! mid-run. Figures name tenants through
//! [`iat_platform::Platform::tenant_id`], so the [`TenantDesc`] names
//! assigned here (`"ovs"`, `"redis0"`, `"xmem-pc4"`, `"rocksdb"`, the
//! SPEC profile name, `"l3fwd"`, `"x-mem"`, …) are the one place that
//! says which tenant plays which role. [`crate::jobs::registry`] is
//! built by walking [`FIGURES`] in order.

use crate::builder::{
    compile, Built, NicDesc, ScenarioBuilder, ScenarioDesc, TenantDesc, TrafficDesc, WorkloadDesc,
};
use crate::scenarios::{NetApp, PcApp, PolicyKind, LINE_RATE_40G};
use iat::Priority;
use iat_netsim::{rate_for_pps, FlowDist, FlowId};
use iat_runner::Registry;
use iat_workloads::{KvConfig, NfChainConfig, YcsbMix};

/// Parameters selecting and configuring one named scenario family.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioParams {
    /// `aggregation` — two NIC ports into OVS, two testpmd tenants
    /// behind virtio channels (Fig. 8/9's Leaky-DMA microbenchmark).
    Aggregation {
        /// Packet size in bytes.
        packet_bytes: u32,
        /// Flows per port (1 = single-flow line rate).
        flows_per_port: u32,
        /// Management policy.
        policy: PolicyKind,
    },
    /// `l3fwd-slicing` — one l3fwd tenant on two static ways with a
    /// configurable Rx ring, unmanaged (Fig. 3's ring-size sweep).
    L3fwdSlicing {
        /// Rx/Tx descriptor ring depth.
        ring_entries: usize,
        /// Packet size in bytes.
        packet_bytes: u32,
        /// Offered rate in bits per second.
        rate_bps: u64,
    },
    /// `latent-contender` — l3fwd at line rate plus an X-Mem tenant on
    /// dedicated or DDIO-overlapping ways, unmanaged (Fig. 4).
    LatentContender {
        /// X-Mem working-set bytes.
        working_set: u64,
        /// Place X-Mem on DDIO's default ways instead of dedicated ones.
        ddio_overlap: bool,
        /// Packet size in bytes.
        packet_bytes: u32,
    },
    /// `slicing-pmd-xmem` — a PC testpmd pair plus three X-Mem
    /// containers (Fig. 10/11 and the ablation).
    SlicingPmdXmem {
        /// Packet size in bytes.
        packet_bytes: u32,
        /// Management policy.
        policy: PolicyKind,
    },
    /// `app-corun` — the Sec. VI-C application co-run: a networking app
    /// (Redis-behind-OVS or a FastClick chain), an optional PC app, and
    /// optional best-effort X-Mem containers (Fig. 12/13/14).
    AppCorun {
        /// The networking side.
        net: NetApp,
        /// The PC container.
        pc: PcApp,
        /// YCSB mix driving the Redis containers.
        mix: YcsbMix,
        /// Add the two best-effort X-Mem containers.
        with_be: bool,
        /// Management policy.
        policy: PolicyKind,
    },
    /// `pc-solo` — just the PC workload under a static baseline
    /// (Fig. 12/13 normalization runs).
    PcSolo {
        /// The PC workload.
        pc: PcApp,
    },
}

/// Compiles scenario parameters into their full description. This is
/// the single source of truth for every figure's platform setup — the
/// values here are the paper's (Sec. VI-A/B/C), and the committed
/// captures pin them byte-for-byte.
pub fn describe(params: &ScenarioParams) -> ScenarioDesc {
    match params {
        ScenarioParams::Aggregation { packet_bytes, flows_per_port, policy } => {
            let dist = |first_flow: u32| {
                if *flows_per_port <= 1 {
                    FlowDist::Single(FlowId(first_flow))
                } else {
                    FlowDist::Uniform { count: *flows_per_port }
                }
            };
            ScenarioBuilder::new("aggregation")
                .nic(NicDesc::ports(2))
                .policy(*policy)
                .tenant(
                    TenantDesc::new(
                        "ovs",
                        WorkloadDesc::Ovs {
                            ports: vec![0, 1],
                            attachments: 2,
                            emc_entries: 8192,
                            mega_entries: 1 << 20,
                        },
                    )
                    .cores(&[0, 1])
                    .priority(Priority::Stack)
                    .io()
                    .ways(2)
                    .traffic(TrafficDesc::new(0, LINE_RATE_40G, *packet_bytes, dist(0)))
                    .traffic(
                        TrafficDesc::new(1, LINE_RATE_40G, *packet_bytes, dist(1)).seed_offset(1),
                    ),
                )
                .tenant(
                    TenantDesc::new("testpmd0", WorkloadDesc::ChannelEcho { attachment: 0 })
                        .cores(&[2, 3])
                        .io()
                        .ways(1),
                )
                .tenant(
                    TenantDesc::new("testpmd1", WorkloadDesc::ChannelEcho { attachment: 1 })
                        .cores(&[4, 5])
                        .io()
                        .ways(1),
                )
                .desc()
        }
        ScenarioParams::L3fwdSlicing { ring_entries, packet_bytes, rate_bps } => {
            ScenarioBuilder::new("l3fwd-slicing")
                .nic(NicDesc::ports(1).ring_entries(*ring_entries))
                .tenant(
                    TenantDesc::new(
                        "l3fwd",
                        WorkloadDesc::L3Fwd { port: 0, flow_entries: 1 << 20 },
                    )
                    .cores(&[0])
                    .static_mask(0, 2)
                    .traffic(TrafficDesc::new(
                        0,
                        *rate_bps,
                        *packet_bytes,
                        FlowDist::Uniform { count: 1 << 20 },
                    )),
                )
                .desc()
        }
        ScenarioParams::LatentContender { working_set, ddio_overlap, packet_bytes } => {
            let (first, count) = if *ddio_overlap { (9, 2) } else { (2, 2) };
            ScenarioBuilder::new("latent-contender")
                .nic(NicDesc::ports(1))
                .tenant(
                    TenantDesc::new(
                        "l3fwd",
                        WorkloadDesc::L3Fwd { port: 0, flow_entries: 1 << 20 },
                    )
                    .cores(&[0])
                    .static_mask(0, 2)
                    .traffic(TrafficDesc::new(
                        0,
                        LINE_RATE_40G,
                        *packet_bytes,
                        FlowDist::Uniform { count: 1 << 20 },
                    )),
                )
                .tenant(
                    TenantDesc::new(
                        "x-mem",
                        WorkloadDesc::XMem {
                            heap_bytes: 64 << 20,
                            working_set: *working_set,
                            seed_offset: 0,
                        },
                    )
                    .cores(&[1])
                    .static_mask(first, count),
                )
                .desc()
        }
        ScenarioParams::SlicingPmdXmem { packet_bytes, policy } => {
            let mut b = ScenarioBuilder::new("slicing-pmd-xmem")
                .nic(NicDesc::ports(2))
                .policy(*policy)
                .tenant(
                    TenantDesc::new("testpmd-pair", WorkloadDesc::TestPmd { ports: vec![0, 1] })
                        .cores(&[0, 1])
                        .io()
                        .ways(3)
                        .traffic(TrafficDesc::new(
                            0,
                            LINE_RATE_40G,
                            *packet_bytes,
                            FlowDist::Single(FlowId(0)),
                        ))
                        .traffic(
                            TrafficDesc::new(
                                1,
                                LINE_RATE_40G,
                                *packet_bytes,
                                FlowDist::Single(FlowId(1)),
                            )
                            .seed_offset(1),
                        ),
                );
            for (i, name, priority) in [
                (1u64, "xmem-be2", Priority::Be),
                (2, "xmem-be3", Priority::Be),
                (3, "xmem-pc4", Priority::Pc),
            ] {
                b = b.tenant(
                    TenantDesc::new(
                        name,
                        WorkloadDesc::XMem {
                            heap_bytes: 64 << 20,
                            working_set: 2 << 20,
                            seed_offset: i,
                        },
                    )
                    .cores(&[1 + i as usize])
                    .priority(priority)
                    .ways(2),
                );
            }
            b.desc()
        }
        ScenarioParams::AppCorun { net, pc, mix, with_be, policy } => {
            let mut b = ScenarioBuilder::new("app-corun").policy(*policy);
            let next_core;
            match net {
                NetApp::Redis => {
                    // YCSB load: ~1.7 Mpps of 128 B requests per port,
                    // Zipfian keys.
                    let req_rate = rate_for_pps(1.7e6, 128);
                    let zipf = FlowDist::Zipf { count: 1_000_000, s: 0.99 };
                    let kv_cfg =
                        KvConfig { records: 1_000_000, value_bytes: 1024, scan_len: 8 };
                    b = b
                        .nic(NicDesc::ports(2))
                        .tenant(
                            TenantDesc::new(
                                "ovs",
                                WorkloadDesc::Ovs {
                                    ports: vec![0, 1],
                                    attachments: 2,
                                    emc_entries: 8192,
                                    mega_entries: 1 << 20,
                                },
                            )
                            .cores(&[0, 1])
                            .priority(Priority::Stack)
                            .io()
                            .ways(1)
                            .traffic(TrafficDesc::new(0, req_rate, 128, zipf.clone()))
                            .traffic(TrafficDesc::new(1, req_rate, 128, zipf).seed_offset(1)),
                        );
                    for i in 0..2usize {
                        b = b.tenant(
                            TenantDesc::new(
                                format!("redis{i}"),
                                WorkloadDesc::KvStore {
                                    attachment: i,
                                    heap_bytes: 2 << 30,
                                    config: kv_cfg,
                                    mix: *mix,
                                    seed_offset: 10 + i as u64,
                                },
                            )
                            .cores(&[2 + 2 * i, 3 + 2 * i])
                            .io()
                            .ways(1),
                        );
                    }
                    next_core = 6;
                }
                NetApp::FastClick => {
                    let mut t = TenantDesc::new(
                        "fastclick",
                        WorkloadDesc::NfChain {
                            ports: vec![0, 1, 2, 3],
                            state_bytes: 512 << 20,
                            config: NfChainConfig {
                                firewall_rules: 4096,
                                stat_entries: 1 << 16,
                                napt_entries: 1 << 16,
                            },
                        },
                    )
                    .cores(&[0, 1, 2, 3])
                    .io()
                    .ways(3);
                    for p in 0..4usize {
                        t = t.traffic(
                            TrafficDesc::new(
                                p,
                                20_000_000_000,
                                1500,
                                FlowDist::Uniform { count: 10_000 },
                            )
                            .seed_offset(p as u64),
                        );
                    }
                    b = b.nic(NicDesc::ports(4)).tenant(t);
                    next_core = 4;
                }
            }
            let mut core = next_core;
            match pc {
                PcApp::Spec(profile) => {
                    b = b.tenant(
                        TenantDesc::new(
                            profile.name,
                            WorkloadDesc::Spec { profile: *profile, seed_offset: 20 },
                        )
                        .cores(&[core])
                        .ways(2),
                    );
                    core += 1;
                }
                PcApp::Rocks(rocks_mix) => {
                    b = b.tenant(
                        TenantDesc::new(
                            "rocksdb",
                            WorkloadDesc::Rocks {
                                heap_bytes: 2 << 30,
                                mix: *rocks_mix,
                                seed_offset: 21,
                            },
                        )
                        .cores(&[core])
                        .ways(2),
                    );
                    core += 1;
                }
                PcApp::None => {}
            }
            if *with_be {
                for (i, ws) in [(0usize, 1u64 << 20), (1, 10 << 20)] {
                    b = b.tenant(
                        TenantDesc::new(
                            format!("xmem-be{i}"),
                            WorkloadDesc::XMem {
                                heap_bytes: 64 << 20,
                                working_set: ws,
                                seed_offset: 30 + i as u64,
                            },
                        )
                        .cores(&[core])
                        .priority(Priority::Be)
                        .ways(2),
                    );
                    core += 1;
                }
            }
            b.desc()
        }
        ScenarioParams::PcSolo { pc } => {
            let tenant = match pc {
                PcApp::Spec(p) => TenantDesc::new(
                    p.name,
                    WorkloadDesc::Spec { profile: *p, seed_offset: 0 },
                ),
                PcApp::Rocks(m) => TenantDesc::new(
                    "rocksdb",
                    WorkloadDesc::Rocks { heap_bytes: 2 << 30, mix: *m, seed_offset: 0 },
                ),
                PcApp::None => panic!("the pc-solo scenario needs a PC workload"),
            };
            ScenarioBuilder::new("pc-solo")
                .policy(PolicyKind::Baseline(0))
                .tenant(tenant.cores(&[0]).ways(2))
                .desc()
        }
    }
}

/// Describes and compiles in one step.
pub fn build(params: &ScenarioParams, seed: u64) -> Built {
    compile(&describe(params), seed)
}

/// One figure/table of the paper, as a registry entry.
#[derive(Debug, Clone, Copy)]
pub struct FigureEntry {
    /// Figure group name (the `results/` file stem and `--only` key).
    pub name: &'static str,
    /// Registers the figure's leaf + merge jobs.
    pub register: fn(&mut Registry),
}

/// Every figure/table, in registration (output) order. This *is* the
/// job registry: [`crate::jobs::registry`] walks it.
pub const FIGURES: &[FigureEntry] = &[
    FigureEntry {
        name: "table1",
        register: crate::figures::table1::register,
    },
    FigureEntry {
        name: "table2",
        register: crate::figures::table2::register,
    },
    FigureEntry {
        name: "fig03",
        register: crate::figures::fig03::register,
    },
    FigureEntry {
        name: "fig04",
        register: crate::figures::fig04::register,
    },
    FigureEntry {
        name: "fig08",
        register: crate::figures::fig08::register,
    },
    FigureEntry {
        name: "fig09",
        register: crate::figures::fig09::register,
    },
    FigureEntry {
        name: "fig10",
        register: crate::figures::fig10::register,
    },
    FigureEntry {
        name: "fig11",
        register: crate::figures::fig11::register,
    },
    FigureEntry {
        name: "fig12",
        register: crate::figures::fig12::register,
    },
    FigureEntry {
        name: "fig13",
        register: crate::figures::fig13::register,
    },
    FigureEntry {
        name: "fig14",
        register: crate::figures::fig14::register,
    },
    FigureEntry {
        name: "fig15",
        register: crate::figures::fig15::register,
    },
    FigureEntry {
        name: "ablation",
        register: crate::figures::ablation::register,
    },
];

/// Figure names, in registration order.
pub fn figure_names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Built;
    use iat_platform::{Platform, TenantId};
    use iat_workloads::SpecProfile;
    use std::collections::BTreeSet;

    fn platform(params: &ScenarioParams) -> Platform {
        match build(params, 0) {
            Built::Managed(m) => m.platform,
            Built::Raw(p) => *p,
        }
    }

    /// Every scenario shape the figures build, with the `(name, id)` of
    /// each tenant: the ids the per-scenario constructors handed out
    /// before figures looked tenants up by name.
    fn figure_setups() -> Vec<(ScenarioParams, Vec<(&'static str, u16)>)> {
        let mut setups = vec![
            (
                ScenarioParams::Aggregation {
                    packet_bytes: 64,
                    flows_per_port: 1,
                    policy: PolicyKind::Iat,
                },
                vec![("ovs", 0), ("testpmd0", 1), ("testpmd1", 2)],
            ),
            (
                ScenarioParams::L3fwdSlicing {
                    ring_entries: 256,
                    packet_bytes: 64,
                    rate_bps: LINE_RATE_40G,
                },
                vec![("l3fwd", 0)],
            ),
            (
                ScenarioParams::LatentContender {
                    working_set: 4 << 20,
                    ddio_overlap: true,
                    packet_bytes: 1500,
                },
                vec![("l3fwd", 0), ("x-mem", 1)],
            ),
            (
                ScenarioParams::SlicingPmdXmem {
                    packet_bytes: 1500,
                    policy: PolicyKind::IatNoDdioResize,
                },
                vec![("testpmd-pair", 0), ("xmem-be2", 1), ("xmem-be3", 2), ("xmem-pc4", 3)],
            ),
            (
                ScenarioParams::PcSolo { pc: PcApp::Spec(SpecProfile::mcf()) },
                vec![("mcf", 0)],
            ),
            (ScenarioParams::PcSolo { pc: PcApp::Rocks(YcsbMix::a()) }, vec![("rocksdb", 0)]),
        ];
        // The application co-runs: Redis/FastClick x SPEC/RocksDB/none x
        // with/without the two best-effort X-Mem containers.
        let pcs = [
            (PcApp::Spec(SpecProfile::mcf()), Some("mcf")),
            (PcApp::Rocks(YcsbMix::a()), Some("rocksdb")),
            (PcApp::None, None),
        ];
        for (net, net_tenants) in [
            (NetApp::Redis, &["ovs", "redis0", "redis1"][..]),
            (NetApp::FastClick, &["fastclick"][..]),
        ] {
            for (pc, pc_name) in pcs {
                for with_be in [false, true] {
                    let be: &[&'static str] = if with_be { &["xmem-be0", "xmem-be1"] } else { &[] };
                    let names = net_tenants.iter().chain(&pc_name).chain(be).copied();
                    setups.push((
                        ScenarioParams::AppCorun {
                            net,
                            pc,
                            mix: YcsbMix::b(),
                            with_be,
                            policy: PolicyKind::Baseline(0),
                        },
                        names.zip(0u16..).collect(),
                    ));
                }
            }
        }
        setups
    }

    #[test]
    fn figure_scenarios_name_their_tenants_uniquely_and_in_id_order() {
        let setups = figure_setups();
        assert_eq!(setups.len(), 6 + 12);
        for (params, expected) in setups {
            let p = platform(&params);
            let names: BTreeSet<&str> = p.tenants().iter().map(|t| t.name.as_str()).collect();
            assert_eq!(names.len(), p.tenants().len(), "{params:?}: duplicate tenant names");
            assert_eq!(p.tenants().len(), expected.len(), "{params:?}: tenant count");
            for (name, id) in expected {
                assert_eq!(p.tenant_id(name), Some(TenantId(id)), "{params:?}: tenant {name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a PC workload")]
    fn solo_without_a_pc_app_is_rejected() {
        describe(&ScenarioParams::PcSolo { pc: PcApp::None });
    }
}
