//! The vocabulary the paper's experimental setups (Sec. VI-A/B/C) are
//! written in: NIC constants, the policy menu, the application choices
//! of the co-run experiments, and the measurement window. The setups
//! themselves are data in [`crate::catalog`]; figures compile them with
//! [`crate::catalog::build`].

use crate::harness::Managed;
use iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, StaticCat};
use iat_perf::IntervalDeltas;
use iat_platform::{PlatformConfig, TenantId};
use iat_workloads::{SpecProfile, WorkloadMetrics, YcsbMix};

/// Rx/Tx descriptor ring depth (the paper's default of 1024 entries).
pub const RING_ENTRIES: usize = 1024;
/// mbuf pool size per port; the pool (not the ring) sets the DMA write
/// footprint that competes with DDIO's ways.
pub const MBUF_POOL: usize = 3072;
/// mbuf stride in bytes (one MTU-sized buffer plus headroom). 33 cache
/// lines, coprime with the set count, so consecutive mbufs spread across
/// all LLC sets — the padding real DPDK mempools insert for the same
/// reason.
pub const BUF_STRIDE: u64 = 2112;
/// 40 GbE line rate (the paper's XL710 NICs).
pub const LINE_RATE_40G: u64 = 40_000_000_000;
/// Base address of the NIC ring/pool region, far above workload heaps.
pub const NIC_BASE: u64 = 64 << 30;

/// Which LLC management policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Static CAT, default DDIO, never adjusted; `rotation` picks one of
    /// the "randomly shuffled" initial layouts.
    Baseline(usize),
    /// IAT with the I/O Demand state and shuffling disabled (paper's
    /// Core-only comparison).
    CoreOnly,
    /// Core-only plus DDIO-way exclusion (paper's I/O-iso comparison).
    IoIso,
    /// Full IAT.
    Iat,
    /// IAT with tenant way re-allocation disabled (the paper's Sec. VI-C
    /// application-experiment configuration).
    IatShuffleOnly,
    /// IAT with DDIO way resizing disabled (the paper's Fig. 10 footnote-3
    /// configuration).
    IatNoDdioResize,
}

impl PolicyKind {
    /// Short name for report rows.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Baseline(_) => "baseline",
            PolicyKind::CoreOnly => "core-only",
            PolicyKind::IoIso => "io-iso",
            PolicyKind::Iat => "iat",
            PolicyKind::IatShuffleOnly => "iat",
            PolicyKind::IatNoDdioResize => "iat",
        }
    }
}

/// Instantiates a policy for an LLC of `ways` ways, with thresholds scaled
/// to the platform's time scale.
pub fn make_policy(kind: PolicyKind, ways: u8, config: &PlatformConfig) -> Box<dyn LlcPolicy> {
    let iat_config = IatConfig {
        threshold_miss_low_per_s: config.scale_rate(1_000_000.0),
        ..IatConfig::paper()
    };
    match kind {
        PolicyKind::Baseline(rotation) => Box::new(StaticCat::with_rotation(ways, rotation)),
        PolicyKind::CoreOnly => Box::new(IatDaemon::new(iat_config, IatFlags::core_only(), ways)),
        PolicyKind::IoIso => Box::new(IatDaemon::new(iat_config, IatFlags::io_iso(), ways)),
        PolicyKind::Iat => Box::new(IatDaemon::new(iat_config, IatFlags::full(), ways)),
        PolicyKind::IatShuffleOnly => Box::new(IatDaemon::new(
            iat_config,
            IatFlags {
                tenant_realloc: false,
                ..IatFlags::full()
            },
            ways,
        )),
        PolicyKind::IatNoDdioResize => Box::new(IatDaemon::new(
            iat_config,
            IatFlags {
                io_demand: false,
                ..IatFlags::full()
            },
            ways,
        )),
    }
}

/// The networking side of the Sec. VI-C application experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetApp {
    /// Two Redis containers behind OVS (aggregation), driven by YCSB.
    Redis,
    /// A FastClick firewall→stats→NAPT chain on four VFs (slicing).
    FastClick,
}

/// The non-networking PC workload of the application experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcApp {
    /// A SPEC CPU2006 memory profile.
    Spec(SpecProfile),
    /// The RocksDB-like memtable store under a YCSB mix.
    Rocks(YcsbMix),
    /// No PC container (for solo runs of the networking side).
    None,
}

/// A measurement window over a managed run.
#[derive(Debug, Clone)]
pub struct Window {
    /// Modelled duration of the window in seconds.
    pub seconds: f64,
    /// Counter deltas over the window.
    pub deltas: IntervalDeltas,
    /// Per-tenant workload metrics accumulated during the window, in
    /// registration order (tenant ids are positional).
    pub metrics: Vec<WorkloadMetrics>,
}

impl Window {
    /// Workload metrics of tenant `id`.
    pub fn tenant(&self, id: TenantId) -> &WorkloadMetrics {
        &self.metrics[usize::from(id.0)]
    }

    /// Operations per modelled second of tenant `id`.
    pub fn ops_per_s(&self, id: TenantId) -> f64 {
        self.tenant(id).ops as f64 / self.seconds
    }
}

/// Runs `warm` intervals, then measures over `measure` intervals: resets
/// application metrics at the window start and returns metrics plus
/// counter deltas over the window.
pub fn measure(managed: &mut Managed, warm: usize, measure_intervals: usize) -> Window {
    managed.run_intervals(warm);
    managed.platform.reset_metrics();
    let before = managed.observe();
    let t0 = managed.time_s();
    managed.run_intervals(measure_intervals);
    let after = managed.observe();
    let seconds = managed.time_s() - t0;
    let metrics = managed
        .platform
        .tenants()
        .iter()
        .map(|t| t.workload.metrics())
        .collect();
    Window {
        seconds,
        deltas: Managed::deltas_between(&before, &after),
        metrics,
    }
}
