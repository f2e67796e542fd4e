//! The benchmark's workloads: which figure jobs one pass runs, whether it
//! runs them sampled, and which scenario the traced probe steps.
//!
//! Each workload is a slice of the paper's figure sweep small enough that
//! a run can repeat it a few times inside its time budget, chosen so the
//! four together load different layers of the simulator.

use iat_bench::catalog::ScenarioParams;
use iat_bench::scenarios::{NetApp, PcApp, PolicyKind};
use iat_cachesim::config::SamplingSpec;
use iat_workloads::{SpecProfile, YcsbMix};

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Runner job names one pass selects (their dependencies come along).
    pub jobs: &'static [&'static str],
    /// Whether the pass runs with phase-aware interval sampling.
    pub sampled: bool,
    /// Policy intervals the probe steps.
    pub probe_intervals: usize,
    /// The probe's scenario and sampling plan.
    pub probe: fn() -> (ScenarioParams, Option<SamplingSpec>),
}

/// The workloads named in `BENCHMARK.json`, in run order.
pub const WORKLOADS: &[Workload] = &[
    // Line-rate DMA through DDIO into rings (unmanaged l3fwd, OVS with
    // IAT): the traffic/DMA/workload front end is most of the time.
    Workload {
        name: "leaky-dma",
        jobs: &["fig03/64B", "fig08/64B"],
        sampled: false,
        probe_intervals: 20,
        probe: || {
            let p = ScenarioParams::Aggregation {
                packet_bytes: 64,
                flows_per_port: 1,
                policy: PolicyKind::Iat,
            };
            (p, None)
        },
    },
    // X-Mem random reads contending with l3fwd's DDIO writes on
    // dedicated and on overlapping ways: the LLC flush does the most
    // work here. The probe steps the IAT daemon on the Fig. 10 setup.
    Workload {
        name: "llc-contention",
        jobs: &["fig04/4MB"],
        sampled: false,
        probe_intervals: 20,
        probe: || {
            let p = ScenarioParams::SlicingPmdXmem {
                packet_bytes: 1500,
                policy: PolicyKind::IatNoDdioResize,
            };
            (p, None)
        },
    },
    // Redis-like KVS behind OVS plus RocksDB: scenario construction and
    // the Zipfian front end dominate, the LLC barely works.
    Workload {
        name: "kv-corun",
        jobs: &["fig14/A"],
        sampled: false,
        probe_intervals: 20,
        probe: || {
            let p = ScenarioParams::AppCorun {
                net: NetApp::Redis,
                pc: PcApp::Rocks(YcsbMix::a()),
                mix: YcsbMix::a(),
                with_be: true,
                policy: PolicyKind::IatShuffleOnly,
            };
            (p, None)
        },
    },
    // The only workload that exercises the sampler: frozen-stats warm
    // bodies, convergence checkpoints (fig10) and skipped epochs.
    Workload {
        name: "sampled",
        jobs: &["fig10/64B", "fig12/mcf/redis"],
        sampled: true,
        probe_intervals: 20,
        probe: || {
            let p = ScenarioParams::AppCorun {
                net: NetApp::FastClick,
                pc: PcApp::Spec(SpecProfile::mcf()),
                mix: YcsbMix::b(),
                with_be: true,
                policy: PolicyKind::IatShuffleOnly,
            };
            (p, iat_bench::sampling::spec_for("fig12"))
        },
    },
];

/// Test-only workload for the self-test: two whole cheap groups, so the
/// committed-capture check compares staged files byte for byte.
const SMOKE: Workload = Workload {
    name: "smoke",
    jobs: &["table1", "fig03"],
    sampled: false,
    probe_intervals: 2,
    probe: || {
        let p = ScenarioParams::Aggregation {
            packet_bytes: 64,
            flows_per_port: 1,
            policy: PolicyKind::Iat,
        };
        (p, None)
    },
};

/// Looks up a workload by name, including the test-only `smoke`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().chain([&SMOKE]).find(|w| w.name == name)
}

/// The fields that identify a row of a sampled figure's capture, so a
/// sampled row can be paired with its exact counterpart.
pub fn row_key_fields(group: &str) -> Option<&'static [&'static str]> {
    match group {
        "fig10" => Some(&["packet_bytes", "policy"]),
        "fig12" => Some(&["pc", "net"]),
        _ => None,
    }
}
