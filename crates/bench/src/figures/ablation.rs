//! Quality-shaped ablations of IAT's design choices (DESIGN.md §4), probed
//! on the Fig. 10 phase change (reaction time in intervals and container
//! 4's throughput):
//!
//! * layout: BE-sorted shuffle (paper) vs DDIO-unaware layout;
//! * `THRESHOLD_STABLE` sensitivity (1%, 3%, 10%, 30%).
//!
//! One leaf job per ablated variant.

use super::{rows_artifact, Sweep};
use crate::builder::{apply_action, ScenarioAction};
use crate::catalog::{build, ScenarioParams};
use crate::report::f;
use crate::scenarios::{measure, PolicyKind};
use iat::{IatConfig, IatDaemon, IatFlags};
use iat_runner::Registry;

/// Reaction probe: the Fig. 10 phase change under a given daemon
/// configuration; returns (intervals until container 4 reaches 4 ways,
/// final pc4 throughput in Mops/s).
fn reaction(flags: IatFlags, threshold_stable: f64, seed: u64) -> (usize, f64) {
    let params =
        ScenarioParams::SlicingPmdXmem { packet_bytes: 1500, policy: PolicyKind::IatNoDdioResize };
    let mut m = build(&params, seed).into_managed();
    let pc = m.platform.tenant_id("xmem-pc4").expect("container 4");
    // Swap the policy for the ablated configuration.
    let config = *m.platform.config();
    let iat_config = IatConfig {
        threshold_miss_low_per_s: config.scale_rate(1e6),
        threshold_stable,
        ..IatConfig::paper()
    };
    m.replace_policy(Box::new(IatDaemon::new(iat_config, flags, config.llc.ways())));

    m.run_intervals(3);
    apply_action(&mut m, &ScenarioAction::SetWorkingSet { tenant: pc, bytes: 10 << 20 });
    // Count intervals until pc4 holds 4 ways (or give up at 10).
    let pc_clos = m.platform.tenant(pc).clos;
    let mut reached = 10usize;
    for i in 0..10 {
        m.step_interval();
        if m.platform.rdt().clos_mask(pc_clos).count() >= 4 {
            reached = i + 1;
            break;
        }
    }
    let w = measure(&mut m, 1, 3);
    let scale = m.platform.config().time_scale as f64;
    let mops = w.ops_per_s(pc) * scale / 1e6;
    (reached, mops)
}

struct Case {
    slug: &'static str,
    name: &'static str,
    flags: IatFlags,
    threshold_stable: f64,
}

fn cases() -> Vec<Case> {
    let base = IatFlags {
        io_demand: false,
        ..IatFlags::full()
    };
    vec![
        Case {
            slug: "paper",
            name: "paper (BE-sorted shuffle, 3%)",
            flags: base,
            threshold_stable: 0.03,
        },
        Case {
            slug: "no-ddio-layout",
            name: "no ddio-aware layout",
            flags: IatFlags {
                ddio_aware_layout: false,
                shuffle: false,
                ..base
            },
            threshold_stable: 0.03,
        },
        Case {
            slug: "th1",
            name: "threshold 1%",
            flags: base,
            threshold_stable: 0.01,
        },
        Case {
            slug: "th10",
            name: "threshold 10%",
            flags: base,
            threshold_stable: 0.10,
        },
        Case {
            slug: "th30",
            name: "threshold 30%",
            flags: base,
            threshold_stable: 0.30,
        },
    ]
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "ablation");
    for case in cases() {
        fig.leaf(case.slug, move |seed| {
            let (intervals, mops) = reaction(case.flags, case.threshold_stable, seed);
            rows_artifact(vec![(
                vec![case.name.into(), intervals.to_string(), f(mops, 1)],
                serde_json::json!({
                    "variant": case.name, "intervals_to_4_ways": intervals, "pc4_mops": mops,
                }),
            )])
        });
    }
    fig.report(
        "Ablation — shuffle policy, stability threshold (Fig. 10 phase-change probe)",
        &["variant", "intervals to 4 ways", "pc4 Mops/s"],
        Some(
            "Reading: the BE-sorted shuffle protects container 4's throughput; an\n\
             insensitive threshold (30%) fails to detect the phase change at all, while\n\
             1–10% react within a couple of intervals — the paper's dCAT-like\n\
             insensitivity in the useful range.",
        ),
    );
}
