//! Fig. 12: normalized execution time of non-networking applications
//! (SPEC CPU2006 memory profiles + RocksDB) co-running with a networking
//! application (Redis behind OVS, or a FastClick NF chain), for the
//! baseline (min–max over randomly rotated initial layouts) and IAT
//! (shuffle-enabled, tenant re-allocation disabled, per Sec. VI-C).
//!
//! One co-run point per PC application ([`super::Sweep::corun`]): the
//! solo run and each networking co-runner are separate jobs, so the
//! sweep's long pole is one (pc, net) point of four policy simulations
//! instead of a whole PC application's 18-simulation sweep, and a
//! mid-merge keeps the historical `fig12/<pc>` name and seeds.

use super::{Row, Sweep};
use crate::report::f;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, NetApp, PcApp, PolicyKind};
use iat_runner::Registry;
use iat_workloads::{SpecProfile, YcsbMix};

const WARM: usize = 3;
const MEASURE: usize = 4;

/// Rate metric of the PC workload (tenant `pc_name`) in `params`: ops
/// per modelled second.
fn pc_rate(params: &ScenarioParams, pc_name: &str, seed: u64) -> f64 {
    let mut m = build(params, seed).into_managed();
    let pc = m.platform.tenant_id(pc_name).expect("pc tenant");
    measure(&mut m, WARM, MEASURE).ops_per_s(pc)
}

/// One (pc, net) sweep point: the three baseline rotations plus IAT.
/// The four policy variants stay in one job because they share
/// convergence checkpoints (same scenario fingerprint).
fn net_point(pc_name: &str, pc: PcApp, net_name: &str, net: NetApp, solo: f64, seed: u64) -> Row {
    let rotations = [0usize, 2, 4];
    let co_rate = |policy: PolicyKind| {
        let params = ScenarioParams::AppCorun { net, pc, mix: YcsbMix::b(), with_be: true, policy };
        pc_rate(&params, pc_name, seed)
    };
    let mut baseline_norms = Vec::new();
    for &rot in &rotations {
        let rate = co_rate(PolicyKind::Baseline(rot));
        baseline_norms.push(solo / rate.max(1e-12));
    }
    let iat_norm = solo / co_rate(PolicyKind::IatShuffleOnly).max(1e-12);
    let (bmin, bmax) = (
        baseline_norms.iter().cloned().fold(f64::INFINITY, f64::min),
        baseline_norms.iter().cloned().fold(0.0f64, f64::max),
    );
    (
        vec![
            pc_name.to_owned(),
            net_name.to_owned(),
            f(bmin, 3),
            f(bmax, 3),
            f(iat_norm, 3),
        ],
        serde_json::json!({
            "pc": pc_name, "net": net_name,
            "baseline_min": bmin, "baseline_max": bmax, "iat": iat_norm,
        }),
    )
}

fn pc_apps() -> Vec<(String, PcApp)> {
    let mut v: Vec<(String, PcApp)> = [
        SpecProfile::mcf(),
        SpecProfile::omnetpp(),
        SpecProfile::xalancbmk(),
        SpecProfile::gcc(),
        SpecProfile::bzip2(),
    ]
    .into_iter()
    .map(|p| (p.name.to_string(), PcApp::Spec(p)))
    .collect();
    v.push(("rocksdb".into(), PcApp::Rocks(YcsbMix::a())));
    v
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig12");
    for (pc_name, pc) in pc_apps() {
        fig.corun(
            &pc_name,
            pc,
            |pc_name, pc, seed| pc_rate(&ScenarioParams::PcSolo { pc }, pc_name, seed),
            net_point,
        );
    }
    fig.report(
        "Fig. 12 — normalized execution time vs solo (1.0 = no slowdown)",
        &["pc app", "net app", "baseline min", "baseline max", "iat"],
        Some(
            "Paper shape: baseline degradations range up to ~15% (Redis) / ~25% (FastClick)\n\
             depending on whether the random layout overlapped DDIO; IAT holds every\n\
             application within a few percent of solo.",
        ),
    );
}
