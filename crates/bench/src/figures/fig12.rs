//! Fig. 12: normalized execution time of non-networking applications
//! (SPEC CPU2006 memory profiles + RocksDB) co-running with a networking
//! application (Redis behind OVS, or a FastClick NF chain), for the
//! baseline (min–max over randomly rotated initial layouts) and IAT
//! (shuffle-enabled, tenant re-allocation disabled, per Sec. VI-C).
//!
//! One leaf job per *sweep point*: the PC app's solo run and each
//! networking co-runner are separate jobs, so the sweep's long pole is
//! one (pc, net) point — four policy simulations that must stay
//! together because they share convergence checkpoints — instead of a
//! whole PC application's 18-simulation sweep. A per-PC mid-merge job
//! keeps the historical `fig12/<pc>` name (and therefore the committed
//! captures' seed derivation) and hands the assembled rows to the
//! figure merge unchanged.

use super::{merge_rows, rows_artifact, rows_from};
use crate::harness::take_sim_accesses;
use crate::report::{f, record_accesses, FigureReport};
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, NetApp, PcApp, PolicyKind};
use iat_runner::{JobSpec, Registry};
use iat_workloads::{SpecProfile, YcsbMix};
use serde_json::Value;

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
fn net_point(
    pc_name: &str,
    net_name: &str,
    net: NetApp,
    pc: PcApp,
    solo: f64,
    seed: u64,
) -> (Vec<String>, Value) {
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

const NETS: [(&str, NetApp); 2] = [("redis", NetApp::Redis), ("fastclick", NetApp::FastClick)];

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
    let leaves: Vec<String> = pc_apps()
        .iter()
        .map(|(name, _)| format!("fig12/{name}"))
        .collect();
    let spec = crate::sampling::spec_for("fig12").expect("fig12 declares sampling");
    for (pc_name, pc) in pc_apps() {
        // Every point job derives its seed from the historical per-PC
        // leaf name, so the split cannot move any scenario's seed.
        let leaf = format!("fig12/{pc_name}");
        let solo_job = format!("{leaf}/solo");
        reg.add(
            JobSpec::new(&solo_job, "fig12", {
                let (leaf, pc_name) = (leaf.clone(), pc_name.clone());
                move |ctx| {
                    let params = ScenarioParams::PcSolo { pc };
                    let solo = pc_rate(&params, &pc_name, ctx.seed_of(&leaf, "scenario"));
                    record_accesses(ctx, take_sim_accesses());
                    Ok(serde_json::json!(solo))
                }
            })
            .sampled(spec),
        );
        for (net_name, net) in NETS {
            reg.add(
                JobSpec::new(format!("{leaf}/{net_name}"), "fig12", {
                    let (leaf, solo_job) = (leaf.clone(), solo_job.clone());
                    let pc_name = pc_name.clone();
                    move |ctx| {
                        let solo = ctx.dep(&solo_job).as_f64().expect("solo rate");
                        let seed = ctx.seed_of(&leaf, "scenario");
                        let row = net_point(&pc_name, net_name, net, pc, solo, seed);
                        record_accesses(ctx, take_sim_accesses());
                        Ok(rows_artifact(vec![row]))
                    }
                })
                .deps(&[&solo_job])
                .sampled(spec),
            );
        }
        // Mid-merge under the historical leaf name: concatenates the
        // per-net rows in fixed order for the figure merge below.
        let point_jobs: Vec<String> = NETS
            .iter()
            .map(|(net_name, _)| format!("{leaf}/{net_name}"))
            .collect();
        let point_refs: Vec<&str> = point_jobs.iter().map(String::as_str).collect();
        reg.add(
            JobSpec::new(&leaf, "fig12", {
                let point_jobs = point_jobs.clone();
                move |ctx| {
                    let mut rows = Vec::new();
                    for p in &point_jobs {
                        rows.extend(rows_from(ctx.dep(p)));
                    }
                    Ok(rows_artifact(rows))
                }
            })
            .deps(&point_refs),
        );
    }
    let deps: Vec<&str> = leaves.iter().map(String::as_str).collect();
    reg.add(
        JobSpec::new("fig12", "fig12", {
            let leaves = leaves.clone();
            move |ctx| {
                let mut fig = FigureReport::new(
                    "fig12",
                    "Fig. 12 — normalized execution time vs solo (1.0 = no slowdown)",
                    &["pc app", "net app", "baseline min", "baseline max", "iat"],
                );
                merge_rows(&mut fig, ctx, &leaves);
                fig.note(
                    "Paper shape: baseline degradations range up to ~15% (Redis) / ~25% (FastClick)\n\
                     depending on whether the random layout overlapped DDIO; IAT holds every\n\
                     application within a few percent of solo.",
                );
                fig.finish(ctx);
                Ok(Value::Null)
            }
        })
        .deps(&deps),
    );
}
