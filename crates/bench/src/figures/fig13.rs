//! Fig. 13: RocksDB's normalized weighted operation latency under YCSB
//! A–F while co-running with the two networking applications, baseline
//! (min–max over shuffled layouts) vs IAT.
//!
//! Split like fig12: one leaf job per *sweep point* (solo latency and
//! each networking co-runner), so a scheduler can overlap the sweep's
//! long poles. The four policy variants of a (mix, net) point stay in
//! one job — they share convergence checkpoints — and a per-mix
//! mid-merge job keeps the historical `fig13/<mix>` name and seed
//! derivation, so committed captures are unchanged.

use super::{merge_rows, rows_artifact, rows_from};
use crate::harness::take_sim_accesses;
use crate::report::{f, record_accesses, FigureReport};
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, NetApp, PcApp, PolicyKind};
use iat_runner::{JobSpec, Registry};
use iat_workloads::YcsbMix;
use serde_json::Value;

const WARM: usize = 3;
const MEASURE: usize = 4;

const NETS: [(&str, NetApp); 2] = [("redis", NetApp::Redis), ("fastclick", NetApp::FastClick)];

/// Average RocksDB operation cycles over the measurement window of
/// `params`.
fn rocks_latency(params: &ScenarioParams, seed: u64) -> f64 {
    let mut m = build(params, seed).into_managed();
    let rocks = m.platform.tenant_id("rocksdb").expect("rocksdb tenant");
    measure(&mut m, WARM, MEASURE).tenant(rocks).avg_op_cycles
}

/// Co-run latency of RocksDB under this mix.
fn corun_latency(net: NetApp, mix: YcsbMix, policy: PolicyKind, seed: u64) -> f64 {
    let params = ScenarioParams::AppCorun {
        net,
        pc: PcApp::Rocks(mix),
        mix: YcsbMix::b(),
        with_be: true,
        policy,
    };
    rocks_latency(&params, seed)
}

/// Solo latency of RocksDB under this mix.
fn solo_latency(mix: YcsbMix, seed: u64) -> f64 {
    rocks_latency(&ScenarioParams::PcSolo { pc: PcApp::Rocks(mix) }, seed)
}

/// One (mix, net) sweep point: three baseline rotations plus IAT,
/// normalized against the solo latency.
fn net_point(mix: YcsbMix, net_name: &str, net: NetApp, solo: f64, seed: u64) -> (Vec<String>, Value) {
    let rotations = [0usize, 2, 4];
    let mut base: Vec<f64> = rotations
        .iter()
        .map(|&r| corun_latency(net, mix, PolicyKind::Baseline(r), seed) / solo)
        .collect();
    base.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let iat = corun_latency(net, mix, PolicyKind::IatShuffleOnly, seed) / solo;
    (
        vec![
            mix.name.into(),
            net_name.to_owned(),
            f(base[0], 3),
            f(*base.last().expect("nonempty"), 3),
            f(iat, 3),
        ],
        serde_json::json!({
            "ycsb": mix.name, "net": net_name,
            "baseline_min": base[0], "baseline_max": base.last(), "iat": iat,
        }),
    )
}

pub(crate) fn register(reg: &mut Registry) {
    let leaves: Vec<String> = YcsbMix::all()
        .iter()
        .map(|mix| format!("fig13/{}", mix.name))
        .collect();
    let spec = crate::sampling::spec_for("fig13").expect("fig13 declares sampling");
    for mix in YcsbMix::all() {
        // Point jobs derive their seeds from the historical per-mix
        // leaf name, so the split cannot move any scenario's seed.
        let leaf = format!("fig13/{}", mix.name);
        let solo_job = format!("{leaf}/solo");
        reg.add(
            JobSpec::new(&solo_job, "fig13", {
                let leaf = leaf.clone();
                move |ctx| {
                    let solo = solo_latency(mix, ctx.seed_of(&leaf, "scenario"));
                    record_accesses(ctx, take_sim_accesses());
                    Ok(serde_json::json!(solo))
                }
            })
            .sampled(spec),
        );
        for (net_name, net) in NETS {
            reg.add(
                JobSpec::new(format!("{leaf}/{net_name}"), "fig13", {
                    let (leaf, solo_job) = (leaf.clone(), solo_job.clone());
                    move |ctx| {
                        let solo = ctx.dep(&solo_job).as_f64().expect("solo latency");
                        let seed = ctx.seed_of(&leaf, "scenario");
                        let row = net_point(mix, net_name, net, solo, seed);
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
            JobSpec::new(&leaf, "fig13", {
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
        JobSpec::new("fig13", "fig13", {
            let leaves = leaves.clone();
            move |ctx| {
                let mut fig = FigureReport::new(
                    "fig13",
                    "Fig. 13 — RocksDB normalized weighted latency vs solo (1.0 = no slowdown)",
                    &["ycsb", "net app", "baseline min", "baseline max", "iat"],
                );
                merge_rows(&mut fig, ctx, &leaves);
                fig.note(
                    "Paper shape: baseline weighted latency up to 14.1% (Redis) / 19.7% (FastClick)\n\
                     longer than solo when the shuffled layout overlaps DDIO; IAT holds it to at\n\
                     most 6.4% / 9.9%.",
                );
                fig.finish(ctx);
                Ok(Value::Null)
            }
        })
        .deps(&deps),
    );
}
