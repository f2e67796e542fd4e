//! Fig. 14: Redis performance on YCSB A–F while co-running with the
//! non-networking containers (RocksDB PC + two X-Mem BE), baseline
//! (min–max over shuffled layouts) vs IAT — throughput, average latency
//! and p99 latency, normalized to the solo run (Redis + OVS alone).
//! One leaf job per YCSB mix.

use super::{rows_artifact, Row, Sweep};
use crate::report::f;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, NetApp, PcApp, PolicyKind};
use iat_runner::Registry;
use iat_workloads::YcsbMix;

const WARM: usize = 3;
const MEASURE: usize = 4;

#[derive(Clone, Copy)]
struct RedisPerf {
    ops_per_s: f64,
    avg: f64,
    p99: f64,
}

fn redis_perf(mix: YcsbMix, pc: PcApp, with_be: bool, policy: PolicyKind, seed: u64) -> RedisPerf {
    let params = ScenarioParams::AppCorun { net: NetApp::Redis, pc, mix, with_be, policy };
    let mut m = build(&params, seed).into_managed();
    let r0 = m.platform.tenant_id("redis0").expect("redis0 tenant");
    let r1 = m.platform.tenant_id("redis1").expect("redis1 tenant");
    let w = measure(&mut m, WARM, MEASURE);
    let ops = w.ops_per_s(r0) + w.ops_per_s(r1);
    let avg = (w.tenant(r0).avg_op_cycles + w.tenant(r1).avg_op_cycles) / 2.0;
    let p99 = w.tenant(r0).p99_op_cycles.max(w.tenant(r1).p99_op_cycles);
    RedisPerf {
        ops_per_s: ops,
        avg,
        p99,
    }
}

/// Worst baseline layout and IAT for one YCSB mix, vs solo.
fn sweep(mix: YcsbMix, seed: u64) -> Vec<Row> {
    let rotations = [0usize, 2, 4];
    let solo = redis_perf(mix, PcApp::None, false, PolicyKind::Baseline(0), seed);
    // Worst baseline layout (max degradation).
    let mut worst: Option<RedisPerf> = None;
    for &r in &rotations {
        let p = redis_perf(
            mix,
            PcApp::Rocks(YcsbMix::a()),
            true,
            PolicyKind::Baseline(r),
            seed,
        );
        if worst.is_none_or(|w| p.ops_per_s < w.ops_per_s) {
            worst = Some(p);
        }
    }
    let worst = worst.expect("at least one rotation");
    let iat = redis_perf(
        mix,
        PcApp::Rocks(YcsbMix::a()),
        true,
        PolicyKind::IatShuffleOnly,
        seed,
    );

    [("baseline", worst), ("iat", iat)]
        .into_iter()
        .map(|(label, p)| {
            (
                vec![
                    mix.name.into(),
                    label.into(),
                    f(1.0 - p.ops_per_s / solo.ops_per_s, 3),
                    f(p.avg / solo.avg - 1.0, 3),
                    f(p.p99 / solo.p99 - 1.0, 3),
                ],
                serde_json::json!({
                    "ycsb": mix.name, "policy": label,
                    "throughput_loss": 1.0 - p.ops_per_s / solo.ops_per_s,
                    "avg_latency_increase": p.avg / solo.avg - 1.0,
                    "p99_latency_increase": p.p99 / solo.p99 - 1.0,
                }),
            )
        })
        .collect()
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig14");
    for mix in YcsbMix::all() {
        fig.leaf(mix.name, move |seed| rows_artifact(sweep(mix, seed)));
    }
    fig.report(
        "Fig. 14 — Redis YCSB degradation vs solo: throughput / avg latency / p99",
        &["ycsb", "policy", "thr loss", "avg lat +", "p99 lat +"],
        Some(
            "Paper shape: worst-case baseline layouts cost Redis 7.1–24.5% throughput,\n\
             7.9–26.5% average and 10.1–20.4% tail latency; IAT limits the damage to\n\
             2.8–5.6% / 2.9–8.9% / 2.8–8.7%.",
        ),
    );
}
