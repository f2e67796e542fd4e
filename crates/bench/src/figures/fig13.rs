//! Fig. 13: RocksDB's normalized weighted operation latency under YCSB
//! A–F while co-running with the two networking applications, baseline
//! (min–max over shuffled layouts) vs IAT.
//!
//! One co-run point per YCSB mix, split like fig12
//! ([`super::Sweep::corun`]): solo latency and each networking
//! co-runner are separate jobs, and a mid-merge keeps the historical
//! `fig13/<mix>` name and seeds.

use super::{Row, Sweep};
use crate::report::f;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, NetApp, PcApp, PolicyKind};
use iat_runner::Registry;
use iat_workloads::YcsbMix;

const WARM: usize = 3;
const MEASURE: usize = 4;

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
fn net_point(_point: &str, mix: YcsbMix, net_name: &str, net: NetApp, solo: f64, seed: u64) -> Row {
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
    let mut fig = Sweep::new(reg, "fig13");
    for mix in YcsbMix::all() {
        fig.corun(mix.name, mix, |_, mix, seed| solo_latency(mix, seed), net_point);
    }
    fig.report(
        "Fig. 13 — RocksDB normalized weighted latency vs solo (1.0 = no slowdown)",
        &["ycsb", "net app", "baseline min", "baseline max", "iat"],
        Some(
            "Paper shape: baseline weighted latency up to 14.1% (Redis) / 19.7% (FastClick)\n\
             longer than solo when the shuffled layout overlaps DDIO; IAT holds it to at\n\
             most 6.4% / 9.9%.",
        ),
    );
}
