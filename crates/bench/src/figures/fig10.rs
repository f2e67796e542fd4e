//! Fig. 10: solving the Latent Contender problem (slicing model).
//!
//! Two PC testpmd containers on VFs (3 shared ways), three X-Mem
//! containers (2 ways each; containers 2/3 BE, container 4 PC). At t=5 s
//! container 4's working set grows 2 MB → 10 MB; at t=15 s DDIO's ways are
//! *manually* widened from 2 to 4 (IAT's own DDIO resizing is disabled,
//! paper footnote 3). Reports container 4's stable throughput and average
//! latency in the 5–15 s and 15–25 s phases for baseline, Core-only,
//! I/O-iso and IAT, across packet sizes. One leaf job per packet size.

use super::Sweep;
use crate::builder::{apply_action, ScenarioAction};
use crate::catalog::{build, ScenarioParams};
use crate::report::{f, Table};
use crate::scenarios::{measure, PolicyKind, Window};
use iat_runner::Registry;
use serde_json::{json, Value};

const SIZES: [u32; 3] = [64, 1024, 1500];
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Baseline(0),
    PolicyKind::CoreOnly,
    PolicyKind::IoIso,
    PolicyKind::IatNoDdioResize,
];
const LABELS: [&str; 4] = ["baseline", "core-only", "io-iso", "iat"];

struct PhaseResult {
    mops: f64,
    lat_ns: f64,
}

fn run_case(pkt: u32, policy: PolicyKind, seed: u64) -> (PhaseResult, PhaseResult) {
    let params = ScenarioParams::SlicingPmdXmem { packet_bytes: pkt, policy };
    let mut m = build(&params, seed).into_managed();
    let pc = m.platform.tenant_id("xmem-pc4").expect("container 4");
    let scale = m.platform.config().time_scale as f64;
    let freq = m.platform.config().freq_ghz;
    let phase = |w: Window| PhaseResult {
        mops: w.ops_per_s(pc) * scale / 1e6,
        lat_ns: w.tenant(pc).avg_op_cycles / freq,
    };

    // Phase 0: all X-Mem at 2 MB.
    m.run_intervals(3);

    // t=5 s: container 4's working set grows to 10 MB (L2 + 4 ways).
    apply_action(&mut m, &ScenarioAction::SetWorkingSet { tenant: pc, bytes: 10 << 20 });

    // Let the policy react, then measure the stable window (paper reports
    // performance "after 5s" once stabilized).
    m.run_intervals(4);
    let p1 = phase(measure(&mut m, 0, 4));

    // t=15 s: manually widen DDIO from 2 to 4 ways.
    apply_action(&mut m, &ScenarioAction::SetDdioWays { first: 7, count: 4 });
    m.run_intervals(4);
    let p2 = phase(measure(&mut m, 0, 4));
    (p1, p2)
}

/// All four policies at one packet size.
fn sweep(pkt: u32, seed: u64) -> Value {
    let cases: Vec<Value> = POLICIES
        .iter()
        .enumerate()
        .map(|(i, &policy)| {
            let (p1, p2) = run_case(pkt, policy, seed);
            json!({
                "packet_bytes": pkt,
                "policy": LABELS[i],
                "after_5s": { "mops": p1.mops, "avg_lat_ns": p1.lat_ns },
                "after_15s": { "mops": p2.mops, "avg_lat_ns": p2.lat_ns },
            })
        })
        .collect();
    Value::Array(cases)
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig10");
    for pkt in SIZES {
        fig.leaf(format!("{pkt}B"), move |seed| sweep(pkt, seed));
    }
    fig.merge(|ctx, group, leaves| {
        let mut t_thr = Table::new(
            "Fig. 10a/c — container 4 X-Mem throughput (Mops/s): after 5s | after 15s",
            &["pkt", "baseline", "core-only", "io-iso", "iat"],
        );
        let mut t_lat = Table::new(
            "Fig. 10b/d — container 4 X-Mem avg latency (ns): after 5s | after 15s",
            &["pkt", "baseline", "core-only", "io-iso", "iat"],
        );
        let mut records = Vec::new();
        for (leaf, pkt) in leaves.iter().zip(SIZES) {
            let mut thr_cells = vec![pkt.to_string()];
            let mut lat_cells = vec![pkt.to_string()];
            for case in ctx.dep(leaf).as_array().expect("cases") {
                let g = |phase: &str, key: &str| case[phase][key].as_f64().expect("phase value");
                thr_cells.push(format!(
                    "{} | {}",
                    f(g("after_5s", "mops"), 1),
                    f(g("after_15s", "mops"), 1)
                ));
                lat_cells.push(format!(
                    "{} | {}",
                    f(g("after_5s", "avg_lat_ns"), 0),
                    f(g("after_15s", "avg_lat_ns"), 0)
                ));
                records.push(case.clone());
            }
            t_thr.row(&thr_cells);
            t_lat.row(&lat_cells);
        }
        t_thr.write_to(ctx);
        t_lat.write_to(ctx);
        ctx.outln(
            "\nPaper shape: after 5s IAT beats baseline everywhere (paper: +53.6%..+111.5%)\n\
             and Core-only fades as packets grow; after the manual DDIO widening at 15s,\n\
             Core-only collapses to baseline while IAT re-shuffles and keeps container 4\n\
             isolated; I/O-iso protects latency but squeezes capacity.",
        );
        ctx.save_json(group, &Value::Array(records));
    });
}
