//! Fig. 9: Core Demand detection — 64 B line-rate traffic with a growing
//! number of flows. More flows blow up OVS's EMC and megaflow lookups;
//! IAT detects the stack's LLC demand and grows its ways, keeping the
//! LLC miss count lower and IPC higher than the static baseline. One
//! leaf job per flow count.

use super::{rows_artifact, Row, Sweep};
use crate::report::f;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, PolicyKind};
use iat_runner::Registry;

/// Both policies at one flow count.
fn sweep(flows: u32, seed: u64) -> Vec<Row> {
    let policies = [PolicyKind::Baseline(0), PolicyKind::Iat];
    let (warm, meas) = (6, 6);
    let mut rows = Vec::new();
    for &policy in &policies {
        // Start from single-flow traffic, then — as in the paper —
        // grow the flow count mid-run so the management plane sees
        // the phase change.
        let params = ScenarioParams::Aggregation { packet_bytes: 64, flows_per_port: 1, policy };
        let mut m = build(&params, seed).into_managed();
        let ovs = m.platform.tenant_id("ovs").expect("ovs tenant");
        m.run_intervals(3);
        if flows > 1 {
            for b in &mut m.platform.tenant_mut(ovs).bindings {
                b.gen
                    .set_flow_dist(iat_netsim::FlowDist::Uniform { count: flows });
            }
        }
        let win = measure(&mut m, warm, meas);
        let scale = m.platform.config().time_scale as f64;
        let d = &win.deltas.tenants[usize::from(ovs.0)];
        let miss_rate_s = d.llc_misses as f64 / win.seconds * scale;
        let ovs_clos = m.platform.tenant(ovs).clos;
        let ways = m.platform.rdt().clos_mask(ovs_clos).count();
        let fwd = win.tenant(ovs).ops as f64 / win.seconds * scale;

        rows.push((
            vec![
                flows.to_string(),
                policy.label().into(),
                format!("{:.3e}", miss_rate_s),
                f(d.miss_rate(), 3),
                f(d.ipc, 3),
                ways.to_string(),
                format!("{:.3e}", fwd),
            ],
            serde_json::json!({
                "flows": flows,
                "policy": policy.label(),
                "ovs_llc_miss_per_s": miss_rate_s,
                "ovs_miss_rate": d.miss_rate(),
                "ovs_ipc": d.ipc,
                "ovs_ways": ways,
                "forwarded_pps": fwd,
            }),
        ));
    }
    rows
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig09");
    for flows in [1u32, 100, 1_000, 10_000, 100_000, 1_000_000] {
        fig.leaf(format!("{flows}f"), move |seed| rows_artifact(sweep(flows, seed)));
    }
    fig.report(
        "Fig. 9 — OVS under growing flow counts (64 B line rate, aggregation)",
        &["flows", "policy", "ovs miss/s", "ovs missrate", "ovs IPC", "ovs ways", "fwd pkt/s"],
        Some(
            "Paper shape: beyond ~1k flows the static baseline's OVS suffers higher LLC\n\
             miss counts and lower IPC; IAT grows the stack's ways (Core Demand) and keeps\n\
             IPC up (paper: up to 11.4% higher).",
        ),
    );
}
