//! Fig. 8: solving the Leaky DMA problem.
//!
//! Aggregation model, two testpmd tenants behind OVS, single-flow
//! line-rate traffic, packet size swept 64 B → 1.5 KB. For baseline
//! (static CAT, default 2-way DDIO) and IAT, reports per packet size:
//! DDIO hit count, DDIO miss count, memory bandwidth consumption, and
//! OVS IPC / cycles-per-packet — the paper's Fig. 8a–d. One leaf job
//! per packet size.

use super::{rows_artifact, Row, Sweep};
use crate::report::f;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::{measure, PolicyKind};
use iat_runner::Registry;

/// Both policies at one packet size.
fn sweep(size: u32, seed: u64) -> Vec<Row> {
    let policies = [PolicyKind::Baseline(0), PolicyKind::Iat];
    let (warm, meas) = (6, 6);
    let mut rows = Vec::new();
    for &policy in &policies {
        let params = ScenarioParams::Aggregation { packet_bytes: size, flows_per_port: 1, policy };
        let mut m = build(&params, seed).into_managed();
        let ovs = m.platform.tenant_id("ovs").expect("ovs tenant");
        let win = measure(&mut m, warm, meas);
        let scale = m.platform.config().time_scale as f64;

        let d = &win.deltas;
        let hits = d.system.ddio_hits as f64 / win.seconds * scale;
        let misses = d.system.ddio_misses as f64 / win.seconds * scale;
        let mem_gbs =
            (d.system.mem_read_bytes + d.system.mem_write_bytes) as f64 / win.seconds * scale / 1e9;
        let ipc = d.tenants[usize::from(ovs.0)].ipc;
        let ovs_metrics = win.tenant(ovs);
        let fwd = ovs_metrics.ops as f64 / win.seconds * scale;
        let cpp = if ovs_metrics.ops == 0 {
            0.0
        } else {
            ovs_metrics.avg_op_cycles
        };
        let ddio_ways = m.platform.rdt().ddio_ways();

        rows.push((
            vec![
                size.to_string(),
                policy.label().into(),
                format!("{:.3e}", hits),
                format!("{:.3e}", misses),
                f(mem_gbs, 2),
                f(ipc, 3),
                f(cpp, 0),
                format!("{:.3e}", fwd),
                ddio_ways.to_string(),
            ],
            serde_json::json!({
                "packet_bytes": size,
                "policy": policy.label(),
                "ddio_hits_per_s": hits,
                "ddio_misses_per_s": misses,
                "mem_gbps": mem_gbs,
                "ovs_ipc": ipc,
                "ovs_cpp": cpp,
                "forwarded_pps": fwd,
                "ddio_ways": ddio_ways,
            }),
        ));
    }
    rows
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig08");
    for size in [64u32, 128, 256, 512, 1024, 1500] {
        fig.leaf(format!("{size}B"), move |seed| rows_artifact(sweep(size, seed)));
    }
    fig.report(
        "Fig. 8 — DDIO behaviour and OVS performance vs packet size (aggregation, line rate)",
        &[
            "pkt", "policy", "ddio_hit/s", "ddio_miss/s", "mem GB/s", "ovs IPC", "ovs CPP",
            "fwd pkt/s", "ddio_ways",
        ],
        None,
    );
}
