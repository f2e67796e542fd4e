//! Fig. 4: the Latent Contender motivation — X-Mem (random read, 4–16 MB
//! working sets) either on two *dedicated* LLC ways or on the two ways
//! DDIO uses, while `l3fwd` moves 40 Gb/s in the background.
//!
//! The paper reports up to 26% lower X-Mem throughput and 32% higher
//! latency with DDIO overlap, even though no *core* shares those ways.
//! One leaf job per working-set size.

use super::Sweep;
use crate::report::{f, pct, FigureReport};
use crate::catalog::{build, ScenarioParams};
use iat_runner::Registry;
use serde_json::{json, Value};

/// Both placements for one working-set size: `(table rows, JSON record)`.
fn contend(ws: u64, seed: u64) -> (Vec<Vec<String>>, Value) {
    let mut results = Vec::new();
    for overlap in [false, true] {
        let params = ScenarioParams::LatentContender {
            working_set: ws,
            ddio_overlap: overlap,
            packet_bytes: 1500,
        };
        let mut platform = build(&params, seed).into_platform();
        let xmem = platform.tenant_id("x-mem").expect("x-mem tenant");
        platform.run_epochs(300); // warm-up: fill the working set
        platform.tenant_mut(xmem).workload.reset_metrics();
        let t0 = platform.time_s();
        platform.run_epochs(500);
        let secs = platform.time_s() - t0;
        let m = platform.metrics_of(xmem);
        let scale = platform.config().time_scale as f64;
        let mops = m.ops as f64 / secs * scale / 1e6;
        let lat_ns = m.avg_op_cycles / platform.config().freq_ghz;
        results.push((mops, lat_ns));
    }
    let (ded, ovl) = (results[0], results[1]);
    let rows = vec![
        vec![
            (ws >> 20).to_string(),
            "dedicated".into(),
            f(ded.0, 2),
            f(ded.1, 1),
            "-".into(),
            "-".into(),
        ],
        vec![
            (ws >> 20).to_string(),
            "ddio-overlap".into(),
            f(ovl.0, 2),
            f(ovl.1, 1),
            pct(1.0 - ovl.0 / ded.0),
            pct(ovl.1 / ded.1 - 1.0),
        ],
    ];
    let record = json!({
        "working_set_mb": ws >> 20,
        "dedicated": { "mops": ded.0, "avg_lat_ns": ded.1 },
        "ddio_overlap": { "mops": ovl.0, "avg_lat_ns": ovl.1 },
        "throughput_loss": 1.0 - ovl.0 / ded.0,
        "latency_gain": ovl.1 / ded.1 - 1.0,
    });
    (rows, record)
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig04");
    for ws in [4u64 << 20, 8 << 20, 12 << 20, 16 << 20] {
        fig.leaf(format!("{}MB", ws >> 20), move |seed| {
            let (rows, record) = contend(ws, seed);
            json!({ "rows": rows, "record": record })
        });
    }
    fig.merge(|ctx, group, leaves| {
        let mut fig = FigureReport::new(
            group,
            "Fig. 4 — X-Mem with dedicated vs DDIO-overlapped ways (l3fwd @40G in background)",
            &["ws MB", "placement", "xmem Mops/s", "avg lat ns", "thr loss", "lat gain"],
        );
        for leaf in leaves {
            let art = ctx.dep(leaf);
            for row in art["rows"].as_array().expect("rows") {
                let cells: Vec<String> = row
                    .as_array()
                    .expect("cells")
                    .iter()
                    .map(|c| c.as_str().expect("cell").to_owned())
                    .collect();
                fig.table_row(&cells);
            }
            fig.json(art["record"].clone());
        }
        fig.note(
            "Paper shape: DDIO overlap hurts X-Mem even though no core shares those ways\n\
             (paper: up to 26% throughput loss, 32% latency increase).",
        );
        fig.finish(ctx);
    });
}
