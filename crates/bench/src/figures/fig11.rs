//! Fig. 11: IAT dynamics over time — the Fig. 10 scenario at 1.5 KB
//! packets under IAT, showing the LLC way allocation of every tenant plus
//! DDIO, and container 4's LLC miss rate sampled at 0.1 s granularity (an
//! independent observer, like the paper's side-band pqos process).
//!
//! Besides the time-series JSON, the run keeps a telemetry flight
//! recorder on the daemon: the decision trace lands in
//! `results/fig11.trace.jsonl` and its summary in
//! `results/fig11.metrics.json`. A single job — the timeline is one
//! continuous 20 s run and cannot be sliced.

use super::sim_job;
use crate::builder::{apply_action, ScenarioAction};
use crate::catalog::{build, ScenarioParams};
use crate::report::{save_metrics, save_trace};
use crate::scenarios::PolicyKind;
use iat_cachesim::WayMask;
use iat_runner::{JobCtx, Registry};
use iat_telemetry::{summarize, RingRecorder};
use serde_json::Value;
use std::collections::BTreeMap;

const GROUP: &str = "fig11";

fn mask_str(m: WayMask) -> String {
    match (m.lowest(), m.highest()) {
        (Some(lo), Some(hi)) => format!("{lo}-{hi}"),
        _ => "-".into(),
    }
}

fn timeline(ctx: &mut JobCtx) -> Result<Value, String> {
    let params =
        ScenarioParams::SlicingPmdXmem { packet_bytes: 1500, policy: PolicyKind::IatNoDdioResize };
    let mut m = build(&params, ctx.seed("scenario")).into_managed();
    let pc = m.platform.tenant_id("xmem-pc4").expect("container 4");
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut record = |name: String, t: f64, v: f64| series.entry(name).or_default().push((t, v));
    let mut flight = RingRecorder::new(4096);
    let epochs_per_sample = 10; // 0.1 s at the 10 ms epoch
    let samples_per_interval = m.epochs_per_interval() / epochs_per_sample;

    ctx.outln("\n== Fig. 11 — LLC allocation and container-4 LLC misses over time (IAT, 1.5KB) ==");
    ctx.outln(&format!(
        "{:>5}  {:>8} {:>8} {:>8} {:>8} {:>6}  {:>12}",
        "t(s)", "pmd", "be2", "be3", "pc4", "ddio", "pc4 miss/s"
    ));

    let mut last = m.observe();
    for second in 0..20u64 {
        if second == 5 {
            apply_action(&mut m, &ScenarioAction::SetWorkingSet { tenant: pc, bytes: 10 << 20 });
        }
        if second == 15 {
            apply_action(&mut m, &ScenarioAction::SetDdioWays { first: 7, count: 4 });
        }
        // Run the second in 0.1 s slices, sampling container 4's misses.
        let mut miss_acc = 0u64;
        for s in 0..samples_per_interval {
            m.platform.run_epochs(epochs_per_sample);
            let now = m.observe();
            let d = crate::Managed::deltas_between(&last, &now);
            let pc_miss = d.tenants[usize::from(pc.0)].llc_misses;
            miss_acc += pc_miss;
            let t = second as f64 + (s as f64 + 1.0) * 0.1;
            let scale = m.platform.config().time_scale as f64;
            record("pc4_miss_per_s".into(), t, pc_miss as f64 * 10.0 * scale);
            last = now;
        }
        // Policy iteration once per second, as the daemon would.
        let poll = m.observe();
        let now_ns = m.platform.time_ns();
        m.policy
            .step_traced(m.platform.rdt_mut(), poll, now_ns, &mut flight);

        let rdt = m.platform.rdt();
        let masks: Vec<String> = m
            .platform
            .tenants()
            .iter()
            .map(|t| mask_str(rdt.clos_mask(t.clos)))
            .collect();
        let scale = m.platform.config().time_scale as f64;
        let miss_rate = miss_acc as f64 * scale; // per modelled second
        for t in m.platform.tenants() {
            record(
                format!("ways_{}", t.name),
                second as f64 + 1.0,
                rdt.clos_mask(t.clos).count() as f64,
            );
        }
        record("ddio_ways".into(), second as f64 + 1.0, rdt.ddio_ways() as f64);
        ctx.outln(&format!(
            "{:>5}  {:>8} {:>8} {:>8} {:>8} {:>6}  {:>12.3e}",
            second + 1,
            masks[0],
            masks[1],
            masks[2],
            masks[3],
            mask_str(rdt.ddio_mask()),
            miss_rate,
        ));
    }
    ctx.outln(
        "\nPaper shape: container 4 grows from 2 to 4 ways shortly after t=5s (its miss\n\
         spike subsides within ~1s); after the manual DDIO widening at t=15s the BE\n\
         containers are shuffled onto DDIO's ways and container 4 stays isolated.",
    );
    ctx.save_json(GROUP, &serde_json::to_value(&series));
    let events = flight.drain();
    save_trace(ctx, &format!("{GROUP}.trace"), &events);
    let summary = summarize(&events).snapshot();
    // Fold the daemon's decision-trace summary into the job registry so
    // the run-level metrics (and repro's cost line) see the msr writes.
    ctx.metrics.merge(&summary);
    save_metrics(ctx, GROUP, &summary);
    Ok(Value::Null)
}

pub(crate) fn register(reg: &mut Registry) {
    reg.add(sim_job(GROUP, GROUP, timeline));
}
