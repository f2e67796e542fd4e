//! Fig. 3: the Leaky DMA motivation — RFC 2544 zero-loss throughput of
//! single-core `l3fwd` (1M flows) as the Rx ring shrinks from 1024 to 64
//! entries, for 64 B and 1.5 KB packets.
//!
//! Traffic is bursty (2× line-rate microbursts, 50% duty), which is what
//! makes shallow rings fragile for high packet rates — the paper's point
//! that "a shallow Rx/Tx buffer can lead to severe packet drop issues,
//! especially with bursty traffic". One leaf job per packet size.

use super::{rows_artifact, Row, Sweep};
use crate::report::pct;
use crate::catalog::{build, ScenarioParams};
use crate::scenarios::LINE_RATE_40G;
use iat_netsim::{rfc2544_search, FlowDist, Rfc2544Config, TrafficGen, TrafficPattern};
use iat_runner::Registry;

/// One RFC 2544 trial: fresh platform, warm up, then measure drops.
fn trial(ring: usize, pkt: u32, rate_bps: u64, seed: u64) -> u64 {
    let params = ScenarioParams::L3fwdSlicing { ring_entries: ring, packet_bytes: pkt, rate_bps };
    let mut platform = build(&params, seed).into_platform();
    let tenant = platform.tenant_id("l3fwd").expect("l3fwd tenant");
    // Replace the constant generator with the bursty one.
    platform.tenant_mut(tenant).bindings[0].gen = TrafficGen::new(
        rate_bps,
        pkt,
        FlowDist::Uniform { count: 1 << 20 },
        TrafficPattern::Bursty {
            on_fraction: 0.5,
            burst_scale: 2.0,
            period_ns: 250_000,
        },
        seed,
    );
    platform.run_epochs(10); // warm-up
    platform.tenant_mut(tenant).workload.reset_metrics();
    platform.run_epochs(30);
    platform.metrics_of(tenant).drops
}

/// The ring sweep for one packet size.
fn sweep(pkt: u32, seed: u64) -> Vec<Row> {
    let rings = [1024usize, 512, 256, 128, 64];
    let mut rows = Vec::new();
    let mut reference = None;
    for &ring in &rings {
        let mut probe = |rate: u64| trial(ring, pkt, rate, seed);
        let report = rfc2544_search(
            &mut probe,
            Rfc2544Config {
                line_rate_bps: LINE_RATE_40G,
                min_rate_bps: 200_000_000,
                resolution_bps: 400_000_000,
            },
        );
        let gbps = report.zero_loss_bps as f64 / 1e9;
        let base = *reference.get_or_insert(gbps.max(1e-9));
        rows.push((
            vec![
                pkt.to_string(),
                ring.to_string(),
                format!("{gbps:.2}"),
                pct(gbps / base),
                report.trials.to_string(),
            ],
            serde_json::json!({
                "packet_bytes": pkt,
                "ring": ring,
                "zero_loss_gbps": gbps,
                "relative_to_1024": gbps / base,
            }),
        ));
    }
    rows
}

pub(crate) fn register(reg: &mut Registry) {
    let mut fig = Sweep::new(reg, "fig03");
    for pkt in [64u32, 1500] {
        fig.leaf(format!("{pkt}B"), move |seed| rows_artifact(sweep(pkt, seed)));
    }
    fig.report(
        "Fig. 3 — RFC2544 zero-loss throughput vs Rx ring size (l3fwd, 1M flows)",
        &["pkt", "ring", "zero-loss Gb/s", "% of 1024-ring", "trials"],
        Some(
            "Paper shape: 64 B traffic collapses as the ring shrinks (512 entries already\n\
             loses >10%, 64 entries is a small fraction of line rate), while 1.5 KB traffic\n\
             tolerates shrinking until the ring is ~1/8 of the default.",
        ),
    );
}
