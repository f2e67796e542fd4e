//! Prometheus text-exposition rendering for [`MetricsSnapshot`].
//!
//! This is the wire format a long-running IAT daemon service would serve
//! from a `/metrics` endpoint; today the sweep writes it next to
//! `BENCH_repro.json` so the same snapshot is scrapable offline.
//!
//! Mapping from the registry's `subsystem.metric` names:
//!
//! * counters render as `<name>_total` with `# TYPE ... counter`,
//! * gauges render verbatim with `# TYPE ... gauge`,
//! * histograms render as cumulative `<name>_bucket{le="..."}` series
//!   plus `_sum` and `_count`, Prometheus histogram convention.
//!
//! Names are sanitized to `[a-zA-Z0-9_]` (dots become underscores).

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitizes a registry name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an `le` bucket edge the way Prometheus expects
/// (`1000`, `0.5`, `+Inf`).
fn le_label(edge: f64) -> String {
    if edge.fract() == 0.0 && edge.abs() < 1e15 {
        format!("{}", edge as i64)
    } else {
        format!("{edge}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n}_total counter");
        let _ = writeln!(out, "{n}_total {value}");
    }
    for (name, value) in snapshot.gauges() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, hist) in snapshot.histograms() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (edge, count) in hist.bounds().iter().zip(hist.counts()) {
            cum += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", le_label(*edge));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{n}_sum {}", hist.sum());
        let _ = writeln!(out, "{n}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let mut m = Metrics::new();
        m.counter_add("daemon.msr_writes", 3);
        m.gauge_set("ddio.ways", 4.0);
        m.histogram_register("daemon.cost_ns", &[1e3, 1e4]);
        m.histogram_observe("daemon.cost_ns", 500.0);
        m.histogram_observe("daemon.cost_ns", 50_000.0);
        let text = render_prometheus(&m.snapshot());
        assert!(text.contains("# TYPE daemon_msr_writes_total counter\ndaemon_msr_writes_total 3\n"));
        assert!(text.contains("# TYPE ddio_ways gauge\nddio_ways 4\n"));
        assert!(text.contains("daemon_cost_ns_bucket{le=\"1000\"} 1\n"));
        // Cumulative: the overflow observation appears only at +Inf.
        assert!(text.contains("daemon_cost_ns_bucket{le=\"10000\"} 1\n"));
        assert!(text.contains("daemon_cost_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("daemon_cost_ns_sum 50500\n"));
        assert!(text.contains("daemon_cost_ns_count 2\n"));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prom_name("nic.ring_occupancy"), "nic_ring_occupancy");
        assert_eq!(prom_name("daemon.cost_ns.p99"), "daemon_cost_ns_p99");
        assert_eq!(prom_name("9lives"), "_9lives");
    }

    #[test]
    fn fractional_edges_keep_their_digits() {
        let mut m = Metrics::new();
        m.histogram_register("nic.ring_occupancy", &[0.25, 0.5]);
        m.histogram_observe("nic.ring_occupancy", 0.3);
        let text = render_prometheus(&m.snapshot());
        assert!(text.contains("nic_ring_occupancy_bucket{le=\"0.25\"} 0\n"));
        assert!(text.contains("nic_ring_occupancy_bucket{le=\"0.5\"} 1\n"));
    }
}
