//! Metrics registry: named counters, gauges, and fixed-bucket
//! histograms with snapshot / merge / JSON export.

use crate::event::Event;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// A fixed-bucket histogram.
///
/// `bounds` are inclusive upper edges; an observation lands in the
/// first bucket whose edge is `>= value` (Prometheus `le` semantics),
/// or in the implicit overflow bucket past the last edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper edges.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket edge");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bucket edges must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Inclusive upper edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) via linear interpolation
    /// inside the matching bucket, Prometheus `histogram_quantile`
    /// style: the first bucket interpolates up from 0 (or from its own
    /// edge when that edge is negative), and observations past the
    /// last edge clamp to that edge — a fixed-bucket histogram cannot
    /// see further. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let last_edge = self.bounds[self.bounds.len() - 1];
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                if i == self.bounds.len() {
                    return last_edge; // overflow bucket: clamp
                }
                let hi = self.bounds[i];
                let lo = if i == 0 { hi.min(0.0) } else { self.bounds[i - 1] };
                return lo + (hi - lo) * ((rank - cum as f64) / c as f64);
            }
            cum += c;
        }
        last_edge
    }

    /// Adds another histogram's observations into this one.
    ///
    /// # Panics
    ///
    /// Panics when bucket edges differ — merging histograms of
    /// different shapes is a registry-usage bug worth failing loudly on.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    fn to_json(&self) -> Value {
        json!({
            "bounds": self.bounds.clone(),
            "counts": self.counts.clone(),
            "sum": self.sum,
            "count": self.count,
        })
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form strings; the convention in this workspace is
/// `subsystem.metric` (e.g. `daemon.iterations`, `nic.rx_dropped`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A point-in-time copy of a [`Metrics`] registry.
///
/// Snapshots are plain data: merge them into another registry with
/// [`Metrics::merge`] or render them with [`MetricsSnapshot::to_json`].
pub type MetricsSnapshot = Metrics;

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Registers a histogram with the given bucket edges if absent.
    ///
    /// # Panics
    ///
    /// Panics when the histogram exists with *different* edges.
    pub fn histogram_register(&mut self, name: &str, bounds: &[f64]) {
        match self.histograms.get(name) {
            Some(h) => assert_eq!(
                h.bounds(),
                bounds,
                "histogram {name:?} re-registered with different buckets"
            ),
            None => {
                self.histograms.insert(name.to_string(), Histogram::new(bounds));
            }
        }
    }

    /// Records an observation into a previously registered histogram.
    ///
    /// # Panics
    ///
    /// Panics when the histogram was never registered — observing into
    /// an implicit default would silently bucket wrongly.
    pub fn histogram_observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} observed before registration"))
            .observe(value);
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// A point-in-time copy of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.clone()
    }

    /// Folds another registry (or snapshot) into this one: counters
    /// and histogram buckets add; gauges take the other side's value
    /// (last write wins, matching gauge semantics).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Whether nothing has been recorded or registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as JSON:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Value {
        let hists: BTreeMap<String, Value> =
            self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect();
        json!({
            "counters": self.counters.clone(),
            "gauges": self.gauges.clone(),
            "histograms": Value::Object(hists),
        })
    }
}

/// Bucket edges (ns) for the per-iteration cost histogram: 1 us .. 10 ms.
pub const COST_NS_BOUNDS: [f64; 5] = [1e3, 1e4, 1e5, 1e6, 1e7];

/// Bucket edges for ring-occupancy *fractions* (len / capacity).
pub const OCCUPANCY_BOUNDS: [f64; 5] = [0.25, 0.5, 0.75, 0.9, 1.0];

/// Folds an event stream into a [`Metrics`] summary: one
/// `events.<kind>` counter per event kind, plus
///
/// * `daemon.msr_writes` / `daemon.stable` / `daemon.unstable` counters
///   and a `daemon.cost_ns` histogram from [`Event::Decision`]s,
/// * a `nic.rx_dropped` counter from [`Event::NicDrop`]s,
/// * a `nic.ring_occupancy` histogram of occupancy fractions from
///   [`Event::RingOccupancy`]s,
/// * a `ddio.ways` gauge tracking the last [`Event::DdioResize`],
/// * `<histogram>.p50` / `.p95` / `.p99` gauges (bucket-interpolated
///   [`Histogram::quantile`] estimates) for each non-empty histogram.
pub fn summarize(events: &[Event]) -> Metrics {
    let mut m = Metrics::new();
    m.histogram_register("daemon.cost_ns", &COST_NS_BOUNDS);
    m.histogram_register("nic.ring_occupancy", &OCCUPANCY_BOUNDS);
    for e in events {
        m.counter_add(&format!("events.{}", e.kind()), 1);
        match e {
            Event::Decision { stable, msr_writes, cost_ns, .. } => {
                m.counter_add(if *stable { "daemon.stable" } else { "daemon.unstable" }, 1);
                m.counter_add("daemon.msr_writes", *msr_writes);
                m.histogram_observe("daemon.cost_ns", *cost_ns as f64);
            }
            Event::NicDrop { dropped, .. } => m.counter_add("nic.rx_dropped", *dropped),
            Event::RingOccupancy { len, capacity, .. } if *capacity > 0 => {
                m.histogram_observe("nic.ring_occupancy", *len as f64 / *capacity as f64);
            }
            Event::DdioResize { to_ways, .. } => m.gauge_set("ddio.ways", *to_ways as f64),
            _ => {}
        }
    }
    let quantiles: Vec<(String, f64)> = m
        .histograms()
        .filter(|(_, h)| h.count() > 0)
        .flat_map(|(name, h)| {
            [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")]
                .map(|(q, tag)| (format!("{name}.{tag}"), h.quantile(q)))
        })
        .collect();
    for (name, value) in quantiles {
        m.gauge_set(&name, value);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stamp;

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        // Exactly on an edge lands in that edge's bucket (le semantics).
        h.observe(1.0);
        h.observe(10.0);
        h.observe(100.0);
        // Strictly between edges lands in the next bucket up.
        h.observe(1.5);
        // Past the last edge lands in overflow.
        h.observe(100.1);
        // Below the first edge lands in the first bucket.
        h.observe(-5.0);
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - (1.0 + 10.0 + 100.0 + 1.5 + 100.1 - 5.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 40.0]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        // 10 observations spread 4 / 4 / 2 across the buckets.
        for _ in 0..4 {
            h.observe(5.0);
        }
        for _ in 0..4 {
            h.observe(15.0);
        }
        for _ in 0..2 {
            h.observe(30.0);
        }
        // p50: rank 5 falls 1 observation into the 4-count (10,20]
        // bucket -> 10 + 10 * (1/4).
        assert!((h.quantile(0.50) - 12.5).abs() < 1e-9);
        // p95: rank 9.5 falls 1.5 into the 2-count (20,40] bucket.
        assert!((h.quantile(0.95) - 35.0).abs() < 1e-9);
        // p0 and p100 stay inside the observed edges.
        assert!((h.quantile(0.0) - 0.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_overflow_to_last_edge() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("daemon.iterations"), 0);
        m.counter_add("daemon.iterations", 2);
        m.counter_add("daemon.iterations", 3);
        assert_eq!(m.counter("daemon.iterations"), 5);
        assert_eq!(m.gauge("ddio.ways"), None);
        m.gauge_set("ddio.ways", 2.0);
        m.gauge_set("ddio.ways", 4.0);
        assert_eq!(m.gauge("ddio.ways"), Some(4.0));
    }

    #[test]
    fn merge_adds_counters_and_buckets_gauges_last_win() {
        let mut a = Metrics::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 1.0);
        a.histogram_register("h", &[10.0, 20.0]);
        a.histogram_observe("h", 5.0);

        let mut b = Metrics::new();
        b.counter_add("c", 2);
        b.counter_add("only_b", 7);
        b.gauge_set("g", 9.0);
        b.histogram_register("h", &[10.0, 20.0]);
        b.histogram_observe("h", 15.0);
        b.histogram_register("h2", &[1.0]);
        b.histogram_observe("h2", 0.5);

        a.merge(&b.snapshot());
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().counts(), &[1, 1, 0]);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_mismatched_histograms() {
        let mut a = Metrics::new();
        a.histogram_register("h", &[1.0]);
        let mut b = Metrics::new();
        b.histogram_register("h", &[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "before registration")]
    fn observe_requires_registration() {
        Metrics::new().histogram_observe("nope", 1.0);
    }

    #[test]
    fn summarize_counts_kinds_and_costs() {
        let s = Stamp { iter: 1, time_ns: 10 };
        let events = vec![
            Event::Decision {
                stamp: s,
                state: "low-keep".into(),
                action: "None".into(),
                stable: true,
                msr_writes: 0,
                cost_ns: 5_000,
            },
            Event::Decision {
                stamp: s,
                state: "io-demand".into(),
                action: "GrowDdio".into(),
                stable: false,
                msr_writes: 3,
                cost_ns: 120_000,
            },
            Event::NicDrop { stamp: s, vf: 0, dropped: 42 },
            Event::RingOccupancy { stamp: s, vf: 0, len: 96, capacity: 128 },
            Event::DdioResize { stamp: s, from_ways: 2, to_ways: 3 },
        ];
        let m = summarize(&events);
        assert_eq!(m.counter("events.decision"), 2);
        assert_eq!(m.counter("events.nic_drop"), 1);
        assert_eq!(m.counter("daemon.stable"), 1);
        assert_eq!(m.counter("daemon.unstable"), 1);
        assert_eq!(m.counter("daemon.msr_writes"), 3);
        assert_eq!(m.counter("nic.rx_dropped"), 42);
        assert_eq!(m.gauge("ddio.ways"), Some(3.0));
        let h = m.histogram("daemon.cost_ns").unwrap();
        assert_eq!(h.count(), 2);
        // 5_000 <= 1e4 (bucket 1), 120_000 <= 1e6 (bucket 3).
        assert_eq!(h.counts(), &[0, 1, 0, 1, 0, 0]);
        let occ = m.histogram("nic.ring_occupancy").unwrap();
        assert_eq!(occ.count(), 1);
        assert_eq!(occ.counts(), &[0, 0, 1, 0, 0, 0]);
        // Quantile gauges are surfaced for every non-empty histogram.
        assert!(m.gauge("daemon.cost_ns.p50").is_some());
        assert!(m.gauge("daemon.cost_ns.p99").is_some());
        assert!(m.gauge("nic.ring_occupancy.p95").is_some());
    }

    #[test]
    fn json_shape() {
        let mut m = Metrics::new();
        m.counter_add("c", 4);
        m.gauge_set("g", 2.5);
        m.histogram_register("h", &[1.0, 2.0]);
        m.histogram_observe("h", 1.5);
        let v = m.to_json();
        assert_eq!(v["counters"]["c"], 4);
        assert_eq!(v["gauges"]["g"], 2.5);
        assert_eq!(v["histograms"]["h"]["count"], 1);
        assert_eq!(v["histograms"]["h"]["counts"][1], 1);
    }
}
