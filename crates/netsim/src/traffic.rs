//! Deterministic traffic generators.

use crate::{line_rate_pps, FlowId};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Distribution of flow ids across generated packets.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowDist {
    /// All packets belong to one flow (the paper's single-flow line-rate
    /// microbenchmarks).
    Single(FlowId),
    /// Flow ids drawn uniformly from `0..count` (the paper's 1M-flow
    /// l3fwd table and the Fig. 9 flow sweep).
    Uniform {
        /// Number of distinct flows.
        count: u32,
    },
    /// Flow ids drawn from a Zipf distribution over `0..count` with
    /// exponent `s` (YCSB's 0.99-Zipfian key popularity).
    Zipf {
        /// Number of distinct flows.
        count: u32,
        /// Zipf exponent.
        s: f64,
    },
}

/// Largest guide index of a [`ZipfTable`], in buckets (512 KB of `u32`).
const MAX_GUIDE_BUCKETS: usize = 1 << 16;

/// An immutable Zipf CDF over `0..count` with exponent `s`, plus a guide
/// index that narrows each draw's search to one bucket of the CDF.
///
/// The CDF accumulates the normalised weights `k^-s` left to right, in
/// one fixed order, so its entries do not depend on which or how many
/// generators share the table. The guide has `G` buckets, `G` a power of
/// two (`min(next_pow2(count), 2^16)`), and `guide[j]` is the first CDF
/// index whose entry is not below `j / G`. A draw `u ∈ [0, 1)` falls in
/// bucket `j = floor(u·G)`; since `G` is a power of two, `j / G ≤ u <
/// (j + 1) / G` holds exactly in `f64`, so every entry before
/// `guide[j]` is below `u` and every entry from `guide[j + 1]` on is
/// not. Searching `cdf[guide[j]..guide[j + 1]]` therefore returns
/// exactly what a binary search of the whole CDF would.
///
/// One table is shared (through an [`Arc`]) by every generator a
/// scenario compiles with the same `(count, s)`.
pub struct ZipfTable {
    s: f64,
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Builds the table for `count` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or does not fit in a `u32`.
    pub fn new(count: usize, s: f64) -> Self {
        assert!(count > 0, "zipf item count must be positive");
        assert!(u32::try_from(count).is_ok(), "zipf item count must fit in a u32");
        let mut cdf: Vec<f64> = (1..=count).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        let buckets = count.next_power_of_two().min(MAX_GUIDE_BUCKETS);
        let mut guide = Vec::with_capacity(buckets + 1);
        // One merge pass: the CDF is non-decreasing, so each edge's first
        // entry not below it lies at or after the previous edge's.
        let mut at = 0;
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            while at < count && cdf[at] < edge {
                at += 1;
            }
            guide.push(at as u32);
        }
        ZipfTable { s, cdf, guide }
    }

    /// The item a uniform draw `u ∈ [0, 1)` selects: the first index
    /// whose CDF entry is not below `u`, clamped to `count - 1` (the
    /// rounded last entry can sit just below 1).
    #[inline]
    pub fn index(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u), "zipf draw {u} outside [0, 1)");
        let buckets = self.guide.len() - 1;
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1)
    }
}

impl fmt::Debug for ZipfTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZipfTable")
            .field("count", &self.cdf.len())
            .field("s", &self.s)
            .field("buckets", &(self.guide.len() - 1))
            .finish()
    }
}

/// Temporal shape of the traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Constant offered load.
    Constant,
    /// On/off bursts: `on_fraction` of each period at `burst_scale`× the
    /// nominal rate, silent otherwise (mean rate is preserved when
    /// `burst_scale * on_fraction == 1`).
    Bursty {
        /// Fraction of time in the on-phase, `(0, 1]`.
        on_fraction: f64,
        /// Rate multiplier during the on-phase.
        burst_scale: f64,
        /// Burst period in nanoseconds.
        period_ns: u64,
    },
    /// A smooth day/night cycle: the rate swings sinusoidally between
    /// the nominal rate (peak, at phase 0) and `trough × nominal`
    /// (half a period later). Models diurnal tenant traffic for the
    /// generated scenario corpus.
    Diurnal {
        /// Rate multiplier at the bottom of the cycle, `[0, 1]`.
        trough: f64,
        /// Cycle period in nanoseconds.
        period_ns: u64,
    },
}

/// One epoch's worth of generated packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketBatch {
    /// Flow id per packet, in arrival order.
    pub flows: Vec<FlowId>,
    /// Packet size in bytes (uniform within a batch).
    pub size: u32,
}

impl PacketBatch {
    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Returns `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

/// A deterministic traffic generator for one port/VF.
///
/// Rates are expressed in bits per second of *payload+header* (packet
/// bytes); wire overhead is accounted per [`line_rate_pps`]. The generator
/// carries fractional-packet residue across epochs so long-run rates are
/// exact.
///
/// ```
/// use iat_netsim::{TrafficGen, FlowDist, TrafficPattern, FlowId};
/// let mut gen = TrafficGen::new(40_000_000_000, 64, FlowDist::Single(FlowId(0)),
///                               TrafficPattern::Constant, 42);
/// let batch = gen.generate(1_000_000); // 1 ms
/// // 40 Gb/s of 64 B packets is ~59.5 Mpps -> ~59 500 packets per ms.
/// assert!((batch.len() as f64 - 59_500.0).abs() < 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    bits_per_sec: u64,
    packet_bytes: u32,
    dist: FlowDist,
    pattern: TrafficPattern,
    rng: StdRng,
    residue: f64,
    elapsed_ns: u64,
    /// The Zipf table, when `dist` is Zipf.
    zipf: Option<Arc<ZipfTable>>,
    /// The buffer [`TrafficGen::generate`] fills and lends out.
    batch: PacketBatch,
}

impl TrafficGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes` is zero, or if a Zipf distribution has
    /// `count == 0`.
    pub fn new(
        bits_per_sec: u64,
        packet_bytes: u32,
        dist: FlowDist,
        pattern: TrafficPattern,
        seed: u64,
    ) -> Self {
        Self::sharing(bits_per_sec, packet_bytes, dist, pattern, seed, &mut Vec::new())
    }

    /// Creates a generator like [`TrafficGen::new`], except that a Zipf
    /// distribution draws from the table in `tables` built for the same
    /// `(count, s)`, building and appending one when none is there yet.
    /// Generators created against one list share their tables.
    ///
    /// # Panics
    ///
    /// As [`TrafficGen::new`].
    pub fn sharing(
        bits_per_sec: u64,
        packet_bytes: u32,
        dist: FlowDist,
        pattern: TrafficPattern,
        seed: u64,
        tables: &mut Vec<Arc<ZipfTable>>,
    ) -> Self {
        assert!(packet_bytes > 0, "packet size must be positive");
        let zipf = match dist {
            FlowDist::Zipf { count, s } => {
                let count = count as usize;
                let shared = tables
                    .iter()
                    .find(|t| t.cdf.len() == count && t.s.to_bits() == s.to_bits())
                    .cloned();
                Some(shared.unwrap_or_else(|| {
                    let table = Arc::new(ZipfTable::new(count, s));
                    tables.push(Arc::clone(&table));
                    table
                }))
            }
            _ => None,
        };
        TrafficGen {
            bits_per_sec,
            packet_bytes,
            dist,
            pattern,
            rng: StdRng::seed_from_u64(seed),
            residue: 0.0,
            elapsed_ns: 0,
            zipf,
            batch: PacketBatch::default(),
        }
    }

    /// The Zipf table this generator draws from, when its distribution
    /// is Zipf.
    pub fn zipf_table(&self) -> Option<&Arc<ZipfTable>> {
        self.zipf.as_ref()
    }

    /// Packet size in bytes.
    pub fn packet_bytes(&self) -> u32 {
        self.packet_bytes
    }

    /// Offered rate in packets per second (long-run mean).
    pub fn pps(&self) -> f64 {
        line_rate_pps(self.bits_per_sec, self.packet_bytes)
    }

    /// Changes the offered rate (for RFC 2544 searches and phase changes).
    pub fn set_rate(&mut self, bits_per_sec: u64) {
        self.bits_per_sec = bits_per_sec;
    }

    /// Replaces the flow distribution (phase changes, Fig. 9 sweep).
    pub fn set_flow_dist(&mut self, dist: FlowDist) {
        *self = TrafficGen::new(
            self.bits_per_sec,
            self.packet_bytes,
            dist,
            self.pattern,
            self.rng.gen(),
        );
    }

    fn rate_multiplier(&self) -> f64 {
        match self.pattern {
            TrafficPattern::Constant => 1.0,
            TrafficPattern::Bursty { on_fraction, burst_scale, period_ns } => {
                let phase = (self.elapsed_ns % period_ns) as f64 / period_ns as f64;
                if phase < on_fraction {
                    burst_scale
                } else {
                    0.0
                }
            }
            TrafficPattern::Diurnal { trough, period_ns } => {
                let phase = (self.elapsed_ns % period_ns) as f64 / period_ns as f64;
                let day = 0.5 + 0.5 * (phase * 2.0 * std::f64::consts::PI).cos();
                trough + (1.0 - trough) * day
            }
        }
    }

    /// Generates the packets arriving during the next `duration_ns`
    /// nanoseconds into the generator's own buffer and lends it out; the
    /// next call overwrites it.
    pub fn generate(&mut self, duration_ns: u64) -> &PacketBatch {
        let mult = self.rate_multiplier();
        self.elapsed_ns += duration_ns;
        let exact = self.pps() * mult * duration_ns as f64 / 1e9 + self.residue;
        let count = exact.floor() as usize;
        self.residue = exact - count as f64;
        let flows = &mut self.batch.flows;
        flows.clear();
        match &self.dist {
            FlowDist::Single(f) => flows.resize(count, *f),
            FlowDist::Uniform { count: n } if *n <= 1 => flows.resize(count, FlowId(0)),
            FlowDist::Uniform { count: n } => {
                let uniform = rand::distributions::Uniform::new(0, *n);
                flows.extend((0..count).map(|_| FlowId(uniform.sample(&mut self.rng))));
            }
            FlowDist::Zipf { .. } => {
                let table = self.zipf.as_deref().expect("zipf generator has its table");
                flows.extend((0..count).map(|_| FlowId(table.index(self.rng.gen()) as u32)));
            }
        }
        self.batch.size = self.packet_bytes;
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The `(count, s)` pairs the Zipf oracle covers: the paper's 1M-key
    /// YCSB table, the 10K-record memtable, and a uniform table whose CDF
    /// entries fall exactly on bucket edges.
    const ZIPF_CASES: [(usize, f64); 3] = [(1_000_000, 0.99), (10_000, 0.99), (4, 0.0)];

    /// Each case's table next to a reference CDF built inline, the
    /// straightforward way.
    fn zipf_oracles() -> &'static [(ZipfTable, Vec<f64>)] {
        static ORACLES: OnceLock<Vec<(ZipfTable, Vec<f64>)>> = OnceLock::new();
        ORACLES.get_or_init(|| {
            ZIPF_CASES
                .iter()
                .map(|&(count, s)| {
                    let weights: Vec<f64> =
                        (1..=count).map(|k| 1.0 / (k as f64).powf(s)).collect();
                    let total: f64 = weights.iter().sum();
                    let mut acc = 0.0;
                    let cdf = weights
                        .iter()
                        .map(|w| {
                            acc += w / total;
                            acc
                        })
                        .collect();
                    (ZipfTable::new(count, s), cdf)
                })
                .collect()
        })
    }

    /// The full-CDF binary search the guide index must reproduce, clamped
    /// to the last item.
    fn full_search(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn zipf_index_matches_full_search(case in 0..ZIPF_CASES.len(), bits in 0u64..1 << 53) {
            let (table, cdf) = &zipf_oracles()[case];
            let u = bits as f64 / (1u64 << 53) as f64;
            prop_assert_eq!(table.index(u), full_search(cdf, u), "u = {}", u);
        }
    }

    #[test]
    fn zipf_cdf_is_bit_identical_to_reference() {
        for (table, cdf) in zipf_oracles() {
            assert_eq!(table.cdf.len(), cdf.len());
            assert!(table.cdf.iter().zip(cdf).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn zipf_index_exact_at_bucket_edges() {
        for (table, cdf) in zipf_oracles() {
            let buckets = table.guide.len() - 1;
            assert!(buckets.is_power_of_two());
            assert_eq!(buckets, table.cdf.len().next_power_of_two().min(1 << 16));
            for j in 0..buckets {
                let edge = j as f64 / buckets as f64;
                assert_eq!(table.index(edge), full_search(cdf, edge), "edge {j}/{buckets}");
                if j > 0 {
                    let below = edge.next_down();
                    assert_eq!(table.index(below), full_search(cdf, below), "below {j}/{buckets}");
                }
            }
            let top = 1.0 - 2f64.powi(-53);
            assert_eq!(table.index(top), full_search(cdf, top));
        }
    }

    #[test]
    fn zipf_draws_stay_below_count() {
        // The rounded last CDF entry of the 1M-key table sits below the
        // largest draw, so an unclamped search would return `count`.
        let (table, cdf) = &zipf_oracles()[0];
        let top = 1.0 - 2f64.powi(-53);
        assert!(*cdf.last().unwrap() < top);
        assert_eq!(cdf.partition_point(|&c| c < top), table.cdf.len());
        assert_eq!(table.index(top), table.cdf.len() - 1);
    }

    #[test]
    fn sharing_reuses_tables_per_count_and_exponent() {
        let mk = |dist, tables: &mut Vec<Arc<ZipfTable>>| {
            TrafficGen::sharing(1_000_000_000, 64, dist, TrafficPattern::Constant, 1, tables)
        };
        let mut tables = Vec::new();
        let a = mk(FlowDist::Zipf { count: 1000, s: 0.99 }, &mut tables);
        let b = mk(FlowDist::Zipf { count: 1000, s: 0.99 }, &mut tables);
        let c = mk(FlowDist::Zipf { count: 1000, s: 0.9 }, &mut tables);
        let d = mk(FlowDist::Zipf { count: 999, s: 0.99 }, &mut tables);
        let e = mk(FlowDist::Uniform { count: 1000 }, &mut tables);
        let table = |g: &TrafficGen| Arc::clone(g.zipf_table().unwrap());
        assert!(Arc::ptr_eq(&table(&a), &table(&b)));
        assert!(!Arc::ptr_eq(&table(&a), &table(&c)));
        assert!(!Arc::ptr_eq(&table(&a), &table(&d)));
        assert!(e.zipf_table().is_none());
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn constant_rate_exact_long_run() {
        let mut g = TrafficGen::new(
            10_000_000_000,
            1500,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Constant,
            1,
        );
        let mut total = 0usize;
        for _ in 0..1000 {
            total += g.generate(1_000_000).len();
        }
        let expect = g.pps(); // one second total
        assert!((total as f64 - expect).abs() / expect < 0.001, "{total} vs {expect}");
    }

    #[test]
    fn uniform_flows_cover_space() {
        let mut g = TrafficGen::new(
            40_000_000_000,
            64,
            FlowDist::Uniform { count: 16 },
            TrafficPattern::Constant,
            7,
        );
        let batch = g.generate(100_000);
        let mut seen = std::collections::HashSet::new();
        for f in &batch.flows {
            assert!(f.0 < 16);
            seen.insert(f.0);
        }
        assert!(seen.len() >= 12, "uniform flows should cover most of the space");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut g = TrafficGen::new(
            40_000_000_000,
            64,
            FlowDist::Zipf { count: 1000, s: 0.99 },
            TrafficPattern::Constant,
            11,
        );
        let batch = g.generate(1_000_000);
        let hot = batch.flows.iter().filter(|f| f.0 < 10).count();
        // Under 0.99-Zipf the top 10 of 1000 keys get >25% of accesses.
        assert!(hot as f64 / batch.len() as f64 > 0.25);
    }

    #[test]
    fn bursty_mean_rate_preserved() {
        let mut g = TrafficGen::new(
            10_000_000_000,
            64,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Bursty { on_fraction: 0.25, burst_scale: 4.0, period_ns: 1_000_000 },
            3,
        );
        let mut total = 0usize;
        for _ in 0..4000 {
            total += g.generate(250_000).len(); // quarter-period steps
        }
        let expect = g.pps(); // one second total
        assert!((total as f64 - expect).abs() / expect < 0.01, "{total} vs {expect}");
    }

    #[test]
    fn bursty_has_silent_phases() {
        let mut g = TrafficGen::new(
            10_000_000_000,
            64,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Bursty { on_fraction: 0.5, burst_scale: 2.0, period_ns: 1_000_000 },
            3,
        );
        let on = g.generate(500_000).len();
        let off = g.generate(500_000).len();
        assert!(on > 0);
        assert!(off <= 1, "off-phase should be silent, got {off}");
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let mut g = TrafficGen::new(
            10_000_000_000,
            64,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Diurnal { trough: 0.2, period_ns: 1_000_000 },
            3,
        );
        let peak = g.generate(100_000).len();
        // Skip to the middle of the cycle (phase ~0.5 = night).
        g.generate(400_000);
        let night = g.generate(100_000).len();
        assert!(peak > 0);
        assert!(
            (night as f64) < 0.4 * peak as f64,
            "night rate should approach the trough: {night} vs peak {peak}"
        );
        // Mean over a whole number of cycles sits between trough and peak.
        let mut total = 0usize;
        for _ in 0..40 {
            total += g.generate(100_000).len();
        }
        let nominal = g.pps() * 4.0 / 1e3; // 4 ms worth of packets
        let mean_mult = total as f64 / nominal;
        assert!(mean_mult > 0.4 && mean_mult < 0.8, "mean multiplier {mean_mult}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            TrafficGen::new(
                1_000_000_000,
                256,
                FlowDist::Uniform { count: 100 },
                TrafficPattern::Constant,
                99,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.generate(1_000_000), b.generate(1_000_000));
    }
}
