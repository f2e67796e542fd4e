//! Phase profiling for sampled simulation.
//!
//! The sampled execution path (`repro --sampled`) skips most epochs of
//! every simulated interval and extrapolates statistics from a measured
//! window at the interval's end. How large that window must be depends on
//! how *phasic* the access stream is: inside a steady phase a short window
//! is representative; across a phase change (an X-Mem working-set resize, a
//! flow-count shift) the stream must be re-profiled before the measured
//! fraction can shrink again (Bueno et al., "Improving the
//! Representativeness of Simulation Intervals for the Cache Memory
//! System").
//!
//! This module supplies the three profiling pieces:
//!
//! * [`ReuseSketch`] — a hash-sampled reuse-distance sketch fed by the
//!   execution contexts ([`crate::ExecCtx`]) at access-*enqueue* order.
//!   Enqueue order is identical between the serial oracle and the batched
//!   slice pipeline regardless of where window flushes fall (flushes only
//!   decide when enqueued accesses *resolve*), so the sketch — and
//!   everything derived from it — is invariant to `--slice-workers` and to
//!   flush placement **by construction**.
//! * [`Fingerprint`] — one interval's signature: the normalized
//!   reuse-distance histogram plus the interval's demand-miss-rate
//!   signature. Pure integer arithmetic; deterministic from the job seed.
//! * [`PhaseProfiler`] — an online leader clusterer over fingerprints.
//!   Each interval is matched to the nearest known phase centroid (or
//!   opens a new phase), phases carry interval weights, and the profiler
//!   answers one question per interval: does the next interval need a
//!   boosted measured window (new/unstable phase) or does the stable
//!   fast-forward plan suffice?
//!
//! Observation is thread-local and off by default: exact runs pay one
//! branch per access batch and nothing else.

use std::cell::RefCell;

/// Number of log2 reuse-distance buckets in a sketch histogram.
pub const BUCKETS: usize = 16;

/// Sample 1 in 2^`SAMPLE_SHIFT` cache lines (by address hash, so the same
/// lines are tracked every time the stream repeats).
const SAMPLE_SHIFT: u32 = 5;

/// Slots in the sampled last-touch table.
const TABLE_SLOTS: usize = 1024;

/// SplitMix64 finalizer: the address hash behind line sampling and table
/// slotting. Fixed constants — no runtime seeding — so a given address
/// stream always yields the same sketch.
#[inline]
fn hash_line(line: u64) -> u64 {
    let mut z = line.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash-sampled reuse-distance sketch.
///
/// Every observed access advances a virtual clock; for the sampled subset
/// of cache lines the sketch keeps the clock value of the last touch in a
/// small direct-mapped table and histograms `log2(now - last)` on re-touch.
/// Slot collisions and first touches land in the cold bucket — the sketch
/// is a signature, not a measurement, and only needs to be *stable* within
/// a phase and *different* across phases.
#[derive(Debug, Clone)]
pub struct ReuseSketch {
    /// Direct-mapped `(line + 1, last_seq)` table; key 0 = empty.
    table: Vec<(u64, u64)>,
    /// Virtual clock: one tick per observed access.
    seq: u64,
    hist: [u64; BUCKETS],
    samples: u64,
}

impl Default for ReuseSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl ReuseSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        ReuseSketch {
            table: vec![(0, 0); TABLE_SLOTS],
            seq: 0,
            hist: [0; BUCKETS],
            samples: 0,
        }
    }

    /// Observes one access to `addr`.
    #[inline]
    pub fn observe(&mut self, addr: u64) {
        let line = addr / iat_cachesim::LINE_BYTES;
        self.seq += 1;
        let h = hash_line(line);
        if h & ((1 << SAMPLE_SHIFT) - 1) != 0 {
            return;
        }
        let slot = ((h >> SAMPLE_SHIFT) as usize) & (TABLE_SLOTS - 1);
        let key = line + 1;
        let (k, last) = self.table[slot];
        let bucket = if k == key {
            let d = (self.seq - last).max(1);
            (63 - d.leading_zeros() as usize).min(BUCKETS - 1)
        } else {
            // First touch or collision evict: cold.
            BUCKETS - 1
        };
        self.hist[bucket] += 1;
        self.samples += 1;
        self.table[slot] = (key, self.seq);
    }

    /// Sampled accesses recorded since the last drain.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Closes the current interval: normalizes the histogram into a
    /// [`Fingerprint`] carrying `miss_permille` as the miss-rate signature,
    /// then clears the histogram. The last-touch table and the virtual
    /// clock persist so reuse arcs spanning an interval boundary still
    /// resolve.
    pub fn drain(&mut self, miss_permille: u16) -> Fingerprint {
        let mut hist = [0u16; BUCKETS];
        if self.samples > 0 {
            for (out, &n) in hist.iter_mut().zip(self.hist.iter()) {
                *out = (n * 1000 / self.samples) as u16;
            }
        }
        let fp = Fingerprint { hist, miss_permille, samples: self.samples };
        self.hist = [0; BUCKETS];
        self.samples = 0;
        fp
    }

    /// Full reset: table, clock and histogram. Called when a new
    /// simulation starts on a (possibly reused) worker thread.
    pub fn reset(&mut self) {
        self.table.iter_mut().for_each(|e| *e = (0, 0));
        self.seq = 0;
        self.hist = [0; BUCKETS];
        self.samples = 0;
    }
}

/// One interval's phase signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Per-mille mass of each log2 reuse-distance bucket.
    pub hist: [u16; BUCKETS],
    /// Demand miss rate of the interval's measured window, in per-mille.
    pub miss_permille: u16,
    /// Sampled accesses behind the histogram (0 = idle interval).
    pub samples: u64,
}

impl Fingerprint {
    /// L1 distance between two fingerprints: histogram mass displacement
    /// plus a weighted miss-rate term (both in per-mille units).
    pub fn distance(&self, other: &Fingerprint) -> u32 {
        let mut d = 0u32;
        for (a, b) in self.hist.iter().zip(other.hist.iter()) {
            d += a.abs_diff(*b) as u32;
        }
        d + 2 * self.miss_permille.abs_diff(other.miss_permille) as u32
    }
}

/// Fingerprints closer than this to a phase centroid belong to that phase.
/// At most 2000 per-mille of histogram mass can displace, plus 2000 from
/// the miss term; 250 keeps steady streams in one phase while a working-set
/// resize (which moves both the reuse arc and the miss rate) reliably
/// crosses it.
const PHASE_THRESHOLD: u32 = 250;

/// Consecutive same-phase intervals before the profiler declares the phase
/// stable and allows the stable fast-forward plan.
const STABLE_AFTER: u32 = 2;

/// What the profiler recommends for the next interval's measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanHint {
    /// New or not-yet-stable phase: use the boosted (larger) window.
    Boost,
    /// Phase is stable: the small steady-state window suffices.
    Stable,
}

/// One detected phase boundary (for telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBoundary {
    /// Interval index (platform-local, counted from simulation start).
    pub interval: u64,
    /// Phase id entered at this boundary.
    pub phase: u32,
    /// `true` when the phase was first seen at this boundary.
    pub novel: bool,
}

/// Online leader clusterer over interval fingerprints.
///
/// Deterministic: phase ids are assigned in first-appearance order, and
/// centroids are integer running means, so the same fingerprint sequence
/// always produces the same phases, weights and hints.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    /// Phase centroids, in first-appearance order.
    centroids: Vec<Fingerprint>,
    /// Intervals matched per phase (the cluster weights).
    weights: Vec<u64>,
    current: Option<usize>,
    stable_run: u32,
    intervals: u64,
    boundaries: Vec<PhaseBoundary>,
    /// Distance from the most recently created phase's fingerprint to
    /// the nearest pre-existing centroid — how *novel* the novel phase
    /// was. `u32::MAX` for the first phase (nothing to compare against).
    last_novel_distance: u32,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one interval's fingerprint; returns the window hint for the
    /// next interval.
    pub fn observe_interval(&mut self, fp: Fingerprint) -> PlanHint {
        let interval = self.intervals;
        self.intervals += 1;
        if fp.samples == 0 {
            // Idle interval (no core accesses observed): nothing to
            // classify, keep whatever stability we had.
            return if self.stable_run >= STABLE_AFTER { PlanHint::Stable } else { PlanHint::Boost };
        }
        let nearest = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (c.distance(&fp), i))
            .min();
        let phase = match nearest {
            Some((d, i)) if d <= PHASE_THRESHOLD => i,
            _ => {
                self.last_novel_distance = nearest.map_or(u32::MAX, |(d, _)| d);
                self.centroids.push(fp);
                self.weights.push(0);
                let id = self.centroids.len() - 1;
                self.boundaries.push(PhaseBoundary {
                    interval,
                    phase: id as u32,
                    novel: true,
                });
                id
            }
        };
        if self.current == Some(phase) {
            self.stable_run += 1;
        } else {
            if self.current.is_some() && self.weights[phase] > 0 {
                // Revisiting a known phase still re-warms: record it.
                self.boundaries.push(PhaseBoundary {
                    interval,
                    phase: phase as u32,
                    novel: false,
                });
            }
            self.current = Some(phase);
            self.stable_run = 1;
        }
        // Integer running mean keeps the centroid representative of the
        // whole cluster without float drift.
        let n = self.weights[phase];
        let c = &mut self.centroids[phase];
        for (ci, fi) in c.hist.iter_mut().zip(fp.hist.iter()) {
            *ci = ((*ci as u64 * n + *fi as u64) / (n + 1)) as u16;
        }
        c.miss_permille =
            ((c.miss_permille as u64 * n + fp.miss_permille as u64) / (n + 1)) as u16;
        self.weights[phase] = n + 1;
        if self.stable_run >= STABLE_AFTER { PlanHint::Stable } else { PlanHint::Boost }
    }

    /// Number of distinct phases seen so far.
    pub fn phase_count(&self) -> usize {
        self.centroids.len()
    }

    /// How far the most recently created phase sat from the nearest
    /// centroid that existed before it — the *magnitude* of the last
    /// novelty, in the same per-mille displacement units as
    /// [`Fingerprint::distance`]. `u32::MAX` when the last novel phase
    /// was the first phase ever seen (maximally novel by definition).
    /// Meaningless unless [`Self::phase_count`] grew since the caller
    /// last checked.
    pub fn last_novel_distance(&self) -> u32 {
        self.last_novel_distance
    }

    /// Intervals classified into each phase (cluster weights, in phase-id
    /// order).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Intervals observed in total.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Drains the phase boundaries detected since the last call.
    pub fn take_boundaries(&mut self) -> Vec<PhaseBoundary> {
        std::mem::take(&mut self.boundaries)
    }
}

// --- Thread-local observation ----------------------------------------------

thread_local! {
    static OBSERVER: RefCell<Observer> = RefCell::new(Observer { active: false, sketch: None });
}

struct Observer {
    active: bool,
    sketch: Option<ReuseSketch>,
}

/// Starts (or stops) feeding this thread's execution contexts into the
/// thread's sketch. The platform activates observation around workload
/// execution in sampled mode only; exact runs never enter here.
pub fn set_observing(active: bool) {
    OBSERVER.with(|o| o.borrow_mut().active = active);
}

/// Resets this thread's sketch (start of a new simulation on a possibly
/// reused worker thread).
pub fn reset_thread() {
    OBSERVER.with(|o| {
        let mut o = o.borrow_mut();
        o.active = false;
        if let Some(s) = o.sketch.as_mut() {
            s.reset();
        }
    });
}

/// Observes one access (called by [`crate::ExecCtx::read`] and
/// [`crate::ExecCtx::write`]).
#[inline]
pub fn observe(addr: u64) {
    OBSERVER.with(|o| {
        let mut o = o.borrow_mut();
        if o.active {
            o.sketch.get_or_insert_with(ReuseSketch::new).observe(addr);
        }
    });
}

/// Observes a window of accesses in op order (called by
/// [`crate::ExecCtx::access_batch`] at enqueue time, before resolution).
#[inline]
pub(crate) fn observe_ops(ops: &[(u64, iat_cachesim::CoreOp)]) {
    OBSERVER.with(|o| {
        let mut o = o.borrow_mut();
        if o.active {
            let sketch = o.sketch.get_or_insert_with(ReuseSketch::new);
            for &(addr, _) in ops {
                sketch.observe(addr);
            }
        }
    });
}

/// Closes the current interval on this thread: drains the sketch into a
/// fingerprint carrying `miss_permille`.
pub fn drain_fingerprint(miss_permille: u16) -> Fingerprint {
    OBSERVER.with(|o| {
        o.borrow_mut()
            .sketch
            .get_or_insert_with(ReuseSketch::new)
            .drain(miss_permille)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_fp(addrs: impl Iterator<Item = u64>, miss: u16) -> Fingerprint {
        let mut s = ReuseSketch::new();
        for a in addrs {
            s.observe(a);
        }
        s.drain(miss)
    }

    #[test]
    fn sketch_is_deterministic() {
        let mk = || stream_fp((0..50_000u64).map(|i| (i % 1000) * 64), 100);
        assert_eq!(mk(), mk());
    }

    #[test]
    fn distinct_streams_have_distant_fingerprints() {
        // Tight loop over 64 lines vs. a large random-ish stride stream.
        let tight = stream_fp((0..50_000u64).map(|i| (i % 64) * 64), 10);
        let wide = stream_fp(
            (0..50_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9) % (1 << 20)) * 64),
            600,
        );
        assert!(
            tight.distance(&wide) > PHASE_THRESHOLD,
            "distance {} should exceed threshold",
            tight.distance(&wide)
        );
    }

    #[test]
    fn profiler_declares_stability_then_boosts_on_phase_change() {
        let mut p = PhaseProfiler::new();
        let phase_a = |seed: u64| stream_fp((0..20_000u64).map(|i| ((i + seed) % 64) * 64), 10);
        let phase_b =
            |seed: u64| stream_fp((0..20_000u64).map(|i| ((i.wrapping_mul(31) + seed) % (1 << 18)) * 64), 700);
        assert_eq!(p.observe_interval(phase_a(0)), PlanHint::Boost, "first interval");
        assert_eq!(p.observe_interval(phase_a(1)), PlanHint::Stable);
        assert_eq!(p.observe_interval(phase_a(2)), PlanHint::Stable);
        assert_eq!(p.phase_count(), 1);
        // Working-set change: new phase, boost again.
        assert_eq!(p.observe_interval(phase_b(0)), PlanHint::Boost);
        assert_eq!(p.phase_count(), 2);
        assert_eq!(p.observe_interval(phase_b(1)), PlanHint::Stable);
        let b = p.take_boundaries();
        assert_eq!(b.len(), 2, "two novel boundaries: {b:?}");
        assert!(b.iter().all(|x| x.novel));
        assert_eq!(p.weights(), &[3, 2]);
    }

    #[test]
    fn idle_intervals_do_not_open_phases() {
        let mut p = PhaseProfiler::new();
        let fp = Fingerprint { hist: [0; BUCKETS], miss_permille: 0, samples: 0 };
        assert_eq!(p.observe_interval(fp), PlanHint::Boost);
        assert_eq!(p.phase_count(), 0);
    }

    #[test]
    fn thread_observation_gated_and_drains() {
        reset_thread();
        observe(0x40); // inactive: dropped
        set_observing(true);
        for i in 0..10_000u64 {
            observe((i % 128) * 64);
        }
        set_observing(false);
        let fp = drain_fingerprint(42);
        assert!(fp.samples > 0, "active observation must record samples");
        assert_eq!(fp.miss_permille, 42);
        reset_thread();
        let fp2 = drain_fingerprint(0);
        assert_eq!(fp2.samples, 0, "reset must clear the sketch");
    }
}
