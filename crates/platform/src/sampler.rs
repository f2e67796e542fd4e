//! Phase-aware interval sampling (the sampled execution path).
//!
//! When a thread opts in via [`iat_cachesim::config::set_thread_sampling`],
//! the platform stops simulating every epoch. Each one-second interval
//! (`epochs_per_second` epochs) instead follows a schedule
//! `[skip S | warm W | measure M]`: the skip prefix fast-forwards (no
//! simulation at all), the warm segment runs *functionally* — tag arrays,
//! rings and workload state all update, but no statistics accrue and no
//! modelled time passes — and the measured suffix runs at full fidelity.
//! Measuring **last** means interval-end polls always read
//! freshly-produced counters.
//!
//! The schedule adapts per phase: a [`PhaseProfiler`] fingerprints every
//! interval from the sampler's own [`ReuseSketch`] plus the interval's
//! LLC miss rate, and novel or unstable phases get a *boost* plan (a much
//! larger warm+measure share) until the fingerprint stabilises. The
//! platform lends the sketch to every epoch it executes through
//! [`iat_workloads::ExecCtx::sketch`], which observes addresses at enqueue
//! order — before any batching — so fingerprints and therefore schedules
//! are identical across `--jobs` settings and window-flush placements.

use iat_cachesim::config::{SamplingLevel, SamplingSpec};
use iat_workloads::phase::{PhaseBoundary, PhaseProfiler, PlanHint, ReuseSketch};

/// What the platform should do with the next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochAction {
    /// Fast-forward: the epoch is not simulated at all.
    Skip,
    /// Functional warmup: full execution with statistics frozen and no
    /// modelled-time advance.
    Warm,
    /// Full-fidelity simulation (the only epochs that advance time).
    Measure,
}

/// One interval's epoch schedule. The skip prefix is implied:
/// `skip = interval_len - warm - measure`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warm: u64,
    measure: u64,
}

impl Plan {
    /// Builds the schedule for `hint` under `spec`, as percentages of the
    /// interval scaled to `len` epochs (each segment at least one epoch).
    fn build(spec: &SamplingSpec, hint: PlanHint, len: u64) -> Plan {
        let (warm_pct, measure_pct) = match hint {
            PlanHint::Stable => (spec.stable_warm_pct, spec.stable_measure_pct),
            PlanHint::Boost => (spec.boost_warm_pct, spec.boost_measure_pct),
        };
        let warm = (len * warm_pct as u64 / 100).max(1);
        let measure = (len * measure_pct as u64 / 100).max(1);
        if warm + measure >= len {
            // Degenerate (very short intervals): measure everything.
            Plan { warm: 0, measure: len }
        } else {
            Plan { warm, measure }
        }
    }
}

/// Per-platform sampling state: the current interval's schedule, the
/// reuse sketch and phase profiler it adapts from, and cumulative epoch
/// accounting.
pub(crate) struct Sampler {
    spec: SamplingSpec,
    /// Fed by the epochs this sampler's platform executes (warm and
    /// measured); drained into a fingerprint at every interval end.
    sketch: ReuseSketch,
    profiler: PhaseProfiler,
    interval_len: u64,
    /// Position of the *next* epoch within the current interval.
    pos: u64,
    plan: Plan,
    /// Forced functional-warmup epochs still owed: positions that would
    /// fast-forward run as warm epochs instead until this drains. Seeded
    /// with `spec.cold_start_epochs` (cache fill at simulation start) and
    /// re-armed with `spec.reconverge_epochs` on capacity events and novel
    /// phases.
    forced_warm: u64,
    /// Action handed out by the last `begin_epoch` (accounting happens in
    /// `end_epoch`, after the epoch ran).
    current: EpochAction,
    /// Cumulative epochs simulated at full fidelity.
    measured: u64,
    /// Cumulative epochs fast-forwarded (skip only; warm epochs run).
    skipped: u64,
    /// LLC (references, misses) totals at the start of the current
    /// interval's measured segment.
    refs_base: u64,
    miss_base: u64,
    /// Intervals whose profiler hint is overridden to `Stable` after a
    /// converged start (cold-start fast-forward or checkpoint restore):
    /// the cache already holds the steady state, so the fresh profiler's
    /// obligatory not-yet-stable `Boost` windows would re-pay warmup the
    /// fast-forward already did. Genuine phase changes stay safe — the
    /// novel-phase forced-warm re-arm fires independently of the hint.
    assume_stable: u32,
}

impl Sampler {
    /// Creates a sampler for intervals of `interval_len` epochs. The
    /// first interval always runs the boost plan (every phase starts
    /// novel), with `spec.cold_start_epochs` of forced warmup on top.
    pub fn new(spec: SamplingSpec, interval_len: u64) -> Self {
        let interval_len = interval_len.max(1);
        Sampler {
            spec,
            sketch: ReuseSketch::new(),
            profiler: PhaseProfiler::new(),
            interval_len,
            pos: 0,
            plan: Plan::build(&spec, PlanHint::Boost, interval_len),
            forced_warm: spec.cold_start_epochs as u64,
            current: EpochAction::Measure,
            measured: 0,
            skipped: 0,
            refs_base: 0,
            miss_base: 0,
            assume_stable: 0,
        }
    }

    /// Declares the simulation converged at schedule start: the current
    /// interval switches to the stable plan and the next interval's
    /// profiler hint is overridden to `Stable` (the profiler needs two
    /// same-phase sightings before it says so on its own, and a
    /// converged start has already paid that warmup). Called after the
    /// cold-start fast-forward and after a checkpoint restore. No-op
    /// at [`SamplingLevel::Conservative`]: figures on that level carry
    /// discrete control-decision outputs whose early boosted windows
    /// are load-bearing (the ablation read 4.4% off when its start ran
    /// the stable plan), so the conservative contract keeps them.
    pub fn assume_stable(&mut self) {
        if self.spec.level == SamplingLevel::Conservative {
            return;
        }
        self.plan = Plan::build(&self.spec, PlanHint::Stable, self.interval_len);
        self.assume_stable = 1;
    }

    fn skip_len(&self) -> u64 {
        self.interval_len - self.plan.warm - self.plan.measure
    }

    /// Converts pending fast-forward epochs into functional warmup,
    /// scaled by the magnitude of the capacity event: a change that
    /// moved `moved` of `total` ways owes
    /// `ceil(reconverge_epochs * moved / total)` warm epochs, with the
    /// flat `reconverge_epochs` as the ceiling. Moving one way out of
    /// eleven invalidates a sliver of the working set and earns a sliver
    /// of the budget; a full repartition still pays the flat rate.
    /// `spec.capacity_floor_epochs` (capped at the flat rate) bounds
    /// the scaled budget from below for workloads whose refill time is
    /// set by the working set, not the moved capacity.
    pub fn force_reconverge_scaled(&mut self, moved: u64, total: u64) {
        let flat = self.spec.reconverge_epochs as u64;
        let floor = (self.spec.capacity_floor_epochs as u64).min(flat);
        let scaled = if total == 0 {
            flat
        } else {
            (flat * moved).div_ceil(total).clamp(floor, flat)
        };
        self.forced_warm = self.forced_warm.max(scaled);
    }

    /// Converts pending fast-forward epochs into functional warmup,
    /// scaled by how novel the phase is: a phase whose fingerprint sat
    /// `distance` per-mille from the nearest known centroid owes
    /// `ceil(reconverge_epochs * min(distance, 1000) / 1000)` warm
    /// epochs. A barely-over-threshold phase shares most of its
    /// residency with a known phase and owes a sliver; a wholesale
    /// working-set change (the reuse arc and miss rate both move, so
    /// distances reach well past 1000) still pays the flat rate. The
    /// `spec.novel_floor_epochs` floor applies — separately from the
    /// capacity floor, because the two triggers mis-scale on different
    /// workloads (see the spec field docs).
    pub fn force_reconverge_novel(&mut self, distance: u32) {
        let flat = self.spec.reconverge_epochs as u64;
        let floor = (self.spec.novel_floor_epochs as u64).min(flat);
        let d = distance.min(1000) as u64;
        let scaled = (flat * d).div_ceil(1000).clamp(floor, flat);
        self.forced_warm = self.forced_warm.max(scaled);
    }

    /// Forced functional-warmup epochs still owed.
    #[cfg(test)]
    pub fn forced_warm(&self) -> u64 {
        self.forced_warm
    }

    /// Drains the forced-warmup debt, returning what was owed. The
    /// cold-start fast-forward runs exactly this many warm epoch bodies
    /// outside the interval schedule.
    pub fn take_forced_warm(&mut self) -> u64 {
        std::mem::take(&mut self.forced_warm)
    }

    /// Replaces the forced-warmup debt (checkpoint restore: the owed
    /// epochs scale with how far the restored state is from this
    /// scenario's converged layout).
    pub fn set_forced_warm(&mut self, epochs: u64) {
        self.forced_warm = epochs;
    }

    /// Decides the next epoch's action. `refs`/`misses` are the LLC's
    /// cumulative totals, captured as the baseline when the measured
    /// segment begins.
    pub fn begin_epoch(&mut self, refs: u64, misses: u64) -> EpochAction {
        let skip = self.skip_len();
        if self.pos == skip + self.plan.warm {
            self.refs_base = refs;
            self.miss_base = misses;
        }
        self.current = if self.pos < skip {
            if self.forced_warm > 0 {
                self.forced_warm -= 1;
                EpochAction::Warm
            } else {
                EpochAction::Skip
            }
        } else if self.pos < skip + self.plan.warm {
            EpochAction::Warm
        } else {
            EpochAction::Measure
        };
        self.current
    }

    /// Accounts for the epoch just executed; at interval end, drains the
    /// sketch into the interval's phase fingerprint, folds the
    /// measured-segment miss rate in, and re-plans the next interval from
    /// the profiler's hint.
    pub fn end_epoch(&mut self, refs: u64, misses: u64) {
        match self.current {
            EpochAction::Skip => self.skipped += 1,
            EpochAction::Measure => self.measured += 1,
            EpochAction::Warm => {}
        }
        self.pos += 1;
        if self.pos < self.interval_len {
            return;
        }
        self.pos = 0;
        let drefs = refs.saturating_sub(self.refs_base);
        let dmiss = misses.saturating_sub(self.miss_base);
        let permille = (dmiss * 1000).checked_div(drefs).map_or(0, |p| p.min(1000) as u16);
        let fp = self.sketch.drain(permille);
        let known_phases = self.profiler.phase_count();
        let mut hint = self.profiler.observe_interval(fp);
        if self.profiler.phase_count() > known_phases && self.profiler.intervals() > 1 {
            // A novel phase opened mid-simulation (working-set change,
            // traffic shift): the cache contents reflect the old phase, so
            // spend forced warmup re-converging before trusting measured
            // windows again — scaled by how far the new phase actually
            // sits from the known ones. The first interval is always
            // novel and is covered by `cold_start_epochs` instead.
            self.force_reconverge_novel(self.profiler.last_novel_distance());
        }
        if self.assume_stable > 0 {
            // Converged start: the profiler has not seen this phase twice
            // yet, but the fast-forward / restore already left the cache
            // in its steady state. A genuinely novel follow-up phase
            // still re-warms via the forced budget above.
            self.assume_stable -= 1;
            hint = PlanHint::Stable;
        }
        self.plan = Plan::build(&self.spec, hint, self.interval_len);
    }

    /// The reuse sketch the platform lends to the epochs it executes.
    pub fn sketch_mut(&mut self) -> &mut ReuseSketch {
        &mut self.sketch
    }

    /// Cumulative epochs simulated at full fidelity.
    pub fn measured_epochs(&self) -> u64 {
        self.measured
    }

    /// Cumulative fast-forwarded epochs.
    pub fn skipped_epochs(&self) -> u64 {
        self.skipped
    }

    /// Epochs per interval.
    pub fn interval_len(&self) -> u64 {
        self.interval_len
    }

    /// Distinct phases discovered so far.
    pub fn phase_count(&self) -> usize {
        self.profiler.phase_count()
    }

    /// Drains phase-boundary records accumulated since the last drain.
    pub fn take_boundaries(&mut self) -> Vec<PhaseBoundary> {
        self.profiler.take_boundaries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_cachesim::config::SamplingLevel;

    #[test]
    fn schedule_orders_skip_warm_measure() {
        let mut s = Sampler::new(SamplingLevel::Standard.spec(), 100);
        // First interval: boost plan (8 warm + 22 measure after 70 skips).
        let mut actions = Vec::new();
        for _ in 0..100 {
            let a = s.begin_epoch(0, 0);
            actions.push(a);
            s.end_epoch(0, 0);
        }
        assert_eq!(actions.iter().filter(|a| **a == EpochAction::Skip).count(), 70);
        assert_eq!(actions.iter().filter(|a| **a == EpochAction::Warm).count(), 8);
        assert_eq!(actions.iter().filter(|a| **a == EpochAction::Measure).count(), 22);
        // Measure comes last.
        assert_eq!(actions[99], EpochAction::Measure);
        assert_eq!(actions[0], EpochAction::Skip);
        assert_eq!(s.measured_epochs(), 22);
        assert_eq!(s.skipped_epochs(), 70);
    }

    #[test]
    fn stable_phase_shrinks_the_plan() {
        let mut s = Sampler::new(SamplingLevel::Standard.spec(), 100);
        for _ in 0..500 {
            let a = s.begin_epoch(0, 0);
            if a == EpochAction::Measure {
                // Feed the sampler's sketch so intervals are not idle.
                for i in 0..4096u64 {
                    s.sketch_mut().observe((i % 64) * 64);
                }
            }
            s.end_epoch(0, 0);
        }
        // Constant fingerprint -> one phase; the first two intervals run
        // the boost plan (stability needs two matches), then the stable
        // 5%-measure plan takes over: 2x22 + 3x5 = 59 of 500.
        assert_eq!(s.phase_count(), 1);
        assert_eq!(s.measured_epochs(), 2 * 22 + 3 * 5);
        assert_eq!(s.skipped_epochs(), 2 * 70 + 3 * 93);
    }

    #[test]
    fn cold_start_and_reconverge_convert_skips_to_warm() {
        let mut spec = SamplingLevel::Standard.spec();
        spec.cold_start_epochs = 100;
        spec.reconverge_epochs = 30;
        let mut s = Sampler::new(spec, 100);
        // Interval 1 (boost: 70 skip | 8 warm | 22 measure): the 70 skip
        // positions all run as forced warm, leaving 30 owed.
        let first: Vec<EpochAction> = (0..100)
            .map(|_| {
                let a = s.begin_epoch(0, 0);
                s.end_epoch(0, 0);
                a
            })
            .collect();
        assert_eq!(first.iter().filter(|a| **a == EpochAction::Skip).count(), 0);
        assert_eq!(first.iter().filter(|a| **a == EpochAction::Warm).count(), 78);
        assert_eq!(s.skipped_epochs(), 0);
        // Interval 2: 30 owed warm epochs, then genuine skips resume.
        let second: Vec<EpochAction> = (0..100)
            .map(|_| {
                let a = s.begin_epoch(0, 0);
                s.end_epoch(0, 0);
                a
            })
            .collect();
        assert_eq!(second.iter().filter(|a| **a == EpochAction::Skip).count(), 40);
        // Re-arming mid-stream (every way moved: the flat budget) tops
        // forced warmup back up to 30.
        s.force_reconverge_scaled(1, 1);
        let third: Vec<EpochAction> = (0..100)
            .map(|_| {
                let a = s.begin_epoch(0, 0);
                s.end_epoch(0, 0);
                a
            })
            .collect();
        assert_eq!(third.iter().filter(|a| **a == EpochAction::Skip).count(), 40);
        // Measure still comes last in every interval.
        assert_eq!(third[99], EpochAction::Measure);
    }

    #[test]
    fn scaled_reconverge_budget_tracks_magnitude() {
        let mut spec = SamplingLevel::Standard.spec();
        spec.cold_start_epochs = 0;
        spec.reconverge_epochs = 240;
        let mut s = Sampler::new(spec, 100);
        // 2 of 11 ways moved: ceil(240 * 2 / 11) = 44.
        s.force_reconverge_scaled(2, 11);
        assert_eq!(s.forced_warm(), 44);
        // A smaller follow-up event never lowers what is already owed.
        s.force_reconverge_scaled(1, 11);
        assert_eq!(s.forced_warm(), 44);
        // Magnitude beyond the total clamps at the flat budget.
        s.force_reconverge_scaled(30, 11);
        assert_eq!(s.forced_warm(), 240);
        // total = 0 falls back to the flat budget.
        let mut t = Sampler::new(spec, 100);
        t.force_reconverge_scaled(5, 0);
        assert_eq!(t.forced_warm(), 240);
        // Drain-and-set round trip (fast-forward / restore plumbing).
        assert_eq!(t.take_forced_warm(), 240);
        assert_eq!(t.forced_warm(), 0);
        t.set_forced_warm(7);
        assert_eq!(t.forced_warm(), 7);
        // A floor bounds the scaled budget from below (working-set-bound
        // refills), and is itself capped at the flat rate.
        spec.capacity_floor_epochs = 100;
        let mut f = Sampler::new(spec, 100);
        f.force_reconverge_scaled(1, 11); // scaled 22 < floor 100
        assert_eq!(f.forced_warm(), 100);
        f.force_reconverge_scaled(30, 11); // still capped at flat
        assert_eq!(f.forced_warm(), 240);
        spec.capacity_floor_epochs = u16::MAX;
        let mut g = Sampler::new(spec, 100);
        g.force_reconverge_scaled(1, 11);
        assert_eq!(g.forced_warm(), 240, "floor saturates at the flat rate");
        // The novelty floor is independent: it floors phase re-arms but
        // leaves capacity scaling alone.
        spec.capacity_floor_epochs = 0;
        spec.novel_floor_epochs = 100;
        let mut n = Sampler::new(spec, 100);
        n.force_reconverge_scaled(1, 11); // capacity unfloored: 22
        assert_eq!(n.forced_warm(), 22);
        n.force_reconverge_novel(50); // scaled 12 < novelty floor 100
        assert_eq!(n.forced_warm(), 100);
        n.force_reconverge_novel(u32::MAX); // clamps at flat
        assert_eq!(n.forced_warm(), 240);
    }

    #[test]
    fn degenerate_interval_measures_everything() {
        let mut spec = SamplingLevel::Conservative.spec();
        spec.cold_start_epochs = 0;
        let mut s = Sampler::new(spec, 2);
        for _ in 0..4 {
            assert_eq!(s.begin_epoch(0, 0), EpochAction::Measure);
            s.end_epoch(0, 0);
        }
        assert_eq!(s.measured_epochs(), 4);
        assert_eq!(s.skipped_epochs(), 0);
    }
}
