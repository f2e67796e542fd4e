//! Per-job phase accounting: thread-local wall-clock tallies.
//!
//! The sweep runner executes each job synchronously on one worker
//! thread, so the platform and cache layers attribute wall time to the
//! calling thread's tally with [`phase_add`] and the runner drains it
//! once per job with [`take_phases`] — the same drain-per-job pattern
//! as `iat-platform`'s simulated-access counters.
//!
//! Tallied here: `Warmup` (in-loop functional-warmup epoch bodies),
//! `FastWarm` (cold-start fast-forward warmup run at scenario-compile
//! time), `Restore` (convergence-checkpoint restores), `Measure`
//! (measured epoch bodies) and `Flush` (LLC batch flushes; *nested
//! inside* the epoch buckets, reported separately, never added to
//! them). `Setup` and `Merge` are derived by the runner from job wall
//! clock, not tallied by instrumentation.

use serde_json::{json, Value};
use std::cell::Cell;

/// A wall-clock phase bucket instrumented code can tally into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Functional-warmup epoch bodies (sampled runs only).
    Warmup,
    /// Cold-start warmup fast-forwarded at scenario-compile time
    /// (sampled runs with `cold_start_epochs > 0`).
    FastWarm,
    /// Convergence-checkpoint restores (hierarchy clone-in).
    Restore,
    /// Measured epoch bodies.
    Measure,
    /// LLC batch flushes (a sub-slice of the epoch buckets).
    Flush,
}

/// One job's wall-clock phase breakdown, nanoseconds.
///
/// `flush_ns` is nested inside `warmup_ns`/`measure_ns`; the derived
/// buckets satisfy `setup + warmup + measure + merge ~= wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Scenario construction, polling, and reporting (wall minus the
    /// other buckets; derived by the runner).
    pub setup_ns: u64,
    /// Functional-warmup epoch bodies.
    pub warmup_ns: u64,
    /// Cold-start fast-forward warmup (compile-time, sampled runs).
    pub fast_warm_ns: u64,
    /// Convergence-checkpoint restores.
    pub restore_ns: u64,
    /// Measured epoch bodies.
    pub measure_ns: u64,
    /// LLC batch flushes (nested inside the epoch buckets).
    pub flush_ns: u64,
    /// Whole wall clock of merge jobs (jobs with dependencies that run
    /// no epoch; derived by the runner).
    pub merge_ns: u64,
}

impl PhaseBreakdown {
    /// Adds another breakdown's buckets into this one.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.setup_ns += other.setup_ns;
        self.warmup_ns += other.warmup_ns;
        self.fast_warm_ns += other.fast_warm_ns;
        self.restore_ns += other.restore_ns;
        self.measure_ns += other.measure_ns;
        self.flush_ns += other.flush_ns;
        self.merge_ns += other.merge_ns;
    }

    /// The BENCH-schema JSON form: an object with one ns field per bucket.
    pub fn to_json(&self) -> Value {
        json!({
            "setup": self.setup_ns,
            "warmup": self.warmup_ns,
            "fast_warm": self.fast_warm_ns,
            "restore": self.restore_ns,
            "measure": self.measure_ns,
            "flush": self.flush_ns,
            "merge": self.merge_ns,
        })
    }
}

thread_local! {
    static WARMUP_NS: Cell<u64> = const { Cell::new(0) };
    static FAST_WARM_NS: Cell<u64> = const { Cell::new(0) };
    static RESTORE_NS: Cell<u64> = const { Cell::new(0) };
    static MEASURE_NS: Cell<u64> = const { Cell::new(0) };
    static FLUSH_NS: Cell<u64> = const { Cell::new(0) };
}

fn cell_for(phase: Phase) -> &'static std::thread::LocalKey<Cell<u64>> {
    match phase {
        Phase::Warmup => &WARMUP_NS,
        Phase::FastWarm => &FAST_WARM_NS,
        Phase::Restore => &RESTORE_NS,
        Phase::Measure => &MEASURE_NS,
        Phase::Flush => &FLUSH_NS,
    }
}

/// Adds `ns` of wall time to the calling thread's tally for `phase`.
pub fn phase_add(phase: Phase, ns: u64) {
    cell_for(phase).with(|c| c.set(c.get().saturating_add(ns)));
}

/// Drains the calling thread's tallies into a breakdown (instrumented
/// buckets only; `setup_ns`/`merge_ns` stay 0) and resets them.
pub fn take_phases() -> PhaseBreakdown {
    PhaseBreakdown {
        setup_ns: 0,
        warmup_ns: WARMUP_NS.with(|c| c.replace(0)),
        fast_warm_ns: FAST_WARM_NS.with(|c| c.replace(0)),
        restore_ns: RESTORE_NS.with(|c| c.replace(0)),
        measure_ns: MEASURE_NS.with(|c| c.replace(0)),
        flush_ns: FLUSH_NS.with(|c| c.replace(0)),
        merge_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_drain_and_reset() {
        let _ = take_phases(); // isolate from any earlier test on this thread
        phase_add(Phase::Warmup, 5);
        phase_add(Phase::Measure, 7);
        phase_add(Phase::Measure, 3);
        phase_add(Phase::Flush, 2);
        let p = take_phases();
        assert_eq!((p.warmup_ns, p.measure_ns, p.flush_ns), (5, 10, 2));
        let empty = take_phases();
        assert_eq!(empty, PhaseBreakdown::default());
    }

    #[test]
    fn tallies_are_per_thread() {
        let _ = take_phases();
        phase_add(Phase::Measure, 11);
        std::thread::scope(|s| {
            s.spawn(|| {
                phase_add(Phase::Measure, 99);
                assert_eq!(take_phases().measure_ns, 99);
            });
        });
        assert_eq!(take_phases().measure_ns, 11);
    }

    #[test]
    fn breakdown_add_and_json() {
        let mut a = PhaseBreakdown {
            setup_ns: 1,
            warmup_ns: 2,
            fast_warm_ns: 6,
            restore_ns: 7,
            measure_ns: 3,
            flush_ns: 4,
            merge_ns: 5,
        };
        a.add(&a.clone());
        assert_eq!(a.measure_ns, 6);
        let v = a.to_json();
        assert_eq!(v["setup"], 2u64);
        assert_eq!(v["fast_warm"], 12u64);
        assert_eq!(v["restore"], 14u64);
        assert_eq!(v["merge"], 10u64);
    }
}
