//! Process-wide knobs for the batched, slice-parallel LLC pipeline and the
//! tenant front end.
//!
//! Three settings live here:
//!
//! * **Flush workers** — how many slice workers a batch flush may resolve
//!   with ([`flush_workers`]). An explicit `N >= 1` pins the count; the
//!   default (*auto*) sizes it from whatever the slot budget has left over
//!   — a one-worker flush resolves inline in the calling thread.
//! * **Generation workers** — how many threads shard the tenant front end
//!   ([`gen_workers`]). Zero, the default, runs it inline on the calling
//!   thread; only an explicit `N >= 1` spawns generation workers.
//! * **Worker-slot budget** — a process-wide core budget shared between the
//!   sweep runner's *inter-job* workers and the LLC's *intra-job* slice
//!   workers so the two layers of parallelism do not oversubscribe the
//!   machine. The runner declares the total ([`set_worker_slots`]) and
//!   holds one slot per running job ([`acquire_slot`]/[`release_slot`]);
//!   auto-mode flushes spend only what is left.
//!
//! All state is atomic and the settings only steer *scheduling*: results are
//! bit-identical for every worker count by construction (see the shard
//! module), so a data race on a knob could at worst change timing.

use std::sync::atomic::{AtomicU32, Ordering};

/// Auto mode: flush workers sized from the slot budget.
const MODE_AUTO: u32 = u32::MAX;

static MODE: AtomicU32 = AtomicU32::new(MODE_AUTO);
/// Generation workers per epoch; zero runs the front end inline.
static GEN_WORKERS: AtomicU32 = AtomicU32::new(0);
/// Total worker slots (0 = derive from `available_parallelism` on first use).
static SLOTS_TOTAL: AtomicU32 = AtomicU32::new(0);
/// Memoized `available_parallelism` (0 = not yet queried). Auto-mode
/// flushes consult the budget on every flush, and the underlying
/// `sched_getaffinity` syscall is slow enough under virtualization to
/// dominate flush-heavy workloads if asked each time.
static SLOTS_DERIVED: AtomicU32 = AtomicU32::new(0);
static SLOTS_USED: AtomicU32 = AtomicU32::new(0);

/// Upper bound on *extra* (beyond the caller's own) slice workers an
/// auto-mode flush will recruit; slices are 18 at most and buckets are
/// merged serially, so returns diminish quickly.
const AUTO_EXTRA_CAP: u32 = 3;

/// Sets the slice-worker policy for the whole process
/// (`--slice-workers`).
///
/// * `None` — auto (the default): size flush worker counts from the
///   leftover slot budget.
/// * `Some(n)` — resolve flushes with exactly `n` workers (`n = 1`
///   resolves in the calling thread; `Some(0)` behaves as `Some(1)`).
pub fn set_slice_workers(workers: Option<u32>) {
    MODE.store(workers.unwrap_or(MODE_AUTO), Ordering::Relaxed);
}

/// Sets the generation-worker policy for the whole process
/// (`--gen-workers`).
///
/// * `None` or `Some(0)` — the default: every platform runs its tenant
///   front end inline on the calling thread.
/// * `Some(n)` — shard the front end across `n` generation workers per
///   epoch (capped by the shard count at dispatch time).
pub fn set_gen_workers(workers: Option<u32>) {
    GEN_WORKERS.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// Number of tenant-generation workers the next epoch spawns; zero runs
/// the front end inline. Results are bit-identical for every answer by
/// construction (the merge thread replays windows in canonical order), so
/// — like [`flush_workers`] — this knob only moves wall clock.
#[inline]
pub fn gen_workers() -> usize {
    GEN_WORKERS.load(Ordering::Relaxed) as usize
}

/// Declares the process-wide worker-slot total shared by inter-job and
/// intra-job parallelism. Zero restores the default
/// (`available_parallelism`).
pub fn set_worker_slots(total: u32) {
    SLOTS_TOTAL.store(total, Ordering::Relaxed);
}

fn total_slots() -> u32 {
    match SLOTS_TOTAL.load(Ordering::Relaxed) {
        0 => match SLOTS_DERIVED.load(Ordering::Relaxed) {
            0 => {
                let n = std::thread::available_parallelism()
                    .map(|n| n.get() as u32)
                    .unwrap_or(1);
                SLOTS_DERIVED.store(n, Ordering::Relaxed);
                n
            }
            n => n,
        },
        n => n,
    }
}

/// Claims one worker slot (the runner calls this when a job starts). Never
/// blocks: the runner's `--jobs` choice is authoritative, the budget only
/// informs how greedy auto-mode flushes may be.
pub fn acquire_slot() {
    SLOTS_USED.fetch_add(1, Ordering::Relaxed);
}

/// Returns a slot claimed with [`acquire_slot`].
pub fn release_slot() {
    SLOTS_USED.fetch_sub(1, Ordering::Relaxed);
}

// --- Sampled-execution knob -------------------------------------------------
//
// Phase-aware interval sampling (`repro --sampled`) is a per-job decision:
// the runner enables it on the worker thread before a sampling-eligible job
// body runs and disables it afterwards, so parallel jobs with different
// eligibility never interfere. The knob lives here — the lowest crate in the
// dependency graph — because both the runner (which sets it) and the
// platform (which reads it when constructing a simulation) already depend on
// `iat-cachesim`, while neither depends on the other.

/// How aggressively a sampled run may skip epochs for a given job.
///
/// A level is a named preset over [`SamplingSpec`]; figures that need a
/// custom trade-off start from a preset and override fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingLevel {
    /// Default plan: suitable for rate/throughput headline metrics.
    Standard,
    /// Larger measured fraction plus cold-start warming: for jobs whose
    /// outputs feed back into control decisions with discrete outcomes
    /// (e.g. convergence-time counts) or whose headline metric depends on
    /// converged cache contents, where extrapolation noise is costlier.
    Conservative,
}

impl SamplingLevel {
    /// The preset plan behind this level.
    pub fn spec(self) -> SamplingSpec {
        match self {
            SamplingLevel::Standard => SamplingSpec {
                level: self,
                stable_warm_pct: 2,
                stable_measure_pct: 5,
                boost_warm_pct: 8,
                boost_measure_pct: 22,
                cold_start_epochs: 0,
                reconverge_epochs: 60,
                capacity_floor_epochs: 0,
                novel_floor_epochs: 0,
            },
            SamplingLevel::Conservative => SamplingSpec {
                level: self,
                stable_warm_pct: 4,
                stable_measure_pct: 10,
                boost_warm_pct: 10,
                boost_measure_pct: 25,
                cold_start_epochs: 150,
                reconverge_epochs: 120,
                capacity_floor_epochs: 0,
                novel_floor_epochs: 0,
            },
        }
    }
}

/// Concrete per-job sampling plan: what fraction of each interval runs
/// (functionally or measured), and how many *extra* functional-warmup
/// epochs are spent re-converging cache state at simulation start and
/// after events that invalidate it.
///
/// Percentages are of one interval (`epochs_per_second` epochs); the
/// remainder of each interval fast-forwards. `cold_start_epochs` converts
/// that many fast-forward epochs into functional warmup at the start of a
/// simulation (cache fill); `reconverge_epochs` does the same after an
/// allocation capacity change (ways granted/revoked, DDIO resize) or a
/// newly-detected workload phase, both of which leave the cache contents
/// unrepresentative of the new steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// The preset this spec was derived from (reporting only).
    pub level: SamplingLevel,
    /// Warm share of a stable-phase interval, in percent.
    pub stable_warm_pct: u8,
    /// Measured share of a stable-phase interval, in percent.
    pub stable_measure_pct: u8,
    /// Warm share of a boost (new/unstable phase) interval, in percent.
    pub boost_warm_pct: u8,
    /// Measured share of a boost interval, in percent.
    pub boost_measure_pct: u8,
    /// Forced functional-warmup epochs at simulation start.
    pub cold_start_epochs: u16,
    /// Forced functional-warmup epochs after a capacity event or novel
    /// phase.
    pub reconverge_epochs: u16,
    /// Floor under the magnitude-scaled capacity-event budget. The
    /// scaled budget (`ceil(reconverge_epochs × ways moved / total
    /// ways)`) models refill cost as proportional to the moved
    /// capacity; workloads whose refill time is set by the *working
    /// set* rather than the moved ways — a single granted way still
    /// takes a full working-set pass to become representative — pin a
    /// floor here. Capped at `reconverge_epochs`; zero (the presets'
    /// default) trusts the scaling.
    pub capacity_floor_epochs: u16,
    /// Floor under the novelty-scaled phase-transition budget
    /// (`ceil(reconverge_epochs × distance / 1000)`). Independent of
    /// the capacity floor because the two triggers mis-scale on
    /// different workloads: a barely-over-threshold phase can still
    /// carry a full working-set turnover, while a one-way capacity
    /// grant on the same figure really does owe only a sliver. Capped
    /// at `reconverge_epochs`; zero trusts the scaling.
    pub novel_floor_epochs: u16,
}

std::thread_local! {
    /// Sampling spec for simulations constructed on this thread
    /// (`None` = exact execution, the oracle).
    static SAMPLING: std::cell::Cell<Option<SamplingSpec>> =
        const { std::cell::Cell::new(None) };
}

/// Sets (or clears) the sampling spec for simulations subsequently
/// constructed on this thread. The runner brackets each eligible job body
/// with `set_thread_sampling(Some(spec))` / `set_thread_sampling(None)`.
pub fn set_thread_sampling(spec: Option<SamplingSpec>) {
    SAMPLING.with(|s| s.set(spec));
}

/// The sampling spec in effect on this thread, if any.
pub fn thread_sampling() -> Option<SamplingSpec> {
    SAMPLING.with(|s| s.get())
}

/// Number of workers the next batch flush may use, including the calling
/// thread. Always at least 1.
#[inline]
pub(crate) fn flush_workers() -> usize {
    match MODE.load(Ordering::Relaxed) {
        MODE_AUTO => {
            let total = total_slots();
            let used = SLOTS_USED.load(Ordering::Relaxed).max(1);
            1 + total.saturating_sub(used).min(AUTO_EXTRA_CAP) as usize
        }
        n => n.max(1) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: config state is process-global, so this test restores auto mode
    // before returning; other tests in this crate rely on the default.
    #[test]
    fn modes_round_trip() {
        set_slice_workers(Some(4));
        assert_eq!(flush_workers(), 4);
        set_slice_workers(Some(1));
        assert_eq!(flush_workers(), 1);
        set_slice_workers(Some(0));
        assert_eq!(flush_workers(), 1, "zero workers still resolve inline");
        set_slice_workers(None);
        assert!(flush_workers() >= 1);
    }

    #[test]
    fn gen_modes_round_trip() {
        set_gen_workers(Some(3));
        assert_eq!(gen_workers(), 3);
        set_gen_workers(Some(0));
        assert_eq!(gen_workers(), 0);
        // The default runs the front end inline whatever the slot budget
        // holds: spare cores never switch on generation workers.
        set_gen_workers(None);
        for total in [0, 1, 2, 8] {
            set_worker_slots(total);
            assert_eq!(gen_workers(), 0, "{total} slots, none claimed");
            acquire_slot();
            assert_eq!(gen_workers(), 0, "{total} slots, one claimed");
            release_slot();
        }
        set_worker_slots(0);
    }

    #[test]
    fn slot_budget_bounds_auto_workers() {
        set_slice_workers(None);
        set_worker_slots(4);
        acquire_slot();
        let w = flush_workers();
        assert!((1..=4).contains(&w), "auto workers {w} out of range");
        release_slot();
        set_worker_slots(0);
    }
}
