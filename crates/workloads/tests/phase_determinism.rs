//! Phase-profiling determinism properties.
//!
//! The sampled execution path only reproduces across `--jobs` settings
//! and flush placements if the schedule it adapts is a pure
//! function of the workload's access stream. That rests on two
//! invariants, each checked here over random streams:
//!
//! * **Sketch position**: the reuse-distance sketch observes addresses
//!   at [`iat_workloads::ExecCtx`] *enqueue* order — before the batched
//!   pipeline buffers, reorders resolution, or flushes — so the drained
//!   [`Fingerprint`] must be identical whether accesses resolve one at
//!   a time, in one giant flush, or cut into arbitrary windows.
//! * **Profiler purity**: [`PhaseProfiler`] decisions (hints, phase
//!   ids, boundaries, weights) depend only on the fingerprint sequence,
//!   never on ambient state — replaying a sequence on a fresh profiler
//!   (as a second `--jobs` worker would) reproduces every decision.

use iat_cachesim::{AgentId, CacheGeometry, CoreOp, LatencyModel, MemoryHierarchy, WayMask};
use iat_workloads::phase::{Fingerprint, PhaseProfiler, ReuseSketch};
use iat_workloads::{Channels, ExecCtx};
use proptest::prelude::*;

/// Mixes a raw u64 into a line address within a few distinct regions so
/// streams exhibit reuse (pure random addresses would all land in the
/// sketch's cold bucket and trivially match).
fn to_addr(raw: u64) -> u64 {
    let region = (raw >> 60) & 0x3;
    let line = raw % 4096;
    (region << 32) | (line * iat_cachesim::LINE_BYTES)
}

proptest! {
    /// The fingerprint a stream drains to is invariant to how the
    /// stream is cut into [`ExecCtx::access_batch`] windows: one access
    /// per window, or windows at any flush placement. Both
    /// runs go through a real `ExecCtx` holding the sketch, the way a
    /// sampled platform lends it, so the observation point under test is
    /// the production one.
    #[test]
    fn fingerprint_invariant_to_window_flush_placement(
        raws in proptest::collection::vec(any::<u64>(), 1..800),
        window in 1usize..97,
        miss_permille in 0u16..1000,
    ) {
        let stream: Vec<(u64, CoreOp)> = raws
            .iter()
            .map(|&raw| (to_addr(raw), if raw & 1 == 0 { CoreOp::Read } else { CoreOp::Write }))
            .collect();
        let run = |batched: bool| {
            let mut cache = MemoryHierarchy::new(
                CacheGeometry::new(8, 16, 4).expect("valid geometry"),
                CacheGeometry::new(2, 8, 1).expect("valid geometry"),
                1,
                LatencyModel::default(),
            );
            let mut channels = Channels::new();
            let mut sketch = ReuseSketch::new();
            let mut costs = Vec::new();
            let mut ctx = ExecCtx {
                cache: &mut cache,
                sketch: Some(&mut sketch),
                channels: &mut channels,
                core: 0,
                agent: AgentId::new(1),
                mask: WayMask::all(4),
                cycle_budget: u64::MAX,
            };
            let mut all_costs = Vec::new();
            if batched {
                for chunk in stream.chunks(window) {
                    ctx.access_batch(chunk, &mut costs);
                    all_costs.extend_from_slice(&costs);
                }
            } else {
                for op in &stream {
                    ctx.access_batch(std::slice::from_ref(op), &mut costs);
                    all_costs.extend_from_slice(&costs);
                }
            }
            (sketch.drain(miss_permille), all_costs, cache.llc().state_digest())
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// A profiler replayed over the same fingerprint sequence makes the
    /// same decisions: plan hints, phase count, interval weights, and
    /// boundary records all match. This is what lets two runner workers
    /// (or the same sweep at different `--jobs`) derive identical
    /// sampling schedules for identical jobs.
    #[test]
    fn profiler_is_a_pure_function_of_the_fingerprint_sequence(
        fps in proptest::collection::vec(
            (proptest::collection::vec(0u16..500, 16), 0u16..1000, 0u64..10_000),
            1..60,
        ),
    ) {
        let seq: Vec<Fingerprint> = fps
            .iter()
            .map(|(hist, miss, samples)| {
                let mut h = [0u16; 16];
                h.copy_from_slice(hist);
                Fingerprint { hist: h, miss_permille: *miss, samples: *samples }
            })
            .collect();

        let mut a = PhaseProfiler::new();
        let mut b = PhaseProfiler::new();
        for fp in &seq {
            let ha = a.observe_interval(*fp);
            let hb = b.observe_interval(*fp);
            prop_assert_eq!(ha, hb);
        }
        prop_assert_eq!(a.phase_count(), b.phase_count());
        prop_assert_eq!(a.intervals(), b.intervals());
        prop_assert_eq!(a.weights(), b.weights());
        prop_assert_eq!(a.take_boundaries(), b.take_boundaries());
    }
}
