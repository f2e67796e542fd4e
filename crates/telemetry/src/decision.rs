//! The decision flight recorder: folds the raw per-interval event
//! stream into one [`Event::StepRecord`] per daemon iteration.
//!
//! The daemon already narrates everything a per-step training record
//! needs — poll inputs ([`Event::PollSample`]), the FSM edge
//! ([`Event::FsmTransition`]), allocation changes
//! ([`Event::DdioResize`] / [`Event::TenantResize`]), NIC symptoms
//! ([`Event::RingOccupancy`]) and the closing [`Event::Decision`] —
//! but scattered across events. [`DecisionRecorder`] is a [`Recorder`]
//! that tracks that stream and, at each closing `Decision`, assembles
//! a single structured [`Event::StepRecord`] into a bounded ring.
//! Because the output is itself an [`Event`], a JSONL export of the
//! ring round-trips through [`Event::from_json_line`].
//!
//! The sweep harness captures decisions per job through the
//! thread-local hooks ([`set_capture`] / [`with_thread`] /
//! [`take_thread_records`]): jobs run synchronously on one worker
//! thread each, so a per-thread ring drained once per job attributes
//! records to jobs without threading a recorder through every figure —
//! the same drain-per-job pattern as the platform's access counters.

use crate::event::{Event, Stamp};
use crate::recorder::{Recorder, RingRecorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Ring capacity used by the per-thread capture recorders.
const THREAD_RING_CAPACITY: usize = 1 << 16;

/// Initial FSM state name (Display form of the daemon's start state).
const INITIAL_STATE: &str = "low-keep";

/// Relative change below which a miss trend counts as "flat".
const TREND_HYSTERESIS: f64 = 0.10;

/// Folds raw telemetry events into per-iteration [`Event::StepRecord`]s.
///
/// Feed it the same stream any recorder sees (it implements
/// [`Recorder`]); each [`Event::Decision`] closes an iteration and
/// pushes one assembled record into a bounded ring. Allocation state
/// (DDIO ways, per-tenant ways) is tracked from resize events; seed it
/// with [`DecisionRecorder::seed`] so records are correct before the
/// first resize.
#[derive(Debug, Clone)]
pub struct DecisionRecorder {
    ring: RingRecorder,
    // -- tracked allocation / FSM state --
    state: String,
    ddio_ways: u8,
    tenant_ways: BTreeMap<u16, u8>,
    // -- per-iteration scratch, reset at each Decision --
    fsm_before: Option<String>,
    poll: Option<(u64, u64)>,
    occ_peak_pct: u8,
    // -- poll history for deltas / trend --
    last_cum: Option<(u64, u64)>,
    prev_misses: Option<u64>,
}

impl DecisionRecorder {
    /// A recorder keeping at most `capacity` assembled records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> DecisionRecorder {
        DecisionRecorder {
            ring: RingRecorder::new(capacity),
            state: INITIAL_STATE.to_owned(),
            ddio_ways: 0,
            tenant_ways: BTreeMap::new(),
            fsm_before: None,
            poll: None,
            occ_peak_pct: 0,
            last_cum: None,
            prev_misses: None,
        }
    }

    /// Seeds the tracked allocation (DDIO ways and `(agent, ways)`
    /// pairs) and resets the FSM/poll tracking, so records assembled
    /// before the first resize carry the real initial layout. Already
    /// assembled records are kept — a job running several scenarios
    /// re-seeds between them and the ring accumulates across all.
    pub fn seed(&mut self, ddio_ways: u8, tenants: &[(u16, u8)]) {
        self.ddio_ways = ddio_ways;
        self.tenant_ways = tenants.iter().copied().collect();
        self.state = INITIAL_STATE.to_owned();
        self.fsm_before = None;
        self.poll = None;
        self.occ_peak_pct = 0;
        self.last_cum = None;
        self.prev_misses = None;
    }

    /// Assembled records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum records held before eviction starts.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Records evicted so far to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Copies the buffered records, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring.snapshot()
    }

    /// Moves the buffered records out, oldest first (the dropped count
    /// and tracked allocation state are preserved).
    pub fn drain(&mut self) -> Vec<Event> {
        self.ring.drain()
    }

    fn assemble(&mut self, stamp: Stamp, state: String, action: String, stable: bool, msr_writes: u64, cost_ns: u64) {
        let (llc_refs, llc_misses) = self.poll.take().unwrap_or((0, 0));
        let miss_trend = match self.prev_misses {
            None => "flat",
            Some(prev) => {
                let (cur, prev) = (llc_misses as f64, prev as f64);
                if cur > prev * (1.0 + TREND_HYSTERESIS) {
                    "up"
                } else if cur < prev * (1.0 - TREND_HYSTERESIS) {
                    "down"
                } else {
                    "flat"
                }
            }
        };
        self.prev_misses = Some(llc_misses);
        let record = Event::StepRecord {
            stamp,
            state_before: self.fsm_before.take().unwrap_or_else(|| self.state.clone()),
            state_after: state.clone(),
            action,
            stable,
            ddio_ways: self.ddio_ways,
            tenant_ways: self.tenant_ways.values().copied().collect(),
            llc_refs,
            llc_misses,
            miss_trend: miss_trend.to_owned(),
            occ_pct: self.occ_peak_pct,
            msr_writes,
            cost_ns,
        };
        self.state = state;
        self.occ_peak_pct = 0;
        self.ring.record(record);
    }
}

impl Recorder for DecisionRecorder {
    fn record(&mut self, event: Event) {
        match event {
            Event::PollSample { llc_refs, llc_misses, .. } => {
                // Counter banks report monotonic totals; diff against
                // the previous poll, tolerating resets (cur < prev).
                let (prev_r, prev_m) = self.last_cum.unwrap_or((0, 0));
                let d_refs = if llc_refs >= prev_r { llc_refs - prev_r } else { llc_refs };
                let d_misses = if llc_misses >= prev_m { llc_misses - prev_m } else { llc_misses };
                self.last_cum = Some((llc_refs, llc_misses));
                self.poll = Some((d_refs, d_misses));
            }
            Event::FsmTransition { from, .. } => {
                self.fsm_before.get_or_insert(from);
            }
            Event::DdioResize { to_ways, .. } => self.ddio_ways = to_ways,
            Event::TenantResize { agent, to_ways, .. } => {
                self.tenant_ways.insert(agent, to_ways);
            }
            Event::RingOccupancy { len, capacity, .. } if capacity > 0 => {
                let pct = ((len as f64 / capacity as f64) * 100.0).round().min(100.0) as u8;
                self.occ_peak_pct = self.occ_peak_pct.max(pct);
            }
            Event::Decision { stamp, state, action, stable, msr_writes, cost_ns } => {
                self.assemble(stamp, state, action, stable, msr_writes, cost_ns);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread capture hooks used by the sweep harness.

static CAPTURE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static THREAD_RECORDER: RefCell<DecisionRecorder> =
        RefCell::new(DecisionRecorder::new(THREAD_RING_CAPACITY));
}

/// Globally arms (or disarms) per-thread decision capture. Capture is
/// observational only — the simulation's outputs are independent of it.
pub fn set_capture(on: bool) {
    CAPTURE.store(on, Ordering::Release);
}

/// Whether per-thread decision capture is armed.
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// Runs `f` with the calling thread's capture recorder.
pub fn with_thread<R>(f: impl FnOnce(&mut DecisionRecorder) -> R) -> R {
    THREAD_RECORDER.with(|rec| f(&mut rec.borrow_mut()))
}

/// Seeds the calling thread's capture recorder (no-op while capture is
/// disarmed) — see [`DecisionRecorder::seed`].
pub fn seed_thread(ddio_ways: u8, tenants: &[(u16, u8)]) {
    if capture_enabled() {
        with_thread(|rec| rec.seed(ddio_ways, tenants));
    }
}

/// Drains the calling thread's assembled records (empty while capture
/// is disarmed and nothing was captured).
pub fn take_thread_records() -> Vec<Event> {
    with_thread(DecisionRecorder::drain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(iter: u64) -> Stamp {
        Stamp { iter, time_ns: iter * 1_000_000 }
    }

    fn poll(iter: u64, refs: u64, misses: u64) -> Event {
        Event::PollSample {
            stamp: stamp(iter),
            tenant_count: 2,
            llc_refs: refs,
            llc_misses: misses,
            ddio_hits: 0,
            ddio_misses: 0,
            cost_ns: 1000,
        }
    }

    fn decision(iter: u64, state: &str, action: &str) -> Event {
        Event::Decision {
            stamp: stamp(iter),
            state: state.into(),
            action: action.into(),
            stable: false,
            msr_writes: iter,
            cost_ns: 5000,
        }
    }

    #[test]
    fn assembles_one_record_per_decision() {
        let mut r = DecisionRecorder::new(16);
        r.seed(2, &[(0, 3), (1, 2)]);

        r.record(poll(1, 1000, 100));
        r.record(Event::RingOccupancy { stamp: stamp(1), vf: 0, len: 512, capacity: 1024 });
        r.record(decision(1, "low-keep", "None"));

        r.record(poll(2, 3000, 900));
        r.record(Event::FsmTransition {
            stamp: stamp(2),
            from: "low-keep".into(),
            to: "io-demand".into(),
            miss_high: true,
            at_min: false,
            at_max: false,
        });
        r.record(Event::DdioResize { stamp: stamp(2), from_ways: 2, to_ways: 3 });
        r.record(Event::TenantResize { stamp: stamp(2), agent: 1, from_ways: 2, to_ways: 1 });
        r.record(decision(2, "io-demand", "GrowDdio"));

        let records = r.drain();
        assert_eq!(records.len(), 2);
        match &records[0] {
            Event::StepRecord {
                state_before,
                state_after,
                ddio_ways,
                tenant_ways,
                llc_refs,
                llc_misses,
                miss_trend,
                occ_pct,
                ..
            } => {
                assert_eq!(state_before, "low-keep");
                assert_eq!(state_after, "low-keep");
                assert_eq!(*ddio_ways, 2);
                assert_eq!(tenant_ways, &[3, 2]);
                assert_eq!((*llc_refs, *llc_misses), (1000, 100));
                assert_eq!(miss_trend, "flat");
                assert_eq!(*occ_pct, 50);
            }
            other => panic!("expected StepRecord, got {other:?}"),
        }
        match &records[1] {
            Event::StepRecord {
                state_before,
                state_after,
                action,
                ddio_ways,
                tenant_ways,
                llc_misses,
                miss_trend,
                occ_pct,
                ..
            } => {
                assert_eq!(state_before, "low-keep");
                assert_eq!(state_after, "io-demand");
                assert_eq!(action, "GrowDdio");
                assert_eq!(*ddio_ways, 3);
                assert_eq!(tenant_ways, &[3, 1]);
                // Cumulative 3000/900 diffed against 1000/100.
                assert_eq!(*llc_misses, 800);
                assert_eq!(miss_trend, "up");
                // Ring occupancy scratch was reset by the first record.
                assert_eq!(*occ_pct, 0);
            }
            other => panic!("expected StepRecord, got {other:?}"),
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let mut r = DecisionRecorder::new(4);
        r.seed(2, &[(0, 4)]);
        r.record(poll(1, 500, 50));
        r.record(decision(1, "low-keep", "None"));
        let records = r.drain();
        let mut jsonl = crate::JsonlRecorder::new(Vec::new());
        for e in &records {
            jsonl.record(e.clone());
        }
        let bytes = jsonl.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let back: Vec<Event> =
            text.lines().map(|l| Event::from_json_line(l).expect("round trip")).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn ring_is_bounded() {
        let mut r = DecisionRecorder::new(2);
        for i in 1..=5 {
            r.record(decision(i, "low-keep", "None"));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let iters: Vec<u64> = r.snapshot().iter().map(|e| e.stamp().iter).collect();
        assert_eq!(iters, vec![4, 5]);
    }

    #[test]
    fn thread_capture_drains_per_thread() {
        let _ = take_thread_records(); // isolate from earlier tests
        set_capture(true);
        seed_thread(2, &[(0, 4)]);
        with_thread(|rec| {
            rec.record(poll(1, 100, 10));
            rec.record(decision(1, "low-keep", "None"));
        });
        set_capture(false);
        let records = take_thread_records();
        assert_eq!(records.len(), 1);
        assert!(take_thread_records().is_empty());
    }
}
