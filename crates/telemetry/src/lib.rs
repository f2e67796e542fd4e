//! iat-telemetry: flight recorder, metrics registry, and structured
//! decision traces for the IAT stack.
//!
//! Three pieces, usable separately:
//!
//! * [`Event`] — a typed record of something the stack did or observed
//!   (an FSM edge, a DDIO resize, a poll sample, a CLOS mask write, a
//!   NIC drop), stamped with the daemon iteration and simulated time.
//! * [`Recorder`] — where events go. [`NullRecorder`] drops everything
//!   (the zero-cost default), [`RingRecorder`] keeps the last N events
//!   as a flight recorder, and [`JsonlRecorder`] streams JSON lines to
//!   any `io::Write` for offline analysis.
//! * [`Metrics`] — a registry of named counters, gauges, and
//!   fixed-bucket histograms that can be snapshotted, merged across
//!   runs, and rendered to JSON.
//!
//! On top of those sit the run-wide observability layers:
//!
//! * [`span`] — a lightweight wall-clock span tracer whose output is a
//!   Chrome trace-event JSON file loadable in Perfetto (`repro
//!   --trace-out`).
//! * [`DecisionRecorder`] — folds the raw event stream into one
//!   structured [`Event::StepRecord`] per daemon iteration, the
//!   flight-recorder record behind `results/decisions/*.jsonl`.
//! * [`phases`] — per-thread phase accounting (warmup / measure /
//!   flush wall time) the sweep harness folds into per-job
//!   [`PhaseBreakdown`]s for the BENCH report.
//!
//! Instrumented code takes `&mut dyn Recorder` and guards event
//! construction behind [`Recorder::enabled`], so the uninstrumented
//! fast path costs one virtual call per site.
//!
//! ```
//! use iat_telemetry::{Event, Recorder, RingRecorder, Stamp};
//!
//! let mut rec = RingRecorder::new(128);
//! rec.record(Event::FsmTransition {
//!     stamp: Stamp { iter: 3, time_ns: 3_000_000 },
//!     from: "low-keep".into(),
//!     to: "io-demand".into(),
//!     miss_high: true,
//!     at_min: false,
//!     at_max: false,
//! });
//! assert_eq!(rec.snapshot().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod decision;
mod event;
mod metrics;
pub mod phases;
mod recorder;
pub mod span;

pub use decision::DecisionRecorder;
pub use event::{render_timeline, Event, Stamp};
pub use metrics::{
    summarize, Histogram, Metrics, MetricsSnapshot, COST_NS_BOUNDS, OCCUPANCY_BOUNDS,
};
pub use phases::{Phase, PhaseBreakdown};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, RingRecorder};
pub use span::{SpanScope, SpanTracer};
