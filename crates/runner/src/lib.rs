//! # iat-runner
//!
//! A deterministic parallel sweep engine for the figure/table
//! regeneration harness: the whole evaluation is a **job graph** (leaf
//! jobs compute scenario slices, merge jobs assemble each figure's
//! table and JSON) executed across a small `std::thread` worker pool —
//! vendored and offline-friendly, no rayon.
//!
//! The engine's core guarantee: **`--jobs 1` and `--jobs N` produce
//! byte-identical output.** Three rules enforce it:
//!
//! 1. every job's RNG seeds derive from `(root seed, job name, tag)`
//!    only ([`derive_seed`]) — never from worker identity or
//!    scheduling order;
//! 2. jobs write nothing while running — console output and result
//!    files are staged in the [`JobCtx`] and emitted by the runner in
//!    registration order;
//! 3. dependents read their dependencies' artifacts through the graph,
//!    never through shared mutable state.
//!
//! Per-job telemetry ([`iat_telemetry::Metrics`]) is folded into a
//! run-level registry with `Metrics::merge`, so the final summary
//! reflects every job regardless of which worker ran it.
//!
//! The figure jobs themselves live in `iat-bench` (`iat_bench::jobs`);
//! this crate is the engine plus its CLI plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_report;
pub mod checkpoint;
mod cli;
mod errors;
mod exec;
mod job;
pub mod seed;

pub use bench_report::{
    attach_sample_errors, bench_report, cost_summary, expected_costs, expected_job_costs,
    validate as validate_bench_report, BENCH_SCHEMA,
};
pub use cli::{default_jobs, parse_args, Cli, USAGE};
pub use errors::{load_json, LoadError};
pub use exec::{
    check_outputs, progress, reset_staging_dirs, run, unknown_filters, write_outputs, JobReport,
    Outcome, RunOptions, RunOutput, ACCESSES_COUNTER, SKIPPED_EPOCHS_COUNTER,
};
pub use job::{JobCtx, JobFn, JobSpec, Registry};
pub use seed::derive_seed;
