//! One pass of a workload: its figure jobs through `iat_runner::run`,
//! pinned to a single simulation thread, plus the checks of what they
//! produced against the committed captures.

use crate::workloads::{self, Workload};
use iat_runner::{JobSpec, Outcome, RunOptions, RunOutput};
use iat_telemetry::{Metrics, PhaseBreakdown};
use serde_json::{Map, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

/// The benchmark's own job: depends on the workload's jobs and stages
/// their artifacts, which the runner otherwise hands only to merge jobs.
const COLLECT: &str = "benchmark/collect";
/// The file the collector stages; it is not a committed capture.
const COLLECT_FILE: &str = "benchmark-artifacts.json";

/// The pinned execution config: one runner worker, LLC flushes resolved
/// inline, serial tenant front end — one simulation thread in total.
pub fn pinned_options(w: &Workload, seed: u64) -> RunOptions {
    RunOptions {
        jobs: 1,
        only: vec![COLLECT.to_owned()],
        smoke: false,
        root_seed: seed,
        slice_workers: Some(1),
        gen_workers: Some(0),
        sampled: w.sampled,
        expected_costs: Vec::new(),
        expected_job_costs: Vec::new(),
        trace_out: None,
    }
}

/// What one pass measured and produced.
pub struct Pass {
    /// Wall clock of the whole `iat_runner::run` call, seconds.
    pub wall_s: f64,
    /// Wall clock of each figure job (the collector excluded), seconds.
    pub job_walls: Vec<f64>,
    /// Sum of the runner's per-job wall clocks, collector included.
    pub all_jobs_s: f64,
    /// Phase buckets summed over the figure jobs.
    pub phases: PhaseBreakdown,
    /// Simulated cache accesses.
    pub accesses: u64,
    /// Epochs the sampler fast-forwarded.
    pub skipped_epochs: u64,
    /// Convergence-checkpoint restores and computes.
    pub restores: u64,
    pub computes: u64,
    /// Decision flight-recorder records captured (non-zero only when
    /// decision capture is armed).
    pub decisions: u64,
    /// Figure jobs attempted, and those that failed or were skipped.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of every staged file and collected artifact.
    pub digest: u64,
    /// Staged figure files (the collector's file removed).
    pub files: Vec<(String, Vec<u8>)>,
    /// The workload's jobs' artifacts by job name (null when a failed
    /// job kept the collector from running).
    pub artifacts: Value,
}

impl Pass {
    /// Non-epoch job time: scenario construction, polling, reporting and
    /// merging — the runner's `setup` plus `merge` buckets.
    pub fn setup_s(&self) -> f64 {
        (self.phases.setup_ns + self.phases.merge_ns) as f64 / 1e9
    }
}

/// Runs one pass of `w` at root seed `seed`.
pub fn run(w: &Workload, seed: u64) -> Pass {
    let mut reg = iat_runner::Registry::new();
    for fig in iat_bench::catalog::FIGURES {
        (fig.register)(&mut reg);
    }
    let jobs = w.jobs;
    reg.add(
        JobSpec::new(COLLECT, "benchmark", move |ctx| {
            let mut doc = Map::new();
            for job in jobs {
                doc.insert((*job).to_owned(), ctx.dep(job).clone());
            }
            ctx.save_bytes(COLLECT_FILE, Value::Object(doc).to_string().into_bytes());
            Ok(Value::Null)
        })
        .deps(jobs),
    );

    let out = iat_runner::run(reg, &pinned_options(w, seed));
    let (restores, computes) = iat_runner::checkpoint::counters();

    let mut digest_input = Vec::new();
    for (name, bytes) in &out.files {
        digest_input.extend_from_slice(name.as_bytes());
        digest_input.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        digest_input.extend_from_slice(bytes);
    }
    let mut files = out.files;
    let artifacts = match files.iter().position(|(name, _)| name == COLLECT_FILE) {
        Some(i) => serde_json::from_str(&String::from_utf8_lossy(&files.remove(i).1))
            .unwrap_or(Value::Null),
        None => Value::Null,
    };

    let mut pass = Pass {
        wall_s: out.wall.as_secs_f64(),
        job_walls: Vec::new(),
        all_jobs_s: 0.0,
        phases: PhaseBreakdown::default(),
        accesses: 0,
        skipped_epochs: 0,
        restores,
        computes,
        decisions: 0,
        attempted: 0,
        failed: 0,
        digest: iat_runner::checkpoint::fingerprint64(&digest_input),
        files,
        artifacts,
    };
    for r in &out.reports {
        pass.all_jobs_s += r.wall.as_secs_f64();
        if r.name == COLLECT {
            continue;
        }
        pass.attempted += 1;
        if r.outcome != Outcome::Ok {
            pass.failed += 1;
        }
        pass.job_walls.push(r.wall.as_secs_f64());
        pass.phases.add(&r.phases);
        pass.accesses += r.accesses;
        pass.skipped_epochs += r.skipped_epochs;
        pass.decisions += r.decisions.len() as u64;
    }
    pass
}

/// How a pass's outputs compare with the committed captures.
#[derive(Debug, Default)]
pub struct CaptureCheck {
    /// One entry per staged file or job artifact that does not match.
    pub diverged: Vec<String>,
    /// Sampled workloads: over the figures the pass touched, the largest
    /// error of the figure's headline metric when the pass's sampled rows
    /// replace their exact counterparts in the committed capture, in
    /// percent. The declared bounds are per figure headline, and single
    /// sweep points err more than a whole figure does, so the error is
    /// taken at figure level.
    pub sampled_max_err_pct: Option<f64>,
    /// Sampled figures whose error exceeds the declared bound.
    pub out_of_bounds: Vec<String>,
}

/// The capture records in a job's artifact. Figure jobs return one
/// `{rows, record}` object, a list of `{cells, record}` rows, or a list of
/// bare records; the record is what the merge job commits.
fn records(artifact: &Value) -> Vec<&Value> {
    fn record(v: &Value) -> &Value {
        v.get("record").unwrap_or(v)
    }
    match artifact {
        Value::Array(items) => items.iter().map(record).collect(),
        Value::Object(_) => vec![record(artifact)],
        _ => Vec::new(),
    }
}

fn group_of(job: &str) -> &str {
    job.split('/').next().unwrap_or(job)
}

/// Checks a seed-0 pass against the captures under `results`: staged
/// files byte for byte, exact jobs' rows record for record, and sampled
/// jobs' rows through their figure's headline metric.
pub fn check_captures(w: &Workload, pass: &Pass, results: &Path) -> CaptureCheck {
    let mut check = CaptureCheck::default();
    let staged = RunOutput {
        reports: Vec::new(),
        stdout: String::new(),
        files: pass.files.clone(),
        metrics: Metrics::new(),
        wall: Duration::ZERO,
    };
    check.diverged = iat_runner::check_outputs(&staged, results);

    // Per sampled figure: (group, committed rows, committed rows with the
    // pass's sampled rows spliced in).
    let mut sampled: Vec<(&str, Vec<Value>, Vec<Value>)> = Vec::new();
    for &job in w.jobs {
        let Some(artifact) = pass.artifacts.get(job) else {
            check.diverged.push(format!("{job}: produced no artifact"));
            continue;
        };
        if artifact.is_null() {
            // A whole figure group: its merge job staged the files above.
            continue;
        }
        let records = records(artifact);
        if records.is_empty() {
            check
                .diverged
                .push(format!("{job}: artifact holds no capture rows"));
            continue;
        }
        let group = group_of(job);
        let committed = match iat_runner::load_json(&results.join(format!("{group}.json"))) {
            Ok(doc) => doc.as_array().cloned().unwrap_or_default(),
            Err(e) => {
                check.diverged.push(format!("{job}: {e}"));
                continue;
            }
        };
        if !w.sampled {
            let known: BTreeSet<String> = committed.iter().map(Value::to_string).collect();
            if records.iter().any(|r| !known.contains(&r.to_string())) {
                check.diverged.push(format!(
                    "{job}: rows differ from the committed {group}.json"
                ));
            }
            continue;
        }
        let Some(keys) = workloads::row_key_fields(group) else {
            check
                .diverged
                .push(format!("{job}: no row key to pair sampled rows with"));
            continue;
        };
        let key = |r: &Value| keys.iter().map(|k| r[*k].to_string()).collect::<Vec<_>>();
        let entry = match sampled.iter().position(|(g, ..)| *g == group) {
            Some(i) => &mut sampled[i],
            None => {
                sampled.push((group, committed.clone(), committed));
                sampled.last_mut().expect("just pushed")
            }
        };
        for r in records {
            match entry.2.iter().position(|c| key(c) == key(r)) {
                Some(i) => entry.2[i] = r.clone(),
                None => check
                    .diverged
                    .push(format!("{job}: no committed row for {:?}", key(r))),
            }
        }
    }
    for (group, exact, spliced) in sampled {
        let headline = |rows: Vec<Value>| iat_bench::sampling::headline(group, &Value::Array(rows));
        let (Some(est), Some(exact)) = (headline(spliced), headline(exact)) else {
            check
                .diverged
                .push(format!("{group}: no headline metric in the sampled rows"));
            continue;
        };
        let err = (est / exact - 1.0).abs() * 100.0;
        let bound = iat_bench::sampling::sampled_figure(group).map_or(0.0, |s| s.bound_pct);
        if err > bound {
            check
                .out_of_bounds
                .push(format!("{group}: {err:.3}% > {bound}%"));
        }
        check.sampled_max_err_pct =
            Some(check.sampled_max_err_pct.map_or(err, |m: f64| m.max(err)));
    }
    check
}
