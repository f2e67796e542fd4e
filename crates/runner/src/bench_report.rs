//! The wall-clock bench report (`BENCH_repro.json`): every sweep emits
//! per-figure and total wall-clock, simulated cache accesses, and
//! accesses-per-second so the repo accumulates a performance trajectory
//! that later PRs can be held to.
//!
//! The report is *metadata about a run*, not a determinism capture: it
//! is written on every sweep but never byte-compared by `--check` (wall
//! clock differs machine to machine). CI instead validates its schema
//! with [`validate`].

use crate::exec::{Outcome, RunOptions, RunOutput};
use iat_telemetry::PhaseBreakdown;
use serde_json::{json, Value};

/// Schema tag stamped into every report; bump when the shape changes.
///
/// v2: access-free figures (static tables) no longer carry a bogus
/// `accesses_per_s: 0.0` — the key is omitted — and the top-level
/// throughput divides by the job cost of access-reporting figures only;
/// the `slice_workers` policy the sweep ran under is recorded.
///
/// v3: the report records whether the sweep ran phase-aware interval
/// sampling (`sampled`, plus per-figure `sampled` and `skipped_epochs`),
/// and sampled reports may carry per-figure `sample_error_pct` /
/// `headline_exact` / `headline_sampled` once the extrapolated headline
/// has been compared against the committed exact capture (see
/// [`attach_sample_errors`]).
///
/// v4: per-figure and top-level `phase_ns` objects break the wall clock
/// into `{setup, warmup, measure, flush, merge}` nanoseconds (see
/// [`iat_telemetry::PhaseBreakdown`]; flush nests inside the epoch
/// buckets and is reported separately, so the keys do not sum to the
/// wall clock).
///
/// v5: `phase_ns` gains `fast_warm` (compile-time cold-start
/// fast-forward) and `restore` (convergence-checkpoint restores) for a
/// seven-key breakdown.
///
/// v6: every figure carries a `job_wall_s` object mapping each of its
/// job names to that job's wall seconds — the per-job scheduling hint
/// that keeps split sweeps (per-point leaves vs. cheap merge jobs)
/// ordered longest-first.
///
/// v7: the `gen_workers` field v6 added is gone with the
/// generation-worker lane (the tenant front end always runs inline).
///
/// v8: the `slice_workers` field v2 added is gone with the LLC
/// slice-worker layer (every batch flush resolves inline).
pub const BENCH_SCHEMA: &str = "iat-bench-repro/v8";

/// Schema tag for one `BENCH_history.jsonl` line (see [`history_record`]).
///
/// v2: every line carries `mode` (`"exact"` or `"sampled"`) so the
/// sampled fast path's aggregate seconds accumulate in the same file as
/// the exact trajectory without the two being conflated, and a boolean
/// `sampled` that must agree with it.
pub const HISTORY_SCHEMA: &str = "iat-bench-history/v2";

/// Schema tag for the committed `BENCH_trajectory.json` (see
/// [`trajectory_update`]).
pub const TRAJECTORY_SCHEMA: &str = "iat-bench-trajectory/v1";

/// Upper bound on trajectory records; the oldest fall off so the
/// committed file stays reviewable.
const TRAJECTORY_CAP: usize = 50;

/// Builds the `BENCH_repro.json` document for one sweep execution.
///
/// `profile` is the build profile the sweep ran under (`"release"` or
/// `"debug"` — callers pass a `cfg!(debug_assertions)`-derived value so
/// debug-profile numbers are never mistaken for the perf trajectory).
pub fn bench_report(out: &RunOutput, opts: &RunOptions, profile: &str) -> Value {
    struct Group {
        figure: String,
        wall: f64,
        jobs: usize,
        accesses: u64,
        sampled: bool,
        skipped: u64,
        ok: bool,
        phases: PhaseBreakdown,
        job_walls: Vec<(String, f64)>,
    }
    let mut figures: Vec<Group> = Vec::new();
    for r in &out.reports {
        let wall = r.wall.as_secs_f64();
        match figures.iter_mut().find(|g| g.figure == r.group) {
            Some(g) => {
                g.wall += wall;
                g.jobs += 1;
                g.accesses += r.accesses;
                g.sampled |= r.sampled;
                g.skipped += r.skipped_epochs;
                g.ok &= r.outcome == Outcome::Ok;
                g.phases.add(&r.phases);
                g.job_walls.push((r.name.clone(), wall));
            }
            None => figures.push(Group {
                figure: r.group.clone(),
                wall,
                jobs: 1,
                accesses: r.accesses,
                sampled: r.sampled,
                skipped: r.skipped_epochs,
                ok: r.outcome == Outcome::Ok,
                phases: r.phases,
                job_walls: vec![(r.name.clone(), wall)],
            }),
        }
    }
    let busy: f64 = figures.iter().map(|g| g.wall).sum();
    let accesses: u64 = figures.iter().map(|g| g.accesses).sum();
    let skipped: u64 = figures.iter().map(|g| g.skipped).sum();
    let mut phases = PhaseBreakdown::default();
    for g in &figures {
        phases.add(&g.phases);
    }
    // Aggregate throughput over the figures that actually simulate
    // accesses; static-table groups would only dilute the number.
    let sim_busy: f64 = figures
        .iter()
        .filter(|g| g.accesses > 0)
        .map(|g| g.wall)
        .sum();
    let figures: Vec<Value> = figures
        .into_iter()
        .map(|g| {
            let job_wall_s: serde_json::Map<String, Value> = g
                .job_walls
                .iter()
                .map(|(name, w)| (name.clone(), json!(w)))
                .collect();
            let mut fig = json!({
                "figure": g.figure,
                "jobs": g.jobs,
                "wall_s": g.wall,
                "accesses": g.accesses,
                "sampled": g.sampled,
                "skipped_epochs": g.skipped,
                "phase_ns": g.phases.to_json(),
                "job_wall_s": job_wall_s,
                "ok": g.ok,
            });
            if g.accesses > 0 {
                fig["accesses_per_s"] = json!(g.accesses as f64 / g.wall.max(1e-9));
            }
            fig
        })
        .collect();
    json!({
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "smoke": opts.smoke,
        "sampled": opts.sampled,
        "jobs": opts.jobs,
        "root_seed": opts.root_seed,
        "wall_s": out.wall.as_secs_f64(),
        "aggregate_job_cost_s": busy,
        "accesses": accesses,
        "skipped_epochs": skipped,
        "accesses_per_s": accesses as f64 / sim_busy.max(1e-9),
        "phase_ns": phases.to_json(),
        "figures": figures,
    })
}

/// Folds per-figure sampled-vs-exact headline comparisons into a v3
/// report: each `(figure, exact, sampled)` entry gains
/// `headline_exact`, `headline_sampled`, and `sample_error_pct`
/// (`|sampled/exact - 1| * 100`, or `null` when the exact headline is
/// zero). Figures without an entry are left untouched.
pub fn attach_sample_errors(report: &mut Value, headlines: &[(String, f64, f64)]) {
    let Some(figs) = report["figures"].as_array_mut() else {
        return;
    };
    for f in figs {
        let Some(name) = f["figure"].as_str() else {
            continue;
        };
        if let Some((_, exact, sampled)) = headlines.iter().find(|(g, ..)| g == name) {
            f["headline_exact"] = json!(exact);
            f["headline_sampled"] = json!(sampled);
            f["sample_error_pct"] = if *exact == 0.0 {
                Value::Null
            } else {
                json!((sampled / exact - 1.0).abs() * 100.0)
            };
        }
    }
}

/// Extracts the previous per-figure job costs from a bench report, for
/// [`RunOptions::expected_costs`]-driven longest-expected-first
/// scheduling. Accepts any schema version that carries a `figures`
/// array (including v1 reports from before the tag bump); returns an
/// empty list — scheduling falls back to registration order — when the
/// document doesn't parse.
pub fn expected_costs(doc: &Value) -> Vec<(String, f64)> {
    doc["figures"]
        .as_array()
        .map(|figs| {
            figs.iter()
                .filter_map(|f| {
                    let name = f["figure"].as_str()?;
                    let cost = f["wall_s"].as_f64().filter(|w| w.is_finite() && *w >= 0.0)?;
                    Some((name.to_owned(), cost))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Extracts the previous per-*job* wall costs from a v6+ bench report
/// (every figure's `job_wall_s` object flattened), for
/// [`RunOptions::expected_job_costs`]. Pre-v6 reports carry no
/// `job_wall_s` and yield an empty list — scheduling then falls back to
/// the per-group spread of [`expected_costs`].
pub fn expected_job_costs(doc: &Value) -> Vec<(String, f64)> {
    let mut costs = Vec::new();
    if let Some(figs) = doc["figures"].as_array() {
        for f in figs {
            if let Some(jobs) = f["job_wall_s"].as_object() {
                for (name, wall) in jobs {
                    if let Some(w) = wall.as_f64().filter(|w| w.is_finite() && *w >= 0.0) {
                        costs.push((name.clone(), w));
                    }
                }
            }
        }
    }
    costs
}

/// Builds the one-line `BENCH_history.jsonl` record for a sweep: the
/// report's headline numbers, without the per-figure breakdown, so the
/// file accumulates one compact line per run.
pub fn history_record(report: &Value) -> Value {
    let ok = report["figures"]
        .as_array()
        .is_some_and(|figs| figs.iter().all(|f| f["ok"].as_bool() == Some(true)));
    json!({
        "schema": HISTORY_SCHEMA,
        "profile": report["profile"],
        "smoke": report["smoke"],
        "sampled": report["sampled"],
        "mode": if report["sampled"] == json!(true) { "sampled" } else { "exact" },
        "jobs": report["jobs"],
        "root_seed": report["root_seed"],
        "wall_s": report["wall_s"],
        "aggregate_job_cost_s": report["aggregate_job_cost_s"],
        "accesses": report["accesses"],
        "accesses_per_s": report["accesses_per_s"],
        "figures": report["figures"].as_array().map_or(0, Vec::len),
        "ok": ok,
    })
}

/// Builds one `BENCH_history.jsonl` record per corpus class from a
/// corpus run's bench report plus its validated `corpus_summary.json`.
///
/// Each line carries the standard headline fields (so
/// [`validate_history`] accepts it) scoped to that class's figure group
/// (`corpus-<class>` wall/accesses), plus `corpus_class`, `scenarios`,
/// and the class's mean metrics — the trajectory of the generated
/// corpus accumulates next to the figure sweep's without the two being
/// conflated (filter on `corpus_class`).
pub fn corpus_history_records(report: &Value, summary: &Value) -> Vec<Value> {
    let Some(classes) = summary["classes"].as_array() else {
        return Vec::new();
    };
    classes
        .iter()
        .filter_map(|c| {
            let class = c["class"].as_str()?;
            let mut line = history_record(report);
            let group = format!("corpus-{class}");
            if let Some(fig) = report["figures"]
                .as_array()
                .and_then(|figs| figs.iter().find(|f| f["figure"].as_str() == Some(&*group)))
            {
                line["wall_s"] = fig["wall_s"].clone();
                line["aggregate_job_cost_s"] = fig["wall_s"].clone();
                line["accesses"] = fig["accesses"].clone();
                line["accesses_per_s"] = match fig["accesses_per_s"].as_f64() {
                    Some(v) => json!(v),
                    None => json!(0.0),
                };
                line["figures"] = json!(1);
                line["ok"] = fig["ok"].clone();
            }
            line["corpus_class"] = json!(class);
            line["scenarios"] = c["scenarios"].clone();
            for key in ["mean_ops_per_s", "mean_ddio_hit_rate", "mean_mem_gbps", "mean_ipc"] {
                line[key] = c[key].clone();
            }
            Some(line)
        })
        .collect()
}

/// Validates one `BENCH_history.jsonl` record.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub fn validate_history(line: &Value) -> Result<(), String> {
    let schema = line["schema"].as_str().ok_or("missing history schema tag")?;
    if schema != HISTORY_SCHEMA {
        return Err(format!("unknown history schema {schema:?} (expected {HISTORY_SCHEMA:?})"));
    }
    validate_record(line)
}

/// Validates the headline fields of a [`history_record`]: shared by
/// history lines and trajectory records, which are the same record
/// without its schema tag.
fn validate_record(line: &Value) -> Result<(), String> {
    match line["profile"].as_str() {
        Some("release" | "debug") => {}
        other => return Err(format!("bad profile {other:?}")),
    }
    for key in ["smoke", "ok"] {
        if line[key].as_bool().is_none() {
            return Err(format!("{key} must be a boolean"));
        }
    }
    let sampled = line["sampled"].as_bool().ok_or("sampled must be a boolean")?;
    match line["mode"].as_str() {
        Some(mode @ ("exact" | "sampled")) => {
            if sampled != (mode == "sampled") {
                return Err(format!("mode {mode:?} disagrees with sampled: {sampled}"));
            }
        }
        other => return Err(format!("bad mode {other:?} (expected \"exact\" or \"sampled\")")),
    }
    // Corpus-class lines (see [`corpus_history_records`]) additionally
    // carry the class name and scenario count.
    if !line["corpus_class"].is_null() {
        if line["corpus_class"].as_str().is_none() {
            return Err("corpus_class must be a string when present".into());
        }
        if line["scenarios"].as_u64().is_none() {
            return Err("corpus lines must carry a scenario count".into());
        }
    }
    for key in ["jobs", "root_seed", "accesses", "figures"] {
        if line[key].as_u64().is_none() {
            return Err(format!("{key} must be a non-negative integer"));
        }
    }
    for key in ["wall_s", "aggregate_job_cost_s", "accesses_per_s"] {
        match line[key].as_f64() {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            _ => return Err(format!("{key} must be a finite non-negative number")),
        }
    }
    Ok(())
}

/// Returns whether a report came from a run that should extend the
/// committed trajectory: a full (unfiltered, non-smoke), exact
/// (non-sampled), all-ok sweep — the only runs whose wall clock is the
/// PR-level number the trajectory tracks.
pub fn trajectory_eligible(report: &Value, opts: &RunOptions) -> bool {
    let all_ok = report["figures"]
        .as_array()
        .is_some_and(|figs| !figs.is_empty() && figs.iter().all(|f| f["ok"] == json!(true)));
    all_ok
        && !opts.smoke
        && opts.only.is_empty()
        && report["smoke"] == json!(false)
        && report["sampled"] == json!(false)
}

/// Folds one sweep's report into the committed `BENCH_trajectory.json`
/// document, returning the updated document.
///
/// `prev` is the current file contents (pass `Value::Null` when the file
/// does not exist or does not parse — the trajectory restarts). Records
/// are deduplicated by their workload fingerprint (profile, jobs, seed,
/// total accesses): re-running `repro` on
/// unchanged code replaces the last record instead of appending, so the
/// committed file accumulates roughly one record per PR-level change
/// while repeated local runs never bloat it. At most [`TRAJECTORY_CAP`]
/// records are kept.
pub fn trajectory_update(prev: &Value, report: &Value) -> Value {
    let record = {
        let mut r = history_record(report);
        // The record is self-describing inside the trajectory document;
        // the line-level schema tag would only mislead.
        r.as_object_mut().expect("history record is an object").remove("schema");
        r
    };
    let key = |r: &Value| -> Value {
        json!([
            r["profile"].clone(),
            r["jobs"].clone(),
            r["root_seed"].clone(),
            r["accesses"].clone(),
        ])
    };
    let mut runs: Vec<Value> = prev["runs"]
        .as_array()
        .cloned()
        .unwrap_or_default();
    match runs.last() {
        Some(last) if key(last) == key(&record) => {
            *runs.last_mut().expect("non-empty") = record;
        }
        _ => runs.push(record),
    }
    if runs.len() > TRAJECTORY_CAP {
        runs.drain(..runs.len() - TRAJECTORY_CAP);
    }
    json!({ "schema": TRAJECTORY_SCHEMA, "runs": runs })
}

/// Validates a `BENCH_trajectory.json` document.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub fn validate_trajectory(doc: &Value) -> Result<(), String> {
    let schema = doc["schema"].as_str().ok_or("missing trajectory schema tag")?;
    if schema != TRAJECTORY_SCHEMA {
        return Err(format!(
            "unknown trajectory schema {schema:?} (expected {TRAJECTORY_SCHEMA:?})"
        ));
    }
    let runs = doc["runs"].as_array().ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs must not be empty".into());
    }
    if runs.len() > TRAJECTORY_CAP {
        return Err(format!("runs must hold at most {TRAJECTORY_CAP} records"));
    }
    // A record holds exactly the history record's fields, less the schema
    // tag: keys of retired options must not linger.
    let fields = history_record(&Value::Null);
    for r in runs {
        let obj = r.as_object().ok_or("trajectory record must be an object")?;
        if let Some(key) = obj.keys().find(|k| *k == "schema" || fields.get(k.as_str()).is_none()) {
            return Err(format!("trajectory record: unexpected key {key:?}"));
        }
        validate_record(r).map_err(|e| format!("trajectory record: {e}"))?;
    }
    Ok(())
}

/// Validates one v5 `phase_ns` object: all seven phase keys present as
/// non-negative integers, nothing else.
fn validate_phase_ns(v: &Value, whence: &str) -> Result<(), String> {
    let obj = v.as_object().ok_or_else(|| format!("{whence}: phase_ns must be an object"))?;
    const KEYS: [&str; 7] =
        ["setup", "warmup", "fast_warm", "restore", "measure", "flush", "merge"];
    for key in KEYS {
        if v[key].as_u64().is_none() {
            return Err(format!("{whence}: phase_ns.{key} must be a non-negative integer"));
        }
    }
    if obj.len() != KEYS.len() {
        return Err(format!("{whence}: phase_ns must hold exactly the seven phase keys"));
    }
    Ok(())
}

/// Validates a `BENCH_repro.json` document's schema (the CI guard that
/// keeps the perf trajectory machine-readable).
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub fn validate(doc: &Value) -> Result<(), String> {
    let schema = doc["schema"].as_str().ok_or("missing schema tag")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {BENCH_SCHEMA:?})"));
    }
    match doc["profile"].as_str() {
        Some("release" | "debug") => {}
        other => return Err(format!("bad profile {other:?}")),
    }
    for key in ["smoke", "sampled"] {
        if doc[key].as_bool().is_none() {
            return Err(format!("{key} must be a boolean"));
        }
    }
    for key in ["jobs", "root_seed", "accesses", "skipped_epochs"] {
        if doc[key].as_u64().is_none() {
            return Err(format!("{key} must be a non-negative integer"));
        }
    }
    for key in ["wall_s", "aggregate_job_cost_s", "accesses_per_s"] {
        match doc[key].as_f64() {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            _ => return Err(format!("{key} must be a finite non-negative number")),
        }
    }
    validate_phase_ns(&doc["phase_ns"], "report")?;
    let figures = doc["figures"].as_array().ok_or("figures must be an array")?;
    if figures.is_empty() {
        return Err("figures must not be empty".into());
    }
    for f in figures {
        if f["figure"].as_str().is_none() {
            return Err("figure entry missing name".into());
        }
        for key in ["jobs", "accesses", "skipped_epochs"] {
            if f[key].as_u64().is_none() {
                return Err(format!("figure {}: {key} must be an integer", f["figure"]));
            }
        }
        if f["sampled"].as_bool().is_none() {
            return Err(format!("figure {}: sampled must be a boolean", f["figure"]));
        }
        validate_phase_ns(&f["phase_ns"], &format!("figure {}", f["figure"]))?;
        let job_walls = f["job_wall_s"]
            .as_object()
            .ok_or_else(|| format!("figure {}: job_wall_s must be an object", f["figure"]))?;
        if job_walls.len() as u64 != f["jobs"].as_u64().unwrap_or(0) {
            return Err(format!(
                "figure {}: job_wall_s must hold one entry per job",
                f["figure"]
            ));
        }
        for (name, wall) in job_walls {
            match wall.as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "figure {}: job_wall_s[{name:?}] must be a finite non-negative number",
                        f["figure"]
                    ))
                }
            }
        }
        // Sampling is a run-level opt-in: an exact report must not
        // contain sampled figures or fast-forwarded epochs, and the
        // error fields only make sense on sampled figures.
        if doc["sampled"] == json!(false)
            && (f["sampled"] == json!(true) || f["skipped_epochs"].as_u64() != Some(0))
        {
            return Err(format!(
                "figure {}: exact reports must not carry sampling artifacts",
                f["figure"]
            ));
        }
        if !f["sample_error_pct"].is_null() {
            if f["sampled"] != json!(true) {
                return Err(format!(
                    "figure {}: sample_error_pct requires sampled: true",
                    f["figure"]
                ));
            }
            match f["sample_error_pct"].as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "figure {}: sample_error_pct must be a finite non-negative number",
                        f["figure"]
                    ))
                }
            }
        }
        match f["wall_s"].as_f64() {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            _ => {
                return Err(format!(
                    "figure {}: wall_s must be a finite non-negative number",
                    f["figure"]
                ))
            }
        }
        // Throughput accompanies exactly the figures that simulate
        // accesses; access-free figures must omit it (no bogus zeros).
        let per_s = &f["accesses_per_s"];
        if f["accesses"].as_u64() == Some(0) {
            if !per_s.is_null() {
                return Err(format!(
                    "figure {}: access-free figures must omit accesses_per_s",
                    f["figure"]
                ));
            }
        } else {
            match per_s.as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "figure {}: accesses_per_s must be a finite non-negative number",
                        f["figure"]
                    ))
                }
            }
        }
        if f["ok"].as_bool().is_none() {
            return Err(format!("figure {}: ok must be a boolean", f["figure"]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake_report(name: &str, group: &str, outcome: Outcome, wall_ms: u64, accesses: u64) -> crate::JobReport {
        crate::JobReport {
            name: name.into(),
            group: group.into(),
            outcome,
            wall: Duration::from_millis(wall_ms),
            accesses,
            sampled: false,
            skipped_epochs: 0,
            phases: PhaseBreakdown::default(),
            decisions: Vec::new(),
        }
    }

    fn fake_output() -> RunOutput {
        let mut leaf = fake_report("figX/a", "figX", Outcome::Ok, 250, 1000);
        leaf.phases = PhaseBreakdown {
            setup_ns: 50_000_000,
            warmup_ns: 60_000_000,
            measure_ns: 140_000_000,
            flush_ns: 30_000_000,
            ..PhaseBreakdown::default()
        };
        let mut merge = fake_report("figX", "figX", Outcome::Ok, 50, 0);
        merge.phases.merge_ns = 50_000_000;
        RunOutput {
            reports: vec![
                leaf,
                merge,
                fake_report("figY", "figY", Outcome::Failed("boom".into()), 100, 77),
                fake_report("tableZ", "tableZ", Outcome::Ok, 10, 0),
            ],
            stdout: String::new(),
            files: Vec::new(),
            metrics: iat_telemetry::Metrics::new(),
            wall: Duration::from_millis(400),
        }
    }

    /// [`fake_output`] with every report successful, figX sampled.
    fn fake_sampled_output() -> RunOutput {
        let mut out = fake_output();
        out.reports[2].outcome = Outcome::Ok;
        out.reports[0].sampled = true;
        out.reports[0].skipped_epochs = 9000;
        out.reports[1].sampled = true;
        out
    }

    #[test]
    fn report_aggregates_per_group_and_validates() {
        let out = fake_output();
        let opts = RunOptions { jobs: 2, ..RunOptions::default() };
        let doc = bench_report(&out, &opts, "release");
        validate(&doc).expect("self-emitted report must validate");
        assert_eq!(doc["schema"], BENCH_SCHEMA);
        assert_eq!(doc["accesses"], 1077);
        assert_eq!(doc["jobs"], 2);
        let figs = doc["figures"].as_array().unwrap();
        assert_eq!(figs.len(), 3);
        assert_eq!(figs[0]["figure"], "figX");
        assert_eq!(figs[0]["jobs"], 2);
        assert_eq!(figs[0]["accesses"], 1000);
        assert_eq!(figs[0]["ok"], true);
        assert_eq!(figs[1]["ok"], false);
        let wall = figs[0]["wall_s"].as_f64().unwrap();
        assert!((wall - 0.3).abs() < 1e-9);
        // Access-free figures omit throughput and stay out of the
        // aggregate denominator (0.4s of sim work, not 0.41s).
        assert_eq!(figs[2]["figure"], "tableZ");
        assert!(figs[2]["accesses_per_s"].is_null());
        assert!(figs[0]["accesses_per_s"].as_f64().is_some());
        let agg = doc["accesses_per_s"].as_f64().unwrap();
        assert!((agg - 1077.0 / 0.4).abs() < 1e-6, "got {agg}");
        // Phase accounting folds across a group's jobs and up to the
        // report total: figX's leaf carries setup/warmup/measure/flush,
        // its merge job carries merge.
        assert_eq!(figs[0]["phase_ns"]["setup"], 50_000_000u64);
        assert_eq!(figs[0]["phase_ns"]["warmup"], 60_000_000u64);
        assert_eq!(figs[0]["phase_ns"]["measure"], 140_000_000u64);
        assert_eq!(figs[0]["phase_ns"]["flush"], 30_000_000u64);
        assert_eq!(figs[0]["phase_ns"]["merge"], 50_000_000u64);
        assert_eq!(figs[2]["phase_ns"]["measure"], 0u64);
        assert_eq!(doc["phase_ns"]["warmup"], 60_000_000u64);
        assert_eq!(doc["phase_ns"]["merge"], 50_000_000u64);
    }

    #[test]
    fn validate_rejects_malformed_phase_ns() {
        let out = fake_output();
        let doc = bench_report(&out, &RunOptions::default(), "release");
        validate(&doc).expect("baseline must validate");
        // Missing key, wrong type, and extra key are each hard errors.
        assert!(validate(&with_field(&doc, "phase_ns", serde_json::json!({"setup": 1}))).is_err());
        assert!(validate(&with_field(&doc, "phase_ns", serde_json::json!(7))).is_err());
        let mut full = serde_json::json!({
            "setup": 1u64, "warmup": 1u64, "fast_warm": 1u64, "restore": 1u64,
            "measure": 1u64, "flush": 1u64, "merge": 1u64
        });
        assert!(validate(&with_field(&doc, "phase_ns", full.clone())).is_ok());
        full["extra"] = serde_json::json!(0);
        assert!(validate(&with_field(&doc, "phase_ns", full)).is_err());
    }

    #[test]
    fn expected_costs_reads_any_figures_array() {
        let out = fake_output();
        let doc = bench_report(&out, &RunOptions::default(), "release");
        let costs = expected_costs(&doc);
        assert_eq!(costs.len(), 3);
        assert_eq!(costs[0].0, "figX");
        assert!((costs[0].1 - 0.3).abs() < 1e-9);
        assert!(expected_costs(&serde_json::json!({})).is_empty());
    }

    #[test]
    fn job_wall_s_round_trips_into_expected_job_costs() {
        let out = fake_output();
        let doc = bench_report(&out, &RunOptions::default(), "release");
        // figX has a leaf and a merge job; both appear with their own
        // wall seconds.
        assert_eq!(doc["figures"][0]["job_wall_s"]["figX/a"].as_f64(), Some(0.25));
        assert_eq!(doc["figures"][0]["job_wall_s"]["figX"].as_f64(), Some(0.05));
        let costs = expected_job_costs(&doc);
        assert_eq!(costs.len(), 4, "one entry per job across all figures");
        let cost_of = |name: &str| {
            costs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, w)| *w)
                .expect("job present")
        };
        assert!((cost_of("figX/a") - 0.25).abs() < 1e-9);
        assert!((cost_of("tableZ") - 0.01).abs() < 1e-9);
        assert!(expected_job_costs(&serde_json::json!({})).is_empty());
        // A report whose job_wall_s doesn't cover every job is rejected.
        let with_bad_walls = |walls: Value| {
            let mut bad = doc.clone();
            let figs = bad["figures"].as_array_mut().unwrap();
            figs[0]["job_wall_s"] = walls;
            validate(&bad)
        };
        assert!(with_bad_walls(serde_json::json!({"figX/a": 0.25})).is_err());
        assert!(
            with_bad_walls(serde_json::json!({"figX/a": 0.25, "figX": "slow"})).is_err()
        );
    }

    #[test]
    fn v8_rejects_a_v7_document() {
        let doc = bench_report(&fake_output(), &RunOptions::default(), "release");
        validate(&doc).expect("self-emitted report must validate");
        assert_eq!(doc["schema"], "iat-bench-repro/v8");
        assert!(doc.get("slice_workers").is_none(), "v8 records no flush policy");
        assert!(history_record(&doc).get("slice_workers").is_none());
        // A v7 document (tag plus the `slice_workers` field) is refused
        // outright rather than read through a compat path.
        let mut v7 = with_field(&doc, "schema", serde_json::json!("iat-bench-repro/v7"));
        v7["slice_workers"] = serde_json::json!(1);
        let err = validate(&v7).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn history_record_round_trips() {
        let out = fake_output();
        let doc = bench_report(&out, &RunOptions::default(), "release");
        let line = history_record(&doc);
        validate_history(&line).expect("self-emitted history line must validate");
        assert_eq!(line["schema"], HISTORY_SCHEMA);
        assert_eq!(line["mode"], "exact");
        assert_eq!(line["figures"], 3);
        assert_eq!(line["ok"], false, "figY failed");
        assert!(line["figures"].as_u64().is_some());
        assert!(validate_history(&serde_json::json!({})).is_err());
        assert!(validate_history(&serde_json::json!({"schema": "nope"})).is_err());
        assert!(validate_history(&with_field(&line, "wall_s", serde_json::json!("fast"))).is_err());
        assert!(validate_history(&with_field(&line, "mode", serde_json::json!("turbo"))).is_err());
        assert!(validate_history(&with_field(&line, "mode", Value::Null)).is_err());
        // `sampled` is required and must agree with `mode`.
        let err = validate_history(&with_field(&line, "sampled", Value::Null)).unwrap_err();
        assert!(err.contains("sampled must be a boolean"), "{err}");
        let disagreeing = with_field(&line, "sampled", serde_json::json!(true));
        let err = validate_history(&disagreeing).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn corpus_history_records_scope_to_class_figures() {
        let out = RunOutput {
            reports: vec![
                fake_report("corpus/churn-0000", "corpus-churn", Outcome::Ok, 200, 500),
                fake_report("corpus/churn", "corpus-churn", Outcome::Ok, 20, 0),
                fake_report("corpus/burst-0001", "corpus-burst", Outcome::Ok, 100, 300),
                fake_report("corpus/burst", "corpus-burst", Outcome::Ok, 10, 0),
            ],
            stdout: String::new(),
            files: Vec::new(),
            metrics: iat_telemetry::Metrics::new(),
            wall: Duration::from_millis(330),
        };
        let report = bench_report(&out, &RunOptions::default(), "release");
        let summary = serde_json::json!({
            "classes": [
                {"class": "churn", "scenarios": 1, "mean_ops_per_s": 1.5e6,
                 "mean_ddio_hit_rate": 0.9, "mean_mem_gbps": 2.0, "mean_ipc": 1.1},
                {"class": "burst", "scenarios": 1, "mean_ops_per_s": 2.5e6,
                 "mean_ddio_hit_rate": 0.8, "mean_mem_gbps": 3.0, "mean_ipc": 0.9},
            ],
        });
        let lines = corpus_history_records(&report, &summary);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            validate_history(line).expect("corpus class line must validate");
        }
        assert_eq!(lines[0]["corpus_class"], "churn");
        assert_eq!(lines[0]["scenarios"], 1);
        assert_eq!(lines[0]["mean_ops_per_s"], 1.5e6);
        // Wall and accesses are the class figure group's, not the run's.
        assert!((lines[0]["wall_s"].as_f64().unwrap() - 0.22).abs() < 1e-9);
        assert_eq!(lines[0]["accesses"], 500);
        assert_eq!(lines[1]["corpus_class"], "burst");
        assert_eq!(lines[1]["accesses"], 300);
        // Malformed corpus lines are rejected.
        let mut bad = lines[0].clone();
        bad["scenarios"] = Value::Null;
        assert!(validate_history(&bad).is_err());
        bad["corpus_class"] = serde_json::json!(7);
        assert!(validate_history(&bad).is_err());
        assert!(corpus_history_records(&report, &serde_json::json!({})).is_empty());
    }

    #[test]
    fn sampled_history_line_is_tagged_with_mode() {
        let out = fake_sampled_output();
        let opts = RunOptions { sampled: true, ..RunOptions::default() };
        let doc = bench_report(&out, &opts, "release");
        let line = history_record(&doc);
        validate_history(&line).expect("sampled history line must validate");
        assert_eq!(line["mode"], "sampled");
        assert!(
            line["aggregate_job_cost_s"].as_f64().unwrap() > 0.0,
            "sampled lines record the aggregate seconds the fast path took"
        );
    }

    /// Rebuilds a valid report with one top-level field replaced.
    fn with_field(doc: &Value, key: &str, value: Value) -> Value {
        let obj: std::collections::BTreeMap<String, Value> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                let v = if k == key { value.clone() } else { v.clone() };
                (k.clone(), v)
            })
            .collect();
        serde_json::to_value(&obj)
    }

    #[test]
    fn sampled_report_carries_sampling_fields_and_errors() {
        let out = fake_sampled_output();
        let opts = RunOptions { sampled: true, ..RunOptions::default() };
        let mut doc = bench_report(&out, &opts, "release");
        validate(&doc).expect("sampled report must validate");
        assert_eq!(doc["sampled"], true);
        assert_eq!(doc["skipped_epochs"], 9000);
        let figs = doc["figures"].as_array().unwrap();
        assert_eq!(figs[0]["sampled"], true);
        assert_eq!(figs[0]["skipped_epochs"], 9000);
        assert_eq!(figs[1]["sampled"], false);

        attach_sample_errors(&mut doc, &[("figX".to_owned(), 200.0, 203.0)]);
        validate(&doc).expect("report with errors must validate");
        let figs = doc["figures"].as_array().unwrap();
        assert_eq!(figs[0]["headline_exact"], 200.0);
        assert_eq!(figs[0]["headline_sampled"], 203.0);
        let err = figs[0]["sample_error_pct"].as_f64().unwrap();
        assert!((err - 1.5).abs() < 1e-9, "got {err}");
        assert!(figs[1]["sample_error_pct"].is_null(), "untouched figure");
    }

    #[test]
    fn exact_report_rejects_sampling_artifacts() {
        let out = fake_sampled_output();
        // The run claims exact but a figure fast-forwarded: reject.
        let doc = bench_report(&out, &RunOptions::default(), "release");
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn trajectory_dedups_on_fingerprint_and_caps() {
        let out = fake_sampled_output();
        let opts = RunOptions::default();
        let mut out_exact = out;
        for r in &mut out_exact.reports {
            r.sampled = false;
            r.skipped_epochs = 0;
        }
        let doc = bench_report(&out_exact, &opts, "release");
        assert!(trajectory_eligible(&doc, &opts));
        let sampled_doc = bench_report(
            &fake_sampled_output(),
            &RunOptions { sampled: true, ..RunOptions::default() },
            "release",
        );
        assert!(
            !trajectory_eligible(&sampled_doc, &RunOptions { sampled: true, ..RunOptions::default() }),
            "sampled runs never extend the trajectory"
        );

        let t1 = trajectory_update(&Value::Null, &doc);
        validate_trajectory(&t1).expect("self-emitted trajectory validates");
        assert_eq!(t1["runs"].as_array().unwrap().len(), 1);
        // Same fingerprint: re-running replaces instead of appending.
        let t2 = trajectory_update(&t1, &doc);
        assert_eq!(t2["runs"].as_array().unwrap().len(), 1);
        // A changed workload fingerprint appends.
        let mut out2 = fake_output();
        out2.reports[2].outcome = Outcome::Ok;
        out2.reports[2].accesses = 78;
        let doc2 = bench_report(&out2, &opts, "release");
        let t3 = trajectory_update(&t2, &doc2);
        assert_eq!(t3["runs"].as_array().unwrap().len(), 2);
        validate_trajectory(&t3).expect("two-record trajectory validates");
        assert!(t3["runs"][0].get("schema").is_none(), "record drops the line schema tag");

        // Records are checked field by field like history lines.
        let record = t3["runs"][0].clone();
        let with_record = |r: Value| serde_json::json!({ "schema": TRAJECTORY_SCHEMA, "runs": [r] });
        for (key, value) in [
            ("profile", serde_json::json!("bench")),
            ("sampled", serde_json::json!(true)),
            ("mode", Value::Null),
            ("wall_s", serde_json::json!(-1.0)),
            ("slice_workers", Value::Null),
            ("schema", serde_json::json!(HISTORY_SCHEMA)),
        ] {
            let mut bad = record.clone();
            bad[key] = value;
            let err = validate_trajectory(&with_record(bad)).unwrap_err();
            assert!(err.starts_with("trajectory record: "), "{key}: {err}");
        }
        assert!(validate_trajectory(&serde_json::json!({})).is_err());
        assert!(validate_trajectory(&serde_json::json!({
            "schema": TRAJECTORY_SCHEMA, "runs": [],
        }))
        .is_err());
    }

    #[test]
    fn smoke_and_filtered_runs_stay_out_of_the_trajectory() {
        let mut out = fake_output();
        out.reports[2].outcome = Outcome::Ok;
        let doc = bench_report(&out, &RunOptions::default(), "release");
        let smoke = RunOptions { smoke: true, ..RunOptions::default() };
        let only = RunOptions { only: vec!["figX".into()], ..RunOptions::default() };
        assert!(!trajectory_eligible(&doc, &smoke));
        assert!(!trajectory_eligible(&doc, &only));
        let failed = bench_report(&fake_output(), &RunOptions::default(), "release");
        assert!(!trajectory_eligible(&failed, &RunOptions::default()), "figY failed");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&serde_json::json!({})).is_err());
        assert!(validate(&serde_json::json!({"schema": "nope"})).is_err());
        let out = fake_output();
        let opts = RunOptions::default();
        let doc = bench_report(&out, &opts, "release");
        assert!(validate(&with_field(&doc, "figures", serde_json::json!([]))).is_err());
        assert!(validate(&with_field(&doc, "profile", serde_json::json!("bench"))).is_err());
        assert!(validate(&with_field(&doc, "wall_s", serde_json::json!("fast"))).is_err());
        assert!(validate(&with_field(&doc, "accesses", serde_json::json!(-1))).is_err());
        let bad_fig = serde_json::json!([{
            "figure": "figX", "jobs": 1, "wall_s": "fast",
            "accesses": 0, "accesses_per_s": 0.0, "ok": true,
        }]);
        assert!(validate(&with_field(&doc, "figures", bad_fig)).is_err());
    }
}
