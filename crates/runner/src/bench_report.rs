//! The wall-clock bench report (`BENCH_repro.json`), the one record of a
//! sweep's wall clock, and the end-of-run cost summary printed from the
//! same per-figure fold.
//!
//! The report is *metadata about a run*, not a determinism capture: a
//! writing sweep rewrites it, `--check` neither byte-compares nor writes
//! it (wall clock differs machine to machine), and CI validates the
//! committed one with [`validate`].
//!
//! The `iat-bench-repro/v8` shape:
//!
//! * top level: `schema`, `profile` (`"release"` or `"debug"`), `smoke`,
//!   `sampled`, `jobs` (worker count), `root_seed`, `wall_s` (the sweep's
//!   wall clock), `aggregate_job_cost_s` (the sum of job walls),
//!   `accesses`, `skipped_epochs`, `accesses_per_s` (accesses over the
//!   job cost of the figures that simulate any), `phase_ns` and
//!   `figures`;
//! * one `figures` entry per group, in registration order: `figure`,
//!   `jobs`, `wall_s`, `accesses`, `accesses_per_s` (omitted for
//!   access-free groups such as the static tables), `sampled`,
//!   `skipped_epochs`, `phase_ns`, `job_wall_s` (each job's wall seconds,
//!   the next run's scheduling hint) and `ok`; sampled runs add
//!   `headline_exact`, `headline_sampled` and `sample_error_pct` (see
//!   [`attach_sample_errors`]);
//! * `phase_ns` holds exactly the seven nanosecond keys of
//!   [`PhaseBreakdown`]: `setup`, `warmup`, `fast_warm`, `restore`,
//!   `measure`, `flush` and `merge`. Flush nests inside the epoch
//!   buckets, so the keys do not sum to the wall clock.
//!
//! An exact report carries no sampled figure and no skipped epoch. A
//! document with any other schema tag is refused, never read through a
//! compat path.

use crate::exec::{JobReport, Outcome, RunOptions, RunOutput};
use iat_telemetry::PhaseBreakdown;
use serde_json::{json, Value};

/// Schema tag stamped into every report; bump when the shape (module
/// doc) changes.
pub const BENCH_SCHEMA: &str = "iat-bench-repro/v8";

/// One figure group's jobs folded together.
#[derive(Default)]
struct GroupCost {
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

/// Folds job reports by figure group, in first-registration order: the
/// one fold behind both [`bench_report`] and [`cost_summary`].
fn fold_groups(reports: &[JobReport]) -> Vec<GroupCost> {
    let mut groups: Vec<GroupCost> = Vec::new();
    for r in reports {
        let i = match groups.iter().position(|g| g.figure == r.group) {
            Some(i) => i,
            None => {
                groups.push(GroupCost {
                    figure: r.group.clone(),
                    ok: true,
                    ..GroupCost::default()
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[i];
        let wall = r.wall.as_secs_f64();
        g.wall += wall;
        g.jobs += 1;
        g.accesses += r.accesses;
        g.sampled |= r.sampled;
        g.skipped += r.skipped_epochs;
        g.ok &= r.outcome == Outcome::Ok;
        g.phases.add(&r.phases);
        g.job_walls.push((r.name.clone(), wall));
    }
    groups
}

/// `(aggregate job cost, job cost of the groups that simulate accesses,
/// accesses)` over folded groups. Static-table groups stay out of the
/// throughput denominator: they would only dilute it.
fn totals(groups: &[GroupCost]) -> (f64, f64, u64) {
    let busy = groups.iter().map(|g| g.wall).sum();
    let sim_busy = groups
        .iter()
        .filter(|g| g.accesses > 0)
        .map(|g| g.wall)
        .sum();
    (busy, sim_busy, groups.iter().map(|g| g.accesses).sum())
}

/// Builds the `BENCH_repro.json` document for one sweep execution.
///
/// `profile` is the build profile the sweep ran under (`"release"` or
/// `"debug"` — callers pass a `cfg!(debug_assertions)`-derived value so
/// debug-profile numbers are never mistaken for a release baseline).
pub fn bench_report(out: &RunOutput, opts: &RunOptions, profile: &str) -> Value {
    let groups = fold_groups(&out.reports);
    let (busy, sim_busy, accesses) = totals(&groups);
    let skipped: u64 = groups.iter().map(|g| g.skipped).sum();
    let mut phases = PhaseBreakdown::default();
    for g in &groups {
        phases.add(&g.phases);
    }
    let figures: Vec<Value> = groups
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

/// The wall-clock + per-figure cost summary, one line per figure group
/// with simulated-access throughput where jobs reported it, for the
/// caller to print.
///
/// `expected` is the previous run's per-figure cost (typically
/// [`RunOptions::expected_costs`], loaded from the last committed
/// `BENCH_repro.json`); when a group has history, the `vs prev` column
/// shows this run's speedup (`3.1x`) or slowdown (`0.8x`) against it.
pub fn cost_summary(out: &RunOutput, expected: &[(String, f64)]) -> String {
    let groups = fold_groups(&out.reports);
    let (busy, sim_busy, accesses) = totals(&groups);
    let rule = "-".repeat(105);
    let mut lines = vec![
        String::new(),
        "figure        jobs      cost   accesses   acc/s  vs prev  front/flush  setup/warm/fwarm/rest/meas/flush/merge".to_owned(),
        rule.clone(),
    ];
    for g in &groups {
        // Access-free groups (static tables) have no meaningful
        // throughput — print a dash rather than a bogus `0 acc/s`.
        let (acc_col, rate_col) = if g.accesses == 0 {
            ("-".to_owned(), "-".to_owned())
        } else {
            (
                human_count(g.accesses),
                human_count((g.accesses as f64 / g.wall.max(1e-9)) as u64),
            )
        };
        let delta_col = expected
            .iter()
            .find(|(name, _)| name == &g.figure)
            .map_or("-".to_owned(), |(_, prev)| {
                format!("{:.1}x", prev / g.wall.max(1e-9))
            });
        let s = |ns: u64| format!("{:.1}", ns as f64 / 1e9);
        let p = &g.phases;
        // Front end = epoch time outside the LLC flush (traffic,
        // workload access streams, window cutting); flush nests inside
        // the epoch buckets, so the difference is the front-end-vs-flush
        // split.
        let epoch_ns = p.warmup_ns + p.fast_warm_ns + p.restore_ns + p.measure_ns;
        let front_flush = format!(
            "{}/{} s",
            s(epoch_ns.saturating_sub(p.flush_ns)),
            s(p.flush_ns)
        );
        let split = format!(
            "{}/{}/{}/{}/{}/{}/{} s",
            s(p.setup_ns),
            s(p.warmup_ns),
            s(p.fast_warm_ns),
            s(p.restore_ns),
            s(p.measure_ns),
            s(p.flush_ns),
            s(p.merge_ns)
        );
        lines.push(format!(
            "{:<12} {:>5} {:>7.2} s {:>8} {:>7} {:>7}  {:>11}  {:>37}{}{}",
            g.figure,
            g.jobs,
            g.wall,
            acc_col,
            rate_col,
            delta_col,
            front_flush,
            split,
            if g.sampled { "  [sampled]" } else { "" },
            if g.ok { "" } else { "  [FAILED]" }
        ));
    }
    lines.push(rule);
    let (restores, computes) = crate::checkpoint::counters();
    if restores + computes > 0 {
        lines.push(format!(
            "convergence checkpoints: {computes} computed, {restores} restored"
        ));
    }
    lines.push(format!(
        "wall {:.2} s, aggregate job cost {busy:.2} s ({:.2}x concurrency), {} files, {} msr writes traced",
        out.wall.as_secs_f64(),
        busy / out.wall.as_secs_f64().max(1e-9),
        out.files.len(),
        out.metrics.counter("daemon.msr_writes"),
    ));
    lines.push(format!(
        "{} cache accesses simulated, {}/s of aggregate job time",
        human_count(accesses),
        human_count((accesses as f64 / sim_busy.max(1e-9)) as u64),
    ));
    lines.join("\n")
}

/// Formats a count with a binary-free human suffix (`12.3M`, `4.5G`).
fn human_count(n: u64) -> String {
    let n = n as f64;
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
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

    /// The printed summary comes from the same fold as the report: one
    /// row per group with its job count, wall, `vs prev` ratio and
    /// failure mark.
    #[test]
    fn cost_summary_prints_the_report_fold() {
        let out = fake_output();
        let doc = bench_report(&out, &RunOptions::default(), "release");
        let text = cost_summary(&out, &[("figX".to_owned(), 0.6)]);
        // figure, jobs, cost, "s", accesses, acc/s, vs prev, front/flush, …
        let cols = |figure: &str| -> Vec<String> {
            text.lines()
                .find(|l| l.split_whitespace().next() == Some(figure))
                .unwrap_or_else(|| panic!("no {figure} row in\n{text}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        for f in doc["figures"].as_array().unwrap() {
            let row = cols(f["figure"].as_str().unwrap());
            assert_eq!(row[1], f["jobs"].to_string());
            assert_eq!(row[2], format!("{:.2}", f["wall_s"].as_f64().unwrap()));
        }
        assert_eq!(cols("figX")[4..7], ["1.0k", "3.3k", "2.0x"]);
        assert_eq!(cols("figY").last().map(String::as_str), Some("[FAILED]"));
        assert_eq!(cols("tableZ")[4..7], ["-", "-", "-"], "access-free, no history");
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
        // A v7 document (tag plus the `slice_workers` field) is refused
        // outright rather than read through a compat path.
        let mut v7 = with_field(&doc, "schema", serde_json::json!("iat-bench-repro/v7"));
        v7["slice_workers"] = serde_json::json!(1);
        let err = validate(&v7).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
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
