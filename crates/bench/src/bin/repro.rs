//! `repro` — regenerate every figure/table capture under `results/` in
//! one deterministic parallel sweep.
//!
//! The output is byte-identical for any `--jobs N` (see the determinism
//! rules in `iat_runner`); `--smoke` runs the cheap deterministic subset
//! and byte-compares it against the committed captures, which is the CI
//! stale-results guard.
//!
//! `--sampled` runs the phase-aware interval-sampling sweep instead:
//! figures that declare a sampling level execute only a warmed measured
//! window per interval and extrapolate the rest. Sampled captures land in
//! `results/sampled/` (gitignored — the committed captures stay exact),
//! and every sampled figure's headline metric is checked against the
//! committed exact capture; a bound violation *or* a silent fallback to
//! exact execution (zero skipped epochs) fails the run.

use iat_bench::corpus::CorpusSpec;
use iat_runner::{
    attach_sample_errors, bench_report, check_outputs, expected_costs, expected_job_costs,
    history_record, load_json, parse_args, print_summary, progress, reset_staging_dirs, run,
    trajectory_eligible, trajectory_update, unknown_filters, validate_history,
    validate_trajectory, write_outputs, USAGE,
};
use std::path::Path;

fn main() {
    let mut cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            if e.is_empty() {
                print!("{USAGE}");
                return;
            }
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.opts.sampled && cli.check {
        eprintln!("error: --check is exact-only (sampled captures never match the committed exact bytes)\n\n{USAGE}");
        std::process::exit(2);
    }
    if cli.corpus.is_some() && (cli.check || cli.opts.smoke || !cli.opts.only.is_empty()) {
        eprintln!("error: --corpus generates its own scenario registry and cannot combine with --check, --smoke or --only\n\n{USAGE}");
        std::process::exit(2);
    }

    let reg = match cli.corpus {
        Some(count) => iat_bench::corpus::registry(CorpusSpec { count, quick: false }),
        None => iat_bench::jobs::registry(),
    };
    if cli.list {
        for name in reg.names() {
            println!("{name}");
        }
        return;
    }
    // An `--only` filter that names no figure group and no job would
    // otherwise select nothing and the run would "succeed" having run
    // zero jobs — reject it up front and show the valid vocabulary.
    let unknown = unknown_filters(&reg, &cli.opts.only);
    if !unknown.is_empty() {
        eprintln!(
            "error: --only [{}] matches no figure group or job\nvalid groups: {}\n(use --list for individual job names)",
            unknown.join(", "),
            reg.groups().join(" "),
        );
        std::process::exit(2);
    }

    let exact_dir = Path::new("results");
    // Sampled and corpus sweeps write to gitignored side directories so
    // they can never clobber the committed exact captures.
    let dir = if cli.corpus.is_some() {
        Path::new("results/corpus")
    } else if cli.opts.sampled {
        Path::new("results/sampled")
    } else {
        exact_dir
    };
    let bench_path = dir.join("BENCH_repro.json");

    // Seed longest-expected-first scheduling from the previous exact run's
    // per-figure costs, when a report exists. Scheduling only — output
    // bytes are identical with or without the hint; a corrupt report is
    // worth a warning (something rewrote it) but never blocks the run.
    match load_json(&exact_dir.join("BENCH_repro.json")) {
        Ok(doc) => {
            cli.opts.expected_costs = expected_costs(&doc);
            cli.opts.expected_job_costs = expected_job_costs(&doc);
        }
        Err(e) if e.is_not_found() => {}
        Err(e) => progress(&format!("warning: ignoring scheduling-hint report: {e}")),
    }

    progress(&format!(
        "repro: {} worker(s), seed {}{}{}{}{}",
        cli.opts.jobs,
        cli.opts.root_seed,
        cli.corpus
            .map_or(String::new(), |n| format!(", corpus of {n}")),
        if cli.opts.sampled { ", sampled" } else { "" },
        if cli.opts.smoke { ", smoke subset" } else { "" },
        if cli.check { ", check mode" } else { "" },
    ));
    // Run-scoped staging directories hold artifacts that are only
    // meaningful for the flags of the run that wrote them (sampled
    // captures, decision logs, corpus summaries). Clear them before any
    // writing run so a previous run's leftovers can never be read as
    // this run's output. Check mode is read-only and leaves them alone.
    if !cli.check {
        if let Err(e) = reset_staging_dirs(exact_dir, &["sampled", "decisions", "corpus"]) {
            progress(&format!("error: clearing staging directories: {e}"));
            std::process::exit(1);
        }
    }
    // Arm observability before any job runs: the span tracer feeds the
    // Chrome trace export, the decision capture feeds the per-group
    // flight-recorder logs. Both are observational — staged outputs stay
    // byte-identical (pinned by the traced-vs-untraced identity test).
    if cli.opts.trace_out.is_some() {
        iat_telemetry::span::install_global();
        iat_telemetry::decision::set_capture(true);
    }
    let out = run(reg, &cli.opts);
    print!("{}", out.stdout);

    let mut exit = 0;
    if cli.check {
        let diverged = check_outputs(&out, dir);
        for d in &diverged {
            progress(&format!("STALE: {d}"));
        }
        if diverged.is_empty() {
            progress(&format!(
                "all {} regenerated file(s) match the committed captures",
                out.files.len()
            ));
        } else {
            progress("regenerate with `cargo run --release -p iat-bench --bin repro` and commit");
            exit = 1;
        }
    } else if let Err(e) = write_outputs(&out, dir) {
        progress(&format!("error: writing {}: {e}", dir.display()));
        exit = 1;
    }

    print_summary(&out, &cli.opts.expected_costs);

    // Corpus runs are graded on their summary artifact: it must exist on
    // disk, validate against the summary schema, and account for every
    // requested scenario — a corpus sweep that ran nothing is an error.
    let mut corpus_summary: Option<serde_json::Value> = None;
    if let Some(count) = cli.corpus {
        let summary_path = dir.join("corpus_summary.json");
        match load_json(&summary_path)
            .and_then(|doc| {
                iat_bench::corpus::validate_corpus_summary(&doc)
                    .map(|ran| (ran, doc))
                    .map_err(|reason| iat_runner::LoadError::Schema {
                        path: summary_path.clone(),
                        reason,
                    })
            }) {
            Ok((ran, doc)) if ran == count => {
                progress(&format!(
                    "corpus summary validates: {ran} scenario(s) ran ({})",
                    summary_path.display()
                ));
                corpus_summary = Some(doc);
            }
            Ok((ran, _)) => {
                progress(&format!(
                    "error: corpus summary covers {ran} scenario(s), expected {count}"
                ));
                exit = 1;
            }
            Err(e) => {
                progress(&format!("error: corpus summary: {e}"));
                exit = 1;
            }
        }
    }

    // Traced runs export the span timeline (Chrome trace-event JSON,
    // loadable in Perfetto) and one decision flight-recorder log per
    // figure group. Both are written even under --check: they are
    // diagnostics, never staged captures.
    if let Some(trace_path) = &cli.opts.trace_out {
        let tracer = iat_telemetry::span::global();
        match tracer.export_chrome_trace() {
            Some(json) => match std::fs::write(trace_path, json) {
                Ok(()) => progress(&format!(
                    "wrote {} ({} span(s), {} dropped)",
                    trace_path.display(),
                    tracer.len(),
                    tracer.dropped()
                )),
                Err(e) => {
                    progress(&format!("error: writing {}: {e}", trace_path.display()));
                    exit = 1;
                }
            },
            None => {
                progress("error: span tracer did not install");
                exit = 1;
            }
        }
        let decisions_dir = dir.join("decisions");
        if let Err(e) = std::fs::create_dir_all(&decisions_dir) {
            progress(&format!("error: creating {}: {e}", decisions_dir.display()));
            exit = 1;
        } else {
            let mut groups: Vec<&str> = Vec::new();
            for r in &out.reports {
                if !groups.contains(&r.group.as_str()) {
                    groups.push(&r.group);
                }
            }
            for group in groups {
                let path = decisions_dir.join(format!("{group}.jsonl"));
                let write = std::fs::File::create(&path).map(|f| {
                    let mut rec = iat_telemetry::JsonlRecorder::new(std::io::BufWriter::new(f));
                    let mut n = 0usize;
                    for r in out.reports.iter().filter(|r| r.group == group) {
                        for ev in &r.decisions {
                            iat_telemetry::Recorder::record(&mut rec, ev.clone());
                            n += 1;
                        }
                    }
                    n
                });
                match write {
                    Ok(n) => progress(&format!("wrote {} ({n} record(s))", path.display())),
                    Err(e) => {
                        progress(&format!("error: writing {}: {e}", path.display()));
                        exit = 1;
                    }
                }
            }
        }
    }

    // Sampled runs are graded against the committed exact captures: every
    // declared figure's headline metric must land within its error bound,
    // and must actually have skipped epochs (a sampled run that silently
    // fell back to exact execution proves nothing about the error bound).
    let mut headlines: Vec<(String, f64, f64)> = Vec::new();
    if cli.opts.sampled && cli.corpus.is_none() {
        match iat_bench::sampling::evaluate_sampled(&out, exact_dir) {
            Ok(checks) => {
                progress("sampled vs committed exact headline metrics:");
                progress(&format!(
                    "  {:<10} {:>12} {:>12} {:>8} {:>7} {:>9} {:>8}",
                    "figure", "exact", "sampled", "err%", "bound%", "skipped", "wall s"
                ));
                for c in &checks {
                    progress(&format!(
                        "  {:<10} {:>12.4} {:>12.4} {:>8.3} {:>7.1} {:>9} {:>8.2}{}",
                        c.figure,
                        c.exact,
                        c.sampled,
                        c.error_pct,
                        c.bound_pct,
                        c.skipped_epochs,
                        c.wall_s,
                        if c.ok() {
                            ""
                        } else if c.skipped_epochs == 0 {
                            "  [FALLBACK]"
                        } else {
                            "  [OUT OF BOUNDS]"
                        },
                    ));
                }
                for c in &checks {
                    if !c.ok() {
                        if c.skipped_epochs == 0 {
                            progress(&format!(
                                "error: {}: sampled run skipped no epochs (silent exact fallback)",
                                c.figure
                            ));
                        } else {
                            progress(&format!(
                                "error: {}: headline error {:.3}% exceeds the {:.1}% bound",
                                c.figure, c.error_pct, c.bound_pct
                            ));
                        }
                        exit = 1;
                    }
                }
                headlines = checks
                    .iter()
                    .map(|c| (c.figure.clone(), c.exact, c.sampled))
                    .collect();
            }
            Err(e) => {
                progress(&format!("error: sampled evaluation: {e}"));
                exit = 1;
            }
        }
        // Convergence checkpoints must actually engage on a full sampled
        // sweep: policy-variant figures (fig10) restore their siblings'
        // converged cold-start state instead of re-simulating it. Zero
        // restores means the fingerprinting regressed and every variant
        // silently paid the full warmup again — the error bounds above
        // would still pass, so assert the mechanism separately.
        let (restores, _computes) = iat_runner::checkpoint::counters();
        if cli.opts.only.is_empty() && !cli.opts.smoke && restores == 0 {
            progress("error: full sampled sweep restored no convergence checkpoints");
            exit = 1;
        }
    }

    // The wall-clock bench report. Never staged through the job files,
    // so it is exempt from the byte-compare above (timings vary run to
    // run; the schema is what CI validates). Check mode (`--check`, and
    // `--smoke`, which implies it) is read-only: it builds the report for
    // the history line below but leaves the committed file alone.
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut report = bench_report(&out, &cli.opts, profile);
    attach_sample_errors(&mut report, &headlines);
    if !cli.check {
        let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&bench_path, format!("{json}\n")))
        {
            Ok(()) => progress(&format!("wrote {}", bench_path.display())),
            Err(e) => {
                progress(&format!("error: writing {}: {e}", bench_path.display()));
                exit = 1;
            }
        }
    }

    // The same run metrics in Prometheus text exposition format, for
    // scraping or ad-hoc `grep`. Gitignored, so unlike the bench report
    // it is written on every run, check mode included.
    let prom_path = dir.join("BENCH_metrics.prom");
    let prom = iat_telemetry::render_prometheus(&out.metrics.snapshot());
    if let Err(e) = std::fs::write(&prom_path, prom) {
        progress(&format!("error: writing {}: {e}", prom_path.display()));
        exit = 1;
    } else {
        progress(&format!("wrote {}", prom_path.display()));
    }

    // Compact lines accumulate in BENCH_history.jsonl (gitignored — wall
    // clock is machine-local) so perf work can see its own trajectory.
    // Figure sweeps append one headline line; corpus runs append one line
    // per scenario class (tagged `corpus_class`, scoped to that class's
    // wall/accesses and mean metrics) so the generated corpus has a
    // trajectory too without conflating it with the figure sweep's.
    let history_lines: Vec<serde_json::Value> = match &corpus_summary {
        Some(summary) => iat_runner::corpus_history_records(&report, summary),
        None if cli.corpus.is_some() => Vec::new(), // summary invalid: exit=1 already
        None => vec![history_record(&report)],
    };
    if !history_lines.is_empty() {
        let history_path = exact_dir.join("BENCH_history.jsonl");
        let mut text = String::new();
        for line in &history_lines {
            validate_history(line).expect("self-emitted history line validates");
            text.push_str(&line.to_string());
            text.push('\n');
        }
        if let Err(e) = std::fs::create_dir_all(exact_dir).and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&history_path)
                .and_then(|mut f| std::io::Write::write_all(&mut f, text.as_bytes()))
        }) {
            progress(&format!("error: appending {}: {e}", history_path.display()));
            exit = 1;
        }
    }

    // Full exact all-ok runs also refresh the committed PR-level trajectory
    // (deduplicated on the run fingerprint, capped — see iat_runner). Check
    // mode regenerates but does not write, so it stays read-only here too;
    // corpus runs never touch it (different job set, different fingerprint).
    if !cli.check && cli.corpus.is_none() && trajectory_eligible(&report, &cli.opts) {
        let trajectory_path = exact_dir.join("BENCH_trajectory.json");
        // The trajectory is a committed capture: silently dropping a
        // corrupt one (the old `.ok()` fallback) would rewrite history
        // from scratch. Absence is the normal first-run case; anything
        // else is a hard error.
        let prev = match load_json(&trajectory_path) {
            Ok(doc) => Some(doc),
            Err(e) if e.is_not_found() => Some(serde_json::Value::Null),
            Err(e) => {
                progress(&format!(
                    "error: committed trajectory is unreadable (fix or remove it): {e}"
                ));
                exit = 1;
                None
            }
        };
        if let Some(prev) = prev {
            // Earlier records carry over as they are, so a stale one (e.g.
            // holding a retired option's key) fails validation here.
            let doc = trajectory_update(&prev, &report);
            if let Err(e) = validate_trajectory(&doc) {
                progress(&format!("error: committed trajectory does not validate: {e}"));
                exit = 1;
            } else {
                let json = serde_json::to_string_pretty(&doc).expect("trajectory serializes");
                match std::fs::write(&trajectory_path, format!("{json}\n")) {
                    Ok(()) => progress(&format!("wrote {}", trajectory_path.display())),
                    Err(e) => {
                        progress(&format!(
                            "error: writing {}: {e}",
                            trajectory_path.display()
                        ));
                        exit = 1;
                    }
                }
            }
        }
    }

    for r in &out.reports {
        if let iat_runner::Outcome::Failed(e) = &r.outcome {
            progress(&format!("error: {}: {e}", r.name));
        }
    }
    if out.failed() {
        exit = 1;
    }
    std::process::exit(exit);
}
