//! One benchmark run: repeated passes of one workload for a time budget,
//! the correctness checks, and — when traced — a traced pass plus the
//! probe. Prints every metric with its unit on stderr, then a detail
//! line and the result line on stdout.

use crate::pass::{self, Pass};
use crate::probe;
use crate::stats::{median, percentile};
use crate::workloads::Workload;
use crate::{out_dir, repo_root};
use iat_telemetry::span::{self, SpanTracer};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;

/// What one run was asked to do.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory of committed captures checked at seed 0.
    pub results: PathBuf,
}

/// Timed passes every untraced run makes at least, so each median has
/// three samples even when one pass outlasts the time budget.
const MIN_PASSES: usize = 3;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's stamp: machine, toolchain, commit and pinned config.
fn stamp(w: &Workload, seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").ok().and_then(|s| {
        s.split_whitespace()
            .next()
            .and_then(|v| v.parse::<f64>().ok())
    });
    if load.is_some_and(|l| l > nproc as f64) {
        eprintln!(
            "warning: 1-minute load average {:.2} exceeds {nproc} cores; timings will be noisy",
            load.unwrap_or(0.0)
        );
    }
    let root = repo_root();
    let git_head = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let opts = pass::pinned_options(w, seed);
    json!({
        "nproc": nproc,
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "git_head": git_head,
        "loadavg_1m": load,
        "run_options": {
            "jobs": opts.jobs,
            "slice_workers": opts.slice_workers,
            "gen_workers": opts.gen_workers,
            "sampled": opts.sampled,
            "root_seed": opts.root_seed,
        },
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Epochs per sampler action, summed from the platform's epoch-segment
/// spans in a Chrome trace export.
fn epoch_counts(trace: &str) -> (f64, f64, f64) {
    let doc = serde_json::from_str(trace).unwrap_or(Value::Null);
    let (mut skip, mut warm, mut measure) = (0.0, 0.0, 0.0);
    for e in doc["traceEvents"].as_array().into_iter().flatten() {
        let epochs = e["args"]["epochs"].as_f64().unwrap_or(0.0);
        match e["name"].as_str() {
            Some("epoch.skip") => skip += epochs,
            Some("epoch.warm") => warm += epochs,
            Some("epoch.measure") => measure += epochs,
            _ => {}
        }
    }
    (skip, warm, measure)
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics: medians over the timed passes.
fn end_to_end(passes: &[Pass], rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", per_pass(passes, |p| p.wall_s), "s"),
        metric(
            "sim_maccess_per_s",
            per_pass(passes, |p| p.accesses as f64 / 1e6 / p.wall_s),
            "Maccess/s",
        ),
        metric("setup_s", per_pass(passes, Pass::setup_s), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// What the traced half of a run collected.
struct Traced {
    pass: Pass,
    /// Epochs per sampler action (skip, warm, measure) from the pass's
    /// epoch-segment spans.
    epochs: (f64, f64, f64),
    probe: probe::Timings,
    tracer: SpanTracer,
}

/// Arms span tracing and decision capture, runs one traced pass and the
/// probe, and writes the Chrome trace under `benchmark/out/`.
fn run_traced(w: &Workload, seed: u64) -> (Traced, Result<String, String>) {
    let tracer = span::install_global();
    iat_telemetry::decision::set_capture(true);
    let pass = pass::run(w, seed);
    iat_telemetry::decision::set_capture(false);
    let epochs = epoch_counts(&tracer.export_chrome_trace().unwrap_or_default());
    let probe_seed = iat_runner::derive_seed(seed, "benchmark/probe", "scenario");
    let probe = probe::run(w, probe_seed, &tracer);
    let path = out_dir().join(format!("trace-{}-seed{seed}.json", w.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.export_chrome_trace().unwrap_or_default()))
        .map(|()| {
            path.strip_prefix(repo_root())
                .unwrap_or(&path)
                .display()
                .to_string()
        })
        .map_err(|e| format!("writing {}: {e}", path.display()));
    (
        Traced {
            pass,
            epochs,
            probe,
            tracer,
        },
        written,
    )
}

/// The per-layer metrics, plus the traced run's own checks: phase
/// buckets account for job wall time, probe spans cover the probe loop,
/// and no span was dropped.
fn per_layer(passes: &[Pass], t: &Traced, failures: &mut Vec<String>) -> Vec<Metric> {
    let (tp, probe) = (&t.pass, &t.probe);
    let ph = &tp.phases;
    let buckets =
        ph.setup_ns + ph.warmup_ns + ph.fast_warm_ns + ph.restore_ns + ph.measure_ns + ph.merge_ns;
    let job_s: f64 = tp.job_walls.iter().sum();
    let bucket_err = (buckets as f64 / 1e9 / job_s.max(1e-9) - 1.0).abs();
    if bucket_err > 0.02 {
        failures.push(format!(
            "phase buckets miss job wall by {:.2}%",
            bucket_err * 100.0
        ));
    }
    let coverage = 100.0 * probe.spanned_s / probe.loop_s.max(1e-9);
    if coverage < 98.0 {
        failures.push(format!(
            "probe spans cover only {coverage:.2}% of the probe loop"
        ));
    }
    if t.tracer.dropped() > 0 {
        failures.push(format!("{} spans dropped", t.tracer.dropped()));
    }

    let phase_s = |f: fn(&Pass) -> u64| per_pass(passes, |p| f(p) as f64 / 1e9);
    let flush_s = phase_s(|p| p.phases.flush_ns);
    let front_s = phase_s(|p| {
        (p.phases.warmup_ns + p.phases.fast_warm_ns + p.phases.measure_ns)
            .saturating_sub(p.phases.flush_ns)
    });
    let jobs_s = per_pass(passes, |p| p.job_walls.iter().sum());
    let accesses = tp.accesses.max(1) as f64;
    let reuse = tp.restores as f64 / (tp.restores + tp.computes).max(1) as f64;
    let overhead = 100.0 * (tp.wall_s / per_pass(passes, |p| p.wall_s) - 1.0);
    let (skip, warm, measure) = t.epochs;
    let p50 = |v: &[f64]| percentile(v, 50.0);
    let p99 = |v: &[f64]| percentile(v, 99.0);
    vec![
        metric("cachesim.maccesses", tp.accesses as f64 / 1e6, "Maccess"),
        metric("cachesim.flush_s", flush_s, "s"),
        metric(
            "cachesim.flush_ns_per_access",
            flush_s * 1e9 / accesses,
            "ns",
        ),
        metric(
            "cachesim.flush_share",
            100.0 * flush_s / jobs_s.max(1e-9),
            "%",
        ),
        metric("frontend.s", front_s, "s"),
        metric("frontend.ns_per_access", front_s * 1e9 / accesses, "ns"),
        metric("bench.setup_s", per_pass(passes, Pass::setup_s), "s"),
        metric("bench.compile_ms.p50", p50(&probe.compile_ms), "ms"),
        metric("platform.measure_s", phase_s(|p| p.phases.measure_ns), "s"),
        metric("platform.warm_s", phase_s(|p| p.phases.warmup_ns), "s"),
        metric(
            "platform.fast_warm_s",
            phase_s(|p| p.phases.fast_warm_ns),
            "s",
        ),
        metric("platform.restore_s", phase_s(|p| p.phases.restore_ns), "s"),
        metric(
            "platform.step_epoch_us.p50",
            p50(&probe.step_epoch_us),
            "us",
        ),
        metric(
            "platform.step_epoch_us.p99",
            p99(&probe.step_epoch_us),
            "us",
        ),
        metric(
            "platform.warm_epoch_us.p50",
            p50(&probe.warm_epoch_us),
            "us",
        ),
        metric("platform.epochs.skip", skip, "count"),
        metric("platform.epochs.warm", warm, "count"),
        metric("platform.epochs.measure", measure, "count"),
        metric("sampler.skipped_epochs", tp.skipped_epochs as f64, "count"),
        metric("checkpoint.restores", tp.restores as f64, "count"),
        metric("checkpoint.computes", tp.computes as f64, "count"),
        metric("checkpoint.reuse_ratio", reuse, "ratio"),
        metric("perf.poll_us.p50", p50(&probe.poll_us), "us"),
        metric("perf.poll_us.p99", p99(&probe.poll_us), "us"),
        metric("core.policy_step_us.p50", p50(&probe.policy_step_us), "us"),
        metric("core.decisions", tp.decisions as f64, "count"),
        metric("rdt.msr_writes", probe.msr_writes as f64, "count"),
        metric("runner.jobs", tp.attempted as f64, "count"),
        metric(
            "runner.job_s.p50",
            per_pass(passes, |p| p50(&p.job_walls)),
            "s",
        ),
        metric(
            "runner.job_s.max",
            per_pass(passes, |p| percentile(&p.job_walls, 100.0)),
            "s",
        ),
        metric("runner.merge_s", phase_s(|p| p.phases.merge_ns), "s"),
        metric(
            "runner.overhead_s",
            per_pass(passes, |p| p.wall_s - p.all_jobs_s),
            "s",
        ),
        metric("telemetry.trace_overhead_pct", overhead, "%"),
        metric("telemetry.spans", t.tracer.len() as f64, "count"),
        metric(
            "telemetry.spans_dropped",
            t.tracer.dropped() as f64,
            "count",
        ),
        metric("telemetry.probe_coverage_pct", coverage, "%"),
    ]
}

/// Executes one run and returns the process exit code.
pub fn run(a: &RunArgs) -> i32 {
    let w = a.workload;
    let stamp = stamp(w, a.seed);
    // The first pass of a process runs measurably slower (10-30% on a
    // shared 2-core host) and a `repro` sweep pays that once, not per
    // figure: it is checked like every pass but not timed. Peak memory
    // is read after it, before repeated passes churn allocator arenas.
    let warmup = pass::run(w, a.seed);
    let rss_mb = peak_rss_mb();
    let budget = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let min_passes = if a.trace { 1 } else { MIN_PASSES };
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < budget {
        passes.push(pass::run(w, a.seed));
    }
    let mut failures: Vec<String> = Vec::new();
    let (traced, trace_file) = match a.trace.then(|| run_traced(w, a.seed)) {
        Some((t, Ok(file))) => (Some(t), Some(file)),
        Some((t, Err(e))) => {
            failures.push(e);
            (Some(t), None)
        }
        None => (None, None),
    };

    // Correctness: every job succeeded, every pass produced the same
    // bytes, the sampler engaged, and at seed 0 the committed captures
    // (the exact oracle) agree with what the passes produced.
    let all: Vec<&Pass> = [&warmup]
        .into_iter()
        .chain(&passes)
        .chain(traced.as_ref().map(|t| &t.pass))
        .collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    if failed > 0 {
        failures.push(format!(
            "{failed} of {attempted} jobs failed or were skipped"
        ));
    }
    if all
        .iter()
        .any(|p| p.digest != warmup.digest || p.accesses != warmup.accesses)
    {
        failures.push("passes with the same seed produced different outputs".to_owned());
    }
    if w.sampled && all.iter().any(|p| p.skipped_epochs == 0 || p.restores == 0) {
        failures.push("sampled pass skipped no epochs or restored no checkpoint".to_owned());
    }
    let (mut diverged, mut sampled_err) = (None, None);
    if a.seed == 0 {
        let check = pass::check_captures(w, &warmup, &a.results);
        for d in &check.diverged {
            eprintln!("DIVERGED: {d}");
        }
        if !check.diverged.is_empty() {
            failures.push(format!(
                "{} capture(s) diverge from {}",
                check.diverged.len(),
                a.results.display()
            ));
        }
        for o in &check.out_of_bounds {
            failures.push(format!("sampled error out of bounds: {o}"));
        }
        diverged = Some(check.diverged.len());
        sampled_err = check.sampled_max_err_pct;
    }

    let metrics = match &traced {
        Some(t) => per_layer(&passes, t, &mut failures),
        None => end_to_end(&passes, rss_mb),
    };
    eprintln!(
        "\n{} seed {} ({} timed pass(es){}):",
        w.name,
        a.seed,
        passes.len(),
        if a.trace {
            " + traced pass + probe"
        } else {
            ""
        }
    );
    for m in &metrics {
        eprintln!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = &traced {
        let p = &t.probe;
        eprintln!(
            "  probe samples: {} epochs ({:.1}% in LLC flush), {} polls, {} policy steps, {} builds",
            p.step_epoch_us.len(),
            p.flush_ns as f64 / 10.0 / p.step_epoch_us.iter().sum::<f64>().max(1e-9),
            p.poll_us.len(),
            p.policy_step_us.len(),
            p.compile_ms.len()
        );
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }

    let detail = json!({
        "detail": {
            "workload": w.name,
            "seed": a.seed,
            "trace": a.trace,
            "passes": passes.len(),
            "pass_wall_s": passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            "digest": format!("{:016x}", warmup.digest),
            "cachesim.maccesses": warmup.accesses as f64 / 1e6,
            "sampler.skipped_epochs": warmup.skipped_epochs,
            "diverged_captures": diverged,
            "sampled_max_err_pct": sampled_err,
            "failures": failures,
            "trace_file": trace_file,
            "stamp": stamp,
        }
    });
    let mut values = serde_json::Map::new();
    for m in &metrics {
        values.insert(
            m.name.to_owned(),
            json!({ "value": m.value, "unit": m.unit }),
        );
    }
    let result = json!({
        "correct": failures.is_empty(),
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(values),
    });
    println!("{detail}");
    println!("{result}");
    i32::from(!failures.is_empty())
}
