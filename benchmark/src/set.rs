//! A set of runs: every workload `runs` times, each run a fresh child
//! process, interleaved round-robin so drift on a shared machine spreads
//! evenly over the workloads; then one traced run per workload. The set
//! file holds each end-to-end metric's median, quartiles and samples,
//! the traced per-layer metrics, and the deterministic values `compare`
//! matches exactly.

use crate::out_dir;
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Schema tag of set files.
pub const SCHEMA: &str = "iat-benchmark-set/v1";

struct Child {
    ok: bool,
    detail: Value,
    result: Value,
}

/// Runs one child `benchmark run --workload ...` and parses its last two
/// stdout lines (detail, result). Its stderr passes through.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    eprintln!(
        "== {workload} seed {seed}{}",
        if trace { " (traced)" } else { "" }
    );
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let mut next_json = || lines.next().and_then(|l| serde_json::from_str(l).ok());
    let result = next_json().ok_or_else(|| format!("{workload}: child printed no result line"))?;
    let detail = next_json()
        .map(|d| d["detail"].clone())
        .unwrap_or(Value::Null);
    let ok = out.status.success() && result["correct"] == Value::Bool(true);
    Ok(Child { ok, detail, result })
}

/// The largest non-null value of `key` across `children`' details.
fn max_detail(children: &[&Child], key: &str) -> Value {
    children
        .iter()
        .filter_map(|c| c.detail[key].as_f64())
        .reduce(f64::max)
        .map_or(Value::Null, Value::from)
}

/// Runs a set and writes it to `out` (default `benchmark/out/`).
pub fn run(seed: u64, runs: usize, seconds: f64, out: Option<PathBuf>) -> Result<i32, String> {
    let mut untraced: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for _ in 0..runs {
        for (i, w) in WORKLOADS.iter().enumerate() {
            untraced[i].push(child(w.name, seed, seconds, false)?);
        }
    }
    let traced: Vec<Child> = WORKLOADS
        .iter()
        .map(|w| child(w.name, seed, seconds, true))
        .collect::<Result<_, _>>()?;

    let mut problems = Vec::new();
    let mut sets = Map::new();
    for ((w, runs_w), tr) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        let all: Vec<&Child> = runs_w.iter().chain([tr]).collect();
        let mut e2e = Map::new();
        for (name, first) in runs_w[0].result["metrics"]
            .as_object()
            .into_iter()
            .flatten()
        {
            let values: Vec<f64> = runs_w
                .iter()
                .map(|c| {
                    c.result["metrics"][name.as_str()]["value"]
                        .as_f64()
                        .unwrap_or(f64::NAN)
                })
                .collect();
            let (q1, median, q3) = quartiles(&values);
            e2e.insert(
                name.clone(),
                json!({ "unit": first["unit"].clone(), "median": median, "q1": q1, "q3": q3,
                        "n": values.len(), "values": values }),
            );
        }
        for key in ["digest", "cachesim.maccesses", "sampler.skipped_epochs"] {
            if all.iter().any(|c| c.detail[key] != all[0].detail[key]) {
                problems.push(format!(
                    "{}: {key} differs between runs of one seed",
                    w.name
                ));
            }
        }
        if let Some(bad) = all.iter().find(|c| !c.ok) {
            problems.push(format!(
                "{}: a run failed its checks: {}",
                w.name, bad.detail["failures"]
            ));
        }
        let sum = |key: &str| {
            all.iter()
                .filter_map(|c| c.result[key].as_u64())
                .sum::<u64>()
        };
        sets.insert(
            w.name.to_owned(),
            json!({
                "correct": all.iter().all(|c| c.ok),
                "attempted": sum("attempted"),
                "failed": sum("failed"),
                "digest": all[0].detail["digest"].clone(),
                "deterministic": {
                    "cachesim.maccesses": all[0].detail["cachesim.maccesses"].clone(),
                    "sampler.skipped_epochs": all[0].detail["sampler.skipped_epochs"].clone(),
                },
                "diverged_captures": max_detail(&all, "diverged_captures"),
                "sampled_max_err_pct": max_detail(&all, "sampled_max_err_pct"),
                "end_to_end": Value::Object(e2e),
                "per_layer": tr.result["metrics"].clone(),
                "loadavg_1m": runs_w.iter().map(|c| c.detail["stamp"]["loadavg_1m"].clone()).collect::<Vec<_>>(),
                "trace_file": tr.detail["trace_file"].clone(),
            }),
        );
    }
    let doc = json!({
        "schema": SCHEMA,
        "seed": seed,
        "runs": runs,
        "seconds": seconds,
        "stamp": untraced[0][0].detail["stamp"].clone(),
        "problems": problems.clone(),
        "workloads": Value::Object(sets),
    });

    let path = out.unwrap_or_else(|| {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        out_dir().join(format!("set-seed{seed}-{secs}.json"))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{}\n", doc.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    eprintln!(
        "\n{:<16} {:<20} {:>12} {:>12} {:>12}",
        "workload", "metric", "q1", "median", "q3"
    );
    for (name, set) in doc["workloads"].as_object().into_iter().flatten() {
        for (metric, s) in set["end_to_end"].as_object().into_iter().flatten() {
            eprintln!(
                "{name:<16} {metric:<20} {:>12.4} {:>12.4} {:>12.4} {}",
                s["q1"].as_f64().unwrap_or(0.0),
                s["median"].as_f64().unwrap_or(0.0),
                s["q3"].as_f64().unwrap_or(0.0),
                s["unit"].as_str().unwrap_or(""),
            );
        }
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    eprintln!("wrote {}", path.display());
    Ok(i32::from(!problems.is_empty()))
}
