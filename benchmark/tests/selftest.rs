//! Self-test of the benchmark: drives the `benchmark` binary through the
//! same child-process protocol the `run` sets use, on the test-only
//! `smoke` workload (table1 + fig03, whole groups).

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark sits in the repo")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

struct Run {
    ok: bool,
    detail: Value,
    result: Value,
}

fn smoke(seed: u64, trace: bool, results: Option<&Path>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args([
        "run",
        "--workload",
        "smoke",
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(dir) = results {
        cmd.arg("--results").arg(dir);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected detail and result lines, got {text:?}"
    );
    let result = serde_json::from_str(lines[lines.len() - 1]).expect("result line is JSON");
    let detail: Value = serde_json::from_str(lines[lines.len() - 2]).expect("detail line is JSON");
    Run {
        ok: out.status.success(),
        detail: detail["detail"].clone(),
        result,
    }
}

/// FNV-1a of every file under `dir`, by relative path.
fn hashes(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable results dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable capture");
                let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                out.insert(path.strip_prefix(dir).expect("under dir").to_path_buf(), h);
            }
        }
    }
    out
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let spec = spec();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let run = smoke(0, trace, None);
        assert!(run.ok, "smoke run failed: {}", run.detail["failures"]);
        assert_eq!(run.result["correct"], Value::Bool(true));
        assert_eq!(run.result["failed"], Value::from(0u64));
        assert!(run.result["attempted"].as_u64().unwrap_or(0) >= 1);
        let metrics = run.result["metrics"].as_object().expect("metrics object");
        let declared = spec[key].as_array().expect("declared metrics");
        assert_eq!(
            metrics.len(),
            declared.len(),
            "{key}: emitted {:?}",
            metrics.keys()
        );
        for m in declared {
            let name = m["name"].as_str().expect("metric name");
            let got = &metrics[name];
            assert_eq!(got["unit"], m["unit"], "{name}");
            assert!(
                got["value"].as_f64().is_some_and(f64::is_finite),
                "{name}: {got}"
            );
        }
        if trace {
            assert_eq!(
                metrics["telemetry.spans_dropped"]["value"],
                Value::from(0.0)
            );
            assert!(
                metrics["telemetry.probe_coverage_pct"]["value"]
                    .as_f64()
                    .unwrap_or(0.0)
                    >= 98.0
            );
        }
    }
}

#[test]
fn metric_names_and_counts_stay_within_limits() {
    let spec = spec();
    let e2e = spec["end_to_end"].as_array().expect("end_to_end");
    let per_layer = spec["per_layer"].as_array().expect("per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for m in e2e.iter().chain(per_layer) {
        let name = m["name"].as_str().expect("name");
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(seen.insert(name), "duplicate metric {name}");
    }
    let setup = e2e
        .iter()
        .find(|m| m["name"] == "setup_s")
        .expect("setup_s declared");
    assert_eq!(
        (setup["unit"].as_str(), setup["better"].as_str()),
        (Some("s"), Some("lower"))
    );
    let largest = e2e
        .iter()
        .filter_map(|m| m["bound"].as_f64())
        .fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(
        setup["bound"].as_f64(),
        Some(largest),
        "setup_s carries the largest bound"
    );
}

#[test]
fn runs_leave_committed_captures_untouched() {
    let results = repo().join("results");
    let before = hashes(&results);
    let run = smoke(0, false, None);
    assert!(run.ok, "smoke run failed: {}", run.detail["failures"]);
    assert_eq!(run.detail["diverged_captures"], Value::from(0u64));
    assert_eq!(hashes(&results), before);
}

#[test]
fn a_corrupted_capture_is_reported_as_one_divergence() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-results");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp results dir");
    for entry in std::fs::read_dir(repo().join("results")).expect("results dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, dir.join(path.file_name().expect("file name")))
                .expect("copy capture");
        }
    }
    let capture = dir.join("fig03.json");
    let text = std::fs::read_to_string(&capture).expect("fig03 capture");
    let corrupted = text.replacen("\"ring\": 1024", "\"ring\": 1025", 1);
    assert_ne!(corrupted, text, "the corruption must change the capture");
    std::fs::write(&capture, corrupted).expect("write corrupted capture");

    let run = smoke(0, false, Some(&dir));
    assert!(!run.ok, "a diverged capture must fail the run");
    assert_eq!(run.result["correct"], Value::Bool(false));
    assert_eq!(run.detail["diverged_captures"], Value::from(1u64));
    // Metrics are still printed in full before the non-zero exit.
    assert_eq!(run.result["metrics"].as_object().map(|m| m.len()), Some(4));
    std::fs::remove_dir_all(&dir).expect("remove temp results");
}

#[test]
fn held_out_seed_passes_the_determinism_check() {
    let run = smoke(1, false, None);
    assert!(run.ok, "seed 1 run failed: {}", run.detail["failures"]);
    assert!(run.detail["passes"].as_u64().unwrap_or(0) >= 3);
    assert!(
        run.detail["diverged_captures"].is_null(),
        "captures are checked at seed 0 only"
    );
}
