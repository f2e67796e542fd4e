//! Guards the committed wall-clock bench artifacts: `results/BENCH_repro.json`
//! must parse and satisfy the current report schema, and its figure list
//! must cover every job group the registry defines;
//! `results/BENCH_trajectory.json` must satisfy the trajectory schema.
//! (Timings themselves are machine-dependent and deliberately not
//! byte-compared — see `iat_runner::bench_report`.)

use iat_runner::{validate_bench_report, validate_trajectory};
use std::path::Path;

fn committed(name: &str) -> serde_json::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); regenerate with `cargo run --release -p iat-bench --bin repro`",
            path.display()
        )
    });
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} parses: {e}"))
}

fn committed_report() -> serde_json::Value {
    committed("BENCH_repro.json")
}

#[test]
fn committed_trajectory_is_schema_valid() {
    let doc = committed("BENCH_trajectory.json");
    validate_trajectory(&doc).expect("committed BENCH_trajectory.json validates");
}

#[test]
fn committed_bench_report_is_schema_valid() {
    let doc = committed_report();
    validate_bench_report(&doc).expect("committed BENCH_repro.json validates");
}

#[test]
fn committed_bench_report_covers_every_figure_group() {
    let doc = committed_report();
    let covered: Vec<&str> = doc["figures"]
        .as_array()
        .expect("figures array")
        .iter()
        .map(|f| f["figure"].as_str().expect("figure name"))
        .collect();
    let reg = iat_bench::jobs::registry();
    let mut missing: Vec<String> = Vec::new();
    for name in reg.names() {
        let group = name.split('/').next().expect("nonempty name");
        if !covered.contains(&group) && !missing.iter().any(|m| m == group) {
            missing.push(group.to_owned());
        }
    }
    assert!(
        missing.is_empty(),
        "BENCH_repro.json covers no jobs for group(s) {missing:?}; \
         regenerate with `cargo run --release -p iat-bench --bin repro`"
    );
}

#[test]
fn committed_bench_report_is_a_full_release_run() {
    let doc = committed_report();
    assert_eq!(
        doc["profile"].as_str(),
        Some("release"),
        "commit the report from a release-profile run"
    );
    assert_eq!(
        doc["smoke"].as_bool(),
        Some(false),
        "commit the report from a full (non-smoke) run"
    );
    assert!(
        doc["accesses"].as_u64().expect("accesses") > 0,
        "a full sweep simulates a nonzero number of cache accesses"
    );
}
