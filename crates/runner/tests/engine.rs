//! Engine-level tests: scheduling determinism, artifact flow, failure
//! cascades, and selection filters — all with synthetic jobs, no
//! simulator involved.

use iat_runner::{cost_summary, run, JobSpec, Outcome, Registry, RunOptions};
use serde_json::{json, Value};

fn opts(jobs: usize) -> RunOptions {
    RunOptions {
        jobs,
        only: Vec::new(),
        smoke: false,
        root_seed: 0,
        ..RunOptions::default()
    }
}

/// A diamond graph whose merge job concatenates leaf artifacts; output
/// must not depend on worker count.
fn diamond() -> Registry {
    let mut reg = Registry::new();
    for name in ["d/left", "d/right"] {
        reg.add(JobSpec::new(name, "d", move |ctx| {
            // Stagger leaf runtimes so multi-worker runs finish out of
            // registration order.
            if name.ends_with("left") {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            ctx.outln(&format!("{name} seed={}", ctx.seed("x")));
            ctx.save_bytes(
                &format!("{}.bin", name.replace('/', "_")),
                vec![ctx.seed("x") as u8],
            );
            Ok(json!({ "name": name, "seed": ctx.seed("x") }))
        }));
    }
    reg.add(
        JobSpec::new("d", "d", |ctx| {
            let l = ctx.dep("d/left")["seed"].as_u64().expect("left seed");
            let r = ctx.dep("d/right")["seed"].as_u64().expect("right seed");
            ctx.outln(&format!("merged {l}+{r}"));
            ctx.save_json("d", &json!([l, r]));
            Ok(Value::Null)
        })
        .deps(&["d/left", "d/right"]),
    );
    reg
}

#[test]
fn one_worker_and_many_are_byte_identical() {
    let a = run(diamond(), &opts(1));
    let b = run(diamond(), &opts(4));
    assert!(!a.failed() && !b.failed());
    assert_eq!(a.stdout, b.stdout);
    assert_eq!(a.files, b.files);
    let names: Vec<&str> = a.files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["d_left.bin", "d_right.bin", "d.json", "d.txt"]);
    assert_eq!(a.metrics.snapshot(), b.metrics.snapshot());
}

#[test]
fn merge_runs_after_its_leaves_and_sees_artifacts() {
    let out = run(diamond(), &opts(4));
    // The merge job's output references both leaves' derived seeds.
    let l = iat_runner::derive_seed(0, "d/left", "x");
    let r = iat_runner::derive_seed(0, "d/right", "x");
    assert!(out.stdout.contains(&format!("merged {l}+{r}")));
    // Group console capture lands as d.txt after the jobs' own files.
    let names: Vec<&str> = out.files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["d_left.bin", "d_right.bin", "d.json", "d.txt"]);
}

#[test]
fn summary_counts_console_captures_as_files() {
    let mut reg = Registry::new();
    reg.add(JobSpec::new("s", "s", |ctx| {
        ctx.outln("one line");
        ctx.save_bytes("s.bin", vec![1]);
        Ok(Value::Null)
    }));
    let out = run(reg, &opts(1));
    let names: Vec<&str> = out.files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["s.bin", "s.txt"]);
    let summary = cost_summary(&out, &[]);
    assert!(summary.contains(", 2 files, "), "{summary}");
}

#[test]
fn failure_skips_dependents_not_siblings() {
    let mut reg = Registry::new();
    reg.add(JobSpec::new("a/leaf", "a", |_| Err("boom".into())));
    reg.add(JobSpec::new("a", "a", |_| Ok(Value::Null)).deps(&["a/leaf"]));
    reg.add(JobSpec::new("b", "b", |ctx| {
        ctx.outln("b ran");
        Ok(Value::Null)
    }));
    let out = run(reg, &opts(2));
    assert!(out.failed());
    let outcome = |name: &str| {
        out.reports
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.outcome.clone())
            .expect("report")
    };
    assert!(matches!(outcome("a/leaf"), Outcome::Failed(_)));
    assert_eq!(outcome("a"), Outcome::Skipped);
    assert_eq!(outcome("b"), Outcome::Ok);
    assert!(out.stdout.contains("b ran"));
}

#[test]
fn panics_are_contained_as_failures() {
    let mut reg = Registry::new();
    reg.add(JobSpec::new("p", "p", |_| -> Result<Value, String> {
        panic!("kaboom {}", 42)
    }));
    reg.add(JobSpec::new("q", "q", |_| Ok(Value::Null)));
    let out = run(reg, &opts(2));
    let p = out
        .reports
        .iter()
        .find(|r| r.name == "p")
        .expect("p report");
    match &p.outcome {
        Outcome::Failed(msg) => assert!(msg.contains("kaboom"), "got {msg:?}"),
        other => panic!("expected failure, got {other:?}"),
    }
    assert_eq!(
        out.reports
            .iter()
            .find(|r| r.name == "q")
            .expect("q")
            .outcome,
        Outcome::Ok
    );
}

#[test]
fn only_filter_pulls_transitive_deps() {
    let mut reg = diamond();
    reg.add(JobSpec::new("other", "other", |_| Ok(Value::Null)));
    let out = run(
        reg,
        &RunOptions {
            jobs: 2,
            only: vec!["d".into()],
            smoke: false,
            root_seed: 0,
            ..RunOptions::default()
        },
    );
    let names: Vec<&str> = out.reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["d/left", "d/right", "d"]);
}

#[test]
fn smoke_selects_only_tagged_jobs() {
    let mut reg = diamond();
    reg.add(
        JobSpec::new("cheap", "cheap", |ctx| {
            assert!(ctx.smoke());
            Ok(Value::Null)
        })
        .smoke(),
    );
    let out = run(
        reg,
        &RunOptions {
            jobs: 2,
            only: Vec::new(),
            smoke: true,
            root_seed: 0,
            ..RunOptions::default()
        },
    );
    let names: Vec<&str> = out.reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["cheap"]);
}

#[test]
fn root_seed_reaches_every_job() {
    let base = run(diamond(), &opts(2));
    let reseeded = run(
        diamond(),
        &RunOptions {
            jobs: 2,
            only: Vec::new(),
            smoke: false,
            root_seed: 1,
            ..RunOptions::default()
        },
    );
    assert_ne!(base.files, reseeded.files);
}

#[test]
#[should_panic(expected = "unregistered")]
fn forward_deps_are_rejected() {
    let mut reg = Registry::new();
    reg.add(JobSpec::new("late", "g", |_| Ok(Value::Null)).deps(&["not-yet"]));
}

#[test]
fn unknown_filters_flags_names_matching_nothing() {
    let reg = diamond();
    let only = vec![
        "d".to_owned(),        // group (and merge-job name)
        "d/left".to_owned(),   // job name
        "fig99".to_owned(),    // matches nothing
        "d/middle".to_owned(), // matches nothing
    ];
    assert_eq!(
        iat_runner::unknown_filters(&reg, &only),
        vec!["fig99".to_owned(), "d/middle".to_owned()]
    );
    assert!(iat_runner::unknown_filters(&reg, &[]).is_empty());
}

#[test]
fn reset_staging_dirs_clears_only_the_named_subdirs() {
    let base = std::env::temp_dir().join("iat-runner-reset-test");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(base.join("sampled/nested")).unwrap();
    std::fs::create_dir_all(base.join("keep")).unwrap();
    std::fs::write(base.join("sampled/stale.json"), b"{}").unwrap();
    std::fs::write(base.join("keep/capture.json"), b"{}").unwrap();
    std::fs::write(base.join("toplevel.json"), b"{}").unwrap();

    // "corpus" does not exist — absence must not be an error.
    iat_runner::reset_staging_dirs(&base, &["sampled", "corpus"]).unwrap();

    assert!(!base.join("sampled").exists(), "stale staging dir survives");
    assert!(base.join("keep/capture.json").exists(), "unrelated dir clobbered");
    assert!(base.join("toplevel.json").exists(), "base contents clobbered");
    std::fs::remove_dir_all(&base).ok();
}
