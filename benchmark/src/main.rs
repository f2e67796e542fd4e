//! `benchmark` — the repository benchmark of the IAT reproduction.
//!
//! ```text
//! benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]   one run
//! benchmark run [--seed N] [--runs R] [--seconds S] [--out FILE]      a set
//! benchmark compare A.json B.json
//! ```
//!
//! One run repeats a workload's figure jobs for `--seconds`, each pass a
//! single `iat_runner::run` pinned to one simulation thread, checks the
//! outputs, and prints its metrics; its last stdout line is one JSON
//! object `{correct, attempted, failed, metrics}`. A set runs every
//! workload `--runs` times as fresh child processes, interleaved so
//! machine drift spreads evenly, then one traced run per workload, and
//! writes the medians and quartiles to `benchmark/out/`. `compare` grades
//! one set against another with the bounds in `BENCHMARK.json`.

mod compare;
mod pass;
mod probe;
mod run;
mod set;
mod stats;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage:
  benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
  benchmark run [--seed N] [--runs R] [--seconds S] [--out FILE]
  benchmark compare A.json B.json";

/// Measurement budget of one run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.parent().map_or(dir.clone(), PathBuf::from)
}

/// Where runs write traces and sets (gitignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parses `--flag value` pairs; every flag must be one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

fn run_command(args: &[String]) -> Result<i32, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".to_owned());
    }
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--runs",
        "--out",
        "--results",
    ];
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, DEFAULT_SECONDS, false);
    let (mut runs, mut out, mut results) = (3usize, None, repo_root().join("results"));
    for (flag, value) in flags(args, &known)? {
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = parse(&flag, &value)?,
            "--seconds" => seconds = parse(&flag, &value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--runs" => runs = parse(&flag, &value)?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => results = PathBuf::from(value),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    match workload {
        Some(workload) => Ok(run::run(&run::RunArgs {
            workload,
            seed,
            seconds,
            trace,
            results,
        })),
        None if runs >= 1 => set::run(seed, runs, seconds, out),
        None => Err("--runs must be at least 1".to_owned()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
