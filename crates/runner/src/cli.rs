//! Argument parsing for the `repro` binary.

use crate::RunOptions;

/// Parsed `repro` command line.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Engine options.
    pub opts: RunOptions,
    /// Byte-compare staged outputs against `results/` instead of
    /// writing (implied by `--smoke`).
    pub check: bool,
    /// List jobs and exit.
    pub list: bool,
    /// Run the generated scenario corpus with this many scenarios
    /// instead of the figure registry (`--corpus N`).
    pub corpus: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: default_jobs(),
            only: Vec::new(),
            smoke: false,
            root_seed: 0,
            slice_workers: None,
            gen_workers: None,
            sampled: false,
            expected_costs: Vec::new(),
            expected_job_costs: Vec::new(),
            trace_out: None,
        }
    }
}

/// Default worker count: the machine's parallelism, capped at 8 (the
/// sweep has ~50 jobs; more workers than that buys nothing).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
}

/// Usage text for `repro --help`.
pub const USAGE: &str = "\
repro — regenerate every figure/table capture under results/

USAGE:
    repro [--jobs N] [--slice-workers N] [--only NAME]...
          [--sampled] [--smoke] [--check] [--seed N] [--corpus N]
          [--trace-out PATH] [--list]

OPTIONS:
    --jobs N     worker threads, N >= 1 (default: min(cores, 8));
                 output is byte-identical for every N
    --slice-workers N
                 slice workers per batched LLC flush, N >= 1 (default:
                 auto — sized from the spare core budget); output is
                 byte-identical for every setting
    --only NAME  run one figure group (e.g. fig12) or a single job
                 (e.g. fig12/rocksdb); repeatable
    --sampled    phase-aware interval sampling: jobs that declared
                 eligibility fast-forward between representative
                 warmed-up windows and extrapolate; outputs go to
                 results/sampled/ with per-figure error bounds against
                 the committed exact captures (exact mode, the default,
                 stays the oracle)
    --smoke      run only the cheap deterministic subset and byte-compare
                 it against the committed captures (implies --check)
    --check      byte-compare regenerated outputs against results/
                 instead of writing; exit 1 on divergence
    --seed N     root seed for per-job seed derivation (default 0 — the
                 committed captures' seed)
    --corpus N   run N deterministic randomized scenarios (the generated
                 corpus) instead of the figure registry; outputs go to
                 results/corpus/ with a per-class summary artifact.
                 Combine with --sampled and --seed; incompatible with
                 --check/--smoke/--only
    --trace-out PATH
                 arm the span tracer and the decision flight recorder;
                 write a Chrome trace-event JSON (Perfetto-loadable) to
                 PATH and per-group daemon decision logs to
                 results/decisions/<group>.jsonl. Observational only:
                 staged outputs stay byte-identical
    --list       list jobs and exit
";

/// Parses `repro` arguments.
///
/// # Errors
///
/// Returns a message (print it with [`USAGE`]) on unknown flags or
/// malformed values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.opts.jobs = parse_workers(
                    "--jobs",
                    &v,
                    "N >= 1 worker threads; omit the flag for min(cores, 8)",
                )? as usize;
            }
            "--slice-workers" => {
                let v = it.next().ok_or("--slice-workers needs a value")?;
                cli.opts.slice_workers = Some(parse_workers(
                    "--slice-workers",
                    &v,
                    "N >= 1 slice workers per flush; omit the flag for auto",
                )?);
            }
            "--only" => {
                cli.opts.only.push(it.next().ok_or("--only needs a value")?);
            }
            "--sampled" => cli.opts.sampled = true,
            "--smoke" => {
                cli.opts.smoke = true;
                cli.check = true;
            }
            "--check" => cli.check = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cli.opts.root_seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad --corpus value {v:?}"))?;
                if n == 0 {
                    return Err("--corpus needs at least one scenario".into());
                }
                cli.corpus = Some(n);
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                cli.opts.trace_out = Some(v.into());
            }
            "--list" => cli.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Parses a worker-count value of `flag`, rejecting anything that is not
/// a positive integer — never clamping — with a message naming the
/// `accepted` values.
fn parse_workers(flag: &str, v: &str, accepted: &str) -> Result<u32, String> {
    match v.parse::<u32>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad {flag} value {v:?} (accepted: {accepted})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let cli = parse_args(
            [
                "--jobs", "4", "--only", "fig12", "--only", "fig13/a", "--seed", "7", "--check",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(cli.opts.jobs, 4);
        assert_eq!(
            cli.opts.only,
            vec!["fig12".to_owned(), "fig13/a".to_owned()]
        );
        assert_eq!(cli.opts.root_seed, 7);
        assert!(cli.check && !cli.opts.smoke && !cli.list);
        assert_eq!(cli.opts.slice_workers, None, "default is auto");
    }

    #[test]
    fn parses_slice_workers() {
        let cli = parse_args(["--slice-workers".to_owned(), "1".to_owned()]).unwrap();
        assert_eq!(cli.opts.slice_workers, Some(1));
        let cli = parse_args(["--slice-workers".to_owned(), "4".to_owned()]).unwrap();
        assert_eq!(cli.opts.slice_workers, Some(4));
        // Out-of-range values are rejected with the accepted ones, never
        // clamped.
        for bad in ["0", "auto", "-1"] {
            let err = parse_args(["--slice-workers".to_owned(), bad.to_owned()]).unwrap_err();
            assert!(err.contains("N >= 1") && err.contains("auto"), "{bad}: {err}");
        }
        assert!(parse_args(["--slice-workers".to_owned()]).is_err());
    }

    #[test]
    fn rejects_gen_workers() {
        // The generation-worker lane is gone; its flag is an unknown
        // argument like any other.
        let err = parse_args(["--gen-workers".to_owned(), "2".to_owned()]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn smoke_implies_check() {
        let cli = parse_args(["--smoke".to_owned()]).unwrap();
        assert!(cli.opts.smoke && cli.check);
    }

    #[test]
    fn parses_sampled() {
        let cli = parse_args(["--sampled".to_owned()]).unwrap();
        assert!(cli.opts.sampled);
        assert!(!parse_args(Vec::new()).unwrap().opts.sampled, "exact is the default");
    }

    #[test]
    fn parses_trace_out() {
        let cli = parse_args(["--trace-out".to_owned(), "/tmp/t.json".to_owned()]).unwrap();
        assert_eq!(
            cli.opts.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert!(parse_args(Vec::new()).unwrap().opts.trace_out.is_none(), "off by default");
        assert!(parse_args(["--trace-out".to_owned()]).is_err(), "path required");
    }

    #[test]
    fn parses_corpus() {
        let cli = parse_args(["--corpus".to_owned(), "200".to_owned()]).unwrap();
        assert_eq!(cli.corpus, Some(200));
        assert!(parse_args(Vec::new()).unwrap().corpus.is_none(), "off by default");
        assert!(parse_args(["--corpus".to_owned()]).is_err(), "count required");
        assert!(parse_args(["--corpus".to_owned(), "0".to_owned()]).is_err(), "zero rejected");
        assert!(parse_args(["--corpus".to_owned(), "many".to_owned()]).is_err());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse_args(["--frobnicate".to_owned()]).is_err());
        assert!(parse_args(["--jobs".to_owned(), "zero?".to_owned()]).is_err());
        // Worker counts are rejected, never clamped.
        let err = parse_args(["--jobs".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("N >= 1"), "{err}");
    }
}
