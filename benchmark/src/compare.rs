//! `compare A.json B.json`: grades set B against baseline set A with the
//! bounds in `BENCHMARK.json`, and matches the deterministic values.

use crate::repo_root;
use crate::set::SCHEMA;
use serde_json::Value;
use std::path::Path;

/// Allowed rise of the sampled headline error, in percentage points,
/// and the ceiling it may never cross (the figures' declared bound).
const SAMPLED_ERR_SLACK_PP: f64 = 0.25;
const SAMPLED_ERR_CEILING_PCT: f64 = 2.0;

fn load(path: &Path) -> Result<Value, String> {
    iat_runner::load_json(path).map_err(|e| e.to_string())
}

/// `(q3 - q1) / median`: the spread a bound is compared against.
fn spread(s: &Value) -> f64 {
    let f = |k: &str| s[k].as_f64().unwrap_or(f64::NAN);
    (f("q3") - f("q1")) / f("median").abs()
}

/// Prints the comparison and returns 1 on any "worse" verdict or any
/// mismatch of a deterministic value.
pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let (a, b) = (load(Path::new(a_path))?, load(Path::new(b_path))?);
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if doc["schema"] != SCHEMA {
            return Err(format!("{path}: not a {SCHEMA} set file"));
        }
    }
    let spec = load(&repo_root().join("BENCHMARK.json"))?;
    let same_seed = a["seed"] == b["seed"];
    let (mut worse, mut mismatches) = (0usize, 0usize);

    println!(
        "{:<16} {:<20} {:>24} {:>24} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta"
    );
    for (w, sa) in a["workloads"].as_object().into_iter().flatten() {
        let sb = &b["workloads"][w.as_str()];
        if sb.is_null() {
            println!("{w:<16} missing from {b_path}");
            mismatches += 1;
            continue;
        }
        for m in spec["end_to_end"].as_array().into_iter().flatten() {
            let name = m["name"].as_str().unwrap_or("");
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let lower_is_better = m["better"] == "lower";
            let (ma, mb) = (&sa["end_to_end"][name], &sb["end_to_end"][name]);
            let (a_med, b_med) = (ma["median"].as_f64(), mb["median"].as_f64());
            let (Some(a_med), Some(b_med)) = (a_med, b_med) else {
                println!("{w:<16} {name:<20} missing on one side");
                mismatches += 1;
                continue;
            };
            let delta = b_med / a_med - 1.0;
            let worsening = if lower_is_better { delta } else { -delta };
            let verdict = if spread(ma) > bound || spread(mb) > bound {
                "unresolved"
            } else if worsening > bound {
                worse += 1;
                "WORSE"
            } else if worsening < -bound {
                "better"
            } else {
                "same"
            };
            let cell = |s: &Value, med: f64| {
                format!(
                    "{med:.4} [{:.4}, {:.4}]",
                    s["q1"].as_f64().unwrap_or(0.0),
                    s["q3"].as_f64().unwrap_or(0.0)
                )
            };
            println!(
                "{w:<16} {name:<20} {:>24} {:>24} {:>+7.2}%  {verdict}",
                cell(ma, a_med),
                cell(mb, b_med),
                delta * 100.0
            );
        }

        // Correctness gates the sets carry: any rise is a regression.
        let frac = |s: &Value| {
            s["failed"].as_f64().unwrap_or(0.0) / s["attempted"].as_f64().unwrap_or(1.0).max(1.0)
        };
        if frac(sb) > frac(sa) || sb["correct"] != Value::Bool(true) {
            println!(
                "{w:<16} WORSE: failed jobs or checks ({:.4} vs {:.4} failed)",
                frac(sb),
                frac(sa)
            );
            worse += 1;
        }
        if let (Some(da), Some(db)) = (
            sa["diverged_captures"].as_u64(),
            sb["diverged_captures"].as_u64(),
        ) {
            if db > da {
                println!("{w:<16} WORSE: diverged_captures {da} -> {db}");
                worse += 1;
            }
        }
        if let (Some(ea), Some(eb)) = (
            sa["sampled_max_err_pct"].as_f64(),
            sb["sampled_max_err_pct"].as_f64(),
        ) {
            let verdict = if eb > ea + SAMPLED_ERR_SLACK_PP || eb > SAMPLED_ERR_CEILING_PCT {
                worse += 1;
                "WORSE"
            } else {
                "same"
            };
            println!(
                "{w:<16} {:<20} {ea:>24.4} {eb:>24.4} {:>+7.2}pp  {verdict}",
                "sampled_max_err_pct",
                eb - ea
            );
        }

        if !same_seed {
            continue;
        }
        let pairs = [
            ("digest", &sa["digest"], &sb["digest"]),
            (
                "cachesim.maccesses",
                &sa["deterministic"]["cachesim.maccesses"],
                &sb["deterministic"]["cachesim.maccesses"],
            ),
            (
                "sampler.skipped_epochs",
                &sa["deterministic"]["sampler.skipped_epochs"],
                &sb["deterministic"]["sampler.skipped_epochs"],
            ),
        ];
        for (key, va, vb) in pairs {
            if va != vb {
                println!("{w:<16} MISMATCH: {key} {va} vs {vb}");
                mismatches += 1;
            }
        }
    }
    if !same_seed {
        println!("note: the sets use different seeds; deterministic values were not compared");
    }
    println!("{worse} worse, {mismatches} mismatch(es)");
    Ok(i32::from(worse + mismatches > 0))
}
