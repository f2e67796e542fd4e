//! The generated scenario corpus: `repro --corpus <n> --seed <s>`
//! derives `n` deterministic randomized scenarios from the runner's
//! SplitMix seed derivation — tenant churn, diurnal traffic,
//! adversarial thrashers, NIC bursts during shuffles — compiles each
//! through [`crate::builder`], runs them in the same deterministic
//! job graph as the figures, and emits a per-class summary artifact
//! (`corpus_summary.json`).
//!
//! Everything a scenario is — tenants, traffic shapes, policy, events —
//! comes out of a [`Dice`] stream seeded from `(root seed, job name)`,
//! so the corpus is a pure function of `--corpus`/`--seed` and is
//! byte-identical across `--jobs` settings.

use crate::builder::{apply_action, compile, NicDesc, ScenarioAction, ScenarioBuilder, ScenarioDesc, TenantDesc, TrafficDesc, WorkloadDesc};
use crate::figures::{rows_artifact, rows_from, sim_job};
use crate::harness::Managed;
use crate::report::{f, Table};
use crate::scenarios::{PolicyKind, LINE_RATE_40G};
use iat::Priority;
use iat_cachesim::config::SamplingLevel;
use iat_netsim::{FlowDist, FlowId, TrafficPattern};
use iat_platform::TenantId;
use iat_runner::{seed::splitmix64, JobSpec, Registry};
use serde_json::{json, Value};

/// Schema tag of `corpus_summary.json`.
pub const CORPUS_SCHEMA: &str = "iat-corpus-summary/v1";

/// The scenario classes, in round-robin assignment order.
pub const CLASSES: &[&str] = &["churn", "diurnal", "thrash", "burst"];

/// Corpus run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Number of scenarios to derive.
    pub count: usize,
    /// Debug-speed mode for tests: 0.1 s intervals and a shorter
    /// warm/measure schedule (still fully deterministic).
    pub quick: bool,
}

impl CorpusSpec {
    /// Warm-up and measurement intervals per scenario.
    pub fn windows(&self) -> (usize, usize) {
        if self.quick {
            (1, 2)
        } else {
            (2, 4)
        }
    }

    /// Policy interval length in modelled nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        if self.quick {
            100_000_000
        } else {
            1_000_000_000
        }
    }
}

/// A deterministic parameter stream: a SplitMix64 counter generator.
/// Scenario generation draws every random choice from one `Dice` seeded
/// by the runner's `(root seed, job name, "params")` derivation, so a
/// scenario is a pure function of its name and the root seed.
#[derive(Debug, Clone)]
pub struct Dice(u64);

impl Dice {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Dice {
        Dice(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[(self.next() % options.len() as u64) as usize]
    }
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Baseline(0),
    PolicyKind::CoreOnly,
    PolicyKind::IoIso,
    PolicyKind::Iat,
];

fn xmem(heap: u64, working_set: u64, seed_offset: u64) -> WorkloadDesc {
    WorkloadDesc::XMem { heap_bytes: heap, working_set, seed_offset }
}

/// Derives scenario `name` of `class` from the dice stream. The
/// scenario's modelled time scale makes one 1 s interval equal 10 M
/// generator-nanoseconds, which sets the diurnal/burst period ranges.
pub fn scenario(class: &str, name: &str, dice: &mut Dice, spec: &CorpusSpec) -> ScenarioDesc {
    let policy = *dice.pick(&POLICIES);
    let (warm, meas) = spec.windows();
    let total = warm + meas;
    let mut b = ScenarioBuilder::new(name)
        .policy(policy)
        .interval_ns(spec.interval_ns());
    match class {
        // Tenant churn: a PC forwarding pair plus three X-Mem
        // containers; one container "arrives" (its working set jumps)
        // mid-run and later "departs" back to a token footprint.
        "churn" => {
            let pkt = *dice.pick(&[64u32, 256, 1500]);
            let rate = dice.range(10, 40) * 1_000_000_000;
            b = b.tenant(
                TenantDesc::new("pmd", WorkloadDesc::TestPmd { ports: vec![0, 1] })
                    .cores(&[0, 1])
                    .io()
                    .ways(3)
                    .traffic(TrafficDesc::new(0, rate, pkt, FlowDist::Single(FlowId(0))))
                    .traffic(
                        TrafficDesc::new(1, rate, pkt, FlowDist::Single(FlowId(1))).seed_offset(1),
                    ),
            );
            b = b.nic(NicDesc::ports(2));
            let prio = [Priority::Be, Priority::Be, Priority::Pc];
            for (i, p) in prio.into_iter().enumerate() {
                b = b.tenant(
                    TenantDesc::new(format!("xmem{i}"), xmem(64 << 20, 2 << 20, 1 + i as u64))
                        .cores(&[2 + i])
                        .priority(p)
                        .ways(2),
                );
            }
            let churner = TenantId(dice.range(1, 3) as u16);
            let arrive = dice.range(1, warm as u64) as usize;
            let grown = dice.range(16, 48) << 20;
            b = b.event(arrive, ScenarioAction::SetWorkingSet { tenant: churner, bytes: grown });
            if total > arrive + 1 {
                let depart = dice.range(arrive as u64 + 1, total as u64 - 1) as usize;
                b = b.event(
                    depart,
                    ScenarioAction::SetWorkingSet { tenant: churner, bytes: 1 << 20 },
                );
            }
        }
        // Diurnal traffic: the aggregation setup under a smooth
        // day/night load swing spanning one to three intervals.
        "diurnal" => {
            let pkt = *dice.pick(&[128u32, 512, 1500]);
            let rate = *dice.pick(&[LINE_RATE_40G, 20_000_000_000]);
            let trough = dice.float(0.1, 0.5);
            let period_ns = dice.range(10_000_000, 30_000_000);
            let shape = TrafficPattern::Diurnal { trough, period_ns };
            let flows = dice.range(1, 1 << 14) as u32;
            let dist = |first: u32| {
                if flows <= 1 {
                    FlowDist::Single(FlowId(first))
                } else {
                    FlowDist::Uniform { count: flows }
                }
            };
            b = b.nic(NicDesc::ports(2)).tenant(
                TenantDesc::new(
                    "ovs",
                    WorkloadDesc::Ovs {
                        ports: vec![0, 1],
                        attachments: 2,
                        emc_entries: 8192,
                        mega_entries: 1 << 20,
                    },
                )
                .cores(&[0, 1])
                .priority(Priority::Stack)
                .io()
                .ways(2)
                .traffic(TrafficDesc::new(0, rate, pkt, dist(0)).pattern(shape))
                .traffic(TrafficDesc::new(1, rate, pkt, dist(1)).pattern(shape).seed_offset(1)),
            );
            for i in 0..2usize {
                b = b.tenant(
                    TenantDesc::new(
                        format!("echo{i}"),
                        WorkloadDesc::ChannelEcho { attachment: i },
                    )
                    .cores(&[2 + 2 * i, 3 + 2 * i])
                    .io()
                    .ways(1),
                );
            }
        }
        // Adversarial thrashers: a cache-sensitive PC application
        // against one to three best-effort X-Mem containers whose
        // working sets exceed the whole LLC.
        "thrash" => {
            let pc_is_rocks = dice.range(0, 1) == 1;
            let pc = if pc_is_rocks {
                TenantDesc::new(
                    "rocksdb",
                    WorkloadDesc::Rocks {
                        heap_bytes: 2 << 30,
                        mix: iat_workloads::YcsbMix::b(),
                        seed_offset: 20,
                    },
                )
            } else {
                let profiles = iat_workloads::SpecProfile::memory_sensitive();
                let profile = *dice.pick(&profiles);
                TenantDesc::new(profile.name, WorkloadDesc::Spec { profile, seed_offset: 20 })
            };
            b = b.tenant(pc.cores(&[0]).ways(2));
            let thrashers = dice.range(1, 3) as usize;
            for i in 0..thrashers {
                let ws = dice.range(32, 64) << 20;
                b = b.tenant(
                    TenantDesc::new(format!("thrash{i}"), xmem(128 << 20, ws, 30 + i as u64))
                        .cores(&[1 + i])
                        .priority(Priority::Be)
                        .ways(2),
                );
            }
        }
        // NIC bursts during shuffles: bursty line-rate traffic into a
        // PC forwarding pair while a PC container's working set grows
        // mid-run (provoking way shuffles under IAT).
        "burst" => {
            let pkt = *dice.pick(&[64u32, 256, 1024]);
            let on_fraction = dice.float(0.05, 0.25);
            let shape = TrafficPattern::Bursty {
                on_fraction,
                burst_scale: 1.0 / on_fraction,
                period_ns: dice.range(200_000, 2_000_000),
            };
            b = b.nic(NicDesc::ports(2)).tenant(
                TenantDesc::new("pmd", WorkloadDesc::TestPmd { ports: vec![0, 1] })
                    .cores(&[0, 1])
                    .io()
                    .ways(3)
                    .traffic(
                        TrafficDesc::new(0, LINE_RATE_40G, pkt, FlowDist::Single(FlowId(0)))
                            .pattern(shape),
                    )
                    .traffic(
                        TrafficDesc::new(1, LINE_RATE_40G, pkt, FlowDist::Single(FlowId(1)))
                            .pattern(shape)
                            .seed_offset(1),
                    ),
            );
            b = b
                .tenant(
                    TenantDesc::new("xmem-pc", xmem(64 << 20, 2 << 20, 2))
                        .cores(&[2])
                        .ways(2),
                )
                .tenant(
                    TenantDesc::new("xmem-be", xmem(64 << 20, 2 << 20, 3))
                        .cores(&[3])
                        .priority(Priority::Be)
                        .ways(2),
                );
            let grow_at = dice.range(1, (total - 1) as u64) as usize;
            let grown = dice.range(8, 24) << 20;
            let grow = ScenarioAction::SetWorkingSet { tenant: TenantId(1), bytes: grown };
            b = b.event(grow_at, grow);
        }
        other => panic!("unknown corpus class {other:?}"),
    }
    b.desc()
}

/// Runs a compiled corpus scenario: warm intervals, then a measurement
/// window, with the description's events applied at their interval
/// boundaries. Returns the scenario's summary record.
pub fn run_scenario(desc: &ScenarioDesc, seed: u64, spec: &CorpusSpec) -> Value {
    let (warm, meas) = spec.windows();
    let mut m = compile(desc, seed).into_managed();
    let mut before = None;
    let mut t0 = 0.0;
    for t in 0..warm + meas {
        for ev in desc.events.iter().filter(|e| e.after_intervals == t) {
            apply_action(&mut m, &ev.action);
        }
        if t == warm {
            m.platform.reset_metrics();
            before = Some(m.observe());
            t0 = m.time_s();
        }
        m.run_intervals(1);
    }
    let after = m.observe();
    let seconds = m.time_s() - t0;
    let d = Managed::deltas_between(before.as_ref().expect("warm window ran"), &after);

    let scale = m.platform.config().time_scale as f64;
    let ops: u64 = m.platform.tenants().iter().map(|t| t.workload.metrics().ops).sum();
    let hits = d.system.ddio_hits as f64;
    let misses = d.system.ddio_misses as f64;
    let ddio_hit_rate = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    let mem_gbps =
        (d.system.mem_read_bytes + d.system.mem_write_bytes) as f64 / seconds * scale / 1e9;
    let ipc_mean =
        d.tenants.iter().map(|t| t.ipc).sum::<f64>() / d.tenants.len().max(1) as f64;

    json!({
        "name": desc.name,
        "policy": desc.policy.expect("corpus scenarios are managed").label(),
        "tenants": desc.tenants.len(),
        "events": desc.events.len(),
        "ops_per_s": ops as f64 / seconds * scale,
        "ddio_hit_rate": ddio_hit_rate,
        "mem_gbps": mem_gbps,
        "ipc_mean": ipc_mean,
    })
}

fn mean(records: &[Value], key: &str) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter_map(|r| r[key].as_f64()).sum::<f64>() / records.len() as f64
}

fn class_summary(class: &str, records: &[Value]) -> Value {
    let mut policies = serde_json::Map::new();
    for r in records {
        if let Some(p) = r["policy"].as_str() {
            let e = policies.entry(p.to_owned()).or_insert(json!(0));
            *e = json!(e.as_u64().unwrap_or(0) + 1);
        }
    }
    json!({
        "class": class,
        "scenarios": records.len(),
        "mean_ops_per_s": mean(records, "ops_per_s"),
        "mean_ddio_hit_rate": mean(records, "ddio_hit_rate"),
        "mean_mem_gbps": mean(records, "mem_gbps"),
        "mean_ipc": mean(records, "ipc_mean"),
        "policies": policies,
    })
}

/// Validates a `corpus_summary.json` document; returns the scenario
/// count.
///
/// # Errors
///
/// Returns a description of the first structural problem: wrong schema
/// tag, an empty corpus, or per-class counts that do not add up.
pub fn validate_corpus_summary(doc: &Value) -> Result<usize, String> {
    if doc["schema"].as_str() != Some(CORPUS_SCHEMA) {
        return Err(format!("schema is not {CORPUS_SCHEMA:?}: {}", doc["schema"]));
    }
    let count = doc["count"].as_u64().ok_or("count missing")? as usize;
    let scenarios = doc["scenarios"].as_array().ok_or("scenarios missing")?;
    let classes = doc["classes"].as_array().ok_or("classes missing")?;
    if count == 0 || scenarios.len() != count {
        return Err(format!(
            "count {} disagrees with {} scenario rows (or is zero)",
            count,
            scenarios.len()
        ));
    }
    if classes.is_empty() {
        return Err("no classes".into());
    }
    let by_class: usize = classes
        .iter()
        .map(|c| c["scenarios"].as_u64().unwrap_or(0) as usize)
        .sum();
    if by_class != count {
        return Err(format!("class counts sum to {by_class}, expected {count}"));
    }
    for s in scenarios {
        for key in ["name", "policy"] {
            if s[key].as_str().is_none() {
                return Err(format!("scenario row missing {key}: {s}"));
            }
        }
        for key in ["ops_per_s", "ddio_hit_rate", "mem_gbps", "ipc_mean"] {
            if !s[key].as_f64().is_some_and(f64::is_finite) {
                return Err(format!("scenario row has non-finite {key}: {s}"));
            }
        }
    }
    Ok(count)
}

const ROW_HEADER: [&str; 6] = ["scenario", "policy", "ops/s", "ddio hit", "mem GB/s", "ipc"];

fn row_cells(record: &Value) -> Vec<String> {
    vec![
        record["name"].as_str().unwrap_or("?").to_owned(),
        record["policy"].as_str().unwrap_or("?").to_owned(),
        format!("{:.3e}", record["ops_per_s"].as_f64().unwrap_or(0.0)),
        f(record["ddio_hit_rate"].as_f64().unwrap_or(0.0), 3),
        f(record["mem_gbps"].as_f64().unwrap_or(0.0), 2),
        f(record["ipc_mean"].as_f64().unwrap_or(0.0), 3),
    ]
}

/// Builds the corpus job graph: one leaf per scenario (class assigned
/// round-robin), one merge per class, and a `corpus/summary` job that
/// validates and stages `corpus_summary.json`.
pub fn registry(spec: CorpusSpec) -> Registry {
    let mut reg = Registry::new();
    let mut per_class: Vec<Vec<String>> = vec![Vec::new(); CLASSES.len()];
    for i in 0..spec.count {
        let class = CLASSES[i % CLASSES.len()];
        let name = format!("corpus/{class}-{i:04}");
        per_class[i % CLASSES.len()].push(name.clone());
        let leaf_class = class;
        let scenario_name = name.clone();
        reg.add(
            sim_job(name.clone(), &format!("corpus-{class}"), move |ctx| {
                let mut dice = Dice::new(ctx.seed("params"));
                let desc = scenario(leaf_class, &scenario_name, &mut dice, &spec);
                let record = run_scenario(&desc, ctx.seed("scenario"), &spec);
                Ok(rows_artifact(vec![(row_cells(&record), record)]))
            })
            .sampled(SamplingLevel::Standard.spec()),
        );
    }

    let mut merges = Vec::new();
    for (ci, class) in CLASSES.iter().enumerate() {
        let leaves = per_class[ci].clone();
        if leaves.is_empty() {
            continue;
        }
        let merge_name = format!("corpus/{class}");
        merges.push(merge_name.clone());
        let deps: Vec<&str> = leaves.iter().map(String::as_str).collect();
        reg.add(
            JobSpec::new(merge_name, format!("corpus-{class}"), {
                let leaves = leaves.clone();
                let class = *class;
                move |ctx| {
                    let mut table =
                        Table::new(&format!("Corpus class: {class}"), &ROW_HEADER);
                    let mut records = Vec::new();
                    for leaf in &leaves {
                        for (cells, record) in rows_from(ctx.dep(leaf)) {
                            table.row(&cells);
                            records.push(record);
                        }
                    }
                    table.write_to(ctx);
                    Ok(json!({
                        "summary": class_summary(class, &records),
                        "scenarios": records,
                    }))
                }
            })
            .deps(&deps),
        );
    }

    let deps: Vec<&str> = merges.iter().map(String::as_str).collect();
    reg.add(
        JobSpec::new("corpus/summary", "corpus", {
            let merges = merges.clone();
            move |ctx| {
                let mut classes = Vec::new();
                let mut scenarios = Vec::new();
                for m in &merges {
                    let v = ctx.dep(m);
                    classes.push(v["summary"].clone());
                    scenarios
                        .extend(v["scenarios"].as_array().cloned().unwrap_or_default());
                }
                let doc = json!({
                    "schema": CORPUS_SCHEMA,
                    "count": scenarios.len(),
                    "quick": spec.quick,
                    "classes": classes,
                    "scenarios": scenarios,
                });
                let count = validate_corpus_summary(&doc)?;
                let mut table = Table::new(
                    "Corpus summary (per class)",
                    &["class", "scenarios", "ops/s", "ddio hit", "mem GB/s", "ipc"],
                );
                for c in doc["classes"].as_array().expect("classes") {
                    table.row(&[
                        c["class"].as_str().unwrap_or("?").to_owned(),
                        c["scenarios"].as_u64().unwrap_or(0).to_string(),
                        format!("{:.3e}", c["mean_ops_per_s"].as_f64().unwrap_or(0.0)),
                        f(c["mean_ddio_hit_rate"].as_f64().unwrap_or(0.0), 3),
                        f(c["mean_mem_gbps"].as_f64().unwrap_or(0.0), 2),
                        f(c["mean_ipc"].as_f64().unwrap_or(0.0), 3),
                    ]);
                }
                table.write_to(ctx);
                ctx.outln(&format!("\n{count} corpus scenarios ran."));
                ctx.save_json("corpus_summary", &doc);
                Ok(Value::Null)
            }
        })
        .deps(&deps),
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dice_is_deterministic_and_in_range() {
        let mut a = Dice::new(42);
        let mut b = Dice::new(42);
        for _ in 0..100 {
            let (lo, hi) = (3, 17);
            let x = a.range(lo, hi);
            assert_eq!(x, b.range(lo, hi));
            assert!((lo..=hi).contains(&x));
            let v = a.float(0.25, 0.75);
            assert_eq!(v, b.float(0.25, 0.75));
            assert!((0.25..0.75).contains(&v));
        }
        let mut c = Dice::new(43);
        assert_ne!(a.next(), c.next(), "different seeds diverge");
    }

    #[test]
    fn every_class_generates_a_valid_scenario() {
        let spec = CorpusSpec { count: 4, quick: true };
        for (i, class) in CLASSES.iter().enumerate() {
            let mut dice = Dice::new(1000 + i as u64);
            let desc = scenario(class, &format!("corpus/{class}-{i:04}"), &mut dice, &spec);
            assert!(!desc.tenants.is_empty(), "{class}: no tenants");
            assert!(desc.policy.is_some(), "{class}: corpus scenarios are managed");
            let record = run_scenario(&desc, 7, &spec);
            assert!(record["ops_per_s"].as_f64().unwrap().is_finite());
        }
    }

    #[test]
    fn summary_validation_rejects_mismatches() {
        let row = json!({
            "name": "corpus/churn-0000", "policy": "iat", "tenants": 4, "events": 2,
            "ops_per_s": 1.0, "ddio_hit_rate": 0.5, "mem_gbps": 1.0, "ipc_mean": 1.0,
        });
        let good = json!({
            "schema": CORPUS_SCHEMA,
            "count": 1,
            "classes": [{"class": "churn", "scenarios": 1}],
            "scenarios": [row.clone()],
        });
        assert_eq!(validate_corpus_summary(&good), Ok(1));
        let mut bad = good.clone();
        bad["count"] = json!(2);
        assert!(validate_corpus_summary(&bad).is_err(), "count mismatch");
        let mut bad = good.clone();
        bad["schema"] = json!("nope/v0");
        assert!(validate_corpus_summary(&bad).is_err(), "schema mismatch");
        let mut bad = good;
        bad["classes"] = json!([{"class": "churn", "scenarios": 2}]);
        assert!(validate_corpus_summary(&bad).is_err(), "class sum mismatch");
    }
}
