//! Job specifications, the per-job execution context, and the registry
//! that holds the sweep's job graph.

use crate::seed::derive_seed;
use iat_cachesim::config::SamplingSpec;
use iat_telemetry::Metrics;
use serde_json::Value;
use std::collections::BTreeMap;

/// A job body: runs with a [`JobCtx`] and returns an artifact for its
/// dependents (use [`Value::Null`] when there is nothing to pass on).
pub type JobFn = Box<dyn FnOnce(&mut JobCtx) -> Result<Value, String> + Send>;

/// One node of the sweep's job graph.
pub struct JobSpec {
    pub(crate) name: String,
    pub(crate) group: String,
    pub(crate) deps: Vec<String>,
    pub(crate) smoke: bool,
    pub(crate) sampled: Option<SamplingSpec>,
    pub(crate) run: Option<JobFn>,
}

impl JobSpec {
    /// A job named `name` in figure group `group` (the group is the
    /// `results/` file stem: all of a figure's leaves and its merge job
    /// share one group, and `--only <group>` selects them together).
    pub fn new(
        name: impl Into<String>,
        group: impl Into<String>,
        run: impl FnOnce(&mut JobCtx) -> Result<Value, String> + Send + 'static,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            group: group.into(),
            deps: Vec::new(),
            smoke: false,
            sampled: None,
            run: Some(Box::new(run)),
        }
    }

    /// Declares dependencies; the job runs only after all of them
    /// succeed, and sees their artifacts via [`JobCtx::dep`].
    #[must_use]
    pub fn deps(mut self, deps: &[&str]) -> JobSpec {
        self.deps = deps.iter().map(|d| (*d).to_owned()).collect();
        self
    }

    /// Marks the job as part of the `--smoke` subset: cheap, and with
    /// output that does not depend on run length — the stale-results
    /// guard in CI regenerates exactly these and compares bytes.
    #[must_use]
    pub fn smoke(mut self) -> JobSpec {
        self.smoke = true;
        self
    }

    /// Declares the job eligible for phase-aware interval sampling at
    /// `level`. Only honoured when the run itself opts in
    /// (`--sampled`); exact runs ignore the declaration entirely, so
    /// committed captures never depend on it.
    #[must_use]
    pub fn sampled(mut self, spec: SamplingSpec) -> JobSpec {
        self.sampled = Some(spec);
        self
    }

    /// The sampling spec the job declared, if any.
    pub fn sampling(&self) -> Option<SamplingSpec> {
        self.sampled
    }

    /// The job's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's figure group.
    pub fn group(&self) -> &str {
        &self.group
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("group", &self.group)
            .field("deps", &self.deps)
            .field("smoke", &self.smoke)
            .field("sampled", &self.sampled)
            .finish_non_exhaustive()
    }
}

/// What a job sees while it runs: derived seeds, its dependencies'
/// artifacts, and sinks for console output, result files, and metrics.
///
/// Nothing here reaches the outside world during execution — output is
/// buffered and emitted by the runner in registration order, which is
/// what makes `--jobs N` byte-identical to `--jobs 1`.
#[derive(Debug)]
pub struct JobCtx {
    job: String,
    root_seed: u64,
    smoke: bool,
    deps: BTreeMap<String, Value>,
    pub(crate) out: String,
    pub(crate) files: Vec<(String, Vec<u8>)>,
    /// Per-job telemetry; the runner folds every job's registry into
    /// the run-level summary via [`Metrics::merge`].
    pub metrics: Metrics,
}

impl JobCtx {
    pub(crate) fn new(
        job: &str,
        root_seed: u64,
        smoke: bool,
        deps: BTreeMap<String, Value>,
    ) -> JobCtx {
        JobCtx {
            job: job.to_owned(),
            root_seed,
            smoke,
            deps,
            out: String::new(),
            files: Vec::new(),
            metrics: Metrics::new(),
        }
    }

    /// The deterministic seed this job uses for purpose `tag` —
    /// a pure function of `(root seed, job name, tag)`; see
    /// [`derive_seed`].
    pub fn seed(&self, tag: &str) -> u64 {
        derive_seed(self.root_seed, &self.job, tag)
    }

    /// The deterministic seed *another* job `job` would get for `tag`.
    ///
    /// Sweep-point leaves split out of a bigger job use this with the
    /// original job's name so the scenarios they build keep the exact
    /// seeds of the unsplit sweep — committed captures stay
    /// byte-identical across the refactor.
    pub fn seed_of(&self, job: &str, tag: &str) -> u64 {
        derive_seed(self.root_seed, job, tag)
    }

    /// Whether this is a `--smoke` run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The artifact a dependency returned.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not declared in [`JobSpec::deps`] —
    /// an undeclared read would be a scheduling hazard.
    pub fn dep(&self, name: &str) -> &Value {
        self.deps
            .get(name)
            .unwrap_or_else(|| panic!("job {:?} reads undeclared dependency {name:?}", self.job))
    }

    /// Appends console output (shown on stdout, in registration order,
    /// after the run).
    pub fn out(&mut self, text: &str) {
        self.out.push_str(text);
    }

    /// Appends one console line.
    pub fn outln(&mut self, line: &str) {
        self.out.push_str(line);
        self.out.push('\n');
    }

    /// Stages `bytes` for `results/<file>`; the runner writes (or, in
    /// check mode, byte-compares) staged files after the run.
    pub fn save_bytes(&mut self, file: &str, bytes: Vec<u8>) {
        self.files.push((file.to_owned(), bytes));
    }

    /// Stages a pretty-printed JSON value for `results/<stem>.json`.
    pub fn save_json(&mut self, stem: &str, value: &Value) {
        let mut text = serde_json::to_string_pretty(value).expect("serializable");
        text.push('\n');
        self.save_bytes(&format!("{stem}.json"), text.into_bytes());
    }
}

/// The sweep's job graph under construction.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) jobs: Vec<JobSpec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds a job.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or a dependency on a job that has not
    /// been registered yet (register leaves before their merge job).
    pub fn add(&mut self, job: JobSpec) {
        assert!(
            !self.jobs.iter().any(|j| j.name == job.name),
            "duplicate job name {:?}",
            job.name
        );
        for d in &job.deps {
            assert!(
                self.jobs.iter().any(|j| &j.name == d),
                "job {:?} depends on unregistered {d:?} (register dependencies first)",
                job.name
            );
        }
        self.jobs.push(job);
    }

    /// Registered job names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.jobs.iter().map(|j| j.name.as_str()).collect()
    }

    /// Distinct group names, in first-registration order.
    pub fn groups(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for j in &self.jobs {
            if !out.contains(&j.group.as_str()) {
                out.push(&j.group);
            }
        }
        out
    }
}
