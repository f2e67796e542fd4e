//! Every paper figure/table as runner jobs.
//!
//! Each figure is a small job graph: **leaf** jobs compute one slice of
//! the sweep (one packet size, one YCSB mix, one PC application …) and
//! return their table rows as an artifact; the figure's **merge** job
//! (named after the figure, e.g. `fig12`) depends on all its leaves and
//! assembles the console table plus the `results/` JSON. The `repro`
//! binary runs them all, or one group with `repro --only <group>`.
//!
//! A sweep figure registers through [`Sweep`]: it names its group once,
//! adds one leaf per point and ends with a merge. Every job that
//! simulates, sweep leaf or not, is built by [`sim_job`], which declares
//! the group's sampling plan and drains the worker thread's tallies.

pub(crate) mod ablation;
pub(crate) mod fig03;
pub(crate) mod fig04;
pub(crate) mod fig08;
pub(crate) mod fig09;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub(crate) mod fig13;
pub(crate) mod fig14;
pub(crate) mod fig15;
pub(crate) mod table1;
pub(crate) mod table2;

use crate::harness::{take_sim_accesses, take_skipped_epochs};
use crate::report::FigureReport;
use crate::scenarios::NetApp;
use iat_runner::{JobCtx, JobSpec, Registry};
use serde_json::{json, Value};

/// One table row: the console cells and the JSON record.
pub(crate) type Row = (Vec<String>, Value);

/// Encodes a leaf's rows as its artifact.
pub(crate) fn rows_artifact(rows: Vec<Row>) -> Value {
    Value::Array(
        rows.into_iter()
            .map(|(cells, record)| json!({ "cells": cells, "record": record }))
            .collect(),
    )
}

/// Decodes a [`rows_artifact`] back into rows.
pub(crate) fn rows_from(artifact: &Value) -> Vec<Row> {
    artifact
        .as_array()
        .expect("rows artifact")
        .iter()
        .map(|r| {
            let cells = r["cells"]
                .as_array()
                .expect("cells")
                .iter()
                .map(|c| c.as_str().expect("cell").to_owned())
                .collect();
            (cells, r["record"].clone())
        })
        .collect()
}

/// A job that simulates. It declares the sampling plan of `group`
/// ([`crate::sampling::spec_for`]; none for exact-only groups) and, once
/// `body` returns and its platforms are dropped, drains the worker
/// thread's simulated-access tally into
/// [`iat_runner::ACCESSES_COUNTER`] (the numerator of the sweep's
/// accesses-per-second throughput) and its fast-forwarded-epoch tally
/// into [`iat_runner::SKIPPED_EPOCHS_COUNTER`] (zero, and not reported,
/// for exact runs; a sampled job that reports none fell back to exact
/// execution).
pub(crate) fn sim_job(
    name: impl Into<String>,
    group: &str,
    body: impl FnOnce(&mut JobCtx) -> Result<Value, String> + Send + 'static,
) -> JobSpec {
    let job = JobSpec::new(name, group, move |ctx| {
        let artifact = body(ctx);
        ctx.metrics
            .counter_add(iat_runner::ACCESSES_COUNTER, take_sim_accesses());
        let skipped = take_skipped_epochs();
        if skipped > 0 {
            ctx.metrics
                .counter_add(iat_runner::SKIPPED_EPOCHS_COUNTER, skipped);
        }
        artifact
    });
    match crate::sampling::spec_for(group) {
        Some(spec) => job.sampled(spec),
        None => job,
    }
}

/// The networking co-runners of fig12 and fig13, in row order.
const NETS: [(&str, NetApp); 2] = [("redis", NetApp::Redis), ("fastclick", NetApp::FastClick)];

/// One figure's sweep under registration: leaves named
/// `<group>/<point>`, then the merge job `<group>` over every leaf in
/// registration order.
pub(crate) struct Sweep<'r> {
    reg: &'r mut Registry,
    group: &'static str,
    leaves: Vec<String>,
}

impl<'r> Sweep<'r> {
    /// Starts the sweep of figure group `group`.
    pub(crate) fn new(reg: &'r mut Registry, group: &'static str) -> Self {
        Sweep { reg, group, leaves: Vec::new() }
    }

    /// Adds the simulating leaf `<group>/<point>`; `body` gets the
    /// leaf's scenario seed and returns its artifact.
    pub(crate) fn leaf(
        &mut self,
        point: impl std::fmt::Display,
        body: impl FnOnce(u64) -> Value + Send + 'static,
    ) {
        let name = format!("{}/{point}", self.group);
        self.reg
            .add(sim_job(&name, self.group, |ctx| Ok(body(ctx.seed("scenario")))));
        self.leaves.push(name);
    }

    /// Adds one co-run point of fig12/fig13 as the leaf
    /// `<group>/<point>`, split so a scheduler can overlap the sweep's
    /// long poles: a solo job `<leaf>/solo` measures `app` alone, one
    /// job `<leaf>/<net>` per networking co-runner turns the solo metric
    /// into that net's row (its policy variants stay in one job because
    /// they share convergence checkpoints), and a mid-merge under the
    /// leaf name concatenates the rows in [`NETS`] order. Every
    /// simulating job seeds its scenarios from the leaf name, so the
    /// split keeps the seeds of the unsplit per-point leaf.
    pub(crate) fn corun<P: Copy + Send + 'static>(
        &mut self,
        point: &str,
        app: P,
        solo: fn(&str, P, u64) -> f64,
        net_row: fn(&str, P, &str, NetApp, f64, u64) -> Row,
    ) {
        let leaf = format!("{}/{point}", self.group);
        let solo_job = format!("{leaf}/solo");
        self.reg.add(sim_job(&solo_job, self.group, {
            let (leaf, point) = (leaf.clone(), point.to_owned());
            move |ctx| Ok(json!(solo(&point, app, ctx.seed_of(&leaf, "scenario"))))
        }));
        let mut net_jobs = Vec::new();
        for (net_name, net) in NETS {
            let name = format!("{leaf}/{net_name}");
            let job = sim_job(&name, self.group, {
                let (leaf, point, solo_job) = (leaf.clone(), point.to_owned(), solo_job.clone());
                move |ctx| {
                    let solo = ctx.dep(&solo_job).as_f64().expect("solo metric");
                    let seed = ctx.seed_of(&leaf, "scenario");
                    Ok(rows_artifact(vec![net_row(&point, app, net_name, net, solo, seed)]))
                }
            });
            self.reg.add(job.deps(&[&solo_job]));
            net_jobs.push(name);
        }
        let deps: Vec<&str> = net_jobs.iter().map(String::as_str).collect();
        let mid_merge = JobSpec::new(&leaf, self.group, {
            let net_jobs = net_jobs.clone();
            move |ctx| Ok(rows_artifact(net_jobs.iter().flat_map(|j| rows_from(ctx.dep(j))).collect()))
        });
        self.reg.add(mid_merge.deps(&deps));
        self.leaves.push(leaf);
    }

    /// Adds the merge job `<group>`; `body` gets the group name (the
    /// `results/` file stem) and the leaf names in registration order.
    pub(crate) fn merge(self, body: impl FnOnce(&mut JobCtx, &str, &[String]) + Send + 'static) {
        let Sweep { reg, group, leaves } = self;
        let deps: Vec<&str> = leaves.iter().map(String::as_str).collect();
        let job = JobSpec::new(group, group, {
            let leaves = leaves.clone();
            move |ctx| {
                body(ctx, group, &leaves);
                Ok(Value::Null)
            }
        });
        reg.add(job.deps(&deps));
    }

    /// The shared merge: folds every leaf's rows, in order, into a
    /// [`FigureReport`] with `title`, `header` and an optional closing
    /// `note`, staged as `results/<group>.json`.
    pub(crate) fn report(
        self,
        title: &'static str,
        header: &'static [&'static str],
        note: Option<&'static str>,
    ) {
        self.merge(move |ctx, group, leaves| {
            let mut fig = FigureReport::new(group, title, header);
            for leaf in leaves {
                for (cells, record) in rows_from(ctx.dep(leaf)) {
                    fig.row(&cells, record);
                }
            }
            if let Some(note) = note {
                fig.note(note);
            }
            fig.finish(ctx);
        });
    }
}
