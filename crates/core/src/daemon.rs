//! The IAT daemon: Poll Prof Data → State Transition → LLC Re-alloc →
//! Sleep, around the Fig. 6 FSM.

use crate::config::IatConfig;
use crate::fsm::{self, Signals, State};
use crate::layout::{LayoutPlanner, Placement, PlanInput};
use crate::policies::LlcPolicy;
use crate::tenant_info::{Priority, TenantInfo};
use crate::trend::Trend;
use iat_cachesim::WayMask;
use iat_perf::{CostModel, DeltaWindow, IntervalDeltas, Poll};
use iat_rdt::Rdt;
use iat_telemetry::{Event, Recorder, Stamp};

/// Feature flags selecting which parts of the engine are active. The
/// paper's baselines and ablations are expressed as flag combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IatFlags {
    /// Drive the FSM and resize DDIO's ways (the I/O Demand / Reclaim /
    /// High Keep machinery).
    pub io_demand: bool,
    /// Grow/shrink tenant ways (disabled in the paper's Sec. VI-C
    /// application experiments to isolate the shuffling effect).
    pub tenant_realloc: bool,
    /// Shuffle tenant ranges to steer DDIO sharing onto quiet BE tenants.
    pub shuffle: bool,
    /// Lay tenants out DDIO-aware (BE-sorted). Disabled for Core-only.
    pub ddio_aware_layout: bool,
    /// Never place tenants in DDIO's ways (the I/O-iso baseline).
    pub exclude_ddio: bool,
}

impl IatFlags {
    /// Full IAT as described in the paper.
    pub fn full() -> Self {
        IatFlags {
            io_demand: true,
            tenant_realloc: true,
            shuffle: true,
            ddio_aware_layout: true,
            exclude_ddio: false,
        }
    }

    /// The *Core-only* baseline: "we only adjust the LLC allocation without
    /// I/O awareness", built "by disabling the I/O Demand state and LLC
    /// shuffling" (paper Sec. VI-B, footnote 4).
    pub fn core_only() -> Self {
        IatFlags {
            io_demand: false,
            tenant_realloc: true,
            shuffle: false,
            ddio_aware_layout: false,
            exclude_ddio: false,
        }
    }

    /// The *I/O-iso* baseline: Core-only plus excluding DDIO's ways from
    /// core allocation (paper Sec. VI-B).
    pub fn io_iso() -> Self {
        IatFlags { exclude_ddio: true, ..Self::core_only() }
    }
}

/// The action the LLC Re-alloc step took in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing changed (stable system, or a Keep state).
    None,
    /// Grew DDIO's ways by one.
    GrowDdio,
    /// Shrank DDIO's ways by one.
    ShrinkDdio,
    /// Grew the tenant at this index (daemon tenant order) by one way.
    GrowTenant(usize),
    /// Shrank the tenant at this index by one way.
    ShrinkTenant(usize),
    /// Re-shuffled the layout without resizing anything.
    Shuffle,
}

/// What one daemon iteration did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// FSM state after the iteration.
    pub state: State,
    /// Re-allocation action taken.
    pub action: Action,
    /// `true` when the Poll Prof Data step found the system stable (no FSM
    /// evaluation happened).
    pub stable: bool,
    /// Modelled execution time of the iteration in nanoseconds
    /// (poll + FSM + register writes), the Fig. 15 quantity.
    pub cost_ns: f64,
    /// Register writes performed by LLC Re-alloc.
    pub msr_writes: u64,
}

/// The IAT daemon (and, via [`IatFlags`], the Core-only and I/O-iso
/// baselines).
#[derive(Debug, Clone)]
pub struct IatDaemon {
    config: IatConfig,
    flags: IatFlags,
    state: State,
    tenants: Vec<TenantInfo>,
    way_counts: Vec<u8>,
    window: DeltaWindow,
    prev: Option<IntervalDeltas>,
    planner: LayoutPlanner,
    cost: CostModel,
    iterations: u64,
    transitions: u64,
    last_action: Action,
}

impl IatDaemon {
    /// Creates a daemon for an LLC with `ways` ways.
    pub fn new(config: IatConfig, flags: IatFlags, ways: u8) -> Self {
        config.validate(ways);
        IatDaemon {
            config,
            flags,
            state: State::LowKeep,
            tenants: Vec::new(),
            way_counts: Vec::new(),
            window: DeltaWindow::new(),
            prev: None,
            planner: LayoutPlanner::new(ways),
            cost: CostModel::default(),
            iterations: 0,
            transitions: 0,
            last_action: Action::None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IatConfig {
        &self.config
    }

    /// The active flags.
    pub fn flags(&self) -> &IatFlags {
        &self.flags
    }

    /// Current FSM state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Iterations executed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// FSM transitions taken (including self-transitions on instability).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Current way count of the tenant at `idx` (daemon order).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn tenant_ways(&self, idx: usize) -> u8 {
        self.way_counts[idx]
    }

    /// Current per-tenant way counts, in daemon (registration) order.
    ///
    /// Empty until [`LlcPolicy::set_tenants`] runs. This is the
    /// allocation vector observability consumers (the decision flight
    /// recorder, dashboards) snapshot per iteration.
    pub fn way_counts(&self) -> &[u8] {
        &self.way_counts
    }

    /// Builds planner inputs from current way counts and the latest
    /// per-tenant LLC reference deltas (zero when unknown). `ddio_ways` is
    /// the register file's *current* DDIO width (the exclusion region for
    /// the I/O-iso baseline).
    fn plan(&self, refs: &[u64], ddio_ways: u8) -> Vec<Placement> {
        let inputs: Vec<PlanInput> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| PlanInput {
                agent: t.agent,
                clos: t.clos,
                priority: t.priority,
                ways: self.way_counts[i],
                llc_refs: refs.get(i).copied().unwrap_or(0),
            })
            .collect();
        self.planner.plan(&inputs, ddio_ways, self.flags.ddio_aware_layout, self.flags.exclude_ddio)
    }

    /// The daemon's DDIO mask for `count` ways: top-aligned contiguous.
    fn ddio_mask_for(&self, count: u8) -> WayMask {
        WayMask::contiguous(self.planner.ways() - count, count).expect("count <= ways")
    }
}

impl LlcPolicy for IatDaemon {
    fn name(&self) -> &str {
        let f = &self.flags;
        if f.exclude_ddio {
            "io-iso"
        } else if !f.io_demand && !f.shuffle {
            "core-only"
        } else {
            "iat"
        }
    }

    /// **Get Tenant Info + LLC Alloc** (steps 1–2): registers the tenant
    /// set and programs the initial layout.
    ///
    /// Tenant order must match the monitor's [`iat_perf::MonitorSpec`]
    /// order — samples are matched positionally, as the paper's daemon
    /// matches pqos monitoring groups.
    ///
    /// # Panics
    ///
    /// Panics if initial way counts exceed the LLC (tenants may not share
    /// ways with each other in this implementation, following Sec. V).
    fn set_tenants(&mut self, tenants: Vec<TenantInfo>, rdt: &mut Rdt) {
        self.way_counts = tenants.iter().map(|t| t.initial_ways).collect();
        self.tenants = tenants;
        self.window.reset();
        self.prev = None;
        self.state = State::LowKeep;
        let placements = self.plan(&[], rdt.ddio_ways());
        apply(&placements, rdt);
    }

    /// **Poll Prof Data → State Transition → LLC Re-alloc** (steps 3–5):
    /// one daemon iteration, driven by a fresh cumulative `poll`.
    ///
    /// Every iteration ends in one [`Event::Decision`]; unstable
    /// iterations that reach the FSM additionally emit an
    /// [`Event::FsmTransition`] (self-edges included), and every
    /// re-allocation emits its resize/shuffle event plus one
    /// [`Event::MaskWrite`] per register actually written (drained from
    /// the [`Rdt`] write journal). `now_ns` stamps the events with
    /// simulated time. With a [`iat_telemetry::NullRecorder`] (what
    /// [`LlcPolicy::step`] passes) the journal stays off and no event is
    /// ever constructed.
    fn step_traced(
        &mut self,
        rdt: &mut Rdt,
        poll: Poll,
        now_ns: u64,
        rec: &mut dyn Recorder,
    ) -> StepReport {
        self.iterations += 1;
        let stamp = Stamp { iter: self.iterations, time_ns: now_ns };
        if rec.enabled() {
            rdt.enable_journal();
        }
        let mut cost_ns = poll.cost_ns;
        let writes_before = rdt.msr_writes();

        // Turn cumulative counters into interval deltas.
        let Some(cur) = self.window.advance(poll) else {
            return self.stable_report(rdt, cost_ns, stamp, rec);
        };
        let Some(prev) = self.prev.replace(cur.clone()) else {
            return self.stable_report(rdt, cost_ns, stamp, rec);
        };

        let th = self.config.threshold_stable;
        // Count-valued events carry a noise floor: a handful of stray
        // transactions per interval must not register as a trend.
        const COUNT_FLOOR: f64 = 1000.0;
        let hit_trend = Trend::classify_with_floor(
            prev.system.ddio_hits as f64,
            cur.system.ddio_hits as f64,
            th,
            COUNT_FLOOR,
        );
        let miss_trend = Trend::classify_with_floor(
            prev.system.ddio_misses as f64,
            cur.system.ddio_misses as f64,
            th,
            COUNT_FLOOR,
        );
        let refs_prev: u64 = prev.tenants.iter().map(|t| t.llc_references).sum();
        let refs_cur: u64 = cur.tenants.iter().map(|t| t.llc_references).sum();
        let refs_trend =
            Trend::classify_with_floor(refs_prev as f64, refs_cur as f64, th, COUNT_FLOOR);
        let ddio_changed = hit_trend.changed() || miss_trend.changed();

        #[derive(Clone, Copy)]
        struct TenantTrends {
            ipc: Trend,
            refs: Trend,
            miss: Trend,
        }
        let tenant_trends: Vec<TenantTrends> = prev
            .tenants
            .iter()
            .zip(&cur.tenants)
            .map(|(p, c)| TenantTrends {
                ipc: Trend::classify_with_floor(p.ipc, c.ipc, th, 0.01),
                refs: Trend::classify_with_floor(
                    p.llc_references as f64,
                    c.llc_references as f64,
                    th,
                    COUNT_FLOOR,
                ),
                miss: Trend::classify_with_floor(
                    p.llc_misses as f64,
                    c.llc_misses as f64,
                    th,
                    COUNT_FLOOR,
                ),
            })
            .collect();

        // Level-triggered bootstrap: a perfectly steady stream of DDIO
        // misses above THRESHOLD_MISS_LOW produces no deltas, yet Low Keep
        // must still escalate (on real hardware counter jitter guarantees
        // the edge; the simulator is deterministic, so the level check
        // stands in for it).
        let interval_s = self.config.sleep_interval_s();
        let miss_rate_now = cur.system.ddio_misses as f64 / interval_s;
        let low_keep_pressure = self.state == State::LowKeep
            && miss_rate_now > self.config.threshold_miss_low_per_s;
        // ...and the mirror: an in-progress Reclaim with quiet I/O must run
        // to completion (down to DDIO_WAYS_MIN, then Low Keep) even when
        // the counters have flattened.
        let reclaim_pending = self.state == State::Reclaim
            && miss_rate_now <= self.config.threshold_miss_low_per_s;

        let unstable = ddio_changed
            || low_keep_pressure
            || reclaim_pending
            || tenant_trends.iter().any(|t| t.ipc.changed() || t.refs.changed() || t.miss.changed());
        if !unstable {
            return self.stable_report(rdt, cost_ns, stamp, rec);
        }

        cost_ns += self.cost.fsm_eval_ns;
        let refs_now: Vec<u64> = cur.tenants.iter().map(|t| t.llc_references).collect();

        // The paper's three special cases (Sec. IV-B).
        let only_ipc = !ddio_changed
            && !low_keep_pressure
            && !reclaim_pending
            && tenant_trends.iter().all(|t| !t.refs.changed() && !t.miss.changed());
        if only_ipc {
            // Case (1): neither cache/memory nor I/O; ignore.
            return self.finish(rdt, Action::None, false, cost_ns, writes_before, stamp, rec);
        }

        let ddio_mask = rdt.ddio_mask();

        // I/O-iso invariant: if the DDIO register moved under us (e.g. a
        // manual reconfiguration), re-plan so no tenant sits in DDIO ways.
        if self.flags.exclude_ddio {
            let violated = self
                .tenants
                .iter()
                .any(|t| rdt.clos_mask(t.clos).overlaps(ddio_mask));
            if violated {
                if rec.enabled() {
                    rec.record(Event::Shuffle { stamp, reason: "exclude-violation".to_string() });
                }
                let placements = self.plan(&refs_now, rdt.ddio_ways());
                apply(&placements, rdt);
                return self.finish(rdt, Action::Shuffle, false, cost_ns, writes_before, stamp, rec);
            }
        }

        // Case (2): a non-I/O tenant with no DDIO overlap demands LLC —
        // core-oriented mechanisms handle it. We embed a dCAT-style
        // grow-by-one fallback, which is also exactly what the Core-only
        // baseline does. The aggregation model's software stack (whose LLC
        // demand grows with its flow tables, paper Fig. 9) is eligible too:
        // Core Demand grows the stack's cores first (Sec. IV-D).
        let candidate = self.tenants.iter().enumerate().find(|(i, t)| {
            // Growth continuation: the previous grant went to this tenant
            // and its IPC is still improving — the extra capacity helped,
            // keep granting one way per iteration until it stabilizes.
            let continuing = matches!(self.last_action, Action::GrowTenant(j) if j == *i)
                && tenant_trends[*i].ipc == Trend::Up;
            (!t.is_io || t.priority == Priority::Stack)
                && !rdt.clos_mask(t.clos).overlaps(ddio_mask)
                && tenant_trends[*i].ipc.changed()
                && (tenant_trends[*i].refs.changed() || tenant_trends[*i].miss.changed())
                && (tenant_trends[*i].miss == Trend::Up || continuing)
        });
        if let Some((idx, _)) = candidate {
            if self.flags.tenant_realloc && self.try_grow_tenant(idx, rdt.ddio_ways()) {
                if rec.enabled() {
                    rec.record(Event::TenantResize {
                        stamp,
                        agent: self.tenants[idx].agent.index(),
                        from_ways: self.way_counts[idx] - 1,
                        to_ways: self.way_counts[idx],
                    });
                }
                let placements = self.plan(&refs_now, rdt.ddio_ways());
                apply(&placements, rdt);
                return self.finish(
                    rdt,
                    Action::GrowTenant(idx),
                    false,
                    cost_ns,
                    writes_before,
                    stamp,
                    rec,
                );
            }
        }

        if ddio_changed {
            // Case (3): a non-I/O tenant overlapping DDIO degraded along
            // with DDIO activity — try shuffling first.
            let overlapped_degraded = self.tenants.iter().enumerate().any(|(i, t)| {
                !t.is_io
                    && rdt.clos_mask(t.clos).overlaps(ddio_mask)
                    && tenant_trends[i].ipc.changed()
                    && (tenant_trends[i].refs.changed() || tenant_trends[i].miss.changed())
            });
            if overlapped_degraded && self.flags.shuffle {
                let placements = self.plan(&refs_now, rdt.ddio_ways());
                let changed = placements
                    .iter()
                    .any(|p| rdt.clos_mask(p.clos) != p.mask);
                if changed {
                    if rec.enabled() {
                        rec.record(Event::Shuffle {
                            stamp,
                            reason: "overlap-degraded".to_string(),
                        });
                    }
                    apply(&placements, rdt);
                    return self.finish(
                        rdt,
                        Action::Shuffle,
                        false,
                        cost_ns,
                        writes_before,
                        stamp,
                        rec,
                    );
                }
            }
        }

        if !self.flags.io_demand {
            // Without the FSM there is nothing else to do.
            return self.finish(rdt, Action::None, false, cost_ns, writes_before, stamp, rec);
        }

        // State Transition (Fig. 6).
        let miss_rate = miss_rate_now;
        let ddio_ways = rdt.ddio_ways();
        let signals = Signals {
            miss_high: miss_rate > self.config.threshold_miss_low_per_s,
            hit_trend,
            miss_trend,
            refs_trend,
            at_min: ddio_ways <= self.config.ddio_ways_min,
            at_max: ddio_ways >= self.config.ddio_ways_max,
        };
        let next = fsm::next_state(self.state, signals);
        if rec.enabled() {
            rec.record(Event::FsmTransition {
                stamp,
                from: self.state.to_string(),
                to: next.to_string(),
                miss_high: signals.miss_high,
                at_min: signals.at_min,
                at_max: signals.at_max,
            });
        }
        self.transitions += 1;
        self.state = next;

        // LLC Re-alloc.
        let action = match next {
            State::LowKeep | State::HighKeep => Action::None,
            State::IoDemand => {
                if ddio_ways < self.config.ddio_ways_max {
                    let target = ddio_ways + 1;
                    rdt.set_ddio_mask(self.ddio_mask_for(target))
                        .expect("valid ddio mask");
                    if rec.enabled() {
                        rec.record(Event::DdioResize {
                            stamp,
                            from_ways: ddio_ways,
                            to_ways: target,
                        });
                    }
                    Action::GrowDdio
                } else {
                    Action::None
                }
            }
            State::CoreDemand => {
                if self.flags.tenant_realloc {
                    match self.select_core_demand_tenant(&prev, &cur) {
                        Some(idx) if self.try_grow_tenant(idx, rdt.ddio_ways()) => {
                            if rec.enabled() {
                                rec.record(Event::TenantResize {
                                    stamp,
                                    agent: self.tenants[idx].agent.index(),
                                    from_ways: self.way_counts[idx] - 1,
                                    to_ways: self.way_counts[idx],
                                });
                            }
                            Action::GrowTenant(idx)
                        }
                        _ => Action::None,
                    }
                } else {
                    Action::None
                }
            }
            State::Reclaim => {
                if ddio_ways > self.config.ddio_ways_min {
                    rdt.set_ddio_mask(self.ddio_mask_for(ddio_ways - 1))
                        .expect("valid ddio mask");
                    if rec.enabled() {
                        rec.record(Event::DdioResize {
                            stamp,
                            from_ways: ddio_ways,
                            to_ways: ddio_ways - 1,
                        });
                    }
                    Action::ShrinkDdio
                } else if self.flags.tenant_realloc {
                    match self.select_reclaim_tenant(&refs_now) {
                        Some(idx) => {
                            self.way_counts[idx] -= 1;
                            if rec.enabled() {
                                rec.record(Event::TenantResize {
                                    stamp,
                                    agent: self.tenants[idx].agent.index(),
                                    from_ways: self.way_counts[idx] + 1,
                                    to_ways: self.way_counts[idx],
                                });
                            }
                            Action::ShrinkTenant(idx)
                        }
                        None => Action::None,
                    }
                } else {
                    Action::None
                }
            }
        };

        // Re-plan after any resize (and to realize shuffling targets).
        if action != Action::None {
            let placements = self.plan(&refs_now, rdt.ddio_ways());
            apply(&placements, rdt);
        }
        self.finish(rdt, action, false, cost_ns, writes_before, stamp, rec)
    }
}

impl IatDaemon {
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        rdt: &mut Rdt,
        action: Action,
        stable: bool,
        mut cost_ns: f64,
        writes_before: u64,
        stamp: Stamp,
        rec: &mut dyn Recorder,
    ) -> StepReport {
        let msr_writes = rdt.msr_writes() - writes_before;
        cost_ns += self.cost.realloc_ns(msr_writes);
        self.last_action = action;
        let report = StepReport { state: self.state, action, stable, cost_ns, msr_writes };
        flush_trace(rdt, stamp, &report, rec);
        report
    }

    /// The early-return stable report: no FSM, no re-alloc, no
    /// `last_action` update — identical to the untraced daemon, plus the
    /// per-iteration [`Event::Decision`].
    fn stable_report(
        &self,
        rdt: &mut Rdt,
        cost_ns: f64,
        stamp: Stamp,
        rec: &mut dyn Recorder,
    ) -> StepReport {
        let report = StepReport {
            state: self.state,
            action: Action::None,
            stable: true,
            cost_ns,
            msr_writes: 0,
        };
        flush_trace(rdt, stamp, &report, rec);
        report
    }

    /// Grows the tenant at `idx` by one way if total allocation allows.
    fn try_grow_tenant(&mut self, idx: usize, ddio_ways: u8) -> bool {
        let total: u32 = self.way_counts.iter().map(|&w| w as u32).sum();
        let limit = if self.flags.exclude_ddio {
            (self.planner.ways() - ddio_ways) as u32
        } else {
            self.planner.ways() as u32
        };
        if total < limit {
            self.way_counts[idx] += 1;
            true
        } else {
            false
        }
    }

    /// Core Demand target selection (Sec. IV-D): in the aggregation model,
    /// the software stack; in the slicing model, the I/O tenant with the
    /// largest increase in LLC miss rate (percentage points).
    fn select_core_demand_tenant(
        &self,
        prev: &IntervalDeltas,
        cur: &IntervalDeltas,
    ) -> Option<usize> {
        if let Some(idx) = self.tenants.iter().position(|t| t.priority == Priority::Stack) {
            return Some(idx);
        }
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_io)
            .map(|(i, _)| {
                let d = cur.tenants[i].miss_rate() - prev.tenants[i].miss_rate();
                (i, d)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite miss rates"))
            .map(|(i, _)| i)
    }

    /// Reclaim target selection: the tenant with the smallest LLC reference
    /// count still holding more than one way.
    fn select_reclaim_tenant(&self, refs: &[u64]) -> Option<usize> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(i, _)| self.way_counts[*i] > 1)
            .min_by_key(|(i, _)| refs.get(*i).copied().unwrap_or(0))
            .map(|(i, _)| i)
    }
}

/// Programs a planned layout into the register file, skipping unchanged
/// masks (real `wrmsr`s are not free).
fn apply(placements: &[Placement], rdt: &mut Rdt) {
    for p in placements {
        if rdt.clos_mask(p.clos) != p.mask {
            rdt.set_clos_mask(p.clos, p.mask).expect("planner produces valid masks");
        }
    }
}

/// Drains the register-write journal into [`Event::MaskWrite`]s, turns
/// the journal back off, and closes the iteration with its
/// [`Event::Decision`]. No-op (and no journal interaction) when the
/// recorder is disabled.
fn flush_trace(rdt: &mut Rdt, stamp: Stamp, report: &StepReport, rec: &mut dyn Recorder) {
    if !rec.enabled() {
        return;
    }
    for w in rdt.drain_journal() {
        rec.record(Event::MaskWrite {
            stamp,
            target: w.target.name().to_string(),
            clos: w.clos,
            mask: w.bits,
        });
    }
    rdt.disable_journal();
    rec.record(Event::Decision {
        stamp,
        state: report.state.to_string(),
        action: format!("{:?}", report.action),
        stable: report.stable,
        msr_writes: report.msr_writes,
        cost_ns: report.cost_ns as u64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_cachesim::AgentId;
    use iat_perf::{CoreCounters, SystemSample, TenantSample};
    use iat_rdt::ClosId;

    fn tenant(id: u16, priority: Priority, is_io: bool, ways: u8) -> TenantInfo {
        TenantInfo {
            agent: AgentId::new(id),
            clos: ClosId::new((id + 1) as u8),
            cores: vec![id as usize],
            priority,
            is_io,
            initial_ways: ways,
        }
    }

    /// Builds a cumulative poll; the test drives absolute counters.
    fn poll(tenants: &[(u16, u64, u64, u64, u64)], hits: u64, misses: u64) -> Poll {
        Poll {
            tenants: tenants
                .iter()
                .map(|&(id, instr, cycles, refs, miss)| TenantSample {
                    agent: AgentId::new(id),
                    core: CoreCounters { instructions: instr, cycles },
                    llc_references: refs,
                    llc_misses: miss,
                })
                .collect(),
            system: SystemSample {
                ddio_hits: hits,
                ddio_misses: misses,
                mem_read_bytes: 0,
                mem_write_bytes: 0,
            },
            cost_ns: 100_000.0,
        }
    }

    fn daemon() -> (IatDaemon, Rdt) {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        d.set_tenants(
            vec![tenant(0, Priority::Pc, true, 2), tenant(1, Priority::Be, false, 2)],
            &mut rdt,
        );
        (d, rdt)
    }

    #[test]
    fn initial_alloc_programs_masks() {
        let (_, rdt) = daemon();
        // Both tenants programmed, contiguous, non-overlapping.
        let m0 = rdt.clos_mask(ClosId::new(1));
        let m1 = rdt.clos_mask(ClosId::new(2));
        assert_eq!(m0.count(), 2);
        assert_eq!(m1.count(), 2);
        assert!(!m0.overlaps(m1));
    }

    #[test]
    fn way_counts_track_tenant_allocation() {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        assert!(d.way_counts().is_empty());
        d.set_tenants(
            vec![tenant(0, Priority::Pc, true, 3), tenant(1, Priority::Be, false, 2)],
            &mut rdt,
        );
        assert_eq!(d.way_counts(), &[3, 2]);
        assert_eq!(d.way_counts()[0], d.tenant_ways(0));
    }

    #[test]
    fn first_two_polls_prime_without_action() {
        let (mut d, mut rdt) = daemon();
        let r1 = d.step(&mut rdt, poll(&[(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)], 0, 0));
        assert!(r1.stable);
        let r2 = d.step(&mut rdt, poll(&[(0, 10, 10, 1, 0), (1, 10, 10, 1, 0)], 0, 0));
        assert!(r2.stable);
    }

    /// Drives the daemon with a sequence of *interval delta targets* by
    /// accumulating them into cumulative polls.
    struct Driver {
        acc: Vec<(u16, u64, u64, u64, u64)>,
        hits: u64,
        misses: u64,
    }

    impl Driver {
        fn new() -> Self {
            Driver { acc: vec![(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)], hits: 0, misses: 0 }
        }

        fn interval(
            &mut self,
            t0: (u64, u64, u64, u64),
            t1: (u64, u64, u64, u64),
            hits: u64,
            misses: u64,
        ) -> Poll {
            let add = |acc: &mut (u16, u64, u64, u64, u64), d: (u64, u64, u64, u64)| {
                acc.1 += d.0;
                acc.2 += d.1;
                acc.3 += d.2;
                acc.4 += d.3;
            };
            add(&mut self.acc[0], t0);
            add(&mut self.acc[1], t1);
            self.hits += hits;
            self.misses += misses;
            poll(&self.acc, self.hits, self.misses)
        }
    }

    const CALM: (u64, u64, u64, u64) = (1_000_000, 1_000_000, 10_000, 100);

    #[test]
    fn io_surge_grows_ddio_ways() {
        let (mut d, mut rdt) = daemon();
        let mut drv = Driver::new();
        // Prime with two identical calm intervals.
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        assert_eq!(rdt.ddio_ways(), 2);
        // Traffic surge: many more DDIO misses and hits.
        let r = d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, 5_000_000));
        assert_eq!(r.state, State::IoDemand);
        assert_eq!(r.action, Action::GrowDdio);
        assert_eq!(rdt.ddio_ways(), 3);
        // Sustained, still-growing surge keeps adding one way per
        // iteration up to the max (a perfectly flat surge would read as
        // *stable* and leave the FSM untouched, as the paper specifies).
        let mut misses = 5_000_000u64;
        for _ in 0..10 {
            misses += misses / 5;
            d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, misses));
        }
        assert_eq!(rdt.ddio_ways(), d.config().ddio_ways_max);
        assert_eq!(d.state(), State::HighKeep);
    }

    #[test]
    fn traffic_subsides_reclaims_ddio_ways() {
        let (mut d, mut rdt) = daemon();
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        // Grow twice.
        d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, 5_000_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 52_000, 6_000_000));
        assert_eq!(rdt.ddio_ways(), 4);
        // Traffic collapses: misses keep dropping -> Reclaim down to min.
        let r = d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, 1_000));
        assert_eq!(r.state, State::Reclaim);
        assert_eq!(r.action, Action::ShrinkDdio);
        let mut misses = 1_000u64;
        for _ in 0..5 {
            misses -= misses / 10;
            d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, misses));
        }
        assert_eq!(rdt.ddio_ways(), d.config().ddio_ways_min);
        assert_eq!(d.state(), State::LowKeep);
    }

    #[test]
    fn core_pressure_grows_stack_tenant() {
        // Aggregation model: tenant 0 is the stack.
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        d.set_tenants(
            vec![tenant(0, Priority::Stack, true, 2), tenant(1, Priority::Be, false, 2)],
            &mut rdt,
        );
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 100_000, 2_000_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 100_000, 2_000_000));
        // Core demand signature: the stack's LLC misses surge while its
        // IPC moves — the aggregation model grows the stack's ways first
        // (via the case-2 fast path; the FSM's Core Demand state covers
        // the DDIO-coupled variant).
        let surge = (2_000_000, 1_000_000, 80_000, 8_000);
        let r = d.step(&mut rdt, drv.interval(surge, CALM, 40_000, 2_500_000));
        assert_eq!(r.action, Action::GrowTenant(0));
        assert_eq!(d.tenant_ways(0), 3);
        assert_eq!(rdt.clos_mask(ClosId::new(1)).count(), 3);
    }

    #[test]
    fn stable_system_sleeps() {
        let (mut d, mut rdt) = daemon();
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        let before = rdt.msr_writes();
        // Identical deltas: stable; no FSM, no writes.
        let r = d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        assert!(r.stable);
        assert_eq!(r.action, Action::None);
        assert_eq!(rdt.msr_writes(), before);
    }

    #[test]
    fn core_only_never_touches_ddio() {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::core_only(), 11);
        d.set_tenants(
            vec![tenant(0, Priority::Pc, true, 2), tenant(1, Priority::Be, false, 2)],
            &mut rdt,
        );
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        for _ in 0..5 {
            d.step(&mut rdt, drv.interval(CALM, CALM, 50_000, 9_000_000));
        }
        assert_eq!(rdt.ddio_ways(), 2, "Core-only must leave DDIO alone");
    }

    #[test]
    fn core_only_grows_demanding_non_io_tenant() {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::core_only(), 11);
        d.set_tenants(
            vec![tenant(0, Priority::Pc, true, 2), tenant(1, Priority::Be, false, 2)],
            &mut rdt,
        );
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 1_000, 1_000));
        // Tenant 1 (non-I/O, no DDIO overlap) shows an LLC-driven phase
        // change; DDIO counters stay flat.
        let demand = (500_000, 1_000_000, 400_000, 200_000);
        let r = d.step(&mut rdt, drv.interval(CALM, demand, 1_000, 1_000));
        assert_eq!(r.action, Action::GrowTenant(1));
        assert_eq!(d.tenant_ways(1), 3);
    }

    #[test]
    fn io_iso_keeps_tenants_out_of_ddio_ways() {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::io_iso(), 11);
        // Manually widen DDIO to 4 ways (7..11), as the paper's Fig. 10
        // experiment does at t=15 s.
        rdt.set_ddio_mask(WayMask::contiguous(7, 4).unwrap()).unwrap();
        d.set_tenants(
            vec![
                tenant(0, Priority::Pc, false, 4),
                tenant(1, Priority::Pc, false, 4),
            ],
            &mut rdt,
        );
        // 8 ways requested but only 11 - 4 = 7 available below DDIO.
        let ddio_region = rdt.ddio_mask();
        let total: u8 = [ClosId::new(1), ClosId::new(2)]
            .iter()
            .map(|&c| {
                assert!(!rdt.clos_mask(c).overlaps(ddio_region));
                rdt.clos_mask(c).count()
            })
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn grow_is_bounded_by_llc_capacity() {
        let mut rdt = Rdt::new(11, 8);
        let mut d = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        d.set_tenants(
            vec![tenant(0, Priority::Stack, true, 6), tenant(1, Priority::Be, false, 4)],
            &mut rdt,
        );
        let mut drv = Driver::new();
        d.step(&mut rdt, drv.interval(CALM, CALM, 100_000, 2_000_000));
        d.step(&mut rdt, drv.interval(CALM, CALM, 100_000, 2_000_000));
        let surge = (2_000_000, 1_000_000, 80_000, 8_000);
        // One grow fits (6+4=10 < 11)...
        let r = d.step(&mut rdt, drv.interval(surge, CALM, 40_000, 2_500_000));
        assert_eq!(r.action, Action::GrowTenant(0));
        // ...the next one must be refused (11 == 11).
        let r = d.step(&mut rdt, drv.interval(surge, CALM, 15_000, 3_200_000));
        assert_ne!(r.action, Action::GrowTenant(0));
        let total: u32 = (0..2).map(|i| d.tenant_ways(i) as u32).sum();
        assert!(total <= 11);
    }
}
