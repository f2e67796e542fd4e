//! The flight recorder watches a whole daemon run: driving the Leaky-DMA
//! scenario with a [`RingRecorder`] attached must yield an ordered,
//! self-consistent decision trace — poll samples, Fig. 6 FSM edges that
//! actually exist in the paper's state machine, the re-allocations IAT
//! performed, and a JSONL round trip that loses nothing.

use iat_repro::cachesim::AgentId;
use iat_repro::iat::{IatConfig, IatDaemon, IatFlags, LlcPolicy, Priority, TenantInfo};
use iat_repro::netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
use iat_repro::perf::{DdioSampleMode, Monitor};
use iat_repro::platform::{record_poll, Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_repro::rdt::ClosId;
use iat_repro::telemetry::{
    DecisionRecorder, Event, JsonlRecorder, NullRecorder, Recorder, RingRecorder, SpanTracer, Stamp,
};
use iat_repro::workloads::TestPmd;

fn build() -> (Platform, IatDaemon, Monitor) {
    let config = PlatformConfig { time_scale: 500, ..PlatformConfig::xeon_6140() };
    let mut platform = Platform::new(config);
    let mut nic = Nic::with_pool(64 << 30, 1, 1024, 2112, 3072);
    platform.add_tenant(Tenant {
        id: TenantId(0),
        name: "testpmd".into(),
        agent: AgentId::new(0),
        cores: vec![0, 1],
        clos: ClosId::new(1),
        workload: Box::new(TestPmd::new(nic.vf_mut(VfId(0)).clone())),
        bindings: vec![TrafficBinding {
            port: 0,
            gen: TrafficGen::new(
                40_000_000_000,
                1500,
                FlowDist::Single(FlowId(0)),
                TrafficPattern::Constant,
                42,
            ),
        }],
    });
    let mut daemon = IatDaemon::new(
        IatConfig { threshold_miss_low_per_s: config.scale_rate(1e6), ..IatConfig::paper() },
        IatFlags::full(),
        config.llc.ways(),
    );
    daemon.set_tenants(
        vec![TenantInfo {
            agent: AgentId::new(0),
            clos: ClosId::new(1),
            cores: vec![0, 1],
            priority: Priority::Pc,
            is_io: true,
            initial_ways: 2,
        }],
        platform.rdt_mut(),
    );
    let monitor = Monitor::new(platform.monitor_spec(), DdioSampleMode::OneSlice(0));
    (platform, daemon, monitor)
}

fn traced_run(intervals: u64) -> Vec<Event> {
    let (mut platform, mut daemon, monitor) = build();
    let mut rec = RingRecorder::new(4096);
    for iter in 1..=intervals {
        platform.run_epochs(platform.epochs_per_second());
        let stamp = Stamp { iter, time_ns: platform.time_ns() };
        let poll = monitor.poll(platform.llc(), platform.bank());
        record_poll(&poll, stamp, &mut rec);
        daemon.step_traced(platform.rdt_mut(), poll, stamp.time_ns, &mut rec);
    }
    assert_eq!(rec.dropped(), 0, "ring must be large enough for a clean trace");
    rec.drain()
}

/// Every `(from, to)` pair the paper's Fig. 6 machine can take,
/// self-edges included (the daemon records the evaluation even when the
/// state holds).
fn edge_is_valid(from: &str, to: &str) -> bool {
    let outgoing: &[&str] = match from {
        "low-keep" => &["low-keep", "io-demand", "core-demand"],
        "core-demand" => &["core-demand", "reclaim", "io-demand"],
        "io-demand" => &["io-demand", "core-demand", "reclaim", "high-keep"],
        "high-keep" => &["high-keep", "core-demand", "reclaim"],
        "reclaim" => &["reclaim", "io-demand", "core-demand", "low-keep"],
        _ => &[],
    };
    outgoing.contains(&to)
}

#[test]
fn leaky_dma_run_emits_ordered_decision_trace() {
    let events = traced_run(10);
    assert!(!events.is_empty(), "a traced run must record events");

    // Stamps never go backwards.
    for w in events.windows(2) {
        assert!(
            w[1].stamp().iter >= w[0].stamp().iter,
            "iteration stamps must be non-decreasing: {:?} then {:?}",
            w[0],
            w[1]
        );
        assert!(w[1].stamp().time_ns >= w[0].stamp().time_ns);
    }

    // The trace holds the full story: samples, FSM edges, at least one
    // re-allocation (line-rate MTU traffic must grow DDIO), the register
    // writes behind it, and one decision per iteration.
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    assert_eq!(count("poll_sample"), 10, "one poll sample per interval");
    assert_eq!(count("decision"), 10, "one decision per interval");
    assert!(count("fsm_transition") >= 1, "unstable iterations reach the FSM");
    assert!(
        count("ddio_resize") + count("tenant_resize") + count("shuffle") >= 1,
        "line-rate traffic must trigger at least one re-allocation"
    );
    assert!(count("mask_write") >= 1, "re-allocations must journal register writes");
}

#[test]
fn fsm_edges_in_trace_match_fig6() {
    let events = traced_run(12);
    let transitions: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::FsmTransition { from, to, .. } => Some((from.as_str(), to.as_str())),
            _ => None,
        })
        .collect();
    assert!(!transitions.is_empty());
    assert_eq!(transitions[0].0, "low-keep", "the daemon starts in Low Keep");
    for (from, to) in &transitions {
        assert!(edge_is_valid(from, to), "invalid Fig. 6 edge {from} -> {to}");
    }
    // Consecutive evaluations chain: each edge leaves from where the
    // previous one arrived.
    for w in transitions.windows(2) {
        assert_eq!(w[0].1, w[1].0, "FSM edges must chain: {:?} then {:?}", w[0], w[1]);
    }
}

#[test]
fn trace_round_trips_through_jsonl() {
    let events = traced_run(6);
    let mut jsonl = JsonlRecorder::new(Vec::new());
    for e in &events {
        jsonl.record(e.clone());
    }
    let bytes = jsonl.into_inner();
    let text = String::from_utf8(bytes).expect("jsonl is utf-8");
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json_line(l).expect("every line parses back"))
        .collect();
    assert_eq!(parsed, events, "JSONL round trip must be lossless");
}

#[test]
fn decision_recorder_folds_daemon_run_into_step_records() {
    // The decision flight recorder is itself a Recorder: driving the
    // Leaky-DMA loop through it must fold each interval's event stream
    // (poll sample, FSM edges, resizes, the decision) into exactly one
    // assembled StepRecord, chained through the FSM states, and the
    // records must survive the JSONL round trip `repro --trace-out`
    // relies on for results/decisions/<group>.jsonl.
    const INTERVALS: u64 = 8;
    let (mut platform, mut daemon, monitor) = build();
    let mut rec = DecisionRecorder::new(1024);
    rec.seed(platform.rdt().ddio_ways(), &[(AgentId::new(0).index(), 2)]);
    for iter in 1..=INTERVALS {
        platform.run_epochs(platform.epochs_per_second());
        let stamp = Stamp { iter, time_ns: platform.time_ns() };
        let poll = monitor.poll(platform.llc(), platform.bank());
        record_poll(&poll, stamp, &mut rec);
        daemon.step_traced(platform.rdt_mut(), poll, stamp.time_ns, &mut rec);
    }
    assert_eq!(rec.dropped(), 0);
    let records = rec.drain();
    assert_eq!(records.len() as u64, INTERVALS, "one step record per interval");

    let mut prev_after: Option<String> = None;
    for (i, r) in records.iter().enumerate() {
        let Event::StepRecord {
            stamp,
            state_before,
            state_after,
            tenant_ways,
            llc_refs,
            llc_misses,
            miss_trend,
            ..
        } = r
        else {
            panic!("drain must yield only step records, got {r:?}");
        };
        assert_eq!(stamp.iter, i as u64 + 1);
        if let Some(prev) = &prev_after {
            assert_eq!(state_before, prev, "records must chain through FSM states");
        } else {
            assert_eq!(state_before, "low-keep", "the daemon starts in Low Keep");
        }
        assert!(edge_is_valid(state_before, state_after), "{state_before} -> {state_after}");
        prev_after = Some(state_after.clone());
        assert_eq!(tenant_ways.len(), 1, "one tenant registered");
        assert!(["up", "down", "flat"].contains(&miss_trend.as_str()));
        // Line-rate MTU traffic misses every interval; the per-interval
        // deltas (cumulative polls diffed by the recorder) stay sane.
        assert!(llc_refs >= llc_misses, "refs {llc_refs} < misses {llc_misses}");
        assert!(*llc_refs > 0, "line-rate traffic must reference the LLC");
    }
    // At least one interval re-allocates under Leaky-DMA pressure, and
    // the final ways vector matches the live RDT state.
    let last_ddio = records.iter().rev().find_map(|r| match r {
        Event::StepRecord { ddio_ways, .. } => Some(*ddio_ways),
        _ => None,
    });
    assert_eq!(last_ddio, Some(platform.rdt().ddio_ways()));

    let mut jsonl = JsonlRecorder::new(Vec::new());
    for r in &records {
        jsonl.record(r.clone());
    }
    let text = String::from_utf8(jsonl.into_inner()).expect("jsonl is utf-8");
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json_line(l).expect("every decision line parses back"))
        .collect();
    assert_eq!(parsed, records, "decision log round trip must be lossless");
}

#[test]
fn null_recorder_run_is_bit_identical_to_untraced() {
    // `step` delegates to `step_traced` with a NullRecorder, so the
    // uninstrumented loop and the Null-traced loop are the same code; this
    // pins the equivalence (states, register writes, reports) so the
    // overhead guard in benches/iat_overhead.rs stays meaningful.
    let (mut p1, mut d1, m1) = build();
    let (mut p2, mut d2, m2) = build();
    for iter in 1..=10u64 {
        p1.run_epochs(p1.epochs_per_second());
        p2.run_epochs(p2.epochs_per_second());
        let poll1 = m1.poll(p1.llc(), p1.bank());
        let poll2 = m2.poll(p2.llc(), p2.bank());
        let r1 = d1.step(p1.rdt_mut(), poll1);
        let r2 = d2.step_traced(p2.rdt_mut(), poll2, iter, &mut NullRecorder);
        assert_eq!(r1.state, r2.state);
        assert_eq!(r1.stable, r2.stable);
        assert_eq!(r1.msr_writes, r2.msr_writes);
    }
    assert_eq!(p1.rdt().msr_writes(), p2.rdt().msr_writes());
    assert_eq!(p1.rdt().ddio_ways(), p2.rdt().ddio_ways());
}

#[test]
fn null_recorder_overhead_stays_under_two_percent() {
    // The telemetry overhead guard: a daemon loop driven through
    // `step_traced(&mut NullRecorder)` must cost within 2% of the
    // uninstrumented entry point. The two are the same code (`step`
    // delegates to the Null path), so this pins that nobody re-splits
    // them and lets the Null path grow event construction or journal
    // traffic. Synthetic stable polls keep the step itself minimal —
    // the most overhead-sensitive case.
    use iat_repro::perf::{CoreCounters, Poll, SystemSample, TenantSample};
    use iat_repro::rdt::Rdt;
    use std::time::Instant;

    fn synth_poll(base: u64) -> Poll {
        Poll {
            tenants: vec![TenantSample {
                agent: AgentId::new(0),
                core: CoreCounters { instructions: base, cycles: base },
                llc_references: base / 10,
                llc_misses: base / 100,
            }],
            system: SystemSample {
                ddio_hits: base / 5,
                ddio_misses: base / 50,
                mem_read_bytes: 0,
                mem_write_bytes: 0,
            },
            cost_ns: 0.0,
        }
    }

    fn fresh() -> (Rdt, IatDaemon, u64) {
        let mut rdt = Rdt::new(11, 18);
        let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        daemon.set_tenants(
            vec![TenantInfo {
                agent: AgentId::new(0),
                clos: ClosId::new(1),
                cores: vec![0],
                priority: Priority::Pc,
                is_io: true,
                initial_ways: 2,
            }],
            &mut rdt,
        );
        let mut acc = 1_000_000u64;
        daemon.step(&mut rdt, synth_poll(acc));
        acc += 1_000_000;
        daemon.step(&mut rdt, synth_poll(acc));
        (rdt, daemon, acc)
    }

    const ITERS: u64 = 5_000;
    let timed_untraced = || {
        let (mut rdt, mut daemon, mut acc) = fresh();
        let t0 = Instant::now();
        for _ in 0..ITERS {
            acc += 1_000_000;
            std::hint::black_box(daemon.step(&mut rdt, synth_poll(acc)));
        }
        t0.elapsed()
    };
    let timed_null = || {
        let (mut rdt, mut daemon, mut acc) = fresh();
        let t0 = Instant::now();
        for _ in 0..ITERS {
            acc += 1_000_000;
            std::hint::black_box(daemon.step_traced(
                &mut rdt,
                synth_poll(acc),
                acc,
                &mut NullRecorder,
            ));
        }
        t0.elapsed()
    };

    // Identical code paths land within a fraction of a percent of each
    // other; the paired median (see `paired_median_ratio`) keeps host
    // noise out of the comparison. The 2% bound is a release property —
    // debug keeps the un-inlined virtual-call cost visible (a consistent
    // few percent), so there the guard only catches gross regressions.
    let bound = if cfg!(debug_assertions) { 1.25 } else { 1.02 };
    let ratio = paired_median_ratio(timed_untraced, timed_null);
    assert!(
        ratio <= bound,
        "NullRecorder loop must stay within {:.0}% of uninstrumented: median ratio {ratio:.4}",
        (bound - 1.0) * 100.0,
    );
}

/// Median over paired rounds of the ratio `measured / baseline` wall
/// time. Each round times both sides back to back, alternating which one
/// goes first, so load on a shared host that drifts between rounds (or
/// favours the first or second slot) lands on both sides of a ratio; the
/// median then drops the rounds a burst still splits. Many short rounds
/// keep each pair closer in time than a few long ones, which is what
/// holds the median inside 2% while the other tests of this binary load
/// the second core.
fn paired_median_ratio(
    baseline: impl Fn() -> std::time::Duration,
    measured: impl Fn() -> std::time::Duration,
) -> f64 {
    const ROUNDS: usize = 61;
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let (base, meas) = if round % 2 == 0 {
                let base = baseline();
                (base, measured())
            } else {
                let meas = measured();
                (baseline(), meas)
            };
            meas.as_secs_f64() / base.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ROUNDS / 2]
}

#[test]
fn disabled_span_tracer_overhead_stays_under_two_percent() {
    // The span-tracer overhead guard, companion to the NullRecorder one
    // above: instrumenting the daemon loop with the production idiom —
    // `tracer.enabled().then(|| tracer.begin(..))`, the pattern the
    // platform epoch loop and the LLC flush path use, at production
    // granularity (one scope per epoch-segment-sized chunk of steps, not
    // per step) — must cost within 2% of the bare loop when the tracer
    // is disabled. The guard is one branch on a cached bool; this pins
    // that nobody starts paying `begin`'s scope construction (or worse,
    // name allocation or `Instant::now`) before the enabled check. This
    // test binary never calls `span::install_global`, so the
    // process-wide fast path stays disarmed throughout — the state every
    // untraced `repro` run (and the byte-identity guarantee) depends on.
    use iat_repro::perf::{CoreCounters, Poll, SystemSample, TenantSample};
    use iat_repro::rdt::Rdt;
    use std::time::Instant;

    assert!(!iat_repro::telemetry::span::global_enabled(), "global tracer must stay disarmed");

    fn synth_poll(base: u64) -> Poll {
        Poll {
            tenants: vec![TenantSample {
                agent: AgentId::new(0),
                core: CoreCounters { instructions: base, cycles: base },
                llc_references: base / 10,
                llc_misses: base / 100,
            }],
            system: SystemSample {
                ddio_hits: base / 5,
                ddio_misses: base / 50,
                mem_read_bytes: 0,
                mem_write_bytes: 0,
            },
            cost_ns: 0.0,
        }
    }

    fn fresh() -> (Rdt, IatDaemon, u64) {
        let mut rdt = Rdt::new(11, 18);
        let mut daemon = IatDaemon::new(IatConfig::paper(), IatFlags::full(), 11);
        daemon.set_tenants(
            vec![TenantInfo {
                agent: AgentId::new(0),
                clos: ClosId::new(1),
                cores: vec![0],
                priority: Priority::Pc,
                is_io: true,
                initial_ways: 2,
            }],
            &mut rdt,
        );
        let mut acc = 1_000_000u64;
        daemon.step(&mut rdt, synth_poll(acc));
        acc += 1_000_000;
        daemon.step(&mut rdt, synth_poll(acc));
        (rdt, daemon, acc)
    }

    const CHUNKS: u64 = 50;
    const STEPS_PER_CHUNK: u64 = 100;
    let timed_bare = || {
        let (mut rdt, mut daemon, mut acc) = fresh();
        let t0 = Instant::now();
        for _ in 0..CHUNKS {
            for _ in 0..STEPS_PER_CHUNK {
                acc += 1_000_000;
                std::hint::black_box(daemon.step(&mut rdt, synth_poll(acc)));
            }
        }
        t0.elapsed()
    };
    let tracer = SpanTracer::disabled();
    assert!(!tracer.enabled());
    let timed_scoped = || {
        let (mut rdt, mut daemon, mut acc) = fresh();
        let t0 = Instant::now();
        for _ in 0..CHUNKS {
            let _scope = tracer.enabled().then(|| tracer.begin("daemon", "segment"));
            for _ in 0..STEPS_PER_CHUNK {
                acc += 1_000_000;
                std::hint::black_box(daemon.step(&mut rdt, synth_poll(acc)));
            }
        }
        t0.elapsed()
    };

    // Same bound split as the NullRecorder guard above: 2% is the
    // release claim; debug only guards against gross regressions.
    let bound = if cfg!(debug_assertions) { 1.25 } else { 1.02 };
    let ratio = paired_median_ratio(timed_bare, timed_scoped);
    assert!(
        ratio <= bound,
        "disabled span scopes must stay within {:.0}% of the bare loop: median ratio {ratio:.4}",
        (bound - 1.0) * 100.0,
    );
}
