//! Test support shared by the workload modules: slice runners, the
//! trace that the serial-vs-windowed tests compare, and the snapshot
//! that pins the workload bodies.

use crate::ctx::{Channels, ExecCtx, ExecResult, Workload, WorkloadMetrics};
use crate::phase::{Fingerprint, ReuseSketch};
use iat_cachesim::{AgentId, CacheGeometry, LatencyModel, MemoryHierarchy, WayMask};
use iat_netsim::{FlowId, PacketBatch, VirtualFunction};

/// DMA-delivers one `size`-byte packet per flow into `vf`'s
/// Rx ring, applying the DDIO line writes one access at a time.
pub(crate) fn deliver(
    h: &mut MemoryHierarchy,
    ddio: WayMask,
    vf: &mut VirtualFunction,
    flows: impl IntoIterator<Item = FlowId>,
    size: u32,
) {
    let batch = PacketBatch { flows: flows.into_iter().collect(), size };
    vf.dma.rx_batch(&mut vf.rx, &batch, |a| {
        h.io_write(ddio, a);
    });
}

/// A two-core tiny hierarchy with the given access costs.
pub(crate) fn tiny_hierarchy(latency: LatencyModel) -> MemoryHierarchy {
    MemoryHierarchy::new(
        CacheGeometry::tiny(),
        CacheGeometry::new(2, 8, 1).expect("valid geometry"),
        2,
        latency,
    )
}

/// Runs one slice of `w` on core 0 under `mask`, lending
/// `sketch` if given.
pub(crate) fn run_slice<W: Workload>(
    h: &mut MemoryHierarchy,
    channels: &mut Channels,
    sketch: Option<&mut ReuseSketch>,
    w: &mut W,
    mask: WayMask,
    budget: u64,
) -> ExecResult {
    let mut ctx = ExecCtx {
        cache: h,
        sketch,
        channels,
        core: 0,
        agent: AgentId::new(0),
        mask,
        cycle_budget: budget,
    };
    w.run(&mut ctx)
}

/// What one workload run, slice by slice, leaves behind.
/// The serial-vs-windowed tests compare two of these; the trace snapshot
/// pins the digests of the fixed schedules.
#[derive(Debug, PartialEq)]
pub(crate) struct Trace {
    results: Vec<ExecResult>,
    /// The lent sketch's fingerprint, drained after every slice.
    sketch: Vec<Fingerprint>,
    pub metrics: WorkloadMetrics,
    /// Debug renderings of the workload's own state: its latency
    /// reservoir, rings, channels and counters.
    state: Vec<String>,
    accesses: u64,
    llc: u64,
}

impl Trace {
    /// The snapshot lines of this trace, headed `[name]`: slice results
    /// as `instructions/cycles`, metrics, accesses and the LLC digest as
    /// they are, the sketch fingerprints and each state rendering as an
    /// FNV-1a digest.
    pub fn digest(&self, name: &str) -> String {
        let fnv = |s: &str| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        };
        let results: Vec<String> =
            self.results.iter().map(|r| format!("{}/{}", r.instructions, r.cycles_used)).collect();
        let mut out = format!("[{name}]\nresults {}\nmetrics {:?}\n", results.join(" "), self.metrics);
        out += &format!("sketch {:016x}\n", fnv(&format!("{:?}", self.sketch)));
        for s in &self.state {
            out += &format!("state {:016x}\n", fnv(s));
        }
        out + &format!("accesses {} llc {:016x}\n", self.accesses, self.llc)
    }
}

/// Runs one workload slice by slice on core 0, lending it a
/// reuse sketch, and collects its [`Trace`].
pub(crate) struct Tracer {
    pub h: MemoryHierarchy,
    pub ch: Channels,
    sketch: ReuseSketch,
    results: Vec<ExecResult>,
    fingerprints: Vec<Fingerprint>,
}

impl Tracer {
    /// A tracer over `h` with no channels yet.
    pub fn new(h: MemoryHierarchy) -> Self {
        Tracer {
            h,
            ch: Channels::new(),
            sketch: ReuseSketch::new(),
            results: Vec::new(),
            fingerprints: Vec::new(),
        }
    }

    /// Runs one slice of `w` under `mask`, with the hierarchy's statistics
    /// frozen for it if `frozen`.
    pub fn slice<W: Workload>(&mut self, w: &mut W, mask: WayMask, budget: u64, frozen: bool) {
        self.h.set_stats_frozen(frozen);
        let r = run_slice(&mut self.h, &mut self.ch, Some(&mut self.sketch), w, mask, budget);
        self.h.set_stats_frozen(false);
        self.results.push(r);
        self.fingerprints.push(self.sketch.drain(0));
    }

    /// Closes the trace with the workload's `metrics` and `state`.
    pub fn finish(self, metrics: WorkloadMetrics, state: Vec<String>) -> Trace {
        Trace {
            results: self.results,
            sketch: self.fingerprints,
            metrics,
            state,
            accesses: self.h.accesses(),
            llc: self.h.llc().state_digest(),
        }
    }
}

/// Asserts that every fixed schedule of `traces` leaves
/// the same trace under serial and windowed resolution.
pub(crate) fn assert_resolutions_agree(traces: fn(bool) -> Vec<(String, Trace)>) {
    for ((name, windowed), (_, serial)) in traces(false).into_iter().zip(traces(true)) {
        assert_eq!(windowed, serial, "{name}");
    }
}

/// Pins the workload bodies, which the serial-vs-windowed tests share
/// and so cannot check: the digests of every fixed schedule, recorded
/// when each workload still had a hand-written access-at-a-time loop
/// that agreed with it. A body change that moves any access, cost or
/// counter fails here; when one is meant, regenerate
/// `tests/snapshots/workload_traces.txt` from the digests and review
/// the diff.
#[test]
fn fixed_traces_match_snapshot() {
    let schedules = [
        crate::fwd::tests::fixed_traces,
        crate::ovs::tests::fixed_traces,
        crate::echo::tests::fixed_traces,
        crate::kvs::tests::fixed_traces,
        crate::nfchain::tests::fixed_traces,
        crate::rocks::tests::fixed_traces,
        crate::spec::tests::fixed_traces,
        crate::xmem::tests::fixed_traces,
    ];
    let actual: String =
        schedules.iter().flat_map(|f| f(false)).map(|(name, t)| t.digest(&name)).collect();
    let expected = include_str!("../tests/snapshots/workload_traces.txt");
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w != g => panic!(
                "workload traces differ from tests/snapshots/workload_traces.txt at line {line}:\n  snapshot: {}\n  traced:   {}",
                w.unwrap_or("<end>"),
                g.unwrap_or("<end>")
            ),
            _ => {}
        }
    }
}
