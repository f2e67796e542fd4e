//! X-Mem: the random-read memory microbenchmark (Gottscho et al.,
//! ISPASS'16) the paper uses to emulate cloud applications' memory
//! behaviour (Sec. III-B, Fig. 4 and Fig. 10).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::window::AccessWindow;
use iat_cachesim::LINE_BYTES;

/// Instructions retired per X-Mem read iteration (address generation, load,
/// loop overhead).
const INSTR_PER_OP: u64 = 12;
/// Non-memory cycles per iteration.
const COMPUTE_CYCLES: u64 = 6;

/// X-Mem with the random-read access pattern.
///
/// Each operation reads one uniformly random cache line within the working
/// set; operations are dependent (pointer-chase style), so per-op latency
/// is the access latency plus a small compute cost, and throughput is the
/// inverse — exactly the two metrics the paper reports in Fig. 4/10.
///
/// The working set can be resized at runtime ([`XMem::set_working_set`]) to
/// reproduce the phase changes of Fig. 10 (2 MB → 10 MB at t=5 s).
#[derive(Debug, Clone)]
pub struct XMem {
    base: u64,
    working_set: u64,
    state: u64,
    ops: u64,
    win: AccessWindow,
}

impl XMem {
    /// Creates an X-Mem instance over `working_set` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `working_set` is smaller than one cache line.
    pub fn new(base: u64, working_set: u64, seed: u64) -> Self {
        assert!(working_set >= LINE_BYTES, "working set below one line");
        XMem {
            base,
            working_set,
            state: seed | 1,
            ops: 0,
            win: AccessWindow::with_latency(seed ^ 0xA5A5),
        }
    }

    /// Current working set size in bytes.
    pub fn working_set(&self) -> u64 {
        self.working_set
    }

    /// Resizes the working set (an application phase change).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one cache line.
    pub fn set_working_set(&mut self, bytes: u64) {
        assert!(bytes >= LINE_BYTES, "working set below one line");
        self.working_set = bytes;
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Workload for XMem {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "x-mem"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let lines = self.working_set / LINE_BYTES;
        let accrue = ctx.accrue();
        // One item per dependent read.
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, None, |x, win, _, _| {
            let line = x.next_rand() % lines;
            win.begin_item(COMPUTE_CYCLES);
            win.read(x.base + line * LINE_BYTES);
            win.end_item();
            if accrue {
                x.ops += 1;
            }
            Some(INSTR_PER_OP)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.ops, 0)
    }

    fn reset_metrics(&mut self) {
        self.ops = 0;
        self.win.reset_latency();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Trace, Tracer};
    use iat_cachesim::{LatencyModel, MemoryHierarchy, WayMask};
    use proptest::prelude::*;

    fn run_once(h: &mut MemoryHierarchy, xmem: &mut XMem, mask: WayMask, budget: u64) -> ExecResult {
        crate::run_slice(h, &mut crate::Channels::new(), None, xmem, mask, budget)
    }

    /// Runs a `lines`-line working set on `h`, resolving its accesses
    /// serially if `serial`, through `budgets`, alternating two masks and,
    /// if `freeze`, freezing statistics every fifth slice.
    fn trace(serial: bool, h: MemoryHierarchy, lines: u64, budgets: &[u64], freeze: bool) -> Trace {
        let mut t = Tracer::new(h);
        let mut x = XMem::new(0x100000, lines * LINE_BYTES, 5);
        x.win.serial = serial;
        for (i, &budget) in budgets.iter().enumerate() {
            let mask = if i % 2 == 0 { WayMask::all(4) } else { WayMask::single(1) };
            t.slice(&mut x, mask, budget, freeze && i % 5 == 4);
        }
        let state = vec![format!("{:?}", x.win.latency()), format!("{:?}", x.state)];
        t.finish(x.metrics(), state)
    }

    /// The fixed schedule: a 16 KB working set across mask changes and
    /// uneven budgets.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let budgets: Vec<u64> = (0..8u64).map(|round| 3_000 + round * 1_777).collect();
        vec![("xmem".into(), trace(serial, MemoryHierarchy::tiny(1), 256, &budgets, false))]
    }

    /// Serial and windowed resolution of X-Mem must agree bit-for-bit on
    /// the fixed schedule: per-slice results, the order-sensitive latency
    /// reservoir, the sketch feed and the cache state digest.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random budgets and working sets (L2-resident to several times
        /// the LLC) under two cost models: moving every access cost moves
        /// every window cut, and windowed resolution must still equal
        /// serial resolution.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            budgets in proptest::collection::vec(1u64..60_000, 1..8),
            lines in 1u64..1024,
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            prop_assert_eq!(
                trace(false, crate::tiny_hierarchy(lat), lines, &budgets, true),
                trace(true, crate::tiny_hierarchy(lat), lines, &budgets, true)
            );
        }
    }

    #[test]
    fn small_working_set_is_fast() {
        // Working set fits in the tiny L2 (1 KB): after warm-up nearly all
        // accesses hit L2, so ops per budget is near budget/(l2+compute).
        let mut h = MemoryHierarchy::tiny(1);
        let mut x = XMem::new(0x100000, 512, 7);
        run_once(&mut h, &mut x, WayMask::all(4), 50_000); // warm
        x.reset_metrics();
        run_once(&mut h, &mut x, WayMask::all(4), 100_000);
        let m = x.metrics();
        assert!(m.avg_op_cycles < 25.0, "expected L2-resident latency, got {}", m.avg_op_cycles);
    }

    #[test]
    fn more_ways_means_more_throughput() {
        // Working set = half the tiny LLC: 1 way thrashes, 4 ways mostly fit.
        let ws = 8 * 1024;
        let budget = 400_000u64;
        let mut ops = Vec::new();
        for mask in [WayMask::single(0), WayMask::all(4)] {
            let mut h = MemoryHierarchy::tiny(1);
            let mut x = XMem::new(0x100000, ws, 7);
            run_once(&mut h, &mut x, mask, budget); // warm
            x.reset_metrics();
            run_once(&mut h, &mut x, mask, budget);
            ops.push(x.metrics().ops);
        }
        assert!(
            ops[1] as f64 > ops[0] as f64 * 1.2,
            "4 ways ({}) should beat 1 way ({})",
            ops[1],
            ops[0]
        );
    }

    #[test]
    fn phase_change_resizes_footprint() {
        let mut x = XMem::new(0, 2 << 20, 1);
        x.set_working_set(10 << 20);
        assert_eq!(x.working_set(), 10 << 20);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut h = MemoryHierarchy::tiny(1);
            let mut x = XMem::new(0x100000, 4096, 99);
            run_once(&mut h, &mut x, WayMask::all(4), 100_000);
            x.metrics().ops
        };
        assert_eq!(mk(), mk());
    }
}
