//! Synthetic SPEC CPU2006 memory-behaviour profiles.
//!
//! The paper runs "selected memory-sensitive benchmarks" from SPEC CPU2006
//! with the `ref` input, citing Jaleel's instrumentation-driven memory
//! characterization. SPEC binaries and inputs are licensed and cannot be
//! shipped; each profile below reproduces the published *memory behaviour*
//! — footprint, accesses per kilo-instruction (APKI), and the random /
//! streaming mix — which is the entirety of what the paper's experiments
//! exercise (see DESIGN.md, substitution table).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::window::AccessWindow;
use iat_cachesim::LINE_BYTES;

/// Instructions per simulated block.
const BLOCK_INSTR: u64 = 1_000;

/// Memory-behaviour profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecProfile {
    /// Benchmark name (e.g. `"mcf"`).
    pub name: &'static str,
    /// Resident data footprint the access stream covers, in bytes.
    pub footprint: u64,
    /// L2-filtered memory accesses per 1000 instructions.
    pub apki: u32,
    /// Fraction of accesses that are random (the rest stream sequentially).
    pub random_frac: f64,
    /// IPC of the non-memory portion of the pipeline.
    pub base_ipc: f64,
    /// Size of the hot working set random accesses concentrate in.
    pub hot_bytes: u64,
    /// Fraction of random accesses that stay within the hot set (temporal
    /// locality; what makes these benchmarks LLC-sensitive).
    pub hot_frac: f64,
}

impl SpecProfile {
    /// `429.mcf`: huge pointer-chasing footprint, the most cache-hungry.
    pub fn mcf() -> Self {
        SpecProfile { name: "mcf", footprint: 256 << 20, apki: 70, random_frac: 0.9, base_ipc: 1.1, hot_bytes: 12 << 20, hot_frac: 0.8 }
    }

    /// `471.omnetpp`: discrete-event simulator, scattered heap.
    pub fn omnetpp() -> Self {
        SpecProfile { name: "omnetpp", footprint: 128 << 20, apki: 32, random_frac: 0.85, base_ipc: 1.3, hot_bytes: 8 << 20, hot_frac: 0.85 }
    }

    /// `483.xalancbmk`: XSLT processor, medium footprint, cache-sensitive.
    pub fn xalancbmk() -> Self {
        SpecProfile { name: "xalancbmk", footprint: 64 << 20, apki: 28, random_frac: 0.75, base_ipc: 1.4, hot_bytes: 6 << 20, hot_frac: 0.85 }
    }

    /// `433.milc`: lattice QCD, large streaming arrays.
    pub fn milc() -> Self {
        SpecProfile { name: "milc", footprint: 384 << 20, apki: 30, random_frac: 0.3, base_ipc: 1.2, hot_bytes: 16 << 20, hot_frac: 0.5 }
    }

    /// `470.lbm`: fluid dynamics, almost pure streaming.
    pub fn lbm() -> Self {
        SpecProfile { name: "lbm", footprint: 320 << 20, apki: 45, random_frac: 0.1, base_ipc: 1.2, hot_bytes: 8 << 20, hot_frac: 0.3 }
    }

    /// `450.soplex`: LP solver, mixed sparse access.
    pub fn soplex() -> Self {
        SpecProfile { name: "soplex", footprint: 192 << 20, apki: 30, random_frac: 0.6, base_ipc: 1.3, hot_bytes: 10 << 20, hot_frac: 0.7 }
    }

    /// `462.libquantum`: streaming over a modest vector.
    pub fn libquantum() -> Self {
        SpecProfile { name: "libquantum", footprint: 96 << 20, apki: 35, random_frac: 0.05, base_ipc: 1.5, hot_bytes: 4 << 20, hot_frac: 0.3 }
    }

    /// `403.gcc`: compiler, medium footprint, moderate APKI.
    pub fn gcc() -> Self {
        SpecProfile { name: "gcc", footprint: 48 << 20, apki: 16, random_frac: 0.6, base_ipc: 1.5, hot_bytes: 4 << 20, hot_frac: 0.85 }
    }

    /// `401.bzip2`: compressor, mostly L2-resident.
    pub fn bzip2() -> Self {
        SpecProfile { name: "bzip2", footprint: 8 << 20, apki: 9, random_frac: 0.5, base_ipc: 1.6, hot_bytes: 3 << 20, hot_frac: 0.9 }
    }

    /// `482.sphinx3`: speech recognition, moderate streaming.
    pub fn sphinx3() -> Self {
        SpecProfile { name: "sphinx3", footprint: 160 << 20, apki: 22, random_frac: 0.4, base_ipc: 1.4, hot_bytes: 8 << 20, hot_frac: 0.6 }
    }

    /// The paper-style memory-sensitive selection, in a stable order.
    pub fn memory_sensitive() -> Vec<SpecProfile> {
        vec![
            Self::mcf(),
            Self::omnetpp(),
            Self::xalancbmk(),
            Self::milc(),
            Self::lbm(),
            Self::soplex(),
            Self::libquantum(),
            Self::gcc(),
            Self::bzip2(),
            Self::sphinx3(),
        ]
    }
}

/// A runnable synthetic benchmark following a [`SpecProfile`].
///
/// Execution proceeds in 1000-instruction blocks: each block costs
/// `1000 / base_ipc` compute cycles plus the latency of `apki` memory
/// accesses drawn from the profile's random/streaming mix over its
/// footprint. "Execution time" for Fig. 12 is obtained by timing a fixed
/// instruction count.
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    profile: SpecProfile,
    base: u64,
    cursor: u64,
    state: u64,
    blocks: u64,
    access_residue: f64,
    win: AccessWindow,
}

impl SpecWorkload {
    /// Creates an instance with its data region at `base`.
    pub fn new(base: u64, profile: SpecProfile, seed: u64) -> Self {
        SpecWorkload {
            profile,
            base,
            cursor: 0,
            state: seed | 1,
            blocks: 0,
            access_residue: 0.0,
            win: AccessWindow::default(),
        }
    }

    /// The profile being executed.
    pub fn profile(&self) -> &SpecProfile {
        &self.profile
    }

    /// Instruction blocks completed (1000 instructions each).
    pub fn blocks(&self) -> u64 {
        self.blocks
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

impl Workload for SpecWorkload {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        self.profile.name
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let lines = self.profile.footprint / LINE_BYTES;
        let hot_lines = (self.profile.hot_bytes / LINE_BYTES).clamp(1, lines);
        let compute = (BLOCK_INSTR as f64 / self.profile.base_ipc) as u64;
        let accrue = ctx.accrue();
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, None, |w, win, _, _| {
            let exact = w.profile.apki as f64 + w.access_residue;
            let accesses = exact as u64;
            w.access_residue = exact - accesses as f64;
            win.begin_item(compute);
            for _ in 0..accesses {
                let r = w.next_rand();
                let u = (r >> 32) as f64 / u32::MAX as f64;
                let line = if u < w.profile.random_frac {
                    // Temporal locality: most random accesses revisit the
                    // hot working set.
                    let v = (r & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
                    if v < w.profile.hot_frac {
                        w.next_rand() % hot_lines
                    } else {
                        w.next_rand() % lines
                    }
                } else {
                    w.cursor = (w.cursor + 1) % lines;
                    w.cursor
                };
                win.read(w.base + line * LINE_BYTES);
            }
            win.end_item();
            if accrue {
                w.blocks += 1;
            }
            Some(BLOCK_INSTR)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.blocks, 0)
    }

    fn reset_metrics(&mut self) {
        self.blocks = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Trace, Tracer};
    use iat_cachesim::{LatencyModel, MemoryHierarchy, WayMask};
    use proptest::prelude::*;

    /// Runs `profile`, resolving its accesses serially if `serial`,
    /// through `budgets`, freezing statistics every fifth slice.
    fn trace(serial: bool, latency: LatencyModel, profile: SpecProfile, budgets: &[u64]) -> Trace {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let mut w = SpecWorkload::new(0xD000_0000, profile, 9);
        w.win.serial = serial;
        for (i, &budget) in budgets.iter().enumerate() {
            t.slice(&mut w, WayMask::all(4), budget, i % 5 == 4);
        }
        let state = vec![format!("{:?}", (w.cursor, w.state, w.access_residue))];
        t.finish(w.metrics(), state)
    }

    /// The fixed schedule on a pointer-chasing (mcf), a streaming (lbm)
    /// and a mostly L2-resident (bzip2) profile.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let budgets: Vec<u64> = (0..10u64).map(|i| 3_000 + i * 17_389).collect();
        [SpecProfile::mcf(), SpecProfile::lbm(), SpecProfile::bzip2()]
            .map(|p| (format!("spec {}", p.name), trace(serial, LatencyModel::default(), p, &budgets)))
            .into()
    }

    /// Serial and windowed resolution of SPEC must agree bit-for-bit on
    /// the fixed schedule.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random budgets and profiles under two cost models.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            budgets in proptest::collection::vec(1u64..80_000, 1..8),
            profile in 0usize..10,
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            let profile = SpecProfile::memory_sensitive()[profile];
            prop_assert_eq!(trace(false, lat, profile, &budgets), trace(true, lat, profile, &budgets));
        }
    }

    fn run(h: &mut MemoryHierarchy, w: &mut SpecWorkload, mask: WayMask, budget: u64) -> ExecResult {
        crate::run_slice(h, &mut crate::Channels::new(), None, w, mask, budget)
    }

    #[test]
    fn retires_blocks() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut w = SpecWorkload::new(0xD000_0000, SpecProfile::bzip2(), 1);
        let r = run(&mut h, &mut w, WayMask::all(4), 1_000_000);
        assert!(w.blocks() > 100);
        assert_eq!(r.instructions, w.blocks() * 1000);
    }

    #[test]
    fn memory_heavy_profiles_run_slower() {
        let mut rates = Vec::new();
        for p in [SpecProfile::bzip2(), SpecProfile::mcf()] {
            let mut h = MemoryHierarchy::tiny(1);
            let mut w = SpecWorkload::new(0xD000_0000, p, 1);
            run(&mut h, &mut w, WayMask::all(4), 5_000_000);
            rates.push(w.blocks());
        }
        assert!(
            rates[0] > rates[1] * 2,
            "bzip2 ({}) should far outpace mcf ({})",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn profiles_are_distinct_and_named() {
        let all = SpecProfile::memory_sensitive();
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), all.len());
        for p in &all {
            assert!(p.footprint >= 1 << 20);
            assert!(p.apki > 0);
            assert!((0.0..=1.0).contains(&p.random_frac));
            assert!(p.base_ipc > 0.0);
            assert!(p.hot_bytes <= p.footprint);
            assert!((0.0..=1.0).contains(&p.hot_frac));
        }
    }

    #[test]
    fn streaming_profile_mostly_sequential() {
        let mut w = SpecWorkload::new(0, SpecProfile::lbm(), 3);
        // Sequential cursor should advance steadily for lbm.
        let before = w.cursor;
        let mut h = MemoryHierarchy::tiny(1);
        run(&mut h, &mut w, WayMask::all(4), 200_000);
        assert!(w.cursor > before);
    }
}
