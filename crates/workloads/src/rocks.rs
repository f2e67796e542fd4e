//! A RocksDB-like store serving YCSB from its memtable (the paper loads
//! only 10K × 1 KB records so every operation is memtable-resident,
//! Sec. VI-C).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::region::HashRegion;
use crate::window::AccessWindow;
use crate::ycsb::{OpKind, YcsbMix};
use iat_cachesim::LINE_BYTES;
use iat_netsim::ZipfTable;
use std::sync::Arc;

/// Base cycles per operation (key encode, comparator calls, memtable API).
const OP_CYCLES: u64 = 1_600;
/// Instructions per operation.
const OP_INSTR: u64 = 3_200;
/// Skiplist levels whose nodes are shared and hot (towers near the head).
const HOT_LEVELS: u64 = 4;

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocksConfig {
    /// Records in the memtable (paper: 10K).
    pub records: u64,
    /// Value size in bytes (paper: 1 KB).
    pub value_bytes: u32,
    /// Zipf exponent of the key popularity (paper: 0.99).
    pub zipf_s: f64,
}

impl Default for RocksConfig {
    fn default() -> Self {
        RocksConfig { records: 10_000, value_bytes: 1024, zipf_s: 0.99 }
    }
}

/// The memtable-resident store with a built-in YCSB driver.
///
/// A lookup descends a skiplist: a few *hot* upper-level nodes (shared by
/// every operation, so effectively cache-resident) followed by
/// `log2(records)` key-dependent node lines, then the value lines. This
/// gives the model RocksDB's signature mix of pointer-chasing locality —
/// which is what makes it cache-sensitive in the paper's Fig. 12/13.
#[derive(Debug, Clone)]
pub struct RocksLike {
    config: RocksConfig,
    mix: YcsbMix,
    nodes: HashRegion,
    hot: HashRegion,
    values_base: u64,
    records_pow2: u64,
    levels: u64,
    zipf: Arc<ZipfTable>,
    state: u64,
    ops: u64,
    win: AccessWindow,
}

impl RocksLike {
    /// Creates a store with its memtable allocated from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `config.records` is zero.
    pub fn new(base: u64, config: RocksConfig, mix: YcsbMix, seed: u64) -> Self {
        assert!(config.records > 0, "memtable needs at least one record");
        let hot = HashRegion::new(base, 64, 1);
        let nodes_base = base + hot.footprint_bytes() + (1 << 20);
        let nodes = HashRegion::new(nodes_base, config.records.max(2), 1);
        let values_base = nodes_base + nodes.footprint_bytes() + (1 << 20);
        let levels = 64 - (config.records.max(2) - 1).leading_zeros() as u64;
        RocksLike {
            config,
            mix,
            nodes,
            hot,
            values_base,
            records_pow2: config.records.next_power_of_two(),
            levels,
            zipf: Arc::new(ZipfTable::new(config.records as usize, config.zipf_s)),
            state: seed | 1,
            ops: 0,
            win: AccessWindow::with_latency(seed ^ 0x70c6),
        }
    }

    /// Memtable footprint in bytes (nodes + values).
    pub fn footprint_bytes(&self) -> u64 {
        self.nodes.footprint_bytes() + self.records_pow2 * self.config.value_bytes as u64
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

    fn sample_key(&mut self) -> u64 {
        let u = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
        self.zipf.index(u) as u64
    }

    #[inline]
    fn value_addr(&self, key: u64) -> u64 {
        let slot = key.wrapping_mul(0x9E37_79B9) & (self.records_pow2 - 1);
        self.values_base + slot * self.config.value_bytes as u64
    }

    /// Enqueues one op's accesses into `win` as one item.
    fn enqueue(&self, win: &mut AccessWindow, op: OpKind, key: u64) {
        win.begin_item(OP_CYCLES);
        // Skiplist descent: hot tower nodes, then key-dependent nodes.
        for l in 0..self.levels {
            let addr = if l < HOT_LEVELS {
                self.hot.entry_line(l, 0)
            } else {
                self.nodes.entry_line(key.wrapping_mul(31).wrapping_add(l), 0)
            };
            win.read(addr);
        }
        let vaddr = self.value_addr(key);
        let vlines = iat_cachesim::lines_for(self.config.value_bytes as u64);
        match op {
            OpKind::Read => {
                for l in 0..vlines {
                    win.read(vaddr + l * LINE_BYTES);
                }
            }
            OpKind::Update | OpKind::Insert => {
                for l in 0..vlines {
                    win.write(vaddr + l * LINE_BYTES);
                }
            }
            OpKind::ReadModifyWrite => {
                for l in 0..vlines {
                    win.read(vaddr + l * LINE_BYTES);
                    win.write(vaddr + l * LINE_BYTES);
                }
            }
            OpKind::Scan => {
                for i in 0..8u64 {
                    let k = (key + i) % self.config.records;
                    let a = self.value_addr(k);
                    for l in 0..vlines {
                        win.read(a + l * LINE_BYTES);
                    }
                }
            }
        }
        win.end_item();
    }
}

impl Workload for RocksLike {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "rocksdb"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, None, |r, win, _, _| {
            let u = (r.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
            let op = r.mix.pick(u);
            let key = r.sample_key();
            r.enqueue(win, op, key);
            if accrue {
                r.ops += 1;
            }
            Some(OP_INSTR)
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

    /// Runs a small store, resolving its accesses serially if `serial`,
    /// through `budgets`, freezing statistics every fifth slice.
    fn trace(serial: bool, latency: LatencyModel, mix: YcsbMix, budgets: &[u64]) -> Trace {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let mut r = RocksLike::new(0xA000_0000, small(), mix, 3);
        r.win.serial = serial;
        for (i, &budget) in budgets.iter().enumerate() {
            t.slice(&mut r, WayMask::all(4), budget, i % 5 == 4);
        }
        let state = vec![format!("{:?}", r.win.latency()), format!("{:?}", r.state)];
        t.finish(r.metrics(), state)
    }

    /// The fixed schedule under every YCSB mix.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let budgets: Vec<u64> = (0..10u64).map(|i| 2_000 + i * 9_973).collect();
        YcsbMix::all()
            .into_iter()
            .map(|mix| (format!("rocks {}", mix.name), trace(serial, LatencyModel::default(), mix, &budgets)))
            .collect()
    }

    /// Serial and windowed resolution of the store must agree
    /// bit-for-bit on the fixed schedule.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random budgets under two cost models.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            budgets in proptest::collection::vec(1u64..60_000, 1..8),
            mix in 0usize..6,
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            let mix = YcsbMix::all()[mix];
            prop_assert_eq!(trace(false, lat, mix, &budgets), trace(true, lat, mix, &budgets));
        }
    }

    fn run(h: &mut MemoryHierarchy, r: &mut RocksLike, mask: WayMask, budget: u64) {
        crate::run_slice(h, &mut crate::Channels::new(), None, r, mask, budget);
    }

    #[test]
    fn sample_key_golden() {
        // The first 64 keys of the default 10K-record table at a fixed
        // seed, as drawn before the shared Zipf table replaced the
        // store's private CDF.
        let mut r = RocksLike::new(0xA000_0000, RocksConfig::default(), YcsbMix::a(), 0x5eed);
        let keys: Vec<u64> = (0..64).map(|_| r.sample_key()).collect();
        assert_eq!(
            keys,
            [
                202, 1267, 4317, 0, 1, 34, 3, 2062, 3, 0, 3, 29, 4416, 138, 42, 5121, 810, 35,
                653, 41, 11, 43, 670, 9906, 336, 0, 492, 48, 882, 66, 1, 33, 499, 0, 9, 2, 346,
                0, 5008, 418, 421, 2, 2830, 83, 1, 3, 3007, 785, 7, 13, 80, 1540, 1, 1801, 610,
                1603, 24, 3996, 6780, 21, 647, 20, 28, 7403,
            ]
        );
    }

    fn small() -> RocksConfig {
        RocksConfig { records: 200, value_bytes: 256, zipf_s: 0.99 }
    }

    #[test]
    fn completes_ops_within_budget() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::a(), 3);
        run(&mut h, &mut r, WayMask::all(4), 1_000_000);
        let m = r.metrics();
        assert!(m.ops > 10);
        assert!(m.avg_op_cycles >= OP_CYCLES as f64);
    }

    #[test]
    fn cache_sensitive() {
        // More LLC ways -> cheaper ops (the memtable partially fits).
        let mut costs = Vec::new();
        for mask in [WayMask::single(0), WayMask::all(4)] {
            let mut h = MemoryHierarchy::tiny(1);
            let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::c(), 3);
            run(&mut h, &mut r, mask, 2_000_000); // warm
            r.reset_metrics();
            run(&mut h, &mut r, mask, 2_000_000);
            costs.push(r.metrics().avg_op_cycles);
        }
        assert!(costs[1] < costs[0], "4-way {} should beat 1-way {}", costs[1], costs[0]);
    }

    #[test]
    fn zipf_drives_hot_keys() {
        let mut r = RocksLike::new(0, small(), YcsbMix::c(), 5);
        let mut hot = 0;
        for _ in 0..1000 {
            if r.sample_key() < 10 {
                hot += 1;
            }
        }
        assert!(hot > 250, "top-10 keys of 200 should dominate, got {hot}");
    }

    #[test]
    fn footprint_accounts_nodes_and_values() {
        let r = RocksLike::new(0, RocksConfig::default(), YcsbMix::a(), 1);
        // 10K records: 16K slots x 1KB values + 10K node lines.
        assert!(r.footprint_bytes() > 16 * 1024 * 1024);
    }

    #[test]
    fn deterministic() {
        let once = || {
            let mut h = MemoryHierarchy::tiny(1);
            let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::f(), 11);
            run(&mut h, &mut r, WayMask::all(4), 500_000);
            r.metrics().ops
        };
        assert_eq!(once(), once());
    }
}
