//! An in-memory key-value store modelled on Redis behind a virtual switch
//! (the paper's aggregation-model networking application, Fig. 14).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::region::HashRegion;
use crate::window::AccessWindow;
use crate::ycsb::{OpKind, YcsbMix};
use iat_cachesim::LINE_BYTES;
use iat_netsim::PacketSlot;

/// Cycles per empty poll iteration (DPDK-ANS event loop).
const POLL_CYCLES: u64 = 40;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 70;
/// An idle store core busy-polls the rest of its budget.
const IDLE: Option<(u64, u64)> = Some((POLL_CYCLES, POLL_INSTR));
/// Base cycles per request (protocol parse, command dispatch, reply build).
const REQ_CYCLES: u64 = 1_100;
/// Instructions per request.
const REQ_INSTR: u64 = 2_400;

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Number of records pre-loaded (paper: 1M).
    pub records: u64,
    /// Value size in bytes (paper: 1 KB).
    pub value_bytes: u32,
    /// Records touched by one scan operation.
    pub scan_len: u32,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            records: 1_000_000,
            value_bytes: 1024,
            scan_len: 8,
        }
    }
}

/// The key-value store: pops request packets from its inbound channel,
/// executes the YCSB operation the request encodes, and pushes a response
/// into its outbound channel.
///
/// The request's flow id *is* the key, so key popularity is controlled by
/// the traffic generator's flow distribution (Zipfian 0.99 in the paper).
#[derive(Debug, Clone)]
pub struct KvStore {
    rx: ChannelId,
    tx: ChannelId,
    config: KvConfig,
    buckets: HashRegion,
    values_base: u64,
    records_pow2: u64,
    mix: YcsbMix,
    state: u64,
    ops: u64,
    win: AccessWindow,
}

impl KvStore {
    /// Creates a store receiving on `rx` and responding on `tx`, with its
    /// bucket array and value heap allocated from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `config.records` is zero.
    pub fn new(
        rx: ChannelId,
        tx: ChannelId,
        base: u64,
        config: KvConfig,
        mix: YcsbMix,
        seed: u64,
    ) -> Self {
        assert!(config.records > 0, "store needs at least one record");
        let buckets = HashRegion::new(base, config.records, 1);
        let values_base = base + buckets.footprint_bytes() + (1 << 20);
        KvStore {
            rx,
            tx,
            config,
            buckets,
            values_base,
            records_pow2: config.records.next_power_of_two(),
            mix,
            state: seed | 1,
            ops: 0,
            win: AccessWindow::with_latency(seed ^ 0x6b76),
        }
    }

    /// Total value-heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.records_pow2 * self.config.value_bytes as u64
    }

    #[inline]
    fn next_uniform(&mut self) -> f64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Address of a record's value, scattered bijectively over the heap.
    #[inline]
    fn value_addr(&self, key: u64) -> u64 {
        let slot = key.wrapping_mul(0x9E37_79B9) & (self.records_pow2 - 1);
        self.values_base + slot * self.config.value_bytes as u64
    }

    fn value_lines(&self) -> u64 {
        iat_cachesim::lines_for(self.config.value_bytes as u64)
    }
}

impl Workload for KvStore {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "kv-store"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn feeds_phase_sketch(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, IDLE, |kv, win, ctx, _| {
            let rx = &mut ctx.channels.get_mut(kv.rx).ring;
            let (ridx, req) = rx.pop()?;
            let key = req.flow.0 as u64 % kv.config.records;
            win.begin_item(REQ_CYCLES);
            // Parse the request (header line of the channel buffer).
            win.read(rx.buf_addr(ridx));
            // Hash-bucket probe.
            win.read(kv.buckets.entry_line(key, 0));
            let u = kv.next_uniform();
            let op = kv.mix.pick(u);
            let vlines = kv.value_lines();
            // Keys touched: `key` alone, or a scan's `scan_len` keys from it.
            let (touched, writes) = match op {
                OpKind::Read => (1, false),
                OpKind::Update | OpKind::Insert | OpKind::ReadModifyWrite => (1, true),
                OpKind::Scan => (kv.config.scan_len as u64, false),
            };
            let mut resp_bytes = 16u32; // status line
            for i in 0..touched {
                let vaddr = kv.value_addr((key + i) % kv.config.records);
                for l in 0..vlines {
                    win.read(vaddr + l * LINE_BYTES);
                }
                if writes {
                    for l in 0..vlines {
                        win.write(vaddr + l * LINE_BYTES);
                    }
                } else {
                    resp_bytes += kv.config.value_bytes;
                }
            }
            // RMW reads back what it wrote before responding.
            if op == OpKind::ReadModifyWrite {
                win.read(kv.value_addr(key));
            }
            // Build and enqueue the response.
            let txc = &mut ctx.channels.get_mut(kv.tx).ring;
            if let Some(tidx) = txc.push(PacketSlot::new(req.flow, resp_bytes.min(1500))) {
                let dst = txc.buf_addr(tidx);
                for l in 0..iat_cachesim::lines_for(resp_bytes.min(1500) as u64) {
                    win.write(dst + l * LINE_BYTES);
                }
            }
            win.end_item();
            if accrue {
                kv.ops += 1;
            }
            Some(REQ_INSTR * touched.max(1))
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
    use crate::ctx::Channels;
    use crate::{Trace, Tracer};
    use iat_cachesim::{LatencyModel, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, RxRing};
    use proptest::prelude::*;

    /// Runs a store, resolving its accesses serially if `serial`, through
    /// `rounds` of (requests, budget) with a 4-slot response channel (so
    /// responses drop when the client lags) and statistics frozen every
    /// fifth round.
    fn trace(serial: bool, latency: LatencyModel, mix: YcsbMix, rounds: &[(u8, u64)]) -> Trace {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let rx = t.ch.add(RxRing::new(0x8000_0000, 32, 2048));
        let tx = t.ch.add(RxRing::new(0x9000_0000, 4, 2048));
        let config = KvConfig { records: 300, value_bytes: 192, scan_len: 3 };
        let mut kv = KvStore::new(rx, tx, 0xA000_0000, config, mix, 7);
        kv.win.serial = serial;
        for (r, &(n, budget)) in rounds.iter().enumerate() {
            let r = r as u32;
            for i in 0..n as u32 {
                let _ = t.ch.get_mut(rx).ring.push(PacketSlot::new(FlowId((r * 37 + i * i) % 500), 64));
            }
            t.slice(&mut kv, WayMask::all(4), budget, r % 5 == 4);
            for _ in 0..r % 3 {
                t.ch.get_mut(tx).ring.pop();
            }
        }
        let state = vec![format!("{:?}", kv.win.latency()), format!("{:?}", t.ch)];
        t.finish(kv.metrics(), state)
    }

    /// The fixed schedule under every YCSB mix (scans and
    /// read-modify-writes included), with responses dropped at a full
    /// channel.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let rounds: Vec<(u8, u64)> = (0..14u64).map(|r| ((r * 7 % 13) as u8, 900 + r * 2_311)).collect();
        YcsbMix::all()
            .into_iter()
            .map(|mix| {
                let trace = trace(serial, LatencyModel::default(), mix, &rounds);
                assert!(trace.metrics.ops > 0);
                (format!("kvs {}", mix.name), trace)
            })
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
        /// Random request arrivals and budgets under two cost models.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            rounds in proptest::collection::vec((0u8..20, 100u64..40_000), 1..10),
            mix in 0usize..6,
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            let mix = YcsbMix::all()[mix];
            prop_assert_eq!(trace(false, lat, mix, &rounds), trace(true, lat, mix, &rounds));
        }
    }

    fn setup(mix: YcsbMix) -> (MemoryHierarchy, Channels, KvStore) {
        let h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 256, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 256, 2048));
        let kv = KvStore::new(
            rx,
            tx,
            0xA000_0000,
            KvConfig {
                records: 1000,
                value_bytes: 256,
                scan_len: 4,
            },
            mix,
            7,
        );
        (h, ch, kv)
    }

    fn request(ch: &mut Channels, kv: &KvStore, key: u32) {
        ch.get_mut(kv.rx)
            .ring
            .push(PacketSlot::new(FlowId(key), 64))
            .unwrap();
    }

    fn run(h: &mut MemoryHierarchy, ch: &mut Channels, kv: &mut KvStore, budget: u64) {
        crate::run_slice(h, ch, None, kv, WayMask::all(4), budget);
    }

    #[test]
    fn serves_requests_and_responds() {
        let (mut h, mut ch, mut kv) = setup(YcsbMix::c());
        for k in 0..5 {
            request(&mut ch, &kv, k);
        }
        run(&mut h, &mut ch, &mut kv, 10_000_000);
        assert_eq!(kv.metrics().ops, 5);
        assert_eq!(ch.get(kv.tx).ring.len(), 5);
    }

    #[test]
    fn read_responses_carry_the_value() {
        let (mut h, mut ch, mut kv) = setup(YcsbMix::c());
        request(&mut ch, &kv, 1);
        run(&mut h, &mut ch, &mut kv, 10_000_000);
        let (_, resp) = ch.get_mut(kv.tx).ring.pop().unwrap();
        assert!(resp.size >= 256, "read response should include the value");
    }

    #[test]
    fn scans_touch_more_and_cost_more() {
        let (mut h1, mut ch1, mut kv_read) = setup(YcsbMix::c());
        let (mut h2, mut ch2, mut kv_scan) = setup(YcsbMix::e());
        for k in 0..50 {
            request(&mut ch1, &kv_read, k);
            request(&mut ch2, &kv_scan, k);
        }
        run(&mut h1, &mut ch1, &mut kv_read, 100_000_000);
        run(&mut h2, &mut ch2, &mut kv_scan, 100_000_000);
        assert!(
            kv_scan.metrics().avg_op_cycles > kv_read.metrics().avg_op_cycles * 1.5,
            "scan {} vs read {}",
            kv_scan.metrics().avg_op_cycles,
            kv_read.metrics().avg_op_cycles
        );
    }

    #[test]
    fn hot_keys_get_cheaper() {
        let (mut h, mut ch, mut kv) = setup(YcsbMix::c());
        // Warm key 3.
        for _ in 0..3 {
            request(&mut ch, &kv, 3);
        }
        run(&mut h, &mut ch, &mut kv, 10_000_000);
        kv.reset_metrics();
        request(&mut ch, &kv, 3);
        run(&mut h, &mut ch, &mut kv, 10_000_000);
        let warm = kv.metrics().avg_op_cycles;
        kv.reset_metrics();
        request(&mut ch, &kv, 777);
        run(&mut h, &mut ch, &mut kv, 10_000_000);
        let cold = kv.metrics().avg_op_cycles;
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
    }

    #[test]
    fn deterministic() {
        let once = || {
            let (mut h, mut ch, mut kv) = setup(YcsbMix::a());
            for k in 0..20 {
                request(&mut ch, &kv, k % 7);
            }
            run(&mut h, &mut ch, &mut kv, 100_000_000);
            (kv.metrics().ops, kv.metrics().avg_op_cycles)
        };
        assert_eq!(once(), once());
    }
}
