//! An in-memory key-value store modelled on Redis behind a virtual switch
//! (the paper's aggregation-model networking application, Fig. 14).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use crate::region::HashRegion;
use crate::ycsb::{OpKind, YcsbMix};
use iat_cachesim::{CoreOp, LINE_BYTES};
use iat_netsim::PacketSlot;

/// Cycles per empty poll iteration (DPDK-ANS event loop).
const POLL_CYCLES: u64 = 40;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 70;
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
    latency: LatencySampler,
    read_latency: LatencySampler,
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
            latency: LatencySampler::new(seed ^ 0x6b76),
            read_latency: LatencySampler::new(seed ^ 0x1234),
        }
    }

    /// Replaces the operation mix (to sweep YCSB A–F on one instance).
    pub fn set_mix(&mut self, mix: YcsbMix) {
        self.mix = mix;
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

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let core = ctx.core;
        let agent = ctx.agent;
        let mask = ctx.mask;
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        while used < ctx.cycle_budget {
            let cache = &mut *ctx.cache;
            let channels = &mut *ctx.channels;
            let rx = &mut channels.get_mut(self.rx).ring;
            let Some((ridx, req)) = rx.pop() else {
                let iters = (ctx.cycle_budget - used) / POLL_CYCLES;
                instructions += iters * POLL_INSTR;
                used += iters * POLL_CYCLES;
                break;
            };
            let key = req.flow.0 as u64 % self.config.records;
            let mut cost = REQ_CYCLES;
            // Parse the request (header line of the channel buffer).
            cost += cache.core_access_cycles(core, agent, mask, rx.buf_addr(ridx), CoreOp::Read) as u64;
            // Hash-bucket probe.
            cost += cache.core_access_cycles(
                core,
                agent,
                mask,
                self.buckets.entry_line(key, 0),
                CoreOp::Read,
            ) as u64;
            let u = self.next_uniform();
            let op = self.mix.pick(u);
            let vlines = self.value_lines();
            let (touch_keys, writes): (Vec<u64>, bool) = match op {
                OpKind::Read => (vec![key], false),
                OpKind::Update | OpKind::Insert => (vec![key], true),
                OpKind::ReadModifyWrite => (vec![key], true),
                OpKind::Scan => (
                    (0..self.config.scan_len as u64)
                        .map(|i| (key + i) % self.config.records)
                        .collect(),
                    false,
                ),
            };
            let mut resp_bytes = 16u32; // status line
            for &k in &touch_keys {
                let vaddr = self.value_addr(k);
                for l in 0..vlines {
                    cost += cache.core_access_cycles(
                        core,
                        agent,
                        mask,
                        vaddr + l * LINE_BYTES,
                        CoreOp::Read,
                    ) as u64;
                }
                if writes {
                    for l in 0..vlines {
                        cost += cache.core_access_cycles(
                            core,
                            agent,
                            mask,
                            vaddr + l * LINE_BYTES,
                            CoreOp::Write,
                        ) as u64;
                    }
                } else {
                    resp_bytes += self.config.value_bytes;
                }
            }
            // RMW reads back what it wrote before responding.
            if op == OpKind::ReadModifyWrite {
                cost += cache.core_access_cycles(core, agent, mask, self.value_addr(key), CoreOp::Read)
                    as u64;
            }
            // Build and enqueue the response.
            let txc = &mut channels.get_mut(self.tx).ring;
            if let Some(tidx) = txc.push(PacketSlot::new(req.flow, resp_bytes.min(1500))) {
                let dst = txc.buf_addr(tidx);
                for l in 0..iat_cachesim::lines_for(resp_bytes.min(1500) as u64) {
                    cost +=
                        cache.core_access_cycles(core, agent, mask, dst + l * LINE_BYTES, CoreOp::Write)
                            as u64;
                }
            }
            used += cost;
            instructions += REQ_INSTR * touch_keys.len().max(1) as u64;
            if accrue {
                self.ops += 1;
                self.latency.record(cost);
                if op == OpKind::Read {
                    self.read_latency.record(cost);
                }
            }
        }
        ExecResult {
            instructions,
            cycles_used: used.min(ctx.cycle_budget),
        }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.ops,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: 0,
        }
    }

    fn reset_metrics(&mut self) {
        self.ops = 0;
        self.latency.reset();
        self.read_latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, RxRing};

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
        let mut ctx = ExecCtx {
            cache: h,
            channels: ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: budget,
        };
        kv.run(&mut ctx);
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
