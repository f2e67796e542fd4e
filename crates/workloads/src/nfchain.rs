//! A FastClick-style stateful NF service chain: classifier firewall →
//! per-flow statistics → NAPT (paper Sec. VI-C).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::region::HashRegion;
use crate::window::AccessWindow;
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// An idle chain core busy-polls the rest of its budget.
const IDLE: Option<(u64, u64)> = Some((POLL_CYCLES, POLL_INSTR));
/// Base cycles per packet across the three elements.
const CHAIN_CYCLES: u64 = 380;
/// Instructions per packet across the chain.
const CHAIN_INSTR: u64 = 900;

/// Chain configuration: sizes of the per-NF state tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NfChainConfig {
    /// Firewall classifier rules (read-only region, lines).
    pub firewall_rules: u64,
    /// Per-flow statistics entries.
    pub stat_entries: u64,
    /// NAPT translation entries.
    pub napt_entries: u64,
}

impl Default for NfChainConfig {
    fn default() -> Self {
        NfChainConfig { firewall_rules: 4096, stat_entries: 1 << 18, napt_entries: 1 << 18 }
    }
}

/// The service chain (the paper's slicing-model NFV tenant). May serve
/// several VFs round-robin — the paper's Sec. VI-C setup runs four
/// identical chain containers, one per VLAN, sharing three LLC ways, which
/// this model represents as one multi-port, multi-core tenant.
#[derive(Debug, Clone)]
pub struct NfChain {
    ports: Vec<VirtualFunction>,
    firewall: HashRegion,
    stats: HashRegion,
    napt: HashRegion,
    processed: u64,
    win: AccessWindow,
}

impl NfChain {
    /// Creates a chain terminating `vf`, placing its three state tables
    /// consecutively from `state_base`.
    pub fn new(vf: VirtualFunction, state_base: u64, config: NfChainConfig) -> Self {
        Self::with_ports(vec![vf], state_base, config)
    }

    /// Creates a chain terminating several VFs.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn with_ports(
        ports: Vec<VirtualFunction>,
        state_base: u64,
        config: NfChainConfig,
    ) -> Self {
        assert!(!ports.is_empty(), "chain needs at least one port");
        let firewall = HashRegion::new(state_base, config.firewall_rules, 1);
        let stats_base = state_base + firewall.footprint_bytes() + (1 << 20);
        let stats = HashRegion::new(stats_base, config.stat_entries, 1);
        let napt_base = stats_base + stats.footprint_bytes() + (1 << 20);
        let napt = HashRegion::new(napt_base, config.napt_entries, 1);
        NfChain {
            ports,
            firewall,
            stats,
            napt,
            processed: 0,
            win: AccessWindow::with_latency(0xc11c),
        }
    }

    /// Packets fully processed by the chain.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl Workload for NfChain {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "nf-chain"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        let ports = self.ports.len();
        AccessWindow::drive(self, |w| &mut w.win, ctx, ports, IDLE, |nf, win, _, p| {
            let port = &mut nf.ports[p];
            let (idx, slot) = port.rx.pop()?;
            let key = slot.flow.0 as u64;
            win.begin_item(CHAIN_CYCLES);
            win.read(port.rx.desc_addr(idx));
            let buf = port.rx.buf_addr(idx);
            // Firewall: parse header, walk two classifier lines.
            win.read(buf);
            win.read(nf.firewall.entry_line(key, 0));
            win.read(nf.firewall.entry_line(key.rotate_left(11), 0));
            // Flow stats: read-modify-write the per-flow counter line.
            win.read(nf.stats.entry_line(key, 0));
            win.write(nf.stats.entry_line(key, 0));
            // NAPT: translation lookup, then header rewrite.
            win.read(nf.napt.entry_line(key, 0));
            win.write(buf);
            // Transmit zero-copy.
            let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
            if let Some(tidx) = port.tx.push(tx_slot) {
                win.write(port.tx.desc_addr(tidx));
                if accrue {
                    nf.processed += 1;
                }
            }
            win.end_item();
            Some(CHAIN_INSTR)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.processed, self.ports.iter().map(|p| p.rx.drops() + p.tx.drops()).sum())
    }

    fn reset_metrics(&mut self) {
        self.processed = 0;
        self.win.reset_latency();
        for p in &mut self.ports {
            p.rx.reset_drops();
        }
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        &mut self.ports
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Trace, Tracer};
    use iat_cachesim::{LatencyModel, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, Nic, VfId};
    use proptest::prelude::*;

    /// Runs a two-port chain, resolving its accesses serially if
    /// `serial`, through `rounds` of (port 0 packets, port 1 packets,
    /// budget) with 16-slot rings, so Tx fills when the wire lags, and
    /// statistics frozen every fifth round.
    fn trace(serial: bool, latency: LatencyModel, rounds: &[(u8, u8, u64)]) -> Trace {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let mut nic = Nic::new(0x4000_0000, 2, 16, 2048);
        let ports = vec![nic.vf_mut(VfId(0)).clone(), nic.vf_mut(VfId(1)).clone()];
        let config = NfChainConfig { firewall_rules: 64, stat_entries: 256, napt_entries: 256 };
        let mut nf = NfChain::with_ports(ports, 0xC000_0000, config);
        nf.win.serial = serial;
        let ddio = WayMask::contiguous(2, 2).unwrap();
        for (r, &(n0, n1, budget)) in rounds.iter().enumerate() {
            let r = r as u32;
            for (p, n) in [n0, n1].into_iter().enumerate() {
                let fl = (0..n as u32).map(|i| FlowId((r * 29 + i * 3 + p as u32) % 50));
                crate::deliver(&mut t.h, ddio, &mut nf.ports_mut()[p], fl, 64);
            }
            t.slice(&mut nf, WayMask::all(4), budget, r % 5 == 4);
            for _ in 0..r % 4 {
                nf.ports_mut()[0].tx.pop();
            }
        }
        let state = vec![format!("{:?}", nf.win.latency()), format!("{:?}", nf.ports)];
        t.finish(nf.metrics(), state)
    }

    /// The fixed schedule: mid-scan budget stops, straggler flush plus
    /// busy poll, and backlog carried between slices.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let rounds: Vec<(u8, u8, u64)> =
            (0..16u64).map(|r| ((r * 7 % 13) as u8, (r * 5 % 9) as u8, 700 + r * 521)).collect();
        let trace = trace(serial, LatencyModel::default(), &rounds);
        assert!(trace.metrics.ops > 0);
        vec![("nfchain".into(), trace)]
    }

    /// Serial and windowed resolution of the chain must agree
    /// bit-for-bit on the fixed schedule.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random deliveries and budgets under two cost models.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            rounds in proptest::collection::vec((0u8..16, 0u8..16, 100u64..12_000), 1..12),
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            prop_assert_eq!(trace(false, lat, &rounds), trace(true, lat, &rounds));
        }
    }

    fn chain() -> NfChain {
        let mut nic = Nic::new(0x4000_0000, 1, 64, 2048);
        NfChain::new(
            nic.vf_mut(VfId(0)).clone(),
            0xC000_0000,
            NfChainConfig { firewall_rules: 64, stat_entries: 256, napt_entries: 256 },
        )
    }

    fn run(h: &mut MemoryHierarchy, nf: &mut NfChain, budget: u64) -> ExecResult {
        crate::run_slice(h, &mut crate::Channels::new(), None, nf, WayMask::all(4), budget)
    }

    #[test]
    fn processes_and_transmits() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        crate::deliver(&mut h, ddio, &mut nf.ports_mut()[0], (0..8u32).map(FlowId), 1500);
        run(&mut h, &mut nf, 10_000_000);
        assert_eq!(nf.processed(), 8);
        assert_eq!(nf.ports_mut()[0].tx.len(), 8);
    }

    #[test]
    fn stateful_tables_warm_up() {
        // Same-flow packets get cheaper once per-flow state is cached.
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let mut cold = 0.0;
        for round in 0..4 {
            crate::deliver(&mut h, ddio, &mut nf.ports_mut()[0], [FlowId(1); 4], 64);
            run(&mut h, &mut nf, 10_000_000);
            if round == 0 {
                cold = nf.metrics().avg_op_cycles;
                nf.reset_metrics();
            }
        }
        // After warm-up the per-packet cost drops below the cold-state cost.
        let warm = nf.metrics().avg_op_cycles;
        assert!(warm < cold, "warm chain ({warm}) should beat cold ({cold})");
    }

    #[test]
    fn idle_chain_busy_polls() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let r = run(&mut h, &mut nf, 3_000);
        assert_eq!(nf.processed(), 0);
        assert!(r.instructions > 0);
    }
}
