//! DPDK-style forwarding microbenchmarks: `testpmd` and `l3fwd`.

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::region::HashRegion;
use crate::window::AccessWindow;
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per iteration of an empty DPDK poll loop.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;

/// An idle DPDK core busy-polls the rest of its budget (DPDK cores never
/// sleep).
const IDLE: Option<(u64, u64)> = Some((POLL_CYCLES, POLL_INSTR));

/// `testpmd` in io-forward mode: bounce every received packet back out,
/// zero-copy (paper Sec. VI-B, the Leaky DMA microbenchmark's tenant).
///
/// May terminate several VFs (the paper's Fig. 10 PC pair drives one VF
/// per NIC); ports are served round-robin.
#[derive(Debug, Clone)]
pub struct TestPmd {
    ports: Vec<VirtualFunction>,
    forwarded: u64,
    win: AccessWindow,
}

/// Base per-packet cost of the bounce (mbuf handling, descriptor churn).
const TESTPMD_PKT_CYCLES: u64 = 75;
/// Instructions per bounced packet.
const TESTPMD_PKT_INSTR: u64 = 160;

impl TestPmd {
    /// Creates a `testpmd` instance terminating `vf`.
    pub fn new(vf: VirtualFunction) -> Self {
        Self::with_ports(vec![vf])
    }

    /// Creates a `testpmd` instance terminating several VFs.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn with_ports(ports: Vec<VirtualFunction>) -> Self {
        assert!(!ports.is_empty(), "testpmd needs at least one port");
        TestPmd {
            ports,
            forwarded: 0,
            win: AccessWindow::with_latency(0x7e57),
        }
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Workload for TestPmd {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "testpmd"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        let ports = self.ports.len();
        AccessWindow::drive(self, |w| &mut w.win, ctx, ports, IDLE, |pmd, win, _, p| {
            let port = &mut pmd.ports[p];
            let (idx, slot) = port.rx.pop()?;
            win.begin_item(TESTPMD_PKT_CYCLES);
            win.read(port.rx.desc_addr(idx));
            let buf = port.rx.buf_addr(idx);
            win.read(buf);
            let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
            if let Some(tx_idx) = port.tx.push(tx_slot) {
                win.write(port.tx.desc_addr(tx_idx));
                if accrue {
                    pmd.forwarded += 1;
                }
            }
            win.end_item();
            Some(TESTPMD_PKT_INSTR)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.forwarded, self.ports.iter().map(|p| p.rx.drops() + p.tx.drops()).sum())
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.win.reset_latency();
        for p in &mut self.ports {
            p.rx.reset_drops();
        }
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        &mut self.ports
    }
}

/// `l3fwd`: looks each packet's header up in a flow table and forwards on a
/// match (the paper's Fig. 3 workload, with a 1M-flow table "to emulate
/// real traffic").
#[derive(Debug, Clone)]
pub struct L3Fwd {
    vf: VirtualFunction,
    table: HashRegion,
    forwarded: u64,
    win: AccessWindow,
}

/// Base per-packet cost (parse, hash, rewrite, descriptor churn).
const L3FWD_PKT_CYCLES: u64 = 120;
/// Instructions per forwarded packet.
const L3FWD_PKT_INSTR: u64 = 260;

impl L3Fwd {
    /// Creates an `l3fwd` instance terminating `vf`, with its flow table in
    /// `table` (typically one line per entry, 1M entries).
    pub fn new(vf: VirtualFunction, table: HashRegion) -> Self {
        L3Fwd {
            vf,
            table,
            forwarded: 0,
            win: AccessWindow::with_latency(0x13f),
        }
    }

    /// The flow table region.
    pub fn table(&self) -> &HashRegion {
        &self.table
    }
}

impl Workload for L3Fwd {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "l3fwd"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, IDLE, |fwd, win, _, _| {
            let (idx, slot) = fwd.vf.rx.pop()?;
            win.begin_item(L3FWD_PKT_CYCLES);
            win.read(fwd.vf.rx.desc_addr(idx));
            let buf = fwd.vf.rx.buf_addr(idx);
            // Parse the header, look the flow up, rewrite the header.
            win.read(buf);
            win.read(fwd.table.entry_line(slot.flow.0 as u64, 0));
            win.write(buf);
            let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
            if let Some(tx_idx) = fwd.vf.tx.push(tx_slot) {
                win.write(fwd.vf.tx.desc_addr(tx_idx));
                if accrue {
                    fwd.forwarded += 1;
                }
            }
            win.end_item();
            Some(L3FWD_PKT_INSTR)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.forwarded, self.vf.rx.drops() + self.vf.tx.drops())
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.win.reset_latency();
        self.vf.rx.reset_drops();
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        std::slice::from_mut(&mut self.vf)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ctx::Channels;
    use crate::{Trace, Tracer};
    use iat_cachesim::{MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, Nic, VfId};

    fn vf() -> VirtualFunction {
        let mut nic = Nic::new(0x4000_0000, 1, 64, 2048);
        nic.vf_mut(VfId(0)).clone()
    }

    fn run<W: Workload>(h: &mut MemoryHierarchy, w: &mut W, budget: u64) -> ExecResult {
        crate::run_slice(h, &mut Channels::new(), None, w, WayMask::all(4), budget)
    }

    fn deliver(h: &mut MemoryHierarchy, w: &mut dyn Workload, n: usize, size: u32) {
        let ddio = WayMask::contiguous(2, 2).unwrap();
        crate::deliver(h, ddio, &mut w.ports_mut()[0], (0..n as u32).map(FlowId), size);
    }

    #[test]
    fn testpmd_bounces_packets() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        deliver(&mut h, &mut pmd, 10, 64);
        let r = run(&mut h, &mut pmd, 1_000_000);
        assert_eq!(pmd.forwarded(), 10);
        assert!(r.instructions > 0);
        assert_eq!(pmd.ports_mut()[0].tx.len(), 10);
        // Tx slots carry the zero-copy Rx buffer address.
        let (idx, slot) = pmd.ports_mut()[0].tx.pop().unwrap();
        assert!(slot.ext_buf.is_some());
        let _ = idx;
    }

    #[test]
    fn budget_limits_drain() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        deliver(&mut h, &mut pmd, 40, 64);
        // A tiny budget can only bounce a few packets.
        run(&mut h, &mut pmd, 2_000);
        assert!(pmd.forwarded() < 40, "forwarded {}", pmd.forwarded());
        assert!(!pmd.ports_mut()[0].rx.is_empty(), "backlog must remain");
    }

    #[test]
    fn idle_core_busy_polls() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        let r = run(&mut h, &mut pmd, 30_000);
        assert_eq!(pmd.forwarded(), 0);
        // Busy polling retires instructions at IPC ~POLL_INSTR/POLL_CYCLES.
        assert!(r.instructions > 30_000, "poll loop IPC should exceed 1");
    }

    #[test]
    fn l3fwd_touches_flow_table() {
        let mut h = MemoryHierarchy::tiny(1);
        let table = HashRegion::new(0x9000_0000, 1024, 1);
        let mut fwd = L3Fwd::new(vf(), table);
        deliver(&mut h, &mut fwd, 5, 64);
        run(&mut h, &mut fwd, 1_000_000);
        assert_eq!(fwd.metrics().ops, 5);
        // The flow table region must be resident for the touched flows.
        assert!(h.llc().contains(table.entry_line(0, 0)) || h.core(0).l2().hits() > 0);
    }

    /// Runs a two-port TestPmd, resolving its accesses serially if
    /// `serial`, through uneven deliveries and tight budgets, so slices
    /// end in every way: mid-scan budget stop, straggler flush plus busy
    /// poll, and backlog carried over between slices.
    fn testpmd_trace(serial: bool) -> Trace {
        let mut nic = Nic::new(0x4000_0000, 2, 32, 2048);
        let ports = vec![nic.vf_mut(VfId(0)).clone(), nic.vf_mut(VfId(1)).clone()];
        let mut t = Tracer::new(MemoryHierarchy::tiny(1));
        let mut pmd = TestPmd::with_ports(ports);
        pmd.win.serial = serial;
        for round in 0..12u64 {
            let ddio = WayMask::contiguous(2, 2).unwrap();
            for p in 0..2usize {
                let n = (round as usize * 7 + p * 3) % 11;
                let flows = (0..n as u64).map(|i| FlowId((round * 31 + i) as u32 % 5));
                crate::deliver(&mut t.h, ddio, &mut pmd.ports_mut()[p], flows, 64);
            }
            t.slice(&mut pmd, WayMask::all(4), 900 + round * 517, false);
        }
        let state = vec![format!("{:?}", pmd.win.latency()), format!("{:?}", pmd.ports)];
        t.finish(pmd.metrics(), state)
    }

    /// Runs an L3Fwd, resolving serially if `serial`, through uneven
    /// deliveries and tight budgets.
    fn l3fwd_trace(serial: bool) -> Trace {
        let mut t = Tracer::new(MemoryHierarchy::tiny(1));
        let table = HashRegion::new(0x9000_0000, 4096, 1);
        let mut fwd = L3Fwd::new(vf(), table);
        fwd.win.serial = serial;
        for round in 0..12u64 {
            let ddio = WayMask::contiguous(2, 2).unwrap();
            let n = (round as usize * 5) % 9;
            let flows = (0..n as u64).map(|i| FlowId((round * 17 + i) as u32 % 7));
            crate::deliver(&mut t.h, ddio, &mut fwd.ports_mut()[0], flows, 64);
            t.slice(&mut fwd, WayMask::all(4), 1_100 + round * 431, false);
        }
        let state = vec![format!("{:?}", fwd.win.latency()), format!("{:?}", fwd.vf)];
        t.finish(fwd.metrics(), state)
    }

    /// The fixed schedules of both forwarders.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        vec![("testpmd".into(), testpmd_trace(serial)), ("l3fwd".into(), l3fwd_trace(serial))]
    }

    /// Serial and windowed resolution of both forwarders must agree
    /// bit-for-bit: forwarded counts, instructions, cycles, the
    /// order-sensitive latency reservoir, the sketch feed and the full
    /// cache state digest.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    #[test]
    fn larger_flow_table_hurts_locality() {
        // With many flows, per-packet table lines rarely re-hit -> higher
        // average cost than single-flow traffic.
        let budget = 3_000_000u64;
        let mut costs = Vec::new();
        for flows in [1u32, 100_000] {
            let mut h = MemoryHierarchy::tiny(1);
            let table = HashRegion::new(0x9000_0000, 1 << 20, 1);
            let mut fwd = L3Fwd::new(vf(), table);
            let ddio = WayMask::contiguous(2, 2).unwrap();
            // Alternate delivery and draining so the ring never overflows.
            for round in 0..20 {
                let batch = (0..50u32).map(|i| FlowId((round * 50 + i) % flows));
                crate::deliver(&mut h, ddio, &mut fwd.ports_mut()[0], batch, 64);
                run(&mut h, &mut fwd, budget / 20);
            }
            costs.push(fwd.metrics().avg_op_cycles);
        }
        assert!(
            costs[1] > costs[0] * 1.1,
            "100k flows ({:.0} cyc) should cost more than 1 flow ({:.0} cyc)",
            costs[1],
            costs[0]
        );
    }
}
