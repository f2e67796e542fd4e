//! An OVS-DPDK–style virtual switch: the *aggregation* model's software
//! stack (paper Fig. 2a).
//!
//! The switch owns the physical ports. Inbound packets are looked up in an
//! exact-match cache (EMC); EMC misses fall back to the (much larger)
//! megaflow table and install an EMC entry — the behaviour behind the
//! paper's Fig. 9: more concurrent flows → more EMC misses → more wildcard
//! lookups → larger cache footprint and lower IPC. Matched packets are
//! *copied* into the destination tenant's virtio-style channel (one copy
//! per direction, as vhost does).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind,
                 WorkloadMetrics};
use crate::region::HashRegion;
use crate::window::AccessWindow;
use iat_cachesim::LINE_BYTES;
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// An idle switch core busy-polls the rest of its budget.
const IDLE: Option<(u64, u64)> = Some((POLL_CYCLES, POLL_INSTR));
/// Base cost of an EMC-hit forward (parse, hash, batch overhead).
const EMC_HIT_CYCLES: u64 = 180;
/// Additional cost of a megaflow (wildcard) lookup.
const MEGAFLOW_CYCLES: u64 = 350;
/// Instructions per forwarded packet (EMC-hit path).
const PKT_INSTR: u64 = 420;
/// Additional instructions on the megaflow path.
const MEGAFLOW_INSTR: u64 = 700;

/// A tenant attachment: the queue pair connecting the switch to one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment {
    /// Channel the switch pushes received packets into (switch → tenant).
    pub to_tenant: ChannelId,
    /// Channel the tenant pushes outbound packets into (tenant → switch).
    pub from_tenant: ChannelId,
}

/// Switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OvsConfig {
    /// EMC slots (OVS default is 8192).
    pub emc_entries: u64,
    /// Megaflow table entries.
    pub megaflow_entries: u64,
}

impl Default for OvsConfig {
    fn default() -> Self {
        OvsConfig {
            emc_entries: 8192,
            megaflow_entries: 1 << 20,
        }
    }
}

/// The virtual switch.
///
/// Forwarding rules mirror the paper's microbenchmark: port `i` delivers to
/// attachment `i % attachments`, and each attachment's outbound traffic
/// leaves through port `i % ports`.
#[derive(Debug, Clone)]
pub struct OvsSwitch {
    ports: Vec<VirtualFunction>,
    attachments: Vec<Attachment>,
    emc: HashRegion,
    emc_tags: Vec<u32>,
    megaflow: HashRegion,
    forwarded: u64,
    emc_hits: u64,
    emc_misses: u64,
    chan_drops: u64,
    win: AccessWindow,
}

impl OvsSwitch {
    /// Creates a switch over `ports`, delivering to `attachments`, with its
    /// EMC and megaflow tables allocated at `emc_base` / `megaflow_base`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `attachments` is empty.
    pub fn new(
        ports: Vec<VirtualFunction>,
        attachments: Vec<Attachment>,
        emc_base: u64,
        megaflow_base: u64,
        config: OvsConfig,
    ) -> Self {
        assert!(!ports.is_empty(), "switch needs at least one port");
        assert!(
            !attachments.is_empty(),
            "switch needs at least one attachment"
        );
        OvsSwitch {
            ports,
            attachments,
            emc: HashRegion::new(emc_base, config.emc_entries, 1),
            emc_tags: vec![u32::MAX; config.emc_entries as usize],
            megaflow: HashRegion::new(megaflow_base, config.megaflow_entries, 1),
            forwarded: 0,
            emc_hits: 0,
            emc_misses: 0,
            chan_drops: 0,
            win: AccessWindow::with_latency(0x0175),
        }
    }

    /// EMC hits so far.
    pub fn emc_hits(&self) -> u64 {
        self.emc_hits
    }

    /// EMC misses (megaflow lookups) so far.
    pub fn emc_misses(&self) -> u64 {
        self.emc_misses
    }

    /// Looks a flow up as part of `win`'s open item: charges the fixed
    /// cost, enqueues the EMC line read and, on a miss, the megaflow walk
    /// and the EMC install. Returns the instructions retired. The EMC tag
    /// check decides the path, so no access cost is needed to take it.
    fn lookup(&mut self, win: &mut AccessWindow, flow: u32, accrue: bool) -> u64 {
        let key = flow as u64;
        let slot = self.emc.slot_of_key(key) as usize;
        win.add_fixed(EMC_HIT_CYCLES);
        win.read(self.emc.entry_line(key, 0));
        if self.emc_tags[slot] == flow {
            if accrue {
                self.emc_hits += 1;
            }
            return PKT_INSTR;
        }
        if accrue {
            self.emc_misses += 1;
        }
        // Wildcard lookup walks the megaflow table, then installs the EMC
        // entry.
        win.add_fixed(MEGAFLOW_CYCLES);
        win.read(self.megaflow.entry_line(key, 0));
        win.read(self.megaflow.entry_line(key.rotate_left(17), 0));
        win.write(self.emc.entry_line(key, 0));
        self.emc_tags[slot] = flow;
        PKT_INSTR + MEGAFLOW_INSTR
    }

    /// Inbound: port `p`'s next packet goes to its tenant channel.
    fn forward_inbound(
        &mut self,
        win: &mut AccessWindow,
        ctx: &mut ExecCtx<'_>,
        p: usize,
        accrue: bool,
    ) -> Option<u64> {
        let (idx, slot) = self.ports[p].rx.pop()?;
        win.begin_item(0);
        win.read(self.ports[p].rx.desc_addr(idx));
        let instructions = self.lookup(win, slot.flow.0, accrue);
        let att = self.attachments[p % self.attachments.len()];
        let chan = &mut ctx.channels.get_mut(att.to_tenant).ring;
        if let Some(cidx) = chan.push(PacketSlot::new(slot.flow, slot.size)) {
            let dst = chan.buf_addr(cidx);
            let src = self.ports[p].rx.buf_addr(idx);
            copy_lines(win, src, dst, slot.payload_lines());
            if accrue {
                self.forwarded += 1;
            }
        } else if accrue {
            self.chan_drops += 1;
        }
        win.end_item();
        Some(instructions)
    }

    /// Outbound: attachment `i`'s next packet leaves through port Tx (one
    /// copy into the mbuf).
    fn forward_outbound(
        &mut self,
        win: &mut AccessWindow,
        ctx: &mut ExecCtx<'_>,
        i: usize,
        accrue: bool,
    ) -> Option<u64> {
        let chan = &mut ctx.channels.get_mut(self.attachments[i].from_tenant).ring;
        let (cidx, slot) = chan.pop()?;
        let src = slot.ext_buf.unwrap_or_else(|| chan.buf_addr(cidx));
        win.begin_item(0);
        let instructions = self.lookup(win, slot.flow.0, accrue);
        let port_idx = i % self.ports.len();
        let port = &mut self.ports[port_idx];
        if let Some(tidx) = port.tx.push(PacketSlot::new(slot.flow, slot.size)) {
            copy_lines(win, src, port.tx.buf_addr(tidx), slot.payload_lines());
            win.write(port.tx.desc_addr(tidx));
            if accrue {
                self.forwarded += 1;
            }
        } else if accrue {
            self.chan_drops += 1;
        }
        win.end_item();
        Some(instructions)
    }
}

/// Enqueues the copy of `lines` payload lines from `src` to `dst`.
fn copy_lines(win: &mut AccessWindow, src: u64, dst: u64, lines: u64) {
    for l in 0..lines {
        win.read(src + l * LINE_BYTES);
        win.write(dst + l * LINE_BYTES);
    }
}

impl Workload for OvsSwitch {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "ovs"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn feeds_phase_sketch(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        // Sources `0..ports` are the inbound scan, the rest the outbound
        // scan, in the access-at-a-time loop's order.
        let ports = self.ports.len();
        let sources = ports + self.attachments.len();
        AccessWindow::drive(self, |w| &mut w.win, ctx, sources, IDLE, |ovs, win, ctx, s| {
            if s < ports {
                ovs.forward_inbound(win, ctx, s, accrue)
            } else {
                ovs.forward_outbound(win, ctx, s - ports, accrue)
            }
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        let port_drops: u64 = self
            .ports
            .iter()
            .map(|p| p.rx.drops() + p.tx.drops())
            .sum::<u64>();
        self.win.metrics(self.forwarded, self.chan_drops + port_drops)
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.emc_hits = 0;
        self.emc_misses = 0;
        self.chan_drops = 0;
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
    use crate::ctx::Channels;
    use crate::{Trace, Tracer};
    use iat_cachesim::{LatencyModel, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, Nic, RxRing, VfId};
    use proptest::prelude::*;

    /// Runs a two-port, two-attachment switch, resolving its accesses
    /// serially if `serial`, through `rounds` of (port 0 packets, port 1
    /// packets, outbound packets, budget), with small tenant channels and
    /// Tx rings so both fill up, a 16-slot EMC over `flows` flows, and
    /// statistics frozen every fifth round.
    /// Returns the trace and the EMC (hits, misses).
    fn trace(
        serial: bool,
        latency: LatencyModel,
        rounds: &[(u8, u8, u8, u64)],
        flows: u32,
    ) -> (Trace, (u64, u64)) {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let mut nic = Nic::new(0x4000_0000, 2, 16, 2048);
        let ports = vec![nic.vf_mut(VfId(0)).clone(), nic.vf_mut(VfId(1)).clone()];
        let mut atts = Vec::new();
        for a in 0..2u64 {
            let to_tenant = t.ch.add(RxRing::new(0x8000_0000 + a * 0x10_0000, 8, 2048));
            let from_tenant = t.ch.add(RxRing::new(0x8800_0000 + a * 0x10_0000, 8, 2048));
            atts.push(Attachment { to_tenant, from_tenant });
        }
        let config = OvsConfig { emc_entries: 16, megaflow_entries: 256 };
        let mut ovs = OvsSwitch::new(ports, atts.clone(), 0xA000_0000, 0xB000_0000, config);
        ovs.win.serial = serial;
        let ddio = WayMask::contiguous(2, 2).unwrap();
        for (r, &(n0, n1, out, budget)) in rounds.iter().enumerate() {
            let r = r as u32;
            for (p, n) in [n0, n1].into_iter().enumerate() {
                let fl = (0..n as u32).map(|i| FlowId((r * 31 + i * 7 + p as u32) % flows));
                let size = if (r + p as u32).is_multiple_of(3) { 256 } else { 64 };
                crate::deliver(&mut t.h, ddio, &mut ovs.ports_mut()[p], fl, size);
            }
            for i in 0..out as u32 {
                let att = atts[(i % 2) as usize];
                let flow = FlowId((r + i) % flows);
                let slot = if i % 2 == 0 {
                    PacketSlot::new(flow, 128)
                } else {
                    PacketSlot::with_ext_buf(flow, 64, 0xC000_0000 + i as u64 * 2048)
                };
                let _ = t.ch.get_mut(att.from_tenant).ring.push(slot);
            }
            t.slice(&mut ovs, WayMask::all(4), budget, r % 5 == 4);
            // The tenant and the wire consume part of what was forwarded.
            for _ in 0..r % 3 {
                t.ch.get_mut(atts[0].to_tenant).ring.pop();
                ovs.ports_mut()[1].tx.pop();
            }
        }
        let state = vec![
            format!("{:?}", ovs.win.latency()),
            format!("{:?}", t.ch),
            format!("{:?}", ovs.ports),
        ];
        (t.finish(ovs.metrics(), state), (ovs.emc_hits, ovs.emc_misses))
    }

    /// The fixed schedule, over 1, 5 and 40 flows: EMC hits and misses,
    /// full tenant channels and Tx rings, the outbound path and mid-scan
    /// budget stops.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let rounds: Vec<(u8, u8, u8, u64)> = (0..16u64)
            .map(|r| ((r * 5 % 11) as u8, (r * 3 % 7) as u8, (r % 4) as u8, 400 + r * 613))
            .collect();
        [1, 5, 40]
            .map(|flows| {
                let (trace, (hits, misses)) = trace(serial, LatencyModel::default(), &rounds, flows);
                assert!(misses > 0 && (flows > 16 || hits > 0), "flows {flows}: {hits}/{misses}");
                assert!(trace.metrics.drops > 0, "a tenant channel or Tx ring must fill");
                (format!("ovs flows={flows}"), trace)
            })
            .into()
    }

    /// Serial and windowed resolution of the switch must agree
    /// bit-for-bit on the fixed schedule.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random deliveries and budgets under two cost models: moving
        /// every access cost moves every stopping point, and windowed
        /// resolution must still equal serial resolution.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            rounds in proptest::collection::vec((0u8..12, 0u8..12, 0u8..6, 100u64..12_000), 1..12),
            flows in 1u32..40,
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            prop_assert_eq!(trace(false, lat, &rounds, flows), trace(true, lat, &rounds, flows));
        }
    }

    fn setup(flows: u32) -> (MemoryHierarchy, OvsSwitch, Channels, ChannelId, ChannelId) {
        let h = MemoryHierarchy::tiny(2);
        let mut nic = Nic::new(0x4000_0000, 1, 128, 2048);
        let port = nic.vf_mut(VfId(0)).clone();
        let mut channels = Channels::new();
        let to_t = channels.add(RxRing::new(0x8000_0000, 128, 2048));
        let from_t = channels.add(RxRing::new(0x9000_0000, 128, 2048));
        let ovs = OvsSwitch::new(
            vec![port],
            vec![Attachment {
                to_tenant: to_t,
                from_tenant: from_t,
            }],
            0xA000_0000,
            0xB000_0000,
            OvsConfig {
                emc_entries: 64,
                megaflow_entries: 1024,
            },
        );
        let _ = flows;
        (h, ovs, channels, to_t, from_t)
    }

    fn deliver(h: &mut MemoryHierarchy, ovs: &mut OvsSwitch, n: u32, flows: u32) {
        let ddio = WayMask::contiguous(2, 2).unwrap();
        crate::deliver(h, ddio, &mut ovs.ports_mut()[0], (0..n).map(|i| FlowId(i % flows)), 64);
    }

    fn run(h: &mut MemoryHierarchy, ovs: &mut OvsSwitch, ch: &mut Channels, budget: u64) {
        crate::run_slice(h, ch, None, ovs, WayMask::all(4), budget);
    }

    #[test]
    fn forwards_rx_to_tenant_channel() {
        let (mut h, mut ovs, mut ch, to_t, _) = setup(1);
        deliver(&mut h, &mut ovs, 10, 1);
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ch.get(to_t).ring.len(), 10);
        assert_eq!(ovs.metrics().ops, 10);
    }

    #[test]
    fn emc_learns_flows() {
        let (mut h, mut ovs, mut ch, _, _) = setup(1);
        deliver(&mut h, &mut ovs, 20, 2);
        run(&mut h, &mut ovs, &mut ch, 2_000_000);
        // First packet per flow misses the EMC, the rest hit.
        assert_eq!(ovs.emc_misses(), 2);
        assert_eq!(ovs.emc_hits(), 18);
    }

    #[test]
    fn many_flows_thrash_emc() {
        let (mut h, mut ovs, mut ch, _, _) = setup(1);
        // 1000 flows over 64 EMC slots: most lookups miss.
        deliver(&mut h, &mut ovs, 100, 1000);
        run(&mut h, &mut ovs, &mut ch, 10_000_000);
        assert!(
            ovs.emc_misses() > ovs.emc_hits(),
            "hits {} misses {}",
            ovs.emc_hits(),
            ovs.emc_misses()
        );
    }

    #[test]
    fn outbound_path_reaches_port_tx() {
        let (mut h, mut ovs, mut ch, _, from_t) = setup(1);
        ch.get_mut(from_t)
            .ring
            .push(PacketSlot::new(FlowId(5), 64))
            .unwrap();
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ovs.ports_mut()[0].tx.len(), 1);
    }

    #[test]
    fn full_tenant_channel_drops() {
        let (mut h, mut ovs, mut ch, to_t, _) = setup(1);
        // Fill the tenant channel so inbound forwards must drop.
        while ch
            .get_mut(to_t)
            .ring
            .push(PacketSlot::new(FlowId(0), 64))
            .is_some()
        {}
        ch.get_mut(to_t).ring.reset_drops();
        deliver(&mut h, &mut ovs, 3, 1);
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ovs.metrics().drops, 3);
    }
}
