//! A channel-attached packet bouncer: `testpmd` behind a virtual switch
//! (the tenant side of the paper's aggregation-model microbenchmarks,
//! Fig. 8/9).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::window::AccessWindow;
use iat_netsim::PacketSlot;

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// An idle tenant core busy-polls the rest of its budget.
const IDLE: Option<(u64, u64)> = Some((POLL_CYCLES, POLL_INSTR));
/// Base per-packet cost of the bounce.
const PKT_CYCLES: u64 = 90;
/// Instructions per bounced packet.
const PKT_INSTR: u64 = 190;

/// Bounces every packet arriving on its inbound channel back out of its
/// outbound channel, zero-copy.
#[derive(Debug, Clone)]
pub struct ChannelEcho {
    rx: ChannelId,
    tx: ChannelId,
    forwarded: u64,
    drops: u64,
    win: AccessWindow,
}

impl ChannelEcho {
    /// Creates an echo tenant reading from `rx` and writing to `tx`.
    pub fn new(rx: ChannelId, tx: ChannelId) -> Self {
        ChannelEcho {
            rx,
            tx,
            forwarded: 0,
            drops: 0,
            win: AccessWindow::with_latency(0xec40),
        }
    }

    /// Packets bounced so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Workload for ChannelEcho {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "testpmd-virtio"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn feeds_phase_sketch(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let accrue = ctx.accrue();
        AccessWindow::drive(self, |w| &mut w.win, ctx, 1, IDLE, |echo, win, ctx, _| {
            let rx = &mut ctx.channels.get_mut(echo.rx).ring;
            let (idx, slot) = rx.pop()?;
            let buf = slot.ext_buf.unwrap_or_else(|| rx.buf_addr(idx));
            // Touch the header, re-post zero-copy.
            win.begin_item(PKT_CYCLES);
            win.read(buf);
            win.end_item();
            let tx = &mut ctx.channels.get_mut(echo.tx).ring;
            let pushed = tx.push(PacketSlot::with_ext_buf(slot.flow, slot.size, buf)).is_some();
            if accrue {
                if pushed {
                    echo.forwarded += 1;
                } else {
                    echo.drops += 1;
                }
            }
            Some(PKT_INSTR)
        })
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.win.metrics(self.forwarded, self.drops)
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.drops = 0;
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

    /// Runs an echo tenant, resolving its accesses serially if `serial`,
    /// through `rounds` of (packets, budget) with a 6-slot outbound
    /// channel and statistics frozen every fifth round.
    fn trace(serial: bool, latency: LatencyModel, rounds: &[(u8, u64)]) -> Trace {
        let mut t = Tracer::new(crate::tiny_hierarchy(latency));
        let rx = t.ch.add(RxRing::new(0x8000_0000, 32, 2048));
        let tx = t.ch.add(RxRing::new(0x9000_0000, 6, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        echo.win.serial = serial;
        for (r, &(n, budget)) in rounds.iter().enumerate() {
            let r = r as u64;
            for i in 0..n as u64 {
                let flow = FlowId((r * 13 + i) as u32);
                let slot = if i % 3 == 0 {
                    PacketSlot::with_ext_buf(flow, 64, 0xC000_0000 + (r * 7 + i) % 40 * 2048)
                } else {
                    PacketSlot::new(flow, 64)
                };
                let _ = t.ch.get_mut(rx).ring.push(slot);
            }
            t.slice(&mut echo, WayMask::all(4), budget, r % 5 == 4);
            for _ in 0..r % 4 {
                t.ch.get_mut(tx).ring.pop();
            }
        }
        let state = vec![format!("{:?}", echo.win.latency()), format!("{:?}", t.ch)];
        t.finish(echo.metrics(), state)
    }

    /// The fixed schedule, including drops at a full outbound channel.
    pub(crate) fn fixed_traces(serial: bool) -> Vec<(String, Trace)> {
        let rounds: Vec<(u8, u64)> = (0..16u64).map(|r| ((r * 5 % 17) as u8, 150 + r * 197)).collect();
        let trace = trace(serial, LatencyModel::default(), &rounds);
        assert!(trace.metrics.drops > 0 && trace.metrics.ops > 0);
        vec![("echo".into(), trace)]
    }

    /// Serial and windowed resolution of the echo must agree bit-for-bit
    /// on the fixed schedule.
    #[test]
    fn batched_matches_serial() {
        crate::assert_resolutions_agree(fixed_traces);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random arrivals and budgets under two cost models.
        #[test]
        fn batched_matches_serial_under_random_schedules(
            rounds in proptest::collection::vec((0u8..30, 50u64..5_000), 1..12),
            default_costs in any::<bool>(),
        ) {
            let lat = if default_costs { LatencyModel::default() } else { LatencyModel::new(1, 2, 3) };
            prop_assert_eq!(trace(false, lat, &rounds), trace(true, lat, &rounds));
        }
    }

    fn run(h: &mut MemoryHierarchy, ch: &mut Channels, echo: &mut ChannelEcho) {
        crate::run_slice(h, ch, None, echo, WayMask::all(4), 100_000);
    }

    #[test]
    fn bounces_zero_copy() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 16, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 16, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        ch.get_mut(rx)
            .ring
            .push(PacketSlot::new(FlowId(1), 256))
            .unwrap();
        run(&mut h, &mut ch, &mut echo);
        assert_eq!(echo.forwarded(), 1);
        let (_, out) = ch.get_mut(tx).ring.pop().unwrap();
        assert!(out.ext_buf.is_some(), "bounce must be zero-copy");
        assert_eq!(out.flow, FlowId(1));
    }

    #[test]
    fn full_outbound_channel_drops() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 16, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 1, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        for _ in 0..3 {
            ch.get_mut(rx)
                .ring
                .push(PacketSlot::new(FlowId(0), 64))
                .unwrap();
        }
        run(&mut h, &mut ch, &mut echo);
        assert_eq!(echo.forwarded(), 1);
        assert_eq!(echo.metrics().drops, 2);
    }
}
