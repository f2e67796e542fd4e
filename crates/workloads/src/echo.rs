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
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, LatencyModel, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, RxRing};
    use proptest::prelude::*;

    /// Access-at-a-time reference loop of [`ChannelEcho::run`].
    fn reference(echo: &mut ChannelEcho, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        while used < ctx.cycle_budget {
            let rx = &mut ctx.channels.get_mut(echo.rx).ring;
            let Some((idx, slot)) = rx.pop() else {
                let iters = (ctx.cycle_budget - used) / POLL_CYCLES;
                instructions += iters * POLL_INSTR;
                used += iters * POLL_CYCLES;
                break;
            };
            let buf = slot.ext_buf.unwrap_or_else(|| rx.buf_addr(idx));
            let cost = PKT_CYCLES + ctx.read(buf) as u64;
            let tx = &mut ctx.channels.get_mut(echo.tx).ring;
            let pushed = tx.push(PacketSlot::with_ext_buf(slot.flow, slot.size, buf)).is_some();
            if accrue {
                if pushed {
                    echo.forwarded += 1;
                } else {
                    echo.drops += 1;
                }
                echo.win.latency_mut().record(cost);
            }
            used += cost;
            instructions += PKT_INSTR;
        }
        ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) }
    }

    type Trace = (Vec<ExecResult>, WorkloadMetrics, String, String, u64, u64);

    /// Runs an echo tenant through `rounds` of (packets, budget) with a
    /// 6-slot outbound channel and statistics frozen every fifth round.
    fn trace(
        step: fn(&mut ChannelEcho, &mut ExecCtx<'_>) -> ExecResult,
        latency: LatencyModel,
        rounds: &[(u8, u64)],
    ) -> Trace {
        let mut h = crate::tiny_hierarchy(latency);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 32, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 6, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        let mut results = Vec::new();
        for (r, &(n, budget)) in rounds.iter().enumerate() {
            let r = r as u64;
            for i in 0..n as u64 {
                let flow = FlowId((r * 13 + i) as u32);
                let slot = if i % 3 == 0 {
                    PacketSlot::with_ext_buf(flow, 64, 0xC000_0000 + (r * 7 + i) % 40 * 2048)
                } else {
                    PacketSlot::new(flow, 64)
                };
                let _ = ch.get_mut(rx).ring.push(slot);
            }
            h.set_stats_frozen(r % 5 == 4);
            results.push(crate::run_slice(&mut h, &mut ch, &mut echo, budget, step));
            h.set_stats_frozen(false);
            for _ in 0..r % 4 {
                ch.get_mut(tx).ring.pop();
            }
        }
        (
            results,
            echo.metrics(),
            format!("{:?}", echo.win.latency_mut()),
            format!("{ch:?}"),
            h.accesses(),
            h.llc().state_digest(),
        )
    }

    /// The windowed loop must match the access-at-a-time reference
    /// bit-for-bit, including drops at a full outbound channel.
    #[test]
    fn batched_matches_serial() {
        let rounds: Vec<(u8, u64)> = (0..16u64).map(|r| ((r * 5 % 17) as u8, 150 + r * 197)).collect();
        let lat = LatencyModel::default();
        let batched = trace(ChannelEcho::run, lat, &rounds);
        assert!(batched.1.drops > 0 && batched.1.ops > 0);
        assert_eq!(batched, trace(reference, lat, &rounds));
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
            prop_assert_eq!(trace(ChannelEcho::run, lat, &rounds), trace(reference, lat, &rounds));
        }
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
        let mut ctx = ExecCtx {
            cache: &mut h,
            sketch: None,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: 100_000,
        };
        echo.run(&mut ctx);
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
        let mut ctx = ExecCtx {
            cache: &mut h,
            sketch: None,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: 100_000,
        };
        echo.run(&mut ctx);
        assert_eq!(echo.forwarded(), 1);
        assert_eq!(echo.metrics().drops, 2);
    }
}
