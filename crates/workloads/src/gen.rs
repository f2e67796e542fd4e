//! The generation-shard wire protocol: messages a tenant-generation
//! worker exchanges with the merge thread that owns the memory
//! hierarchy.
//!
//! A *shard* is a contiguous run of tenants (grouped so that tenants
//! sharing an inter-workload channel never split). The worker owning a
//! shard runs the tenants' front ends — traffic generation, ring
//! claims, workload execution, window cutting — against private state
//! only, and streams the resulting access plans to the merge thread:
//!
//! * [`GenMsg::Phase1`] — the DDIO line-write plan of one chunk's
//!   inbound DMA (ring decisions already taken worker-side; they depend
//!   only on ring occupancy, never cache outcomes).
//! * [`GenMsg::Window`] — one window of core accesses cut by a
//!   workload. The worker blocks on the [`GenReply`] carrying per-op
//!   cycle costs: window *content* depends only on private tenant
//!   state, but the *next* window's boundary depends on how many cycles
//!   this one consumed (the certain-bound-or-flush contract), so
//!   generation beyond the reply cannot run ahead.
//! * [`GenMsg::SliceDone`] / [`GenMsg::Phase2Done`] — slice and phase
//!   punctuation the merge thread uses to retire counters in canonical
//!   order and advance to the next shard.
//! * [`GenMsg::Phase3`] — the device-read plan of the chunk's Tx drain.
//!
//! The merge thread serves shards strictly in canonical tenant order
//! and replays every plan and window against the hierarchy exactly as
//! the inline front end issues it, so results are bit-identical to the
//! default (inline) run by construction. See `iat-platform`'s `gen`
//! module for the shared front end and the merge loop, and DESIGN.md
//! §6.4 for the interleave-order contract.

use crate::ctx::ExecResult;
use iat_cachesim::{AgentId, CoreOp, LatencyModel, WayMask};
use std::sync::mpsc::{Receiver, Sender};

/// One message from a generation worker to the merge thread.
#[derive(Debug)]
pub enum GenMsg {
    /// Inbound-DMA plan for one chunk of one shard: DDIO line writes in
    /// delivery order, plus the shard's delivered/dropped packet tally.
    Phase1 {
        /// Descriptor + payload line addresses, in delivery order.
        writes: Vec<u64>,
        /// Packets accepted into Rx rings.
        delivered: u64,
        /// Packets dropped at full rings (already restored worker-side
        /// during warm epochs).
        dropped: u64,
    },
    /// One window of core accesses; the worker blocks until the merge
    /// thread replies with per-op costs.
    Window {
        /// Core issuing the window.
        core: usize,
        /// Cache-attribution agent (RMID).
        agent: AgentId,
        /// CAT allocation mask in effect.
        mask: WayMask,
        /// Whether the inline path would have fed these ops to the
        /// phase observer (`ExecCtx::read/write/access_batch` do;
        /// direct per-packet accesses do not). The merge thread replays
        /// observation in canonical order so sampled-mode phase
        /// schedules stay identical.
        observe: bool,
        /// The ops, in issue order.
        ops: Vec<(u64, CoreOp)>,
        /// Recycled cost buffer for the merge thread to fill (vectors
        /// circulate: ops/scratch out, ops/costs back).
        scratch: Vec<u32>,
    },
    /// One core finished its slice; carries the result the platform
    /// retires into the counter bank in canonical order.
    SliceDone {
        /// The core whose slice ended.
        core: usize,
        /// Instructions/cycles of the slice.
        result: ExecResult,
    },
    /// All cores of the shard ran for this chunk.
    Phase2Done,
    /// Tx-drain plan for the chunk: device line reads in drain order.
    Phase3 {
        /// Descriptor + payload line addresses, in drain order.
        reads: Vec<u64>,
    },
}

/// The merge thread's answer to a [`GenMsg::Window`].
#[derive(Debug)]
pub struct GenReply {
    /// The window's ops, returned for reuse.
    pub ops: Vec<(u64, CoreOp)>,
    /// Per-op cycle costs, in op order — bit-identical to what the
    /// inline path's hierarchy calls would have returned.
    pub costs: Vec<u32>,
}

/// Worker-side handle to the merge thread: the `Sharded` cache backend
/// of an `ExecCtx` built inside a generation worker.
#[derive(Debug)]
pub struct GenLane {
    tx: Sender<GenMsg>,
    reply_rx: Receiver<GenReply>,
    /// Snapshot of `!hierarchy.stats_frozen()` at epoch dispatch
    /// (freezing only ever changes between epochs).
    accrue: bool,
    /// Copy of the hierarchy's latency model for window-sizing bounds.
    latency: LatencyModel,
    spare_ops: Vec<(u64, CoreOp)>,
    spare_costs: Vec<u32>,
}

impl GenLane {
    /// Builds a lane over a message/reply channel pair.
    pub fn new(
        tx: Sender<GenMsg>,
        reply_rx: Receiver<GenReply>,
        accrue: bool,
        latency: LatencyModel,
    ) -> Self {
        GenLane { tx, reply_rx, accrue, latency, spare_ops: Vec::new(), spare_costs: Vec::new() }
    }

    /// Whether application metrics accrue this epoch (mirrors
    /// `!stats_frozen()` on the merge thread).
    #[inline]
    pub fn accrue(&self) -> bool {
        self.accrue
    }

    /// The hierarchy's latency model.
    #[inline]
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Sends a non-window message (plans and punctuation).
    pub fn send(&self, msg: GenMsg) {
        self.tx.send(msg).expect("merge thread hung up");
    }

    fn exchange(
        &mut self,
        core: usize,
        agent: AgentId,
        mask: WayMask,
        observe: bool,
        ops: Vec<(u64, CoreOp)>,
    ) -> GenReply {
        let scratch = std::mem::take(&mut self.spare_costs);
        self.tx
            .send(GenMsg::Window { core, agent, mask, observe, ops, scratch })
            .expect("merge thread hung up");
        self.reply_rx.recv().expect("merge thread hung up")
    }

    /// Proxies one core access: a one-op window round trip.
    pub(crate) fn access(
        &mut self,
        core: usize,
        agent: AgentId,
        mask: WayMask,
        addr: u64,
        op: CoreOp,
        observe: bool,
    ) -> u32 {
        let mut ops = std::mem::take(&mut self.spare_ops);
        ops.clear();
        ops.push((addr, op));
        let reply = self.exchange(core, agent, mask, observe, ops);
        let cost = reply.costs[0];
        self.spare_ops = reply.ops;
        self.spare_costs = reply.costs;
        cost
    }

    /// Proxies a whole window, overwriting `costs` with per-op costs.
    pub(crate) fn access_batch(
        &mut self,
        core: usize,
        agent: AgentId,
        mask: WayMask,
        ops: &[(u64, CoreOp)],
        costs: &mut Vec<u32>,
        observe: bool,
    ) {
        let mut buf = std::mem::take(&mut self.spare_ops);
        buf.clear();
        buf.extend_from_slice(ops);
        let reply = self.exchange(core, agent, mask, observe, buf);
        costs.clear();
        costs.extend_from_slice(&reply.costs);
        self.spare_ops = reply.ops;
        self.spare_costs = reply.costs;
    }
}
