//! Windowed access batching: the one route by which every budget-looped
//! workload resolves its cache accesses.
//!
//! The workloads share one loop shape: pop or draw work, pay a fixed
//! per-item cost plus a handful of cache accesses whose *addresses* are
//! independent of access outcomes, spend the summed cost from the cycle
//! budget, and re-check the budget between items. TestPmd, L3Fwd, OVS,
//! the KVS, the channel echo, RocksDB, the NF chain and SPEC all run this
//! loop through an [`AccessWindow`]; X-Mem, whose items are single
//! accesses, cuts its windows directly from the same bound.
//!
//! Because each access costs at most `max_access_cycles`, the loop's
//! control decisions are often *certain* long before the exact costs are
//! known: as long as the upper bound `used + pending_fixed + max_cost ·
//! pending_accesses` stays below the budget, the serial schedule could not
//! have stopped either, so items can keep enqueueing. Only when the bound
//! crosses the budget (or the loop must make a cost-dependent decision,
//! e.g. how long to busy-poll) does the window flush: all pending accesses
//! resolve in one slice-bucketed LLC batch, exact per-item costs are
//! reconstructed **in item order** — which also keeps the order-sensitive
//! latency-reservoir sampling identical — and the budget advances exactly
//! as the serial loop would have. Results are therefore bit-identical to
//! access-at-a-time execution; each workload keeps its access-at-a-time
//! loop as a test-only reference and checks this.

use crate::ctx::ExecCtx;
use crate::latency::LatencySampler;
use iat_cachesim::CoreOp;

/// A window of in-flight items (packets, requests) whose cache accesses are
/// enqueued but not yet resolved.
#[derive(Debug, Clone, Default)]
pub(crate) struct AccessWindow {
    ops: Vec<(u64, CoreOp)>,
    costs: Vec<u32>,
    /// Per-item (fixed cycles, number of accesses), in item order.
    items: Vec<(u64, u32)>,
    /// Sum of the fixed cycles of all pending items.
    fixed_sum: u64,
    cur_fixed: u64,
    cur_ops: u32,
    open: bool,
}

impl AccessWindow {
    /// Starts a new item with `fixed` non-memory cycles.
    #[inline]
    pub fn begin_item(&mut self, fixed: u64) {
        debug_assert!(!self.open, "previous item not ended");
        self.cur_fixed = fixed;
        self.cur_ops = 0;
        self.open = true;
    }

    /// Adds `cycles` of non-memory cost to the current item (for costs
    /// known only part-way through it, e.g. after a table tag check).
    #[inline]
    pub fn add_fixed(&mut self, cycles: u64) {
        debug_assert!(self.open);
        self.cur_fixed += cycles;
    }

    /// Enqueues a read for the current item.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        debug_assert!(self.open);
        self.ops.push((addr, CoreOp::Read));
        self.cur_ops += 1;
    }

    /// Enqueues a write for the current item.
    #[inline]
    pub fn write(&mut self, addr: u64) {
        debug_assert!(self.open);
        self.ops.push((addr, CoreOp::Write));
        self.cur_ops += 1;
    }

    /// Closes the current item.
    #[inline]
    pub fn end_item(&mut self) {
        debug_assert!(self.open);
        self.items.push((self.cur_fixed, self.cur_ops));
        self.fixed_sum += self.cur_fixed;
        self.open = false;
    }

    /// Upper bound on the budget consumed once everything pending
    /// resolves: exact `used` plus pending fixed costs plus `max_access`
    /// per unresolved access. While this stays below the budget, the
    /// serial loop provably would not have stopped.
    #[inline]
    pub fn upper_bound(&self, used: u64, max_access: u64) -> u64 {
        used + self.fixed_sum + max_access * self.ops.len() as u64
    }

    /// Resolves every pending access in one batched LLC flush and adds
    /// each item's exact cost to `used`, in item order. With a `latency`
    /// sampler, each cost is also recorded there while metrics accrue.
    /// No-op when nothing is pending.
    pub fn flush(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        used: &mut u64,
        mut latency: Option<&mut LatencySampler>,
    ) {
        debug_assert!(!self.open, "flush with an item still open");
        if self.items.is_empty() {
            debug_assert!(self.ops.is_empty());
            return;
        }
        ctx.access_batch(&self.ops, &mut self.costs);
        if !ctx.accrue() {
            latency = None;
        }
        let mut ci = 0usize;
        for &(fixed, n) in &self.items {
            let end = ci + n as usize;
            let cost = fixed + self.costs[ci..end].iter().map(|&c| c as u64).sum::<u64>();
            ci = end;
            *used += cost;
            if let Some(l) = latency.as_deref_mut() {
                l.record(cost);
            }
        }
        debug_assert_eq!(ci, self.costs.len());
        self.ops.clear();
        self.items.clear();
        self.fixed_sum = 0;
    }
}
