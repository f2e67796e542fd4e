//! The slice driver: the one route by which every workload spends its
//! cycle budget and resolves its cache accesses.
//!
//! Every workload runs one loop shape. It scans its *sources* (Rx rings,
//! channels, or an endless op or address generator) round-robin and
//! serves at most one item from each: pop or draw work, pay a fixed
//! per-item cost plus a handful of cache accesses whose *addresses* are
//! independent of access outcomes. The summed cost is spent from the
//! cycle budget, and the budget is re-checked before each source. A full
//! scan that serves nothing means the core is idle, and a polling core
//! spins the rest of its budget. [`AccessWindow::drive`] runs that loop
//! for TestPmd, L3Fwd, OVS, the KVS, the channel echo, the NF chain,
//! RocksDB, SPEC and X-Mem; each supplies only its per-item body.
//!
//! Because each access costs at most `max_access_cycles`, the loop's
//! control decisions are often *certain* long before the exact costs are
//! known: as long as the upper bound `used + pending_fixed + max_cost ·
//! pending_accesses` stays below the budget, the serial schedule could not
//! have stopped either, so items can keep enqueueing. Only when the bound
//! crosses the budget (or the core goes idle and must size its spin) does
//! the window flush: all pending accesses resolve in one slice-bucketed
//! LLC batch, exact per-item costs are reconstructed **in item order** —
//! which also keeps the order-sensitive latency-reservoir sampling
//! identical — and the budget advances exactly as the serial loop would
//! have. For X-Mem, whose items are single reads, the bound cuts windows
//! of `ceil(left / max_cost)` items. Results are therefore bit-identical
//! to access-at-a-time execution. Test builds check this against a serial
//! resolution of the same bodies (`AccessWindow::serial`), and pin the
//! bodies themselves with a committed trace snapshot.

use crate::ctx::{ExecCtx, ExecResult, WorkloadMetrics};
use crate::latency::LatencySampler;
use iat_cachesim::CoreOp;

/// A window of in-flight items (packets, requests, blocks) whose cache
/// accesses are enqueued but not yet resolved, and the latency sampler
/// their costs land in.
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
    /// Records each resolved item's cost while metrics accrue; `None` for
    /// workloads that report no latency (SPEC).
    latency: Option<LatencySampler>,
    /// Resolves every access on its own as its item is served (the
    /// access-at-a-time oracle) instead of through certain-bound windows.
    #[cfg(test)]
    pub serial: bool,
}

impl AccessWindow {
    /// A window that records item latencies in a sampler seeded `seed`.
    pub fn with_latency(seed: u64) -> Self {
        AccessWindow { latency: Some(LatencySampler::new(seed)), ..Self::default() }
    }

    /// Runs one slice of `w`, whose window `window` selects.
    ///
    /// Scans `sources` round-robin, calling `serve(w, win, ctx, source)`.
    /// A call enqueues at most one item and returns its instructions, or
    /// `None` if the source had nothing. Before each call the certain-bound
    /// check runs, flushing once the bound reaches the budget and ending
    /// the slice once the exact cycles do. A full scan that serves nothing
    /// flushes the stragglers, then spins the rest of the budget at
    /// `idle`'s (cycles, instructions) per empty poll; a workload without
    /// a poll loop (`None`) ends its slice there.
    pub fn drive<W>(
        w: &mut W,
        window: fn(&mut W) -> &mut AccessWindow,
        ctx: &mut ExecCtx<'_>,
        sources: usize,
        idle: Option<(u64, u64)>,
        mut serve: impl FnMut(&mut W, &mut AccessWindow, &mut ExecCtx<'_>, usize) -> Option<u64>,
    ) -> ExecResult {
        #[cfg(test)]
        if window(w).serial {
            return Self::drive_serial(w, window, ctx, sources, idle, serve);
        }
        let mut win = std::mem::take(window(w));
        let budget = ctx.cycle_budget;
        let max_access = ctx.max_access_cycles() as u64;
        let mut used = 0u64;
        let mut instructions = 0u64;
        'slice: loop {
            let mut progress = false;
            for source in 0..sources {
                if win.upper_bound(used, max_access) >= budget {
                    win.flush(ctx, &mut used);
                    if used >= budget {
                        // The access-at-a-time loop stops here too: a
                        // mid-scan stop implies an earlier source served an
                        // item, so its scan ends and its outer loop exits.
                        break 'slice;
                    }
                }
                if let Some(instr) = serve(w, &mut win, ctx, source) {
                    instructions += instr;
                    progress = true;
                }
            }
            if !progress {
                // Stragglers must resolve before sizing the spin.
                win.flush(ctx, &mut used);
                if let Some((cycles, instr)) = idle {
                    let iters = (budget - used) / cycles;
                    instructions += iters * instr;
                    used += iters * cycles;
                }
                break;
            }
        }
        *window(w) = win;
        ExecResult { instructions, cycles_used: used.min(budget) }
    }

    /// The access-at-a-time resolution of [`AccessWindow::drive`], for a
    /// window whose `serial` flag a test set: the exact budget is checked
    /// before each source, and each served item's accesses resolve one by
    /// one through the hierarchy, feeding a lent sketch, before the next
    /// check. It shares no budget check, flush or latency code with the
    /// certain-bound path, so a fault in that protocol shows as a mismatch.
    #[cfg(test)]
    fn drive_serial<W>(
        w: &mut W,
        window: fn(&mut W) -> &mut AccessWindow,
        ctx: &mut ExecCtx<'_>,
        sources: usize,
        idle: Option<(u64, u64)>,
        mut serve: impl FnMut(&mut W, &mut AccessWindow, &mut ExecCtx<'_>, usize) -> Option<u64>,
    ) -> ExecResult {
        let mut win = std::mem::take(window(w));
        let budget = ctx.cycle_budget;
        let mut used = 0u64;
        let mut instructions = 0u64;
        'slice: loop {
            let mut progress = false;
            for source in 0..sources {
                if used >= budget {
                    break 'slice;
                }
                let Some(instr) = serve(w, &mut win, ctx, source) else { continue };
                instructions += instr;
                progress = true;
                let mut ops = win.ops.drain(..);
                for &(fixed, n) in &win.items {
                    let mut cost = fixed;
                    for (addr, op) in ops.by_ref().take(n as usize) {
                        if let Some(sketch) = ctx.sketch.as_deref_mut() {
                            sketch.observe(addr);
                        }
                        cost += ctx.cache.core_access_cycles(ctx.core, ctx.agent, ctx.mask, addr, op) as u64;
                    }
                    used += cost;
                    if ctx.accrue() {
                        if let Some(l) = win.latency.as_mut() {
                            l.record(cost);
                        }
                    }
                }
                win.items.clear();
                win.fixed_sum = 0;
            }
            if !progress {
                if let Some((cycles, instr)) = idle {
                    let iters = (budget - used) / cycles;
                    instructions += iters * instr;
                    used += iters * cycles;
                }
                break;
            }
        }
        *window(w) = win;
        ExecResult { instructions, cycles_used: used.min(budget) }
    }

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

    /// The workload's metrics: `ops` and `drops` with the latency moments
    /// of the sampler (zero without one).
    pub fn metrics(&self, ops: u64, drops: u64) -> WorkloadMetrics {
        let (avg_op_cycles, p99_op_cycles) =
            self.latency.as_ref().map_or((0.0, 0.0), |l| (l.mean(), l.percentile(0.99)));
        WorkloadMetrics { ops, avg_op_cycles, p99_op_cycles, drops }
    }

    /// Clears the latency sampler.
    pub fn reset_latency(&mut self) {
        if let Some(l) = self.latency.as_mut() {
            l.reset();
        }
    }

    /// The latency sampler, for trace digests.
    #[cfg(test)]
    pub fn latency(&self) -> &LatencySampler {
        self.latency.as_ref().expect("window records latency")
    }

    /// Upper bound on the budget consumed once everything pending
    /// resolves: exact `used` plus pending fixed costs plus `max_access`
    /// per unresolved access. While this stays below the budget, the
    /// serial loop provably would not have stopped.
    #[inline]
    fn upper_bound(&self, used: u64, max_access: u64) -> u64 {
        used + self.fixed_sum + max_access * self.ops.len() as u64
    }

    /// Resolves every pending access in one batched LLC flush and adds
    /// each item's exact cost to `used`, in item order, recording it in
    /// the latency sampler while metrics accrue. No-op when nothing is
    /// pending.
    fn flush(&mut self, ctx: &mut ExecCtx<'_>, used: &mut u64) {
        debug_assert!(!self.open, "flush with an item still open");
        if self.items.is_empty() {
            debug_assert!(self.ops.is_empty());
            return;
        }
        ctx.access_batch(&self.ops, &mut self.costs);
        let mut latency = self.latency.as_mut().filter(|_| ctx.accrue());
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
