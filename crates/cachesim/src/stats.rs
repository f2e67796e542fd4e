//! Access outcomes and cumulative statistics.
//!
//! These are the raw facts the hardware would expose through performance
//! counters; `iat-perf` layers counter/MSR semantics on top of them.

use crate::agent::AgentId;

/// Outcome of a core-initiated LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was found in the LLC (in any way — CAT does not restrict
    /// lookups, only allocations).
    Hit,
    /// The line was not in the LLC and was allocated from memory. `writeback`
    /// is `true` if a dirty victim was evicted to memory.
    Miss {
        /// A dirty victim line was written back to memory.
        writeback: bool,
    },
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Returns `true` for [`AccessOutcome::Miss`].
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// Outcome of a DDIO (device-initiated) LLC transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOutcome {
    /// Inbound write found the line in the LLC: *write update* — a DDIO hit
    /// in the paper's terminology.
    WriteUpdate,
    /// Inbound write allocated the line into the DDIO ways: *write allocate*
    /// — a DDIO miss. `writeback` reports whether a dirty victim was evicted.
    WriteAllocate {
        /// A dirty victim line was written back to memory.
        writeback: bool,
    },
    /// Device read served from the LLC.
    ReadHit,
    /// Device read served from memory (DDIO reads never allocate).
    ReadMiss,
}

impl IoOutcome {
    /// Returns `true` if this transaction counts as a DDIO hit
    /// (write update).
    pub fn is_ddio_hit(self) -> bool {
        matches!(self, IoOutcome::WriteUpdate)
    }

    /// Returns `true` if this transaction counts as a DDIO miss
    /// (write allocate).
    pub fn is_ddio_miss(self) -> bool {
        matches!(self, IoOutcome::WriteAllocate { .. })
    }
}

/// Cumulative per-agent LLC statistics (the CMT view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// LLC lookups performed on behalf of the agent.
    pub references: u64,
    /// LLC lookups that missed.
    pub misses: u64,
    /// Lines currently resident that were allocated by this agent
    /// (LLC occupancy, as CMT would report).
    pub occupancy_lines: u64,
    /// Lines this agent had allocated that were evicted by *other* agents
    /// (interference received).
    pub evicted_by_others: u64,
}

impl AgentStats {
    /// Miss rate in `[0,1]`; zero when there are no references.
    pub fn miss_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.misses as f64 / self.references as f64
        }
    }
}

/// Per-slice DDIO transaction counts, as a CHA's counters would report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceIoStats {
    /// Write updates (DDIO hits) observed at this slice.
    pub ddio_hits: u64,
    /// Write allocates (DDIO misses) observed at this slice.
    pub ddio_misses: u64,
}

/// Cumulative whole-LLC statistics.
///
/// Per-agent counts live in a small vector sorted by [`AgentId`] rather
/// than a `HashMap`: the agent lookup sits on the per-access hot path of
/// the simulator, a handful of tenants plus [`AgentId::IO`] is the
/// universe, and a linear scan of a few packed entries beats hashing
/// every access. Sorting makes iteration order canonical: it depends on
/// which agents touched the LLC, not on the order in which they did.
#[derive(Debug, Clone, Default)]
pub struct LlcStats {
    /// Per-agent reference/miss/occupancy counts, in ascending agent id.
    agents: Vec<(AgentId, AgentStats)>,
    /// Per-slice DDIO counts (indexed by slice id).
    pub slices: Vec<SliceIoStats>,
    /// Total lines evicted (capacity victims), any agent.
    pub evictions: u64,
}

impl LlcStats {
    pub(crate) fn new(slices: usize) -> Self {
        LlcStats { agents: Vec::new(), slices: vec![SliceIoStats::default(); slices], evictions: 0 }
    }

    /// Statistics for one agent (zeroes if the agent never accessed the LLC).
    pub fn agent(&self, id: AgentId) -> AgentStats {
        self.agents
            .iter()
            .find(|(a, _)| *a == id)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Every agent that has touched the LLC, with its statistics, in
    /// ascending agent id ([`AgentId::IO`] last).
    pub fn agents(&self) -> impl Iterator<Item = (AgentId, &AgentStats)> {
        self.agents.iter().map(|(a, s)| (*a, s))
    }

    /// Total DDIO hits across all slices.
    pub fn ddio_hits(&self) -> u64 {
        self.slices.iter().map(|s| s.ddio_hits).sum()
    }

    /// Total DDIO misses across all slices.
    pub fn ddio_misses(&self) -> u64 {
        self.slices.iter().map(|s| s.ddio_misses).sum()
    }

    /// Zeroes every agent's occupancy count (ahead of a recount from the
    /// resident lines — see [`crate::Llc::repair_occupancy`]).
    pub(crate) fn clear_occupancy(&mut self) {
        for (_, s) in self.agents.iter_mut() {
            s.occupancy_lines = 0;
        }
    }

    /// The counters of `id`, registering it (at its sorted position) on
    /// first touch.
    #[inline]
    pub(crate) fn agent_mut(&mut self, id: AgentId) -> &mut AgentStats {
        let i = match self.agents.iter().position(|(a, _)| *a >= id) {
            Some(i) if self.agents[i].0 == id => i,
            Some(i) => {
                self.agents.insert(i, (id, AgentStats::default()));
                i
            }
            None => {
                self.agents.push((id, AgentStats::default()));
                self.agents.len() - 1
            }
        };
        &mut self.agents[i].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(AccessOutcome::Miss { writeback: false }.is_miss());
        assert!(IoOutcome::WriteUpdate.is_ddio_hit());
        assert!(IoOutcome::WriteAllocate { writeback: true }.is_ddio_miss());
        assert!(!IoOutcome::ReadHit.is_ddio_hit());
        assert!(!IoOutcome::ReadMiss.is_ddio_miss());
    }

    #[test]
    fn miss_rate_handles_zero() {
        let s = AgentStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        let s = AgentStats { references: 10, misses: 4, ..Default::default() };
        assert!((s.miss_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn llc_stats_aggregation() {
        let mut st = LlcStats::new(2);
        st.slices[0].ddio_hits = 3;
        st.slices[1].ddio_hits = 4;
        st.slices[1].ddio_misses = 5;
        assert_eq!(st.ddio_hits(), 7);
        assert_eq!(st.ddio_misses(), 5);
        assert_eq!(st.agent(AgentId::new(9)), AgentStats::default());
    }
}
