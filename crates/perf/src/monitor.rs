//! The monitor: samples core and uncore counters the way IAT does.

use crate::bank::{CoreCounters, CounterBank};
use crate::cost::CostModel;
use iat_cachesim::{AgentId, Llc};

/// How DDIO hit/miss counts are obtained from the CHAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdioSampleMode {
    /// Read a single slice's CHA counters and multiply by the slice count —
    /// the paper's low-overhead approach, valid because the slice hash
    /// spreads traffic evenly.
    OneSlice(u16),
    /// Read every CHA and sum (exact, but `slices`× the read cost). Used by
    /// the ablation study.
    AllSlices,
}

/// Which tenant maps to which agent id and cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's agent id in the cache model (its RMID, in CMT terms).
    pub agent: AgentId,
    /// The cores the tenant's containers are pinned to.
    pub cores: Vec<usize>,
}

/// The set of tenants a monitor watches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Monitored tenants, in a stable order.
    pub tenants: Vec<TenantSpec>,
}

/// One tenant's cumulative sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSample {
    /// Agent the sample belongs to.
    pub agent: AgentId,
    /// Instructions and cycles aggregated over the tenant's cores.
    pub core: CoreCounters,
    /// LLC references attributed to the tenant.
    pub llc_references: u64,
    /// LLC misses attributed to the tenant.
    pub llc_misses: u64,
}

impl TenantSample {
    /// Aggregated instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// LLC miss rate in `[0,1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.llc_references == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_references as f64
        }
    }
}

/// Chip-wide cumulative sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemSample {
    /// DDIO transactions that hit (write update), possibly inferred from
    /// one slice.
    pub ddio_hits: u64,
    /// DDIO transactions that missed (write allocate), possibly inferred.
    pub ddio_misses: u64,
    /// Bytes read from memory.
    pub mem_read_bytes: u64,
    /// Bytes written to memory.
    pub mem_write_bytes: u64,
}

/// A full poll: per-tenant samples, the system sample, and the modelled
/// cost of having performed the reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Poll {
    /// Per-tenant samples, in [`MonitorSpec`] order.
    pub tenants: Vec<TenantSample>,
    /// The chip-wide sample.
    pub system: SystemSample,
    /// Modelled wall-clock cost of this poll in nanoseconds.
    pub cost_ns: f64,
}

/// Samples the counter state the way the IAT daemon's Poll Prof Data step
/// does.
#[derive(Debug, Clone)]
pub struct Monitor {
    spec: MonitorSpec,
    mode: DdioSampleMode,
    cost: CostModel,
}

impl Monitor {
    /// Creates a monitor with the default cost model.
    pub fn new(spec: MonitorSpec, mode: DdioSampleMode) -> Self {
        Monitor { spec, mode, cost: CostModel::default() }
    }

    /// The monitored tenant set.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// Reads all counters.
    ///
    /// DDIO hit/miss counts are taken from one slice and scaled, or summed
    /// exactly, per [`DdioSampleMode`].
    ///
    /// # Panics
    ///
    /// Panics if a [`TenantSpec`] names a core outside the bank, or if
    /// `OneSlice` names a slice outside the LLC.
    pub fn poll(&self, llc: &Llc, bank: &CounterBank) -> Poll {
        let stats = llc.stats();
        let tenants = self
            .spec
            .tenants
            .iter()
            .map(|t| {
                let agent_stats = stats.agent(t.agent);
                TenantSample {
                    agent: t.agent,
                    core: bank.aggregate(&t.cores),
                    llc_references: agent_stats.references,
                    llc_misses: agent_stats.misses,
                }
            })
            .collect();

        let (ddio_hits, ddio_misses, uncore_reads) = match self.mode {
            DdioSampleMode::OneSlice(slice) => {
                let s = stats.slices[slice as usize];
                let n = llc.geometry().slices() as u64;
                (s.ddio_hits * n, s.ddio_misses * n, 1usize)
            }
            DdioSampleMode::AllSlices => {
                (stats.ddio_hits(), stats.ddio_misses(), llc.geometry().slices() as usize)
            }
        };

        let core_counts: Vec<usize> = self.spec.tenants.iter().map(|t| t.cores.len()).collect();
        let cost_ns =
            self.cost.poll_ns(&core_counts) + (uncore_reads as f64 - 1.0) * self.cost.uncore_read_ns;

        Poll {
            tenants,
            system: SystemSample {
                ddio_hits,
                ddio_misses,
                mem_read_bytes: llc.mem().read_bytes(),
                mem_write_bytes: llc.mem().write_bytes(),
            },
            cost_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_cachesim::{CacheGeometry, CoreOp, WayMask};

    fn setup() -> (Llc, CounterBank) {
        (Llc::new(CacheGeometry::tiny()), CounterBank::new(4))
    }

    #[test]
    fn tenant_sample_reflects_llc_activity() {
        let (mut llc, mut bank) = setup();
        let agent = AgentId::new(0);
        let mask = WayMask::all(4);
        llc.core_access(agent, mask, 0x40, CoreOp::Read); // miss
        llc.core_access(agent, mask, 0x40, CoreOp::Read); // hit
        bank.retire(0, 500, 1000);

        let spec = MonitorSpec { tenants: vec![TenantSpec { agent, cores: vec![0] }] };
        let m = Monitor::new(spec, DdioSampleMode::AllSlices);
        let p = m.poll(&llc, &bank);
        assert_eq!(p.tenants[0].llc_references, 2);
        assert_eq!(p.tenants[0].llc_misses, 1);
        assert!((p.tenants[0].miss_rate() - 0.5).abs() < 1e-12);
        assert!((p.tenants[0].ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_slice_sampling_scales_by_slice_count() {
        let (mut llc, bank) = setup();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        // Spread enough distinct lines that both slices see traffic.
        for i in 0..200u64 {
            llc.io_write(ddio, i * 64);
        }
        let exact = Monitor::new(MonitorSpec::default(), DdioSampleMode::AllSlices)
            .poll(&llc, &bank)
            .system;
        let sampled = Monitor::new(MonitorSpec::default(), DdioSampleMode::OneSlice(0))
            .poll(&llc, &bank)
            .system;
        let total = (exact.ddio_hits + exact.ddio_misses) as f64;
        let inferred = (sampled.ddio_hits + sampled.ddio_misses) as f64;
        // Inference from one slice lands near the exact total.
        assert!((inferred - total).abs() / total < 0.25, "inferred {inferred} vs exact {total}");
    }

    #[test]
    fn all_slice_mode_costs_more() {
        let (llc, bank) = setup();
        let spec = MonitorSpec { tenants: vec![] };
        let one = Monitor::new(spec.clone(), DdioSampleMode::OneSlice(0)).poll(&llc, &bank);
        let all = Monitor::new(spec, DdioSampleMode::AllSlices).poll(&llc, &bank);
        assert!(all.cost_ns > one.cost_ns);
    }

    #[test]
    fn memory_bytes_surface_in_system_sample() {
        let (mut llc, bank) = setup();
        llc.core_access(AgentId::new(0), WayMask::all(4), 0, CoreOp::Read);
        let p = Monitor::new(MonitorSpec::default(), DdioSampleMode::AllSlices).poll(&llc, &bank);
        assert_eq!(p.system.mem_read_bytes, 64);
    }
}
