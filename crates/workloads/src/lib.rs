//! # iat-workloads
//!
//! Cycle-budgeted workload models for the IAT reproduction. Each workload
//! issues a *real address stream* into the [`iat_cachesim`] hierarchy, so
//! its cache footprint, locality and I/O intensity — the properties the
//! paper's evaluation depends on — are carried by actual cache state rather
//! than scripted curves.
//!
//! The menagerie mirrors the paper's evaluation (Sec. VI):
//!
//! | Paper workload | Model |
//! |---|---|
//! | X-Mem random read | [`XMem`] |
//! | DPDK `testpmd` | [`TestPmd`] |
//! | DPDK `l3fwd` (1M flows) | [`L3Fwd`] |
//! | OVS-DPDK virtual switch | [`OvsSwitch`] |
//! | FastClick firewall→stats→NAPT chain | [`NfChain`] |
//! | Redis + YCSB | [`KvStore`] with [`YcsbMix`] |
//! | RocksDB (memtable-resident) | [`RocksLike`] |
//! | SPEC CPU2006 memory-sensitive subset | [`SpecWorkload`] with [`SpecProfile`] |
//!
//! All workloads implement [`Workload`]: the platform hands each a cycle
//! budget per epoch and the workload spends it issuing accesses; memory
//! stalls consume budget, so IPC, drain rate and packet loss *emerge* from
//! cache behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod echo;
mod fwd;
mod kvs;
mod latency;
mod nfchain;
mod ovs;
pub mod phase;
mod region;
mod rocks;
mod spec;
mod window;
mod xmem;
mod ycsb;

pub use ctx::{Channel, ChannelId, Channels, ExecCtx, ExecResult, Workload,
              WorkloadKind, WorkloadMetrics};
pub use echo::ChannelEcho;
pub use fwd::{L3Fwd, TestPmd};
pub use kvs::{KvConfig, KvStore};
pub use latency::LatencySampler;
pub use nfchain::{NfChain, NfChainConfig};
pub use ovs::{Attachment, OvsConfig, OvsSwitch};
pub use region::{AddrAlloc, HashRegion};
pub use rocks::{RocksConfig, RocksLike};
pub use spec::{SpecProfile, SpecWorkload};
pub use xmem::XMem;
pub use ycsb::{OpKind, YcsbMix};

/// Test support: DMA-delivers one `size`-byte packet per flow into `vf`'s
/// Rx ring, applying the DDIO line writes one access at a time.
#[cfg(test)]
pub(crate) fn deliver(
    h: &mut iat_cachesim::MemoryHierarchy,
    ddio: iat_cachesim::WayMask,
    vf: &mut iat_netsim::VirtualFunction,
    flows: impl IntoIterator<Item = iat_netsim::FlowId>,
    size: u32,
) {
    let batch = iat_netsim::PacketBatch { flows: flows.into_iter().collect(), size };
    vf.dma.rx_batch(&mut vf.rx, &batch, |a| {
        h.io_write(ddio, a);
    });
}
