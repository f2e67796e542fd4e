//! # iat-netsim
//!
//! The network-I/O substrate for the IAT reproduction: NICs with SR-IOV
//! virtual functions, descriptor rings, a DMA engine that moves packets
//! through the **DDIO** path of [`iat_cachesim`], and deterministic traffic
//! generators (constant-rate, bursty, multi-flow, Zipfian).
//!
//! The model reproduces what matters for the paper's two problems:
//!
//! * **Leaky DMA** — inbound packets are DMA-written line by line through
//!   `io_write`, so when the in-flight ring footprint exceeds the capacity
//!   of DDIO's LLC ways, write allocates evict earlier packets to memory
//!   and the consuming core takes memory-latency hits re-fetching them;
//! * **producer/consumer imbalance** — rings have finite depth; when the
//!   core cannot drain fast enough the NIC drops packets, which is what the
//!   RFC 2544 zero-loss search (paper Fig. 3) measures.
//!
//! # Example
//!
//! ```
//! use iat_netsim::{RxRing, PacketSlot, FlowId};
//!
//! let mut ring = RxRing::new(0x1000_0000, 4, 2048);
//! assert_eq!(ring.free_slots(), 4);
//! ring.push(PacketSlot::new(FlowId(7), 64)).unwrap();
//! let (idx, slot) = ring.pop().unwrap();
//! assert_eq!(slot.flow, FlowId(7));
//! assert_eq!(idx, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dma;
mod nic;
mod rfc2544;
mod ring;
mod traffic;

pub use dma::DmaEngine;
pub use nic::{Nic, VfId, VirtualFunction};
pub use rfc2544::{rfc2544_search, Rfc2544Config, Rfc2544Report, ZeroLossProbe};
pub use ring::{PacketSlot, RxRing, TxRing};
pub use traffic::{FlowDist, PacketBatch, TrafficGen, TrafficPattern, ZipfTable};

/// A flow identifier (5-tuple surrogate).
///
/// Workloads use the flow id to index flow tables, so the distribution of
/// flow ids in the generated traffic directly controls flow-table locality
/// (the knob behind the paper's Fig. 9 flow-count sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow({})", self.0)
    }
}

/// Ethernet + framing overhead per packet on the wire, in bytes
/// (preamble 8 + FCS 4 + IFG 12 — the 20 B the paper's 148.8 Mpps
/// calculation uses).
pub const WIRE_OVERHEAD_BYTES: u32 = 20;

/// Packets per second for a given line rate and packet size.
///
/// ```
/// // The paper's check: 100 Gb/s of 64 B packets is 148.8 Mpps.
/// let pps = iat_netsim::line_rate_pps(100_000_000_000, 64);
/// assert!((pps - 148.8e6).abs() / 148.8e6 < 0.01);
/// ```
pub fn line_rate_pps(bits_per_sec: u64, packet_bytes: u32) -> f64 {
    let on_wire = (packet_bytes + WIRE_OVERHEAD_BYTES) as f64 * 8.0;
    bits_per_sec as f64 / on_wire
}

/// Inverse of [`line_rate_pps`]: the line rate (bits per second) that
/// delivers `pps` packets per second of `packet_bytes`-byte packets.
///
/// ```
/// let bps = iat_netsim::rate_for_pps(148.8e6, 64);
/// assert!((bps as f64 - 100e9).abs() / 100e9 < 0.01);
/// ```
pub fn rate_for_pps(pps: f64, packet_bytes: u32) -> u64 {
    (pps * (packet_bytes + WIRE_OVERHEAD_BYTES) as f64 * 8.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_packet_rate() {
        // 40 Gb/s of 1500 B packets: ~3.29 Mpps.
        let pps = line_rate_pps(40_000_000_000, 1500);
        assert!((pps - 3.289e6).abs() / 3.289e6 < 0.01);
    }
}
