//! NICs and SR-IOV virtual functions.

use crate::dma::DmaEngine;
use crate::ring::{RxRing, TxRing};
use std::fmt;

/// Identifier of a virtual function within a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VfId(pub u8);

impl fmt::Display for VfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vf{}", self.0)
    }
}

/// One SR-IOV virtual function: its own Rx/Tx rings and DMA counters.
///
/// In the *slicing* model each tenant binds a VF directly (host-bypass);
/// in the *aggregation* model the virtual switch owns the physical
/// function, which this type also represents (as VF 0 of the port).
#[derive(Debug, Clone)]
pub struct VirtualFunction {
    id: VfId,
    /// Receive ring.
    pub rx: RxRing,
    /// Transmit ring.
    pub tx: TxRing,
    /// DMA engine/counters for this function.
    pub dma: DmaEngine,
}

impl VirtualFunction {
    /// The function's id.
    pub fn id(&self) -> VfId {
        self.id
    }
}

/// A physical NIC virtualized into one or more functions.
///
/// Ring buffers and descriptors for all functions are laid out in a
/// dedicated, non-overlapping address region starting at `base`, so cache
/// contention between functions (and with workload heaps placed elsewhere)
/// emerges only through capacity, never through accidental aliasing.
#[derive(Debug, Clone)]
pub struct Nic {
    vfs: Vec<VirtualFunction>,
}

impl Nic {
    /// Creates a NIC with `vf_count` functions, each with `ring_entries`
    /// Rx and Tx slots of `buf_stride`-byte buffers, placed at `base`.
    /// Buffer pools equal the ring depth.
    ///
    /// # Panics
    ///
    /// Panics if `vf_count` is zero (a NIC has at least its physical
    /// function) or ring parameters are invalid (see [`RxRing::new`]).
    pub fn new(base: u64, vf_count: u8, ring_entries: usize, buf_stride: u64) -> Self {
        Self::with_pool(base, vf_count, ring_entries, buf_stride, ring_entries)
    }

    /// Creates a NIC whose rings draw mbufs from pools of `pool_size`
    /// buffers (DPDK-style; pools are typically several times the ring
    /// depth, which is what makes the DMA write footprint large enough to
    /// pressure DDIO's LLC ways).
    ///
    /// # Panics
    ///
    /// Panics if `vf_count` is zero or ring parameters are invalid (see
    /// [`RxRing::with_pool`]).
    pub fn with_pool(
        base: u64,
        vf_count: u8,
        ring_entries: usize,
        buf_stride: u64,
        pool_size: usize,
    ) -> Self {
        assert!(vf_count > 0, "a NIC needs at least one function");
        // Generous per-ring region: pool buffers + descriptors, rounded up.
        let region = (pool_size as u64 + 1) * (buf_stride + 64) * 2;
        let vfs = (0..vf_count)
            .map(|i| {
                let rx_base = base + i as u64 * 2 * region;
                let tx_base = rx_base + region;
                VirtualFunction {
                    id: VfId(i),
                    rx: RxRing::with_pool(rx_base, ring_entries, buf_stride, pool_size),
                    tx: TxRing::with_pool(tx_base, ring_entries, buf_stride, pool_size),
                    dma: DmaEngine::new(),
                }
            })
            .collect();
        Nic { vfs }
    }

    /// Number of functions.
    pub fn vf_count(&self) -> usize {
        self.vfs.len()
    }

    /// Immutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vf(&self, id: VfId) -> &VirtualFunction {
        &self.vfs[id.0 as usize]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vf_mut(&mut self, id: VfId) -> &mut VirtualFunction {
        &mut self.vfs[id.0 as usize]
    }

    /// Iterates over all functions.
    pub fn vfs(&self) -> impl Iterator<Item = &VirtualFunction> {
        self.vfs.iter()
    }

    /// Total inbound drops across all functions.
    pub fn total_rx_drops(&self) -> u64 {
        self.vfs.iter().map(|v| v.dma.rx_dropped).sum()
    }

    /// Total received packets across all functions.
    pub fn total_rx_packets(&self) -> u64 {
        self.vfs.iter().map(|v| v.dma.rx_packets).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vf_rings_do_not_overlap() {
        let nic = Nic::new(0x1000_0000, 4, 1024, 2048);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for vf in nic.vfs() {
            let rx_start = vf.rx.buf_addr(0);
            let rx_end = vf.rx.desc_addr(1023) + 64;
            let tx_start = vf.tx.buf_addr(0);
            let tx_end = vf.tx.desc_addr(1023) + 64;
            regions.push((rx_start, rx_end));
            regions.push((tx_start, tx_end));
        }
        regions.sort();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "ring regions overlap: {w:?}");
        }
    }

    #[test]
    fn aggregated_drop_counting() {
        let mut nic = Nic::new(0, 2, 1, 2048);
        let mut h = iat_cachesim::MemoryHierarchy::tiny(1);
        let ddio = iat_cachesim::WayMask::single(0);
        // Two packets into a one-slot ring: the second drops.
        let batch = crate::PacketBatch { flows: vec![crate::FlowId(0); 2], size: 64 };
        let vf = nic.vf_mut(VfId(0));
        vf.dma.rx_batch(&mut vf.rx, &batch, |a| {
            h.io_write(ddio, a);
        });
        assert_eq!(nic.total_rx_drops(), 1);
        assert_eq!(nic.total_rx_packets(), 1);
        assert_eq!(nic.vf(VfId(1)).dma.rx_packets, 0);
    }
}
