//! The DMA engine: moves packets between rings and the cache hierarchy
//! through the DDIO path.

use crate::ring::{PacketSlot, RxRing, TxRing};
use crate::traffic::PacketBatch;
use iat_cachesim::LINE_BYTES;

/// Per-device DMA statistics and transfer logic.
///
/// Receive: for each inbound packet the engine claims a ring slot and
/// DMA-writes the descriptor line plus every payload line through DDIO,
/// where the LLC performs write update or write allocate exactly as the
/// paper describes. A full ring drops the packet *without* touching the
/// cache (the NIC discards it at the MAC).
///
/// Transmit: the device pops the Tx ring and reads descriptor + payload,
/// which never allocates.
///
/// The engine is cache-agnostic: it owns ring bookkeeping and counters
/// and hands every line address to a caller-supplied sink, so one routine
/// per direction serves every way of resolving the accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaEngine {
    /// Packets successfully DMA-written into an Rx ring.
    pub rx_packets: u64,
    /// Inbound packets dropped because the Rx ring was full.
    pub rx_dropped: u64,
    /// Packets transmitted (drained from a Tx ring).
    pub tx_packets: u64,
    /// Cache lines written through DDIO.
    pub lines_written: u64,
    /// Cache lines read by the device.
    pub lines_read: u64,
}

impl DmaEngine {
    /// Creates an engine with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receives a generated batch into `ring`: claims one slot per packet
    /// and emits its DDIO line writes (the descriptor line, then every
    /// payload line) to `write`, in delivery order. A dropped packet emits
    /// nothing. Returns how many packets were accepted.
    ///
    /// Ring claims and drop decisions depend only on ring occupancy, never
    /// on cache outcomes, so the caller decides how the writes resolve:
    /// the epoch loop enqueues them into the hierarchy's batched pipeline,
    /// and tests apply them one at a time through
    /// `MemoryHierarchy::io_write`.
    pub fn rx_batch(
        &mut self,
        ring: &mut RxRing,
        batch: &PacketBatch,
        mut write: impl FnMut(u64),
    ) -> usize {
        let mut accepted = 0;
        for &flow in &batch.flows {
            let slot = PacketSlot::new(flow, batch.size);
            let Some(idx) = ring.push(slot) else {
                self.rx_dropped += 1;
                continue;
            };
            write(ring.desc_addr(idx));
            let base = ring.buf_addr(idx);
            for l in 0..slot.payload_lines() {
                write(base + l * LINE_BYTES);
            }
            self.lines_written += 1 + slot.payload_lines();
            self.rx_packets += 1;
            accepted += 1;
        }
        accepted
    }

    /// Device side of transmit: drains `ring`, emitting each packet's
    /// descriptor and payload line reads to `read` in drain order.
    /// Returns the number of packets sent.
    pub fn tx_drain(&mut self, ring: &mut TxRing, mut read: impl FnMut(u64)) -> usize {
        let mut sent = 0;
        while let Some((idx, slot)) = ring.pop() {
            read(ring.desc_addr(idx));
            let base = slot.ext_buf.unwrap_or_else(|| ring.buf_addr(idx));
            for l in 0..slot.payload_lines() {
                read(base + l * LINE_BYTES);
            }
            self.lines_read += 1 + slot.payload_lines();
            self.tx_packets += 1;
            sent += 1;
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;
    use iat_cachesim::{MemoryHierarchy, WayMask};

    /// Delivers one packet, applying its line writes access-at-a-time.
    fn deliver_one(
        dma: &mut DmaEngine,
        h: &mut MemoryHierarchy,
        ddio: WayMask,
        ring: &mut RxRing,
        size: u32,
    ) -> bool {
        let batch = PacketBatch { flows: vec![FlowId(0)], size };
        dma.rx_batch(ring, &batch, |a| {
            h.io_write(ddio, a);
        }) == 1
    }

    #[test]
    fn rx_writes_descriptor_and_payload_lines() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 8, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        assert!(deliver_one(&mut dma, &mut h, ddio, &mut ring, 1500));
        // 1 descriptor + 24 payload lines.
        assert_eq!(dma.lines_written, 25);
        let st = h.llc().stats();
        assert_eq!(st.ddio_hits() + st.ddio_misses(), 25);
    }

    #[test]
    fn drop_on_full_ring_touches_nothing() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 1, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::single(3);
        assert!(deliver_one(&mut dma, &mut h, ddio, &mut ring, 64));
        let lines_before = dma.lines_written;
        assert!(!deliver_one(&mut dma, &mut h, ddio, &mut ring, 64));
        assert_eq!(dma.lines_written, lines_before);
        assert_eq!(dma.rx_dropped, 1);
        assert_eq!(ring.drops(), 1);
    }

    #[test]
    fn ring_reuse_yields_ddio_hits() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 2, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::contiguous(0, 4).unwrap();
        // Fill, drain, refill: the second round reuses the same buffer
        // addresses, so (with an undisturbed cache) it write-updates.
        for _ in 0..2 {
            deliver_one(&mut dma, &mut h, ddio, &mut ring, 64);
        }
        ring.pop();
        ring.pop();
        let hits_before = h.llc().stats().ddio_hits();
        deliver_one(&mut dma, &mut h, ddio, &mut ring, 64);
        assert!(h.llc().stats().ddio_hits() > hits_before);
    }

    #[test]
    fn tx_drain_reads_without_allocating() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut tx = TxRing::new(0x20_0000, 8, 2048);
        let mut dma = DmaEngine::new();
        tx.push(PacketSlot::new(FlowId(1), 128)).unwrap();
        tx.push(PacketSlot::new(FlowId(2), 128)).unwrap();
        let sent = dma.tx_drain(&mut tx, |a| {
            h.io_read(a);
        });
        assert_eq!(sent, 2);
        assert_eq!(dma.tx_packets, 2);
        // 2 packets x (1 desc + 2 payload lines).
        assert_eq!(dma.lines_read, 6);
        // Nothing allocated: payload wasn't resident, reads hit memory.
        assert_eq!(h.llc().valid_lines(), 0);
    }

    #[test]
    fn batch_rx_counts_accepted() {
        let mut ring = RxRing::new(0, 4, 2048);
        let mut dma = DmaEngine::new();
        let batch = PacketBatch { flows: vec![FlowId(0); 6], size: 64 };
        let mut writes = Vec::new();
        let accepted = dma.rx_batch(&mut ring, &batch, |a| writes.push(a));
        assert_eq!(accepted, 4);
        assert_eq!(dma.rx_dropped, 2);
        // Descriptor then payload per accepted packet, nothing for drops.
        assert_eq!(writes.len(), 8);
        assert_eq!(writes[0], ring.desc_addr(0));
        assert_eq!(writes[1], ring.buf_addr(0));
    }
}
