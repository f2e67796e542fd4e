//! Rx/Tx descriptor rings.

use crate::FlowId;
use iat_cachesim::LINE_BYTES;

/// Metadata for one received packet occupying a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSlot {
    /// The packet's flow.
    pub flow: FlowId,
    /// Packet length in bytes.
    pub size: u32,
    /// Zero-copy forwarding: when set, the payload lives at this external
    /// buffer (e.g. the Rx mbuf a `testpmd` bounce re-posts for Tx) rather
    /// than in the ring slot's own buffer.
    pub ext_buf: Option<u64>,
}

impl PacketSlot {
    /// Creates a slot descriptor whose payload lives in the ring's own
    /// buffer.
    pub fn new(flow: FlowId, size: u32) -> Self {
        PacketSlot { flow, size, ext_buf: None }
    }

    /// Creates a zero-copy slot whose payload lives at `buf`.
    pub fn with_ext_buf(flow: FlowId, size: u32, buf: u64) -> Self {
        PacketSlot { flow, size, ext_buf: Some(buf) }
    }

    /// Number of cache lines the packet payload occupies.
    pub fn payload_lines(&self) -> u64 {
        iat_cachesim::lines_for(self.size as u64)
    }
}

/// A receive descriptor ring with per-slot packet buffers, DPDK-style.
///
/// Slot `i` owns a fixed descriptor line at `desc_addr(i)` and a fixed
/// buffer at `buf_addr(i)`; buffers are `buf_stride` bytes apart (2 KB for
/// an MTU-sized mbuf). The NIC (producer) pushes, the core (consumer) pops.
/// The *address reuse* this creates is exactly why a shallow, well-drained
/// ring stays resident in DDIO's ways while a deep, backlogged ring leaks
/// to memory.
#[derive(Debug, Clone)]
pub struct RxRing {
    base: u64,
    capacity: usize,
    buf_stride: u64,
    pool_size: usize,
    pool_cursor: u64,
    buf_of_slot: Vec<u32>,
    head: u64,
    tail: u64,
    slots: Vec<Option<PacketSlot>>,
    drops: u64,
    high_water: usize,
}

impl RxRing {
    /// Creates an empty ring of `capacity` slots with buffers based at
    /// `base` (descriptors are placed after the buffer region). The buffer
    /// pool equals the ring depth (each slot reuses one fixed buffer).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `buf_stride` is not line-aligned.
    pub fn new(base: u64, capacity: usize, buf_stride: u64) -> Self {
        Self::with_pool(base, capacity, buf_stride, capacity)
    }

    /// Creates a ring whose slots draw buffers from a rotating pool of
    /// `pool_size >= capacity` mbufs, like a DPDK mempool. The pool — not
    /// the ring depth — determines the DMA *write footprint*, which is the
    /// quantity that competes with DDIO's LLC ways (the Leaky DMA driver).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `pool_size < capacity`, or
    /// `buf_stride` is not line-aligned.
    pub fn with_pool(base: u64, capacity: usize, buf_stride: u64, pool_size: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(pool_size >= capacity, "pool smaller than ring");
        assert_eq!(buf_stride % LINE_BYTES, 0, "buffer stride must be line-aligned");
        RxRing {
            base,
            capacity,
            buf_stride,
            pool_size,
            pool_cursor: 0,
            buf_of_slot: vec![0; capacity],
            head: 0,
            tail: 0,
            slots: vec![None; capacity],
            drops: 0,
            high_water: 0,
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// Returns `true` if no packets are waiting.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.len()
    }

    /// Packets dropped because the ring was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Resets the drop counter (between experiment phases).
    pub fn reset_drops(&mut self) {
        self.drops = 0;
    }

    /// Peak occupancy (in slots) since creation or the last
    /// [`RxRing::reset_high_water`] — the backlog telemetry a sampling
    /// observer would miss between polls.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Resets the peak-occupancy tracker (e.g. per polling interval).
    pub fn reset_high_water(&mut self) {
        self.high_water = self.len();
    }

    /// Buffer pool size in mbufs.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Buffer base address currently attached to slot `idx` (assigned from
    /// the pool at push time).
    pub fn buf_addr(&self, idx: usize) -> u64 {
        self.base + self.buf_of_slot[idx] as u64 * self.buf_stride
    }

    /// Descriptor line address of slot `idx`.
    pub fn desc_addr(&self, idx: usize) -> u64 {
        self.base + self.pool_size as u64 * self.buf_stride + idx as u64 * LINE_BYTES
    }

    /// Total memory footprint (buffer pool + descriptors), the quantity
    /// that competes for DDIO's LLC ways.
    pub fn footprint_bytes(&self) -> u64 {
        self.pool_size as u64 * self.buf_stride + self.capacity as u64 * LINE_BYTES
    }

    /// Producer side: claims the next slot for an inbound packet,
    /// attaching the next pool buffer to it.
    ///
    /// Returns the slot index, or `None` (counting a drop) when the ring
    /// is full.
    pub fn push(&mut self, slot: PacketSlot) -> Option<usize> {
        if self.free_slots() == 0 {
            self.drops += 1;
            return None;
        }
        let idx = (self.head % self.capacity as u64) as usize;
        self.buf_of_slot[idx] = (self.pool_cursor % self.pool_size as u64) as u32;
        self.pool_cursor += 1;
        self.slots[idx] = Some(slot);
        self.head += 1;
        self.high_water = self.high_water.max(self.len());
        Some(idx)
    }

    /// Consumer side: takes the oldest packet, returning its slot index and
    /// metadata.
    pub fn pop(&mut self) -> Option<(usize, PacketSlot)> {
        if self.is_empty() {
            return None;
        }
        let idx = (self.tail % self.capacity as u64) as usize;
        let slot = self.slots[idx].take().expect("occupied slot");
        self.tail += 1;
        Some((idx, slot))
    }
}

/// A transmit descriptor ring.
///
/// The core pushes packets to send; the NIC pops them, reading the payload
/// through the DDIO read path (which never allocates). Modelled with the
/// same slot/buffer scheme as [`RxRing`].
#[derive(Debug, Clone)]
pub struct TxRing {
    inner: RxRing,
}

impl TxRing {
    /// Creates an empty Tx ring (see [`RxRing::new`]).
    pub fn new(base: u64, capacity: usize, buf_stride: u64) -> Self {
        TxRing { inner: RxRing::new(base, capacity, buf_stride) }
    }

    /// Creates a Tx ring with a rotating buffer pool (see
    /// [`RxRing::with_pool`]).
    pub fn with_pool(base: u64, capacity: usize, buf_stride: u64, pool_size: usize) -> Self {
        TxRing { inner: RxRing::with_pool(base, capacity, buf_stride, pool_size) }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Packets the core failed to queue because the ring was full.
    pub fn drops(&self) -> u64 {
        self.inner.drops()
    }

    /// Peak occupancy since creation or the last reset.
    pub fn high_water(&self) -> usize {
        self.inner.high_water()
    }

    /// Resets the peak-occupancy tracker.
    pub fn reset_high_water(&mut self) {
        self.inner.reset_high_water()
    }

    /// Buffer base address of slot `idx`.
    pub fn buf_addr(&self, idx: usize) -> u64 {
        self.inner.buf_addr(idx)
    }

    /// Descriptor line address of slot `idx`.
    pub fn desc_addr(&self, idx: usize) -> u64 {
        self.inner.desc_addr(idx)
    }

    /// Core side: queues a packet for transmission.
    pub fn push(&mut self, slot: PacketSlot) -> Option<usize> {
        self.inner.push(slot)
    }

    /// Device side: takes the oldest queued packet.
    pub fn pop(&mut self) -> Option<(usize, PacketSlot)> {
        self.inner.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = RxRing::new(0, 4, 2048);
        r.push(PacketSlot::new(FlowId(1), 64)).unwrap();
        r.push(PacketSlot::new(FlowId(2), 64)).unwrap();
        assert_eq!(r.pop().unwrap().1.flow, FlowId(1));
        assert_eq!(r.pop().unwrap().1.flow, FlowId(2));
        assert!(r.pop().is_none());
    }

    #[test]
    fn overflow_drops() {
        let mut r = RxRing::new(0, 2, 2048);
        assert!(r.push(PacketSlot::new(FlowId(0), 64)).is_some());
        assert!(r.push(PacketSlot::new(FlowId(0), 64)).is_some());
        assert!(r.push(PacketSlot::new(FlowId(0), 64)).is_none());
        assert_eq!(r.drops(), 1);
        r.pop();
        assert!(r.push(PacketSlot::new(FlowId(0), 64)).is_some());
        assert_eq!(r.drops(), 1);
    }

    #[test]
    fn slot_addresses_disjoint_and_reused() {
        let mut r = RxRing::new(0x1000, 4, 2048);
        let mut first_round = Vec::new();
        for i in 0..4 {
            let idx = r.push(PacketSlot::new(FlowId(i), 64)).unwrap();
            first_round.push(r.buf_addr(idx));
        }
        // All buffers distinct, stride apart.
        for w in first_round.windows(2) {
            assert_eq!(w[1] - w[0], 2048);
        }
        // Descriptors live above the buffer region.
        assert!(r.desc_addr(0) >= r.buf_addr(3) + 2048);
        // After draining, the same addresses are reused.
        for _ in 0..4 {
            r.pop();
        }
        let idx = r.push(PacketSlot::new(FlowId(9), 64)).unwrap();
        assert_eq!(r.buf_addr(idx), first_round[0]);
    }

    #[test]
    fn footprint() {
        let r = RxRing::new(0, 1024, 2048);
        assert_eq!(r.footprint_bytes(), 1024 * (2048 + 64));
        let p = RxRing::with_pool(0, 1024, 2048, 8192);
        assert_eq!(p.footprint_bytes(), 8192 * 2048 + 1024 * 64);
    }

    #[test]
    fn pool_rotates_buffers_beyond_ring_depth() {
        let mut r = RxRing::with_pool(0, 2, 2048, 6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let a = r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
            let b = r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
            seen.insert(r.buf_addr(a));
            seen.insert(r.buf_addr(b));
            r.pop();
            r.pop();
        }
        // Six pushes over a 6-buffer pool touch six distinct buffers even
        // though the ring only has two slots.
        assert_eq!(seen.len(), 6);
        // The seventh push wraps back to the first pool buffer.
        let a = r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
        assert_eq!(r.buf_addr(a), 0);
    }

    #[test]
    #[should_panic(expected = "pool smaller than ring")]
    fn pool_must_cover_ring() {
        let _ = RxRing::with_pool(0, 8, 2048, 4);
    }

    #[test]
    fn high_water_tracks_peak_backlog() {
        let mut r = RxRing::new(0, 4, 2048);
        assert_eq!(r.high_water(), 0);
        r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
        r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
        r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
        r.pop();
        r.pop();
        // Peak was 3 even though only 1 remains.
        assert_eq!(r.len(), 1);
        assert_eq!(r.high_water(), 3);
        // Reset re-bases on the current backlog, not zero.
        r.reset_high_water();
        assert_eq!(r.high_water(), 1);
        r.push(PacketSlot::new(FlowId(0), 64)).unwrap();
        assert_eq!(r.high_water(), 2);
    }

    #[test]
    fn payload_lines() {
        assert_eq!(PacketSlot::new(FlowId(0), 64).payload_lines(), 1);
        assert_eq!(PacketSlot::new(FlowId(0), 1500).payload_lines(), 24);
    }

    #[test]
    fn tx_ring_wraps_rx_semantics() {
        let mut t = TxRing::new(0x4000, 2, 2048);
        t.push(PacketSlot::new(FlowId(3), 128)).unwrap();
        assert_eq!(t.len(), 1);
        let (idx, s) = t.pop().unwrap();
        assert_eq!(idx, 0);
        assert_eq!(s.size, 128);
        assert!(t.is_empty());
    }
}
