//! Main-memory traffic accounting.

use crate::LINE_BYTES;

/// Counts traffic that reaches main memory.
///
/// The paper's Fig. 8c reports memory *bandwidth consumption*; the platform
/// layer divides these byte counts by wall-clock epochs to obtain GB/s.
///
/// ```
/// use iat_cachesim::MemCounters;
/// let mut m = MemCounters::default();
/// m.record_read_line();
/// m.record_write_line();
/// assert_eq!(m.read_bytes(), 64);
/// assert_eq!(m.write_bytes(), 64);
/// assert_eq!(m.total_bytes(), 128);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    reads: u64,
    writes: u64,
}

impl MemCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cache line fetched from memory.
    pub fn record_read_line(&mut self) {
        self.reads += 1;
    }

    /// Records one cache line written back to memory.
    pub fn record_write_line(&mut self) {
        self.writes += 1;
    }

    /// Lines read from memory.
    pub fn read_lines(&self) -> u64 {
        self.reads
    }

    /// Lines written to memory.
    pub fn write_lines(&self) -> u64 {
        self.writes
    }

    /// Bytes read from memory.
    pub fn read_bytes(&self) -> u64 {
        self.reads * LINE_BYTES
    }

    /// Bytes written to memory.
    pub fn write_bytes(&self) -> u64 {
        self.writes * LINE_BYTES
    }

    /// Total bytes moved to or from memory.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes() + self.write_bytes()
    }

    /// Difference `self - earlier`, for windowed bandwidth computation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is ahead of `self` (counters are
    /// monotonic).
    pub fn delta_since(&self, earlier: &MemCounters) -> MemCounters {
        debug_assert!(self.reads >= earlier.reads && self.writes >= earlier.writes);
        MemCounters { reads: self.reads - earlier.reads, writes: self.writes - earlier.writes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta() {
        let mut m = MemCounters::new();
        m.record_read_line();
        let snap = m;
        m.record_read_line();
        m.record_write_line();
        let d = m.delta_since(&snap);
        assert_eq!(d.read_lines(), 1);
        assert_eq!(d.write_lines(), 1);
        assert_eq!(d.total_bytes(), 128);
    }
}
