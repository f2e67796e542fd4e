//! # iat-cachesim
//!
//! A software model of the memory hierarchy of a modern Intel server CPU,
//! built as the substrate for reproducing *"Don't Forget the I/O When
//! Allocating Your LLC"* (ISCA 2021).
//!
//! The model covers exactly the pieces the paper's mechanism (IAT) interacts
//! with:
//!
//! * a **sliced, set-associative last-level cache** (LLC) with *way-granular
//!   partitioning* in the style of Intel Cache Allocation Technology (CAT):
//!   an agent may only *allocate* lines into the ways of its mask but may
//!   *hit* (load/update) lines in any way — the paper's Footnote 1;
//! * **Data Direct I/O (DDIO)**: inbound device writes perform *write update*
//!   when the line is present anywhere in the LLC and *write allocate*
//!   restricted to the DDIO way mask otherwise; device reads never allocate;
//! * an optional per-core **L2 cache** that filters core traffic before it
//!   reaches the LLC (the Xeon 6140 has a 1 MB 16-way L2);
//! * a **memory interface** that counts read/write bytes so experiments can
//!   report memory bandwidth consumption (paper Fig. 8c).
//!
//! The crate is deterministic and purely computational: no I/O, no clocks.
//! Accesses can be issued one at a time or enqueued in *batches* that are
//! bucketed by LLC slice and resolved together, one slice after another,
//! with results bit-identical to serial execution (slices are independent
//! and per-slice order is preserved). Higher layers
//! (`iat-perf`, `iat-platform`) wrap it with performance-counter semantics
//! and time.
//!
//! # Example
//!
//! ```
//! use iat_cachesim::{CacheGeometry, Llc, WayMask, AgentId, CoreOp};
//!
//! // The paper's Xeon Gold 6140 LLC: 11 ways, 24.75 MB, 18 slices.
//! let geom = CacheGeometry::xeon_6140_llc();
//! let mut llc = Llc::new(geom);
//!
//! let tenant = AgentId::new(1);
//! let mask = WayMask::contiguous(0, 2).unwrap(); // ways {0,1}
//!
//! // First touch misses, second touch hits.
//! let first = llc.core_access(tenant, mask, 0x1000, CoreOp::Read);
//! let again = llc.core_access(tenant, mask, 0x1000, CoreOp::Read);
//! assert!(first.is_miss() && again.is_hit());
//! ```

// `deny` rather than `forbid`: the prefetch hint in `hint.rs` is the single
// `#[allow(unsafe_code)]` exception (an ABI-unsafe intrinsic with no
// observable effect besides timing).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod config;
mod error;
mod geometry;
mod hierarchy;
mod hint;
mod l2;
mod latency;
mod llc;
mod mask;
mod memory;
mod order;
mod shard;
mod stats;
mod tag;

pub use agent::AgentId;
pub use error::{Error, Result};
pub use geometry::CacheGeometry;
pub use hierarchy::{CoreCache, MemoryHierarchy};
pub use l2::L2Cache;
pub use latency::{AccessLevel, LatencyModel};
pub use llc::{BatchHandle, CoreOp, Llc};
pub use mask::WayMask;
pub use memory::MemCounters;
pub use stats::{AccessOutcome, AgentStats, IoOutcome, LlcStats, SliceIoStats};

/// Size of a cache line in bytes on every CPU this crate models.
pub const LINE_BYTES: u64 = 64;

/// Round an address down to the start of its cache line.
///
/// ```
/// assert_eq!(iat_cachesim::line_of(0x1234), 0x1200);
/// ```
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Number of cache lines needed to hold `bytes` bytes starting at a
/// line-aligned address.
///
/// ```
/// assert_eq!(iat_cachesim::lines_for(1), 1);
/// assert_eq!(iat_cachesim::lines_for(64), 1);
/// assert_eq!(iat_cachesim::lines_for(65), 2);
/// assert_eq!(iat_cachesim::lines_for(1500), 24);
/// ```
#[inline]
pub fn lines_for(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(lines_for(0), 0);
        assert_eq!(lines_for(128), 2);
    }
}
