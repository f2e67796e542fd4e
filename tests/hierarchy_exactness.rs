//! Exactness of the memory hierarchy's bookkeeping: the compact 32-bit
//! tags and the per-set L2 presence summary must leave every cache in the
//! state the plain hierarchy produces.
//!
//! The oracle is assembled from public parts only: one [`L2Cache`] per
//! core plus an [`Llc`], driven the plain way. An L2 miss writes its
//! dirty victim back and then goes to the LLC; a DMA write invalidates
//! the line in every L2 before it reaches the LLC; a device read goes
//! straight to the LLC. Random interleavings of core reads and writes
//! (serial and windowed), batched and serial DMA bursts, and device reads
//! run through both, and the served levels, every core's L2 digest, the
//! LLC digest and the memory counters must agree.

use iat_repro::cachesim::{
    AccessLevel, AgentId, CacheGeometry, CoreOp, L2Cache, LatencyModel, Llc, MemoryHierarchy,
    WayMask,
};
use proptest::prelude::*;

const CORES: usize = 4;

/// Geometries of [`MemoryHierarchy::tiny`].
fn tiny_llc() -> CacheGeometry {
    CacheGeometry::tiny()
}

fn tiny_l2() -> CacheGeometry {
    CacheGeometry::new(2, 8, 1).expect("valid geometry")
}

/// Core `c`'s CAT mask: overlapping, differently sized masks so cores
/// evict each other's lines.
fn core_mask(c: usize) -> WayMask {
    match c {
        0 => WayMask::contiguous(0, 2),
        1 => WayMask::contiguous(1, 2),
        2 => WayMask::contiguous(0, 4),
        _ => WayMask::contiguous(3, 1),
    }
    .expect("valid mask")
}

fn ddio_mask() -> WayMask {
    WayMask::contiguous(2, 2).expect("valid mask")
}

/// The plain hierarchy: per-core L2s in front of an LLC, every DMA write
/// probing every L2.
struct Oracle {
    l2s: Vec<L2Cache>,
    llc: Llc,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            l2s: (0..CORES).map(|_| L2Cache::new(tiny_l2())).collect(),
            llc: Llc::new(tiny_llc()),
        }
    }

    fn core_access(&mut self, core: usize, addr: u64, op: CoreOp) -> AccessLevel {
        let agent = AgentId::new(core as u16);
        let out = self.l2s[core].access(addr, op == CoreOp::Write);
        if out.hit {
            return AccessLevel::L2;
        }
        if let Some(victim) = out.dirty_victim {
            self.llc.core_writeback(agent, core_mask(core), victim);
        }
        if self
            .llc
            .core_access(agent, core_mask(core), addr, op)
            .is_hit()
        {
            AccessLevel::Llc
        } else {
            AccessLevel::Memory
        }
    }

    fn io_write(&mut self, addr: u64) {
        for l2 in &mut self.l2s {
            l2.invalidate(addr);
        }
        self.llc.io_write(ddio_mask(), addr);
    }

    fn io_read(&mut self, addr: u64) {
        self.llc.io_read(addr);
    }
}

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// One serial core access.
    Core { core: usize, addr: u64, write: bool },
    /// A window of core accesses resolved through the batched pipeline.
    Window { core: usize, ops: Vec<(u64, bool)> },
    /// A DMA burst of writes with interleaved device reads (`true` =
    /// write), batched with one flush or issued serially.
    Dma {
        batched: bool,
        ops: Vec<(u64, bool)>,
    },
    /// One device read.
    DeviceRead { addr: u64 },
}

/// Addresses over 256 lines at four widely spaced bases, so lines share
/// sets and the compact tags differ in their high bits.
fn addr() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..256, 0u64..64).prop_map(|(base, line, byte)| (base << 38) + line * 64 + byte)
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..CORES, addr(), any::<bool>()).prop_map(|(core, addr, write)| Step::Core {
            core,
            addr,
            write
        }),
        (
            0..CORES,
            proptest::collection::vec((addr(), any::<bool>()), 1..24)
        )
            .prop_map(|(core, ops)| Step::Window { core, ops }),
        (
            any::<bool>(),
            proptest::collection::vec((addr(), any::<bool>()), 1..24)
        )
            .prop_map(|(batched, ops)| Step::Dma { batched, ops }),
        addr().prop_map(|addr| Step::DeviceRead { addr }),
    ]
}

fn op(write: bool) -> CoreOp {
    if write {
        CoreOp::Write
    } else {
        CoreOp::Read
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every interleaving leaves the hierarchy exactly where the oracle
    /// ends: same served levels, L2s, LLC and memory traffic.
    #[test]
    fn hierarchy_matches_plain_oracle(steps in proptest::collection::vec(step(), 1..120)) {
        let mut h = MemoryHierarchy::tiny(CORES);
        let mut oracle = Oracle::new();
        let latency = LatencyModel::default();
        let mut costs = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            match s {
                &Step::Core { core, addr, write } => {
                    let agent = AgentId::new(core as u16);
                    let got = h.core_access(core, agent, core_mask(core), addr, op(write));
                    prop_assert_eq!(got, oracle.core_access(core, addr, op(write)), "step {}", i);
                }
                Step::Window { core, ops } => {
                    let core = *core;
                    let agent = AgentId::new(core as u16);
                    let window: Vec<(u64, CoreOp)> = ops.iter().map(|&(a, w)| (a, op(w))).collect();
                    h.core_access_cycles_batch(core, agent, core_mask(core), &window, &mut costs);
                    let want: Vec<u32> = window
                        .iter()
                        .map(|&(a, o)| latency.cycles(oracle.core_access(core, a, o)))
                        .collect();
                    prop_assert_eq!(&costs, &want, "step {}", i);
                }
                Step::Dma { batched, ops } => {
                    for &(a, write) in ops {
                        match (batched, write) {
                            (true, true) => h.batch_io_write(ddio_mask(), a),
                            (true, false) => h.batch_io_read(a),
                            (false, true) => {
                                h.io_write(ddio_mask(), a);
                            }
                            (false, false) => {
                                h.io_read(a);
                            }
                        }
                        if write {
                            oracle.io_write(a);
                        } else {
                            oracle.io_read(a);
                        }
                    }
                    h.batch_flush();
                }
                &Step::DeviceRead { addr } => {
                    h.io_read(addr);
                    oracle.io_read(addr);
                }
            }
        }
        for (c, l2) in oracle.l2s.iter().enumerate() {
            prop_assert_eq!(h.core(c).l2().state_digest(), l2.state_digest(), "core {} L2", c);
            prop_assert_eq!(h.core(c).l2().hits(), l2.hits());
            prop_assert_eq!(h.core(c).l2().misses(), l2.misses());
        }
        prop_assert_eq!(h.llc().state_digest(), oracle.llc.state_digest());
        prop_assert_eq!(h.mem(), oracle.llc.mem());
    }
}

/// The largest address the Xeon L2's 32-bit tags cover survives a fill,
/// a dirty eviction and the write-back into the LLC unchanged.
#[test]
fn largest_tagged_address_round_trips() {
    let l2_geom = CacheGeometry::xeon_6140_l2();
    let max = l2_geom.max_tagged_addr();
    assert_eq!(max, (1 << 48) - 1, "documented Xeon L2 tag range");
    assert!(CacheGeometry::xeon_6140_llc().max_tagged_addr() >= max);
    let mut h = MemoryHierarchy::xeon_6140(2);
    let agent = AgentId::new(0);
    let mask = WayMask::all(11);
    h.core_access(0, agent, mask, max, CoreOp::Write);
    assert_eq!(
        h.core_access(0, agent, mask, max, CoreOp::Read),
        AccessLevel::L2
    );
    // Sixteen more lines of the same L2 set push the dirty line out.
    let set_stride = l2_geom.sets_per_slice() as u64 * 64;
    for k in 1..=l2_geom.ways() as u64 {
        h.core_access(0, agent, mask, max - k * set_stride, CoreOp::Read);
    }
    assert!(
        h.llc().contains(max),
        "dirty victim written back under its own address"
    );
    assert_eq!(h.llc().owner_of(max), Some(agent));
    assert_eq!(
        h.core_access(0, agent, mask, max, CoreOp::Read),
        AccessLevel::Llc
    );
    // A DMA write to it invalidates the private copy again.
    h.io_write(WayMask::contiguous(9, 2).expect("valid mask"), max);
    assert_eq!(
        h.core_access(0, agent, mask, max, CoreOp::Read),
        AccessLevel::Llc
    );

    let mut l2 = L2Cache::new(l2_geom);
    l2.access(max, true);
    let victims: Vec<u64> = (1..=l2_geom.ways() as u64)
        .filter_map(|k| l2.access(max - k * set_stride, false).dirty_victim)
        .collect();
    assert_eq!(victims, [iat_repro::cachesim::line_of(max)]);
}

/// One line beyond the range panics with the documented message instead
/// of aliasing a low address.
#[test]
#[should_panic(expected = "address beyond the cache's 32-bit tag range")]
fn address_beyond_tag_range_panics() {
    let mut h = MemoryHierarchy::xeon_6140(1);
    let beyond = CacheGeometry::xeon_6140_l2().max_tagged_addr() + 1;
    h.core_access(0, AgentId::new(0), WayMask::all(11), beyond, CoreOp::Read);
}
