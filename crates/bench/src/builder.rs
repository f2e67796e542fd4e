//! Scenarios as data: a declarative description of a platform setup
//! (geometry × NIC × tenants × workloads × traffic shapes × policy) and
//! the compiler that turns one into a runnable [`Managed`] simulation or
//! raw [`Platform`].
//!
//! A [`ScenarioDesc`] is plain data — no closures, no allocations, no
//! RNG state — so it can be derived programmatically (the generated
//! corpus in [`crate::corpus`]), enumerated in the named-scenario
//! catalog ([`crate::catalog`]), and compiled deterministically: the
//! only free input of [`compile`] is the scenario seed, and every
//! workload/traffic seed is `seed + declared offset`.
//!
//! ## Compile-order contract
//!
//! The compiled platform must stay **byte-identical** to what the
//! committed captures pin through `repro --check`, so [`compile`] fixes
//! the order of every side effect:
//!
//! 1. the NIC is created first (its rings/pool live at [`NIC_BASE`],
//!    outside the workload heap allocator);
//! 2. tenants are processed in declaration order; each tenant's
//!    workload performs its [`AddrAlloc`] allocations and channel
//!    registrations in the order its fields are documented below;
//! 3. tenant `i` is registered as `TenantId(i)` / `AgentId(i)` /
//!    `ClosId(i + 1)`;
//! 4. for unmanaged scenarios, static way masks are applied after all
//!    tenants, in declaration order, then core associations in the
//!    same order.

use crate::harness::Managed;
use crate::scenarios::{make_policy, PolicyKind, BUF_STRIDE, NIC_BASE, RING_ENTRIES};
use iat::{Priority, TenantInfo};
use iat_cachesim::{AgentId, WayMask};
use iat_netsim::{FlowDist, Nic, RxRing, TrafficGen, TrafficPattern, VfId};
use iat_platform::{Platform, PlatformConfig, Tenant, TenantId, TrafficBinding};
use iat_rdt::ClosId;
use iat_workloads::{
    AddrAlloc, Attachment, ChannelEcho, ChannelId, HashRegion, KvConfig, KvStore, L3Fwd, NfChain,
    NfChainConfig, OvsConfig, OvsSwitch, RocksConfig, RocksLike, SpecProfile, SpecWorkload,
    TestPmd, Workload, XMem, YcsbMix,
};

/// NIC geometry of a scenario: ports (VFs), descriptor ring depth, mbuf
/// stride, and pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicDesc {
    /// Number of virtual functions.
    pub ports: u8,
    /// Rx/Tx descriptor ring depth per port.
    pub ring_entries: usize,
    /// mbuf stride in bytes.
    pub buf_stride: u64,
    /// mbuf pool size per port.
    pub pool: usize,
}

impl NicDesc {
    /// The paper's default NIC geometry with `ports` VFs (1024-entry
    /// rings, 2112 B mbufs, 3072-mbuf pool — grown to the ring depth
    /// when a scenario asks for deeper rings).
    pub fn ports(ports: u8) -> NicDesc {
        NicDesc {
            ports,
            ring_entries: RING_ENTRIES,
            buf_stride: BUF_STRIDE,
            pool: crate::scenarios::MBUF_POOL,
        }
    }

    /// Overrides the descriptor ring depth (the pool grows to match when
    /// the ring outgrows the default pool, like real DPDK mempools).
    #[must_use]
    pub fn ring_entries(mut self, entries: usize) -> NicDesc {
        self.ring_entries = entries;
        self.pool = self.pool.max(entries);
        self
    }
}

/// One traffic generator bound to a port of the tenant's workload. The
/// generator's seed is `scenario seed + seed_offset`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDesc {
    /// Index into the workload's port list.
    pub port: usize,
    /// Offered rate in bits per second.
    pub rate_bps: u64,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Flow-id distribution.
    pub dist: FlowDist,
    /// Temporal shape.
    pub pattern: TrafficPattern,
    /// Added to the scenario seed to form this generator's seed.
    pub seed_offset: u64,
}

impl TrafficDesc {
    /// Constant-rate traffic on `port` (seed offset 0).
    pub fn new(port: usize, rate_bps: u64, packet_bytes: u32, dist: FlowDist) -> TrafficDesc {
        TrafficDesc {
            port,
            rate_bps,
            packet_bytes,
            dist,
            pattern: TrafficPattern::Constant,
            seed_offset: 0,
        }
    }

    /// Sets the temporal shape.
    #[must_use]
    pub fn pattern(mut self, pattern: TrafficPattern) -> TrafficDesc {
        self.pattern = pattern;
        self
    }

    /// Sets the seed offset (distinct generators in one scenario must
    /// use distinct offsets or they replay each other's randomness).
    #[must_use]
    pub fn seed_offset(mut self, offset: u64) -> TrafficDesc {
        self.seed_offset = offset;
        self
    }
}

/// The workload a tenant runs, as data. Allocation order within each
/// variant is part of the compile contract (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadDesc {
    /// An OVS-style software switch: clones the listed NIC ports, then
    /// creates `attachments` virtio channel pairs (to-tenant then
    /// from-tenant, appended to the scenario channel table in order),
    /// then allocates the EMC and megaflow tables.
    Ovs {
        /// NIC ports (VF indices) the switch polls.
        ports: Vec<u8>,
        /// Number of attached tenants (channel pairs).
        attachments: usize,
        /// Exact-match cache entries (64 B each).
        emc_entries: u64,
        /// Megaflow table entries (64 B each).
        mega_entries: u64,
    },
    /// A testpmd-style echo over channel pair `attachment` (an index
    /// into the channel table filled by an earlier `Ovs` tenant).
    ChannelEcho {
        /// Channel-pair index.
        attachment: usize,
    },
    /// A KV store (Redis-like) served over channel pair `attachment`.
    KvStore {
        /// Channel-pair index.
        attachment: usize,
        /// Heap bytes to allocate for the record store.
        heap_bytes: u64,
        /// Store geometry.
        config: KvConfig,
        /// YCSB operation mix.
        mix: YcsbMix,
        /// Added to the scenario seed.
        seed_offset: u64,
    },
    /// testpmd forwarding directly on the listed NIC ports.
    TestPmd {
        /// NIC ports (VF indices).
        ports: Vec<u8>,
    },
    /// l3fwd on one NIC port with a `flow_entries`-entry hash table
    /// (64 B per entry).
    L3Fwd {
        /// NIC port (VF index).
        port: u8,
        /// Flow-table entries.
        flow_entries: u64,
    },
    /// A FastClick-style firewall→stats→NAPT chain on the listed ports,
    /// with `state_bytes` of chain state.
    NfChain {
        /// NIC ports (VF indices).
        ports: Vec<u8>,
        /// Chain state bytes to allocate.
        state_bytes: u64,
        /// Chain table geometry.
        config: NfChainConfig,
    },
    /// The X-Mem microbenchmark: random accesses over `working_set`
    /// bytes of a `heap_bytes` heap.
    XMem {
        /// Heap bytes to allocate.
        heap_bytes: u64,
        /// Initial working-set bytes.
        working_set: u64,
        /// Added to the scenario seed.
        seed_offset: u64,
    },
    /// A SPEC CPU2006 memory profile.
    Spec {
        /// The profile (footprint, locality).
        profile: SpecProfile,
        /// Added to the scenario seed.
        seed_offset: u64,
    },
    /// The RocksDB-like memtable store under a YCSB mix.
    Rocks {
        /// Heap bytes to allocate.
        heap_bytes: u64,
        /// YCSB operation mix.
        mix: YcsbMix,
        /// Added to the scenario seed.
        seed_offset: u64,
    },
}

/// One tenant: a workload, its placement, and its policy-facing
/// attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantDesc {
    /// Report name.
    pub name: String,
    /// Cores the tenant is pinned to.
    pub cores: Vec<usize>,
    /// The workload.
    pub workload: WorkloadDesc,
    /// Traffic generators bound to the workload's ports.
    pub traffic: Vec<TrafficDesc>,
    /// Policy priority class.
    pub priority: Priority,
    /// Whether the policy treats the tenant as I/O-involved.
    pub is_io: bool,
    /// Ways the policy grants initially.
    pub initial_ways: u8,
    /// For unmanaged scenarios only: a fixed `(first_way, way_count)`
    /// CAT mask applied at compile time.
    pub static_mask: Option<(u8, u8)>,
}

impl TenantDesc {
    /// A PC tenant with no cores, traffic, or mask (fill in fluently).
    pub fn new(name: impl Into<String>, workload: WorkloadDesc) -> TenantDesc {
        TenantDesc {
            name: name.into(),
            cores: Vec::new(),
            workload,
            traffic: Vec::new(),
            priority: Priority::Pc,
            is_io: false,
            initial_ways: 2,
            static_mask: None,
        }
    }

    /// Pins the tenant to `cores`.
    #[must_use]
    pub fn cores(mut self, cores: &[usize]) -> TenantDesc {
        self.cores = cores.to_vec();
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> TenantDesc {
        self.priority = priority;
        self
    }

    /// Marks the tenant as I/O-involved for the policy.
    #[must_use]
    pub fn io(mut self) -> TenantDesc {
        self.is_io = true;
        self
    }

    /// Sets the initial way grant.
    #[must_use]
    pub fn ways(mut self, ways: u8) -> TenantDesc {
        self.initial_ways = ways;
        self
    }

    /// Fixes a static CAT mask (unmanaged scenarios only).
    #[must_use]
    pub fn static_mask(mut self, first: u8, count: u8) -> TenantDesc {
        self.static_mask = Some((first, count));
        self
    }

    /// Binds a traffic generator.
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficDesc) -> TenantDesc {
        self.traffic.push(traffic);
        self
    }
}

/// A mid-run perturbation the scenario driver applies between intervals
/// (see [`apply_action`]); how the corpus models tenant churn,
/// working-set growth, and load swings without new figure modules.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// Resize tenant `tenant`'s X-Mem working set (arrival/departure/
    /// growth; the tenant must be an [`WorkloadDesc::XMem`]).
    SetWorkingSet {
        /// The tenant (declaration order is id order).
        tenant: TenantId,
        /// New working-set bytes.
        bytes: u64,
    },
    /// Change the offered rate of binding `binding` of tenant `tenant`.
    SetRate {
        /// The tenant (declaration order is id order).
        tenant: TenantId,
        /// Binding index within the tenant.
        binding: usize,
        /// New rate in bits per second.
        rate_bps: u64,
    },
    /// Manually repoint DDIO at a contiguous way range (Fig. 10/11's
    /// "widen DDIO mid-run" move).
    SetDdioWays {
        /// First way of the new DDIO mask.
        first: u8,
        /// Way count of the new DDIO mask.
        count: u8,
    },
}

/// A [`ScenarioAction`] scheduled after `after_intervals` completed
/// measurement intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// Intervals completed before the action fires.
    pub after_intervals: usize,
    /// What happens.
    pub action: ScenarioAction,
}

/// A complete scenario description: pure data, compiled by [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDesc {
    /// Scenario name (reports and corpus summaries).
    pub name: String,
    /// Platform geometry.
    pub config: PlatformConfig,
    /// NIC geometry, when the scenario has I/O.
    pub nic: Option<NicDesc>,
    /// Tenants in declaration order (`TenantId(i)`, `ClosId(i + 1)`).
    pub tenants: Vec<TenantDesc>,
    /// LLC management policy; `None` compiles to a raw [`Platform`]
    /// with the tenants' static masks applied.
    pub policy: Option<PolicyKind>,
    /// Managed-run interval length in modelled nanoseconds.
    pub interval_ns: u64,
    /// Scheduled mid-run perturbations (ignored by [`compile`]; applied
    /// by interval drivers like [`crate::corpus`]).
    pub events: Vec<ScenarioEvent>,
}

/// Fluent construction of a [`ScenarioDesc`].
///
/// ```
/// use iat_bench::builder::{ScenarioBuilder, TenantDesc, WorkloadDesc};
/// let desc = ScenarioBuilder::new("solo-xmem")
///     .policy(iat_bench::scenarios::PolicyKind::Iat)
///     .tenant(
///         TenantDesc::new("xmem", WorkloadDesc::XMem {
///             heap_bytes: 64 << 20,
///             working_set: 2 << 20,
///             seed_offset: 0,
///         })
///         .cores(&[0]),
///     )
///     .desc();
/// assert_eq!(desc.tenants.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    desc: ScenarioDesc,
}

impl ScenarioBuilder {
    /// Starts a scenario on the paper's Xeon 6140 geometry with 1 s
    /// intervals, no NIC, and no policy.
    pub fn new(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            desc: ScenarioDesc {
                name: name.into(),
                config: PlatformConfig::xeon_6140(),
                nic: None,
                tenants: Vec::new(),
                policy: None,
                interval_ns: 1_000_000_000,
                events: Vec::new(),
            },
        }
    }

    /// Overrides the platform geometry.
    #[must_use]
    pub fn geometry(mut self, config: PlatformConfig) -> ScenarioBuilder {
        self.desc.config = config;
        self
    }

    /// Adds a NIC.
    #[must_use]
    pub fn nic(mut self, nic: NicDesc) -> ScenarioBuilder {
        self.desc.nic = Some(nic);
        self
    }

    /// Sets the management policy (compiles to [`Built::Managed`]).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> ScenarioBuilder {
        self.desc.policy = Some(kind);
        self
    }

    /// Sets the managed-run interval length.
    #[must_use]
    pub fn interval_ns(mut self, ns: u64) -> ScenarioBuilder {
        self.desc.interval_ns = ns;
        self
    }

    /// Appends a tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantDesc) -> ScenarioBuilder {
        self.desc.tenants.push(tenant);
        self
    }

    /// Schedules a mid-run action.
    #[must_use]
    pub fn event(mut self, after_intervals: usize, action: ScenarioAction) -> ScenarioBuilder {
        self.desc
            .events
            .push(ScenarioEvent { after_intervals, action });
        self
    }

    /// Finishes, returning the description.
    pub fn desc(self) -> ScenarioDesc {
        self.desc
    }

    /// Shorthand for `compile(&self.desc(), seed)`.
    pub fn build(self, seed: u64) -> Built {
        compile(&self.desc(), seed)
    }
}

/// What [`compile`] produces.
pub enum Built {
    /// A policy-managed simulation (the scenario declared a policy).
    Managed(Box<Managed>),
    /// A raw platform with static masks (no policy declared).
    Raw(Box<Platform>),
}

impl Built {
    /// Unwraps the managed simulation.
    ///
    /// # Panics
    ///
    /// Panics when the scenario declared no policy.
    pub fn into_managed(self) -> Managed {
        match self {
            Built::Managed(m) => *m,
            Built::Raw(_) => panic!("scenario has no policy; use into_platform"),
        }
    }

    /// Unwraps the raw platform.
    ///
    /// # Panics
    ///
    /// Panics when the scenario declared a policy.
    pub fn into_platform(self) -> Platform {
        match self {
            Built::Raw(p) => *p,
            Built::Managed(_) => panic!("scenario declared a policy; use into_managed"),
        }
    }
}

/// Compiles a scenario description into a runnable simulation, with all
/// randomness derived from `seed` plus the declared per-workload and
/// per-generator offsets. See the module docs for the side-effect-order
/// contract that keeps compiled scenarios byte-identical to the
/// committed captures.
///
/// # Panics
///
/// Panics on structurally invalid descriptions: channel workloads
/// without a preceding `Ovs` tenant, NIC workloads without a NIC,
/// out-of-range ports/ways/cores. Descriptions are authored (catalog)
/// or generated (corpus) in-crate, so these are programming errors,
/// not runtime conditions.
pub fn compile(desc: &ScenarioDesc, seed: u64) -> Built {
    let config = desc.config;
    let mut platform = Platform::new(config);
    let mut alloc = AddrAlloc::new();
    let mut nic = desc
        .nic
        .map(|n| Nic::with_pool(NIC_BASE, n.ports, n.ring_entries, n.buf_stride, n.pool));
    // Channel pairs (to-tenant, from-tenant) in creation order; channel
    // workloads reference them by index.
    let mut channels: Vec<(ChannelId, ChannelId)> = Vec::new();
    // Zipf tables built so far; bindings with the same `(count, s)`
    // share one (both Redis ports of an app co-run, for instance).
    let mut zipf_tables = Vec::new();

    let mk_chan = |platform: &mut Platform, alloc: &mut AddrAlloc| {
        let base = alloc.alloc(RING_ENTRIES as u64 * (BUF_STRIDE + 64) + (1 << 20));
        platform
            .channels_mut()
            .add(RxRing::new(base, RING_ENTRIES, BUF_STRIDE))
    };

    for (i, t) in desc.tenants.iter().enumerate() {
        let workload: Box<dyn Workload> = match &t.workload {
            WorkloadDesc::Ovs { ports, attachments, emc_entries, mega_entries } => {
                let nic = nic.as_mut().expect("Ovs workload needs a NIC");
                let vfs: Vec<_> = ports.iter().map(|&p| nic.vf_mut(VfId(p)).clone()).collect();
                let mut atts = Vec::new();
                for _ in 0..*attachments {
                    let to = mk_chan(&mut platform, &mut alloc);
                    let from = mk_chan(&mut platform, &mut alloc);
                    channels.push((to, from));
                    atts.push(Attachment { to_tenant: to, from_tenant: from });
                }
                let emc = alloc.alloc(emc_entries * 64);
                let mega = alloc.alloc(mega_entries * 64);
                Box::new(OvsSwitch::new(vfs, atts, emc, mega, OvsConfig::default()))
            }
            WorkloadDesc::ChannelEcho { attachment } => {
                let (to, from) = channels[*attachment];
                Box::new(ChannelEcho::new(to, from))
            }
            WorkloadDesc::KvStore { attachment, heap_bytes, config, mix, seed_offset } => {
                let (to, from) = channels[*attachment];
                let base = alloc.alloc(*heap_bytes);
                Box::new(KvStore::new(
                    to,
                    from,
                    base,
                    *config,
                    *mix,
                    seed.wrapping_add(*seed_offset),
                ))
            }
            WorkloadDesc::TestPmd { ports } => {
                let nic = nic.as_mut().expect("TestPmd workload needs a NIC");
                let vfs: Vec<_> = ports.iter().map(|&p| nic.vf_mut(VfId(p)).clone()).collect();
                Box::new(TestPmd::with_ports(vfs))
            }
            WorkloadDesc::L3Fwd { port, flow_entries } => {
                let nic = nic.as_mut().expect("L3Fwd workload needs a NIC");
                let table = HashRegion::new(alloc.alloc(flow_entries * 64), *flow_entries, 1);
                Box::new(L3Fwd::new(nic.vf_mut(VfId(*port)).clone(), table))
            }
            WorkloadDesc::NfChain { ports, state_bytes, config } => {
                let nic = nic.as_mut().expect("NfChain workload needs a NIC");
                let vfs: Vec<_> = ports.iter().map(|&p| nic.vf_mut(VfId(p)).clone()).collect();
                let state = alloc.alloc(*state_bytes);
                Box::new(NfChain::with_ports(vfs, state, *config))
            }
            WorkloadDesc::XMem { heap_bytes, working_set, seed_offset } => Box::new(XMem::new(
                alloc.alloc(*heap_bytes),
                *working_set,
                seed.wrapping_add(*seed_offset),
            )),
            WorkloadDesc::Spec { profile, seed_offset } => {
                let base = alloc.alloc(profile.footprint + (1 << 20));
                Box::new(SpecWorkload::new(base, *profile, seed.wrapping_add(*seed_offset)))
            }
            WorkloadDesc::Rocks { heap_bytes, mix, seed_offset } => Box::new(RocksLike::new(
                alloc.alloc(*heap_bytes),
                RocksConfig::default(),
                *mix,
                seed.wrapping_add(*seed_offset),
            )),
        };

        let bindings = t
            .traffic
            .iter()
            .map(|b| TrafficBinding {
                port: b.port,
                gen: TrafficGen::sharing(
                    b.rate_bps,
                    b.packet_bytes,
                    b.dist.clone(),
                    b.pattern,
                    seed.wrapping_add(b.seed_offset),
                    &mut zipf_tables,
                ),
            })
            .collect();

        platform.add_tenant(Tenant {
            id: TenantId(i as u16),
            name: t.name.clone(),
            agent: AgentId::new(i as u16),
            cores: t.cores.clone(),
            clos: ClosId::new(i as u8 + 1),
            workload,
            bindings,
        });
    }

    match desc.policy {
        Some(kind) => {
            let infos = desc
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| TenantInfo {
                    agent: AgentId::new(i as u16),
                    clos: ClosId::new(i as u8 + 1),
                    cores: t.cores.clone(),
                    priority: t.priority,
                    is_io: t.is_io,
                    initial_ways: t.initial_ways,
                })
                .collect();
            let policy = make_policy(kind, config.llc.ways(), &config);
            let mut managed = Managed::new(platform, policy, infos, desc.interval_ns);
            share_cold_start(&mut managed, desc, seed);
            Built::Managed(Box::new(managed))
        }
        None => {
            for (i, t) in desc.tenants.iter().enumerate() {
                if let Some((first, count)) = t.static_mask {
                    platform
                        .rdt_mut()
                        .set_clos_mask(
                            ClosId::new(i as u8 + 1),
                            WayMask::contiguous(first, count).expect("mask"),
                        )
                        .expect("valid mask");
                }
            }
            for (i, t) in desc.tenants.iter().enumerate() {
                if t.static_mask.is_some() {
                    for &c in &t.cores {
                        platform
                            .rdt_mut()
                            .associate_core(c, ClosId::new(i as u8 + 1))
                            .expect("core exists");
                    }
                }
            }
            Built::Raw(Box::new(platform))
        }
    }
}

/// Shares converged cold-start state between variants of one scenario
/// compiled back to back in the same job (sampled runs only).
///
/// A sampled managed scenario owes `cold_start_epochs` of functional
/// warmup before its first measured window. Sweep variants that differ
/// *only* in the management policy — fig. 10's four policy arms, for
/// example — replay the identical access stream from the identical
/// initial state, so the converged cache contents are shared work. The
/// first variant compiled runs its cold start here, at compile time
/// ([`Platform::fast_forward_cold_start`]), and deposits the converged
/// hierarchy in the runner's per-job checkpoint store; later variants
/// whose policy-erased description, seed, and sampling spec fingerprint
/// the same restore the snapshot instead of re-simulating it.
///
/// The fingerprint deliberately ignores the policy, so the restoring
/// variant's initial way *layout* may differ from the snapshot's. Way
/// positions owe nothing (lines migrate gradually; the doctrine behind
/// [`iat_rdt::Rdt::capacity_gen`]), but way-*count* differences are
/// genuine capacity distance: the restore re-arms forced warmup scaled
/// by `ceil(cold_start × moved / total ways)`, capped at the flat
/// cold-start budget a fresh compute would have paid.
///
/// Exact runs (no thread sampling) and scenarios without a cold-start
/// budget bypass all of this: the hook observes sampled-mode warmup
/// only, so exact captures stay byte-identical.
fn share_cold_start(m: &mut Managed, desc: &ScenarioDesc, seed: u64) {
    use iat_runner::checkpoint::{self, Checkpoint};
    let Some(spec) = iat_cachesim::config::thread_sampling() else {
        return;
    };
    if spec.cold_start_epochs == 0 {
        return;
    }
    let mut erased = desc.clone();
    erased.policy = None;
    let key = format!("{erased:?}|seed={seed}|spec={spec:?}");
    let fp = checkpoint::fingerprint64(key.as_bytes());

    let rdt = m.platform.rdt();
    let total_ways = rdt.ways() as u64;
    // Per-CLOS way counts in tenant order, DDIO appended last: the
    // capacity layout the scenario converges under.
    let way_counts: Vec<u8> = (0..desc.tenants.len())
        .map(|i| rdt.clos_mask(ClosId::new(i as u8 + 1)).count())
        .chain(std::iter::once(rdt.ddio_mask().count()))
        .collect();

    match checkpoint::lookup(fp) {
        Some(cp) => {
            let moved: u64 = cp
                .way_counts
                .iter()
                .zip(&way_counts)
                .map(|(a, b)| u64::from(a.abs_diff(*b)))
                .sum();
            let flat = spec.cold_start_epochs as u64;
            let budget = if moved == 0 || total_ways == 0 {
                if moved > 0 { flat } else { 0 }
            } else {
                (flat * moved).div_ceil(total_ways).min(flat)
            };
            m.platform.restore_checkpoint(&cp.hierarchy, budget);
        }
        None => {
            m.platform.fast_forward_cold_start();
            checkpoint::store(
                fp,
                Checkpoint { hierarchy: m.platform.hierarchy().clone(), way_counts },
            );
        }
    }
}

/// Applies one scheduled action to a running managed scenario.
///
/// # Panics
///
/// Panics when the action references a tenant/binding the description
/// does not have, or targets a non-X-Mem tenant with `SetWorkingSet` —
/// description bugs, like [`compile`]'s.
pub fn apply_action(m: &mut Managed, action: &ScenarioAction) {
    match action {
        ScenarioAction::SetWorkingSet { tenant, bytes } => {
            m.platform
                .tenant_mut(*tenant)
                .workload
                .as_any_mut()
                .downcast_mut::<XMem>()
                .expect("SetWorkingSet targets an X-Mem tenant")
                .set_working_set(*bytes);
        }
        ScenarioAction::SetRate { tenant, binding, rate_bps } => {
            m.platform.tenant_mut(*tenant).bindings[*binding]
                .gen
                .set_rate(*rate_bps);
        }
        ScenarioAction::SetDdioWays { first, count } => {
            m.platform
                .rdt_mut()
                .set_ddio_mask(WayMask::contiguous(*first, *count).expect("mask"))
                .expect("valid DDIO mask");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_netsim::ZipfTable;
    use std::sync::Arc;

    fn xmem_tenant(name: &str, core: usize, offset: u64) -> TenantDesc {
        TenantDesc::new(
            name,
            WorkloadDesc::XMem { heap_bytes: 64 << 20, working_set: 2 << 20, seed_offset: offset },
        )
        .cores(&[core])
    }

    #[test]
    fn compile_is_a_pure_function_of_desc_and_seed() {
        let desc = ScenarioBuilder::new("t")
            .geometry(PlatformConfig::tiny())
            .policy(PolicyKind::Baseline(0))
            .interval_ns(100_000_000)
            .tenant(xmem_tenant("a", 0, 0))
            .tenant(xmem_tenant("b", 1, 1))
            .desc();
        let run = |seed| {
            let mut m = compile(&desc, seed).into_managed();
            m.run_intervals(2);
            let p = m.observe();
            (m.platform.hierarchy().accesses(), p.system.mem_read_bytes, p.system.mem_write_bytes)
        };
        assert_eq!(run(7), run(7), "same desc + seed => identical simulation");
        assert_ne!(run(7), run(8), "the seed must actually reach the workloads");
    }

    #[test]
    fn zipf_bindings_share_a_table_per_count_and_exponent() {
        use crate::catalog::{describe, ScenarioParams};
        use crate::scenarios::{NetApp, PcApp};
        use iat_workloads::YcsbMix;
        let mut desc = describe(&ScenarioParams::AppCorun {
            net: NetApp::Redis,
            pc: PcApp::Rocks(YcsbMix::a()),
            mix: YcsbMix::a(),
            with_be: false,
            policy: PolicyKind::Iat,
        });
        let tables = |desc: &ScenarioDesc| -> Vec<Arc<ZipfTable>> {
            let m = compile(desc, 5).into_managed();
            m.platform.tenants()[0]
                .bindings
                .iter()
                .map(|b| Arc::clone(b.gen.zipf_table().expect("zipf binding")))
                .collect()
        };
        // Both Redis ports draw from one table.
        let redis = tables(&desc);
        assert_eq!(redis.len(), 2);
        assert!(Arc::ptr_eq(&redis[0], &redis[1]));

        // A different exponent or count gets its own table; a repeat of
        // either shares it.
        let ovs = &mut desc.tenants[0].traffic;
        let rate = ovs[0].rate_bps;
        ovs[1].dist = FlowDist::Zipf { count: 1000, s: 0.9 };
        ovs.push(TrafficDesc::new(0, rate, 128, FlowDist::Zipf { count: 1000, s: 0.99 }));
        ovs.push(TrafficDesc::new(1, rate, 128, FlowDist::Zipf { count: 1000, s: 0.9 }));
        let mixed = tables(&desc);
        assert!(!Arc::ptr_eq(&mixed[0], &mixed[1]));
        assert!(!Arc::ptr_eq(&mixed[1], &mixed[2]));
        assert!(!Arc::ptr_eq(&mixed[0], &mixed[2]));
        assert!(Arc::ptr_eq(&mixed[1], &mixed[3]));
    }

    #[test]
    fn unmanaged_compile_applies_static_masks() {
        let desc = ScenarioBuilder::new("masks")
            .geometry(PlatformConfig::tiny())
            .tenant(xmem_tenant("a", 0, 0).static_mask(0, 2))
            .desc();
        let platform = compile(&desc, 1).into_platform();
        assert_eq!(platform.tenants().len(), 1);
        assert_eq!(
            platform.rdt().clos_mask(ClosId::new(1)).count(),
            2,
            "static mask lands on the tenant's CLOS"
        );
    }

    #[test]
    fn events_are_data_not_side_effects() {
        let desc = ScenarioBuilder::new("ev")
            .geometry(PlatformConfig::tiny())
            .policy(PolicyKind::Baseline(0))
            .tenant(xmem_tenant("a", 0, 0))
            .event(1, ScenarioAction::SetWorkingSet { tenant: TenantId(0), bytes: 8 << 20 })
            .desc();
        let mut m = compile(&desc, 3).into_managed();
        apply_action(&mut m, &desc.events[0].action);
        let ws = m.platform
            .tenant_mut(TenantId(0))
            .workload
            .as_any_mut()
            .downcast_mut::<XMem>()
            .unwrap()
            .working_set();
        assert_eq!(ws, 8 << 20);
    }

    #[test]
    fn set_ddio_ways_repoints_the_ddio_mask() {
        let desc = ScenarioBuilder::new("ddio")
            .geometry(PlatformConfig::tiny())
            .policy(PolicyKind::Baseline(0))
            .tenant(xmem_tenant("a", 0, 0))
            .desc();
        let mut m = compile(&desc, 3).into_managed();
        let widened = WayMask::contiguous(0, 3).unwrap();
        assert_ne!(m.platform.rdt().ddio_mask(), widened);
        apply_action(&mut m, &ScenarioAction::SetDdioWays { first: 0, count: 3 });
        assert_eq!(m.platform.rdt().ddio_mask(), widened);
    }

    #[test]
    fn replace_policy_programs_the_layout_of_a_fresh_compile() {
        use crate::catalog::{describe, ScenarioParams};
        let params = |policy| ScenarioParams::SlicingPmdXmem { packet_bytes: 1500, policy };
        let masks = |m: &Managed| {
            let rdt = m.platform.rdt();
            let clos: Vec<WayMask> =
                m.platform.tenants().iter().map(|t| rdt.clos_mask(t.clos)).collect();
            (clos, rdt.ddio_mask())
        };
        let mut swapped = compile(&describe(&params(PolicyKind::Baseline(2))), 1).into_managed();
        let fresh = compile(&describe(&params(PolicyKind::Iat)), 1).into_managed();
        assert_ne!(masks(&swapped), masks(&fresh), "the two layouts must differ to test anything");
        let config = *swapped.platform.config();
        swapped.replace_policy(make_policy(PolicyKind::Iat, config.llc.ways(), &config));
        assert_eq!(masks(&swapped), masks(&fresh));
        assert_eq!(swapped.policy.name(), "iat");
    }
}
