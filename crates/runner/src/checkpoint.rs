//! Convergence checkpoints: converged cache state shared between sweep
//! variants that run the same scenario prefix.
//!
//! Sampled scenarios with a cold-start budget pay `cold_start_epochs`
//! of functional warmup before their first measured window. When one
//! job runs several variants of the *same* compiled scenario — the same
//! geometry, tenants, workloads, traffic and seed, differing only in
//! the management policy under test — every variant converges the same
//! cache contents from the same access stream. The first variant
//! fast-forwards its cold start and deposits the converged
//! [`MemoryHierarchy`] here; later variants with a matching fingerprint
//! restore the snapshot instead of re-simulating the warmup, re-arming
//! a re-convergence budget scaled by how far the snapshot's RDT way
//! *counts* are from theirs (way positions migrate gradually and owe
//! nothing, matching `Rdt::capacity_gen`'s doctrine).
//!
//! The store is **thread-local and cleared per job** by the runner's
//! worker bracket: jobs execute their bodies sequentially on one worker
//! thread, so intra-job sharing is deterministic regardless of
//! `--jobs N`, and nothing leaks between jobs (whose seeds differ by
//! construction anyway). Run-level restore/compute totals are kept in
//! process-wide counters for the repro summary and the CI guard that
//! asserts checkpoints actually engage.

use iat_cachesim::MemoryHierarchy;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// One converged-state snapshot: the memory hierarchy after cold-start
/// fast-forward, plus the RDT way-count layout it converged under.
#[derive(Debug)]
pub struct Checkpoint {
    /// The converged memory hierarchy (LLC, private caches, pending DMA).
    pub hierarchy: MemoryHierarchy,
    /// Way counts at snapshot time: one entry per CLOS, with the DDIO
    /// way count appended last. A restoring variant diffs these against
    /// its own layout to size its re-convergence budget.
    pub way_counts: Vec<u8>,
}

thread_local! {
    static STORE: RefCell<HashMap<u64, Rc<Checkpoint>>> = RefCell::new(HashMap::new());
}

static RESTORES: AtomicU64 = AtomicU64::new(0);
static COMPUTES: AtomicU64 = AtomicU64::new(0);

/// Looks up a checkpoint deposited earlier in the current job. Counts a
/// restore on hit.
pub fn lookup(fingerprint: u64) -> Option<Rc<Checkpoint>> {
    let hit = STORE.with(|s| s.borrow().get(&fingerprint).cloned());
    if hit.is_some() {
        RESTORES.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Deposits a freshly computed checkpoint for later variants of the
/// same scenario prefix. Counts a compute.
pub fn store(fingerprint: u64, checkpoint: Checkpoint) {
    COMPUTES.fetch_add(1, Ordering::Relaxed);
    STORE.with(|s| s.borrow_mut().insert(fingerprint, Rc::new(checkpoint)));
}

/// Drops every checkpoint deposited on this thread. The runner calls
/// this in the per-job worker bracket so sharing never crosses a job
/// boundary (and snapshots do not outlive the job that needs them).
pub fn clear() {
    STORE.with(|s| s.borrow_mut().clear());
}

/// Run-level `(restores, computes)` totals across all workers.
pub fn counters() -> (u64, u64) {
    (RESTORES.load(Ordering::Relaxed), COMPUTES.load(Ordering::Relaxed))
}

/// Resets the run-level totals (start of a run, and test isolation).
pub fn reset_counters() {
    RESTORES.store(0, Ordering::Relaxed);
    COMPUTES.store(0, Ordering::Relaxed);
}

/// FNV-1a over a byte string: the checkpoint fingerprint hash. Stable
/// across runs and platforms (no `RandomState`), cheap, and collision
/// space (64-bit) is vast against the handful of variants one job
/// compiles.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialises the unit tests that touch the run-level totals: [`run`]
/// resets them, and tests run on parallel threads.
///
/// [`run`]: crate::run
#[cfg(test)]
pub(crate) fn counters_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_cachesim::{CacheGeometry, LatencyModel, MemoryHierarchy};

    fn tiny_hierarchy() -> MemoryHierarchy {
        let llc = CacheGeometry::new(4, 64, 2).expect("valid geometry");
        let l2 = CacheGeometry::new(4, 16, 1).expect("valid geometry");
        MemoryHierarchy::new(llc, l2, 2, LatencyModel::default())
    }

    #[test]
    fn store_lookup_clear_roundtrip() {
        let _counters = counters_lock();
        clear();
        reset_counters();
        assert!(lookup(42).is_none());
        store(
            42,
            Checkpoint { hierarchy: tiny_hierarchy(), way_counts: vec![3, 2, 2, 2, 2] },
        );
        let cp = lookup(42).expect("stored checkpoint");
        assert_eq!(cp.way_counts, vec![3, 2, 2, 2, 2]);
        let (restores, computes) = counters();
        assert_eq!((restores, computes), (1, 1));
        clear();
        assert!(lookup(42).is_none());
        reset_counters();
        assert_eq!(counters(), (0, 0));
    }

    #[test]
    fn store_is_thread_local() {
        let _counters = counters_lock();
        clear();
        store(7, Checkpoint { hierarchy: tiny_hierarchy(), way_counts: vec![1] });
        std::thread::spawn(|| assert!(lookup(7).is_none())).join().unwrap();
        clear();
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = fingerprint64(b"scenario-a|seed=1");
        assert_eq!(a, fingerprint64(b"scenario-a|seed=1"));
        assert_ne!(a, fingerprint64(b"scenario-a|seed=2"));
        // The FNV-1a test vector for the empty string.
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
