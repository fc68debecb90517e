//! Lightweight instrumentation counters.
//!
//! The ablation experiments (DESIGN.md E14) need to *show* why coalescing
//! wins: Gallatin issues one atomic RMW per coalesced group where a
//! conventional allocator issues one per thread. Every allocator in this
//! workspace owns a [`Metrics`] and bumps it on its contended operations;
//! counts are relaxed (they are statistics, not synchronization).
//!
//! # Who may write a cell
//!
//! Every counter is *striped over thread slots* ([`Striped`]): one
//! cache-line-padded cell group per slot, and a cell has **exactly one
//! OS thread writing it at a time**, so a bump is a plain load + store —
//! no `lock`-prefixed instruction, no line shared between CPUs. Counters
//! that price the allocator's atomics must not be its most contended
//! object.
//!
//! * **A thread owns a slot**: taken from a process-wide free set on its
//!   first bump, given back when it exits. The set's `Mutex` is the
//!   hand-over, so the old owner's stores happen-before the new owner's
//!   loads. Pool-mode workers and host threads bump under their own; a
//!   deterministic run *is* one thread, its launcher ([`crate::sched`]),
//!   so a thousand-warp launch bumps under one slot and takes no other.
//! * **One overflow group is shared** by the threads that found no free
//!   slot or bump after their thread-locals are torn down; they pay
//!   `fetch_add`. Any thread count is exact, the first 64 threads fast.
//! * **Readers** ([`Striped::sum`], [`Metrics::snapshot`], `reset`) are
//!   host-side, between kernels: exact at quiescence (the end of a launch
//!   orders every bump before the read), an estimate during one. Cells
//!   are `AtomicU64`: a broken ownership rule loses a count, never
//!   causes undefined behaviour.
//!
//! The counting sites double as the scheduler's *preemption points*: a
//! `count_rmw`/`count_cas`/`count_lock` call marks "this thread just
//! touched contended shared state", which is exactly where interleavings
//! matter, so each forwards to [`crate::sched::preempt_point`]. Under
//! the free-running pool mode that is one thread-local flag test; under
//! `ExecMode::Deterministic` it ends the warp's turn and passes the
//! baton to the next warp drawn (see [`crate::sched`]).

use crate::sched::{preempt_point, PreemptPoint};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Thread slots: one bit of [`FREE_SLOTS`] each.
const SLOTS: usize = u64::BITS as usize;
/// The group after the slots': shared by every thread without a slot.
const OVERFLOW: usize = SLOTS;
/// [`SLOT`] before the thread's first bump.
const UNASSIGNED: usize = usize::MAX;

/// The slots no thread owns, one bit each.
static FREE_SLOTS: Mutex<u64> = Mutex::new(u64::MAX);

fn free_slots() -> MutexGuard<'static, u64> {
    // A bit set is valid at every step: a poisoned lock is still good.
    FREE_SLOTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's own slot ([`OVERFLOW`] if none was free), given back when
/// the thread exits.
struct OwnedSlot(usize);

impl Drop for OwnedSlot {
    fn drop(&mut self) {
        // Thread-local destructors that run after this one may still bump.
        SLOT.set(OVERFLOW);
        if self.0 < SLOTS {
            *free_slots() |= 1 << self.0;
        }
    }
}

thread_local! {
    /// The group this thread's bumps land in: its own slot, [`OVERFLOW`],
    /// or [`UNASSIGNED`]. `const` and destructor-free: a plain TLS load.
    static SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
    static OWNED: OwnedSlot = {
        let mut free = free_slots();
        // An empty set has `SLOTS` trailing zeros: the overflow group.
        let slot = free.trailing_zeros() as usize;
        if slot < SLOTS {
            *free &= !(1 << slot);
        }
        OwnedSlot(slot)
    };
}

/// The group the current thread bumps, taking the thread's slot if it
/// has none yet.
fn current_slot() -> usize {
    if SLOT.get() == UNASSIGNED {
        // `try_with` fails once this thread's `OWNED` is destroyed.
        SLOT.set(OWNED.try_with(|owned| owned.0).unwrap_or(OVERFLOW));
    }
    SLOT.get()
}

/// One slot's cells: a 128-byte line pair no other group shares.
#[repr(align(128))]
#[derive(Default)]
struct Group([AtomicU64; 16]);

/// Sixteen wrapping `u64` counters, each striped over the thread slots
/// (see the module docs for who may write which cell).
pub struct Striped {
    groups: [Group; SLOTS + 1],
}

impl Default for Striped {
    fn default() -> Self {
        Striped { groups: std::array::from_fn(|_| Group::default()) }
    }
}

impl Striped {
    /// Add `n` to counter `cell`, wrapping: a plain load + store on the
    /// thread's own group, the one branch of a bump.
    #[inline]
    pub fn add(&self, cell: usize, n: u64) {
        let slot = SLOT.get();
        if slot < SLOTS {
            let c = &self.groups[slot].0[cell];
            c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            self.add_slowly(cell, n);
        }
    }

    /// [`Self::add`] for a thread with no slot yet, or with none to have.
    #[cold]
    fn add_slowly(&self, cell: usize, n: u64) {
        if current_slot() == OVERFLOW {
            self.groups[OVERFLOW].0[cell].fetch_add(n, Ordering::Relaxed);
        } else {
            self.add(cell, n);
        }
    }

    /// Subtract `n` from counter `cell`, wrapping (a thread that frees
    /// what another allocated drives its own cell below zero; only the
    /// sum means anything).
    #[inline]
    pub fn sub(&self, cell: usize, n: u64) {
        self.add(cell, n.wrapping_neg());
    }

    /// Counter `cell` summed over every group, wrapping.
    pub fn sum(&self, cell: usize) -> u64 {
        self.groups.iter().fold(0, |s, g| s.wrapping_add(g.0[cell].load(Ordering::Relaxed)))
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for cell in self.groups.iter().flat_map(|g| &g.0) {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

// Each counter's cell, in `MetricsSnapshot` field order.
const ATOMIC_RMW: usize = 0;
const CAS_ATTEMPTS: usize = 1;
const CAS_FAILURES: usize = 2;
const LOCK_ACQUIRES: usize = 3;
const COALESCED_REQUESTS: usize = 4;
const MALLOCS: usize = 5;
const FREES: usize = 6;
const FAILED_MALLOCS: usize = 7;
const RECLAIM_ATTEMPTS: usize = 8;
const RECLAIM_ABORTS: usize = 9;
const DRAIN_SPINS: usize = 10;
const STRAGGLER_BOUNCES: usize = 11;
const LOCAL_ACCESSES: usize = 12;
const PEER_ACCESSES: usize = 13;

/// Relaxed operation counters for one allocator instance.
#[derive(Default)]
pub struct Metrics {
    cells: Striped,
}

impl Metrics {
    /// New zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one atomic RMW on shared metadata. Preemption point.
    #[inline]
    pub fn count_rmw(&self) {
        self.cells.add(ATOMIC_RMW, 1);
        preempt_point(PreemptPoint::Rmw);
    }

    /// Record one CAS attempt and whether it succeeded. Preemption point.
    #[inline]
    pub fn count_cas(&self, success: bool) {
        self.cells.add(CAS_ATTEMPTS, 1);
        if !success {
            self.cells.add(CAS_FAILURES, 1);
        }
        preempt_point(PreemptPoint::Cas);
    }

    /// Record one lock acquisition. Preemption point — and therefore
    /// must be called *before* acquiring (never while holding) the lock,
    /// or the deterministic scheduler can park the holder.
    #[inline]
    pub fn count_lock(&self) {
        self.cells.add(LOCK_ACQUIRES, 1);
        preempt_point(PreemptPoint::Lock);
    }

    /// Record `followers` requests served by another lane's atomic.
    #[inline]
    pub fn count_coalesced(&self, followers: u64) {
        self.cells.add(COALESCED_REQUESTS, followers);
    }

    /// Record `ok + failed` allocation requests, `failed` of which
    /// returned null: one bump for a whole coalesced group.
    #[inline]
    pub fn count_mallocs(&self, ok: u64, failed: u64) {
        self.cells.add(MALLOCS, ok + failed);
        if failed > 0 {
            self.cells.add(FAILED_MALLOCS, failed);
        }
    }

    /// Record one allocation request and whether it succeeded.
    #[inline]
    pub fn count_malloc(&self, ok: bool) {
        self.count_mallocs(ok as u64, !ok as u64);
    }

    /// Record `n` free requests: one bump for a whole warp.
    #[inline]
    pub fn count_frees(&self, n: u64) {
        self.cells.add(FREES, n);
    }

    /// Record one free request.
    #[inline]
    pub fn count_free(&self) {
        self.count_frees(1);
    }

    /// Record the start of a segment-reclamation attempt.
    #[inline]
    pub fn count_reclaim_attempt(&self) {
        self.cells.add(RECLAIM_ATTEMPTS, 1);
    }

    /// Record a reclamation attempt aborted at the quiesce re-verify.
    #[inline]
    pub fn count_reclaim_abort(&self) {
        self.cells.add(RECLAIM_ABORTS, 1);
    }

    /// Record `n` spin iterations waiting out a format-time drain.
    #[inline]
    pub fn count_drain_spins(&self, n: u64) {
        self.cells.add(DRAIN_SPINS, n);
    }

    /// Record one block bounced home by the `ldcv` staleness re-check.
    #[inline]
    pub fn count_straggler_bounce(&self) {
        self.cells.add(STRAGGLER_BOUNCES, 1);
    }

    /// Record `n` memory accesses served by the issuing SM's own device.
    /// NOT a preemption point: topology accounting must not perturb the
    /// deterministic schedule, so single-device replays stay bit-identical
    /// whether or not traffic classification is enabled.
    #[inline]
    pub fn count_local_access(&self, n: u64) {
        self.cells.add(LOCAL_ACCESSES, n);
    }

    /// Record `n` memory accesses crossing the interconnect to a peer
    /// device. NOT a preemption point (see [`Self::count_local_access`]).
    #[inline]
    pub fn count_peer_access(&self, n: u64) {
        self.cells.add(PEER_ACCESSES, n);
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.cells.reset();
    }

    /// Snapshot into a plain struct for reporting: each counter summed
    /// over every cell group.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let sum = |cell| self.cells.sum(cell);
        MetricsSnapshot {
            atomic_rmw: sum(ATOMIC_RMW),
            cas_attempts: sum(CAS_ATTEMPTS),
            cas_failures: sum(CAS_FAILURES),
            lock_acquires: sum(LOCK_ACQUIRES),
            coalesced_requests: sum(COALESCED_REQUESTS),
            mallocs: sum(MALLOCS),
            frees: sum(FREES),
            failed_mallocs: sum(FAILED_MALLOCS),
            reclaim_attempts: sum(RECLAIM_ATTEMPTS),
            reclaim_aborts: sum(RECLAIM_ABORTS),
            drain_spins: sum(DRAIN_SPINS),
            straggler_bounces: sum(STRAGGLER_BOUNCES),
            local_accesses: sum(LOCAL_ACCESSES),
            peer_accesses: sum(PEER_ACCESSES),
        }
    }
}

/// Plain-value snapshot of [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Atomic RMW instructions issued on shared metadata.
    pub atomic_rmw: u64,
    /// Compare-and-swap attempts.
    pub cas_attempts: u64,
    /// CAS attempts that failed.
    pub cas_failures: u64,
    /// Lock acquisitions (lock-based designs only).
    pub lock_acquires: u64,
    /// Requests served by another lane's coalesced atomic.
    pub coalesced_requests: u64,
    /// Allocation requests observed.
    pub mallocs: u64,
    /// Free requests observed.
    pub frees: u64,
    /// Allocation requests that returned null.
    pub failed_mallocs: u64,
    /// Segment-reclamation attempts started.
    pub reclaim_attempts: u64,
    /// Reclamation attempts aborted at the quiesce re-verify.
    pub reclaim_aborts: u64,
    /// Spin iterations spent in format-time straggler drains.
    pub drain_spins: u64,
    /// Blocks bounced home by the `ldcv` staleness re-check.
    pub straggler_bounces: u64,
    /// Memory accesses served by the issuing SM's own device.
    pub local_accesses: u64,
    /// Memory accesses that crossed the interconnect to a peer device.
    pub peer_accesses: u64,
}

/// Field-wise sum, for totals over seeds or pool instances.
impl std::ops::AddAssign for MetricsSnapshot {
    fn add_assign(&mut self, o: Self) {
        self.atomic_rmw += o.atomic_rmw;
        self.cas_attempts += o.cas_attempts;
        self.cas_failures += o.cas_failures;
        self.lock_acquires += o.lock_acquires;
        self.coalesced_requests += o.coalesced_requests;
        self.mallocs += o.mallocs;
        self.frees += o.frees;
        self.failed_mallocs += o.failed_mallocs;
        self.reclaim_attempts += o.reclaim_attempts;
        self.reclaim_aborts += o.reclaim_aborts;
        self.drain_spins += o.drain_spins;
        self.straggler_bounces += o.straggler_bounces;
        self.local_accesses += o.local_accesses;
        self.peer_accesses += o.peer_accesses;
    }
}

impl MetricsSnapshot {
    /// Atomic operations per allocation — the ablation's headline number.
    pub fn rmw_per_malloc(&self) -> f64 {
        if self.mallocs == 0 {
            0.0
        } else {
            (self.atomic_rmw + self.cas_attempts) as f64 / self.mallocs as f64
        }
    }

    /// Fraction of classified memory accesses that crossed the
    /// interconnect — the E23 locality headline. 0.0 when no accesses
    /// were classified (single-device runs never classify).
    pub fn peer_share(&self) -> f64 {
        let total = self.local_accesses + self.peer_accesses;
        if total == 0 {
            0.0
        } else {
            self.peer_accesses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new();
        m.count_rmw();
        m.count_rmw();
        m.count_cas(true);
        m.count_cas(false);
        m.count_lock();
        m.count_coalesced(3);
        m.count_malloc(true);
        m.count_malloc(false);
        m.count_mallocs(3, 2);
        m.count_free();
        m.count_frees(4);
        m.count_reclaim_attempt();
        m.count_reclaim_attempt();
        m.count_reclaim_abort();
        m.count_drain_spins(5);
        m.count_straggler_bounce();
        m.count_local_access(2);
        m.count_peer_access(2);
        let s = m.snapshot();
        assert_eq!(s.atomic_rmw, 2);
        assert_eq!(s.cas_attempts, 2);
        assert_eq!(s.cas_failures, 1);
        assert_eq!(s.lock_acquires, 1);
        assert_eq!(s.coalesced_requests, 3);
        assert_eq!(s.mallocs, 7, "the counted form is the scalar form, n at a time");
        assert_eq!(s.failed_mallocs, 3);
        assert_eq!(s.frees, 5);
        assert_eq!(s.reclaim_attempts, 2);
        assert_eq!(s.reclaim_aborts, 1);
        assert_eq!(s.drain_spins, 5);
        assert_eq!(s.straggler_bounces, 1);
        assert_eq!(s.local_accesses, 2);
        assert_eq!(s.peer_accesses, 2);
        assert_eq!(s.peer_share(), 0.5);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn add_assign_sums_every_field() {
        // Distinct primes: a field the impl forgets stays at its own
        // prime instead of twice it, so the comparison names it.
        let s = MetricsSnapshot {
            atomic_rmw: 2,
            cas_attempts: 3,
            cas_failures: 5,
            lock_acquires: 7,
            coalesced_requests: 11,
            mallocs: 13,
            frees: 17,
            failed_mallocs: 19,
            reclaim_attempts: 23,
            reclaim_aborts: 29,
            drain_spins: 31,
            straggler_bounces: 37,
            local_accesses: 41,
            peer_accesses: 43,
        };
        let mut sum = s;
        sum += s;
        let doubled = MetricsSnapshot {
            atomic_rmw: 4,
            cas_attempts: 6,
            cas_failures: 10,
            lock_acquires: 14,
            coalesced_requests: 22,
            mallocs: 26,
            frees: 34,
            failed_mallocs: 38,
            reclaim_attempts: 46,
            reclaim_aborts: 58,
            drain_spins: 62,
            straggler_bounces: 74,
            local_accesses: 82,
            peer_accesses: 86,
        };
        assert_eq!(sum, doubled);
        sum += MetricsSnapshot::default();
        assert_eq!(sum, doubled, "adding the zero snapshot changes nothing");
    }

    #[test]
    fn rmw_per_malloc_handles_zero() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.rmw_per_malloc(), 0.0);
        let s =
            MetricsSnapshot { atomic_rmw: 10, cas_attempts: 2, mallocs: 4, ..Default::default() };
        assert_eq!(s.rmw_per_malloc(), 3.0);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        m.count_rmw();
                    }
                });
            }
        });
        assert_eq!(m.snapshot().atomic_rmw, 40_000);
    }

    #[test]
    fn bumps_from_distinct_slots_aggregate() {
        // Concurrent threads bump under their own slots; the snapshot
        // must sum them all. Covers the mixed case (spawned writers + the
        // host thread) and a reset of every group, not just the host's.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for t in 0..32u32 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        m.count_rmw();
                    }
                    m.count_cas(t % 2 == 0);
                    m.count_malloc(true);
                });
            }
        });
        m.count_free();
        let s = m.snapshot();
        assert_eq!(s.atomic_rmw, 32_000);
        assert_eq!(s.cas_attempts, 32);
        assert_eq!(s.cas_failures, 16);
        assert_eq!(s.mallocs, 32);
        assert_eq!(s.frees, 1);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    /// Serializes the tests that exhaust the slots or need one free.
    static SLOT_TESTS: Mutex<()> = Mutex::new(());

    /// Bump every counter of `m` `n` times.
    fn bump_all(m: &Metrics, n: u64) {
        for _ in 0..n {
            m.count_rmw();
            m.count_cas(false);
            m.count_lock();
            m.count_coalesced(1);
            m.count_mallocs(1, 1);
            m.count_frees(1);
            m.count_reclaim_attempt();
            m.count_reclaim_abort();
            m.count_drain_spins(1);
            m.count_straggler_bounce();
            m.count_local_access(1);
            m.count_peer_access(1);
        }
    }

    #[test]
    fn more_threads_than_slots_count_exactly_and_leak_no_slot() {
        let _serial = SLOT_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        const THREADS: usize = SLOTS + 8;
        const BUMPS: u64 = 100_000;
        let m = Metrics::new();
        let mut held = 0u64;
        for _wave in 0..3 {
            // Every thread of a wave has its slot (or the overflow group)
            // before any of them finishes: more owners than slots.
            let all_assigned = std::sync::Barrier::new(THREADS);
            let slots: Vec<usize> = std::thread::scope(|s| {
                let wave: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            let slot = current_slot();
                            all_assigned.wait();
                            bump_all(&m, BUMPS);
                            slot
                        })
                    })
                    .collect();
                // An explicit join also waits for the thread-local
                // destructors that give the slots back.
                wave.into_iter().map(|t| t.join().unwrap()).collect()
            });
            assert!(slots.iter().filter(|&&s| s == OVERFLOW).count() >= 8, "{slots:?}");
            assert!(slots.iter().any(|&s| s < SLOTS), "a leak would leave later waves none");
            held |= slots.iter().filter(|&&s| s < SLOTS).fold(0, |set, &s| set | 1 << s);
        }
        let each = 3 * THREADS as u64 * BUMPS;
        let all = MetricsSnapshot {
            atomic_rmw: each,
            cas_attempts: each,
            cas_failures: each,
            lock_acquires: each,
            coalesced_requests: each,
            mallocs: 2 * each,
            frees: each,
            failed_mallocs: each,
            reclaim_attempts: each,
            reclaim_aborts: each,
            drain_spins: each,
            straggler_bounces: each,
            local_accesses: each,
            peer_accesses: each,
        };
        assert_eq!(m.snapshot(), all);
        // Every slot the waves held is free again. Tests running beside
        // this one take and return slots too, so each is polled for, not
        // the whole set compared at one instant.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while held != 0 {
            held &= !*free_slots();
            assert!(std::time::Instant::now() < deadline, "leaked slots: {held:#b}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_deterministic_launch_takes_no_slot_beyond_its_launchers() {
        let _serial = SLOT_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        // 128 warps, twice the slots, all on the launching thread and so
        // all under its slot.
        let m = Metrics::new();
        let mine = current_slot();
        crate::launch_warps(crate::DeviceConfig::with_sms(4).seeded(1), 128 * 32, |_| {
            assert_eq!(SLOT.get(), mine);
            m.count_rmw();
        });
        assert_eq!(m.cells.groups[mine].0[ATOMIC_RMW].load(Ordering::Relaxed), 128);
        // A thread that comes after still finds a slot of its own.
        let slot = std::thread::scope(|s| {
            let fresh = s.spawn(|| {
                crate::launch_warps(crate::DeviceConfig::with_sms(4), 2 * 32, |_| m.count_rmw());
                current_slot()
            });
            fresh.join().unwrap()
        });
        assert!(slot < SLOTS && slot != mine, "no free slot after a 128-warp launch: {slot}");
        assert_eq!(m.snapshot().atomic_rmw, 130);
    }

    #[test]
    fn nested_launches_of_either_mode_count_exactly() {
        let (pool, seeded) = (crate::DeviceConfig::with_sms(2), crate::DeviceConfig::with_sms(2));
        let m = Metrics::new();
        // A deterministic launch inside each pool-mode warp: its tasks
        // run on, and bump under the slot of, the pool worker that
        // launched it.
        crate::launch_warps(pool, 4 * 32, |w| {
            m.count_rmw();
            crate::launch_warps(seeded.seeded(w.warp_id), 3 * 32, |_| m.count_cas(true));
        });
        // A pool launch inside each deterministic task: its workers are
        // fresh threads with slots of their own (or, with one worker, the
        // launcher's thread itself, on the task's stack).
        crate::launch_warps(seeded.seeded(3), 4 * 32, |_| {
            m.count_lock();
            crate::launch_warps(pool, 3 * 32, |_| m.count_frees(1));
        });
        let s = m.snapshot();
        assert_eq!((s.atomic_rmw, s.cas_attempts, s.lock_acquires, s.frees), (4, 12, 4, 12));
    }

    /// What a launch installs on a thread, all back to `seed` and `slot`.
    fn pristine_but_for(seed: Option<u64>, slot: usize) {
        use crate::trace::{self, TraceEvent, TraceSink};
        use std::sync::Arc;
        assert_eq!(crate::sched::current_sched_seed(), seed);
        assert_eq!(SLOT.get(), slot);
        assert!(trace::current_sink().is_none());
        let probe = Arc::new(TraceSink::with_capacity(1));
        trace::with_sink(probe.clone(), || trace::emit(|| TraceEvent::Free { ptr: 0, size: 0 }));
        assert!(probe.snapshot().iter().all(|r| (r.sm, r.warp) == (0, 0)));
    }

    #[test]
    fn a_panicking_launch_leaves_no_state_on_the_threads_it_ran_on() {
        use crate::sched::run_tasks;
        use crate::trace::{self, TraceSink};
        use std::sync::Arc;

        // A deterministic launch runs on its launcher's thread and on
        // pooled stacks, so what a warp installs must be gone when it
        // ends. Warp 2 dies mid-schedule with everything installed: its
        // `(sm, warp)` stamp, the seed, the run pointer.
        let mine = current_slot();
        let sink = Arc::new(TraceSink::new());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trace::with_sink(sink, || {
                crate::launch_warps(crate::DeviceConfig::with_sms(4).seeded(5), 4 * 32, |w| {
                    preempt_point(PreemptPoint::Rmw);
                    assert!(w.warp_id != 2, "warp 2 fails");
                    preempt_point(PreemptPoint::Rmw);
                })
            })
        }));
        assert!(died.is_err());

        // The host still bumps under its own slot.
        pristine_but_for(None, mine);
        // No stale run pointer on the host: a no-op, not a yield into a dead run.
        preempt_point(PreemptPoint::Rmw);
        // A launch from another thread installs only its own seed and
        // run, bumps under that thread's slot, and each yield reaches
        // that run exactly once.
        let next = std::thread::spawn(move || {
            let theirs = current_slot();
            assert!(theirs != mine || theirs == OVERFLOW);
            run_tasks(9, 4, |_| {
                pristine_but_for(Some(9), theirs);
                preempt_point(PreemptPoint::Rmw);
                pristine_but_for(Some(9), theirs);
            })
        });
        assert_eq!(next.join().unwrap(), 8);
    }
}
