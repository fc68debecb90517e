//! Lightweight instrumentation counters.
//!
//! The ablation experiments (DESIGN.md E14) need to *show* why coalescing
//! wins: Gallatin issues one atomic RMW per coalesced group where a
//! conventional allocator issues one per thread. Every allocator in this
//! workspace owns a [`Metrics`] and bumps it on its contended operations;
//! counts are relaxed (they are statistics, not synchronization).
//!
//! Ordering audit (E21): this module was reviewed alongside the core
//! allocator's SeqCst diet and deliberately has nothing left to relax —
//! every counter bump is already `Relaxed` and the striping removes the
//! cross-SM cache-line traffic a global counter would add. Per-stripe
//! sums are only combined in [`Metrics::snapshot`], on the host, between
//! kernels, so no stronger ordering is ever needed here.
//!
//! The counters are *striped*: each SM writes to its own
//! cache-line-padded cell group (stripe chosen by SM id, mirroring the
//! per-SM block buffers in `core`), and [`Metrics::snapshot`] aggregates
//! across stripes on read. A single global `AtomicU64` per counter would
//! itself be the most contended object in the simulator — every lane of
//! every allocator bumps it on every operation — and would perturb the
//! very scaling curves the harness exists to measure. The stripe in
//! effect for a thread is set by the launch machinery
//! ([`with_metrics_stripe`]); threads outside a launch (host-side setup,
//! unit tests) fall back to stripe 0, which is correct because every
//! accessor sums all stripes.
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

/// Number of counter stripes. A power of two so the SM id maps to a
/// stripe with a mask; 16 stripes keep the struct at 2 KiB while cutting
/// worst-case writer contention per cell by the device's SM count / 16.
const STRIPES: usize = 16;

thread_local! {
    /// Stripe index the current thread's bumps land in. Installed per
    /// warp by the launch machinery; 0 for host threads.
    static CURRENT_STRIPE: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread's metric bumps attributed to the stripe for
/// `sm_id`. Used by `launch_warps` so each warp writes the cell group of
/// its SM; restores the previous stripe on exit (also on unwind, so a
/// panicking kernel does not leak its stripe into the harness thread).
pub fn with_metrics_stripe<R>(sm_id: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_STRIPE.with(|c| c.set(self.0));
        }
    }
    let _restore = CURRENT_STRIPE.with(|c| {
        let prev = c.get();
        c.set(sm_id as usize & (STRIPES - 1));
        Restore(prev)
    });
    f()
}

/// One stripe's counter cells, padded to cache lines so stripes never
/// share a line (14 × 8 = 112 bytes of counters, aligned up to 128).
/// Counters of the *same* stripe may share a line — by construction they
/// are only bumped by warps of the same SMs.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Stripe {
    atomic_rmw: AtomicU64,
    cas_attempts: AtomicU64,
    cas_failures: AtomicU64,
    lock_acquires: AtomicU64,
    coalesced_requests: AtomicU64,
    mallocs: AtomicU64,
    frees: AtomicU64,
    failed_mallocs: AtomicU64,
    reclaim_attempts: AtomicU64,
    reclaim_aborts: AtomicU64,
    drain_spins: AtomicU64,
    straggler_bounces: AtomicU64,
    local_accesses: AtomicU64,
    peer_accesses: AtomicU64,
}

impl Stripe {
    /// Every cell of this stripe. `reset` iterates this list, so a
    /// counter added to the struct but forgotten here fails the
    /// `counters_accumulate_and_reset` round-trip test immediately —
    /// there is no way for reset coverage to silently drift.
    fn cells(&self) -> [&AtomicU64; 14] {
        [
            &self.atomic_rmw,
            &self.cas_attempts,
            &self.cas_failures,
            &self.lock_acquires,
            &self.coalesced_requests,
            &self.mallocs,
            &self.frees,
            &self.failed_mallocs,
            &self.reclaim_attempts,
            &self.reclaim_aborts,
            &self.drain_spins,
            &self.straggler_bounces,
            &self.local_accesses,
            &self.peer_accesses,
        ]
    }
}

/// Relaxed operation counters for one allocator instance, striped by SM.
#[derive(Debug)]
pub struct Metrics {
    stripes: [Stripe; STRIPES],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// New zeroed counter set. The only constructor; `Default`
    /// delegates here.
    pub fn new() -> Self {
        Metrics { stripes: std::array::from_fn(|_| Stripe::default()) }
    }

    /// The stripe the current thread writes to.
    #[inline]
    fn stripe(&self) -> &Stripe {
        &self.stripes[CURRENT_STRIPE.with(|c| c.get())]
    }

    /// Sum one cell across all stripes.
    #[inline]
    fn sum(&self, cell: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes.iter().map(|s| cell(s).load(Ordering::Relaxed)).sum()
    }

    /// Record one atomic RMW on shared metadata. Preemption point.
    #[inline]
    pub fn count_rmw(&self) {
        self.stripe().atomic_rmw.fetch_add(1, Ordering::Relaxed);
        preempt_point(PreemptPoint::Rmw);
    }

    /// Record one CAS attempt and whether it succeeded. Preemption point.
    #[inline]
    pub fn count_cas(&self, success: bool) {
        let stripe = self.stripe();
        stripe.cas_attempts.fetch_add(1, Ordering::Relaxed);
        if !success {
            stripe.cas_failures.fetch_add(1, Ordering::Relaxed);
        }
        preempt_point(PreemptPoint::Cas);
    }

    /// Record one lock acquisition. Preemption point — and therefore
    /// must be called *before* acquiring (never while holding) the lock,
    /// or the deterministic scheduler can park the holder.
    #[inline]
    pub fn count_lock(&self) {
        self.stripe().lock_acquires.fetch_add(1, Ordering::Relaxed);
        preempt_point(PreemptPoint::Lock);
    }

    /// Record `followers` requests served by another lane's atomic.
    #[inline]
    pub fn count_coalesced(&self, followers: u64) {
        self.stripe().coalesced_requests.fetch_add(followers, Ordering::Relaxed);
    }

    /// Record one allocation request and whether it succeeded.
    #[inline]
    pub fn count_malloc(&self, ok: bool) {
        let stripe = self.stripe();
        stripe.mallocs.fetch_add(1, Ordering::Relaxed);
        if !ok {
            stripe.failed_mallocs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one free request.
    #[inline]
    pub fn count_free(&self) {
        self.stripe().frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the start of a segment-reclamation attempt.
    #[inline]
    pub fn count_reclaim_attempt(&self) {
        self.stripe().reclaim_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a reclamation attempt aborted at the quiesce re-verify.
    #[inline]
    pub fn count_reclaim_abort(&self) {
        self.stripe().reclaim_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` spin iterations waiting out a format-time drain.
    #[inline]
    pub fn count_drain_spins(&self, n: u64) {
        self.stripe().drain_spins.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one block bounced home by the `ldcv` staleness re-check.
    #[inline]
    pub fn count_straggler_bounce(&self) {
        self.stripe().straggler_bounces.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one memory access served by the issuing SM's own device.
    /// NOT a preemption point: topology accounting must not perturb the
    /// deterministic schedule, so single-device replays stay bit-identical
    /// whether or not traffic classification is enabled.
    #[inline]
    pub fn count_local_access(&self) {
        self.stripe().local_accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` memory accesses crossing the interconnect to a peer
    /// device. NOT a preemption point (see [`Self::count_local_access`]).
    #[inline]
    pub fn count_peer_access(&self, n: u64) {
        self.stripe().peer_accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Reset all counters in all stripes to zero.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            for cell in stripe.cells() {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot into a plain struct for reporting: each counter is the
    /// sum of its cell across all stripes.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            atomic_rmw: self.sum(|s| &s.atomic_rmw),
            cas_attempts: self.sum(|s| &s.cas_attempts),
            cas_failures: self.sum(|s| &s.cas_failures),
            lock_acquires: self.sum(|s| &s.lock_acquires),
            coalesced_requests: self.sum(|s| &s.coalesced_requests),
            mallocs: self.sum(|s| &s.mallocs),
            frees: self.sum(|s| &s.frees),
            failed_mallocs: self.sum(|s| &s.failed_mallocs),
            reclaim_attempts: self.sum(|s| &s.reclaim_attempts),
            reclaim_aborts: self.sum(|s| &s.reclaim_aborts),
            drain_spins: self.sum(|s| &s.drain_spins),
            straggler_bounces: self.sum(|s| &s.straggler_bounces),
            local_accesses: self.sum(|s| &s.local_accesses),
            peer_accesses: self.sum(|s| &s.peer_accesses),
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
        m.count_free();
        m.count_reclaim_attempt();
        m.count_reclaim_attempt();
        m.count_reclaim_abort();
        m.count_drain_spins(5);
        m.count_straggler_bounce();
        m.count_local_access();
        m.count_local_access();
        m.count_peer_access(2);
        let s = m.snapshot();
        assert_eq!(s.atomic_rmw, 2);
        assert_eq!(s.cas_attempts, 2);
        assert_eq!(s.cas_failures, 1);
        assert_eq!(s.lock_acquires, 1);
        assert_eq!(s.coalesced_requests, 3);
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.failed_mallocs, 1);
        assert_eq!(s.frees, 1);
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
    fn bumps_from_distinct_stripes_aggregate() {
        // Concurrent bumps attributed to different SMs land in different
        // stripes; the snapshot must sum them all. Covers the mixed case
        // (striped writers + an unstriped host thread) and a reset of
        // every stripe, not just stripe 0.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for sm in 0..32u32 {
                let m = &m;
                s.spawn(move || {
                    with_metrics_stripe(sm, || {
                        for _ in 0..1_000 {
                            m.count_rmw();
                        }
                        m.count_cas(sm % 2 == 0);
                        m.count_malloc(true);
                    });
                });
            }
        });
        m.count_free(); // host thread, stripe 0
        let s = m.snapshot();
        assert_eq!(s.atomic_rmw, 32_000);
        assert_eq!(s.cas_attempts, 32);
        assert_eq!(s.cas_failures, 16);
        assert_eq!(s.mallocs, 32);
        assert_eq!(s.frees, 1);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn a_panicking_launch_leaves_no_state_on_the_threads_it_ran_on() {
        use crate::sched::{current_sched_seed, run_tasks};
        use crate::trace::{self, TraceEvent, TraceSink};
        use std::sync::Arc;

        // Deterministic launches reuse their threads (the launcher and
        // pooled workers), so what a warp installs must be gone when it
        // ends. Warp 2 dies mid-schedule with everything installed: its
        // stripe, the sink, its `(sm, warp)` stamp, the seed, the hooks.
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

        let pristine_but_for = |seed: Option<u64>| {
            assert_eq!(current_sched_seed(), seed);
            assert_eq!(CURRENT_STRIPE.with(|c| c.get()), 0);
            assert!(trace::current_sink().is_none());
            let probe = Arc::new(TraceSink::with_capacity(1));
            trace::with_sink(probe.clone(), || {
                trace::emit(|| TraceEvent::Free { ptr: 0, size: 0 })
            });
            assert!(probe.snapshot().iter().all(|r| (r.sm, r.warp) == (0, 0)));
        };
        pristine_but_for(None);
        // No stale hooks on the host: a no-op, not a yield into a dead run.
        preempt_point(PreemptPoint::Rmw);
        // The next launch on the same workers installs only its own seed
        // and hooks, and each yield reaches those hooks exactly once.
        let steps = run_tasks(9, 4, |_| {
            pristine_but_for(Some(9));
            preempt_point(PreemptPoint::Rmw);
            pristine_but_for(Some(9));
        });
        assert_eq!(steps, 8);
    }

    #[test]
    fn stripe_is_restored_on_exit() {
        let m = Metrics::new();
        with_metrics_stripe(7, || {
            with_metrics_stripe(3, || m.count_rmw());
            m.count_rmw();
        });
        m.count_rmw();
        // All three bumps are visible regardless of which stripe each
        // landed in.
        assert_eq!(m.snapshot().atomic_rmw, 3);
    }
}
