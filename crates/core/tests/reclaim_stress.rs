//! Stress tests targeting Gallatin's segment-reclamation protocol — the
//! class→free→reformat transition guarded by the `ldcv` staleness check
//! and the drain-before-reformat rule (see `crate::table` docs).
//!
//! The scenario these force: a segment's last block is freed (reclaim
//! begins) while other threads are still popping blocks from its ring
//! and while further threads immediately demand segments of a *different*
//! class (reformat pressure). Any protocol hole shows up as a double
//! allocation (caught by payload stamps), a lost segment (caught by
//! capacity accounting), or a cross-structure inconsistency (caught by
//! `Gallatin::check_invariants`).
//!
//! Beyond the free-running pool runs, `explore_schedules` sweeps the
//! same churn under the deterministic scheduler across a fixed seed
//! range; a failure reports the first bad seed, reproducible with
//! `GALLATIN_SCHED_SEED=<seed>` (see TESTING.md).

use gallatin::{Gallatin, GallatinConfig, TREE_FREE};
use gpu_sim::{
    explore_schedules, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, FaultPlan,
    PreemptPoint,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tiny heap = constant segment churn: every warp's allocations span
/// whole segments, so segments cycle through reclaim/reformat constantly.
fn churn_config() -> GallatinConfig {
    GallatinConfig::small_test(256 << 10) // 4 segments of 64 KB
}

#[test]
fn alternating_class_churn_reclaims_and_reformats() {
    let g = Gallatin::new(churn_config());
    let spb = g.geometry().slices_per_block; // 64
    let corrupt = AtomicU64::new(0);

    // Each warp fills a whole block of one class, verifies, frees it all
    // (returning the block, often the segment), then repeats with another
    // class — forcing reformats of the same segments.
    launch_warps(DeviceConfig::with_sms(4), 64, |warp| {
        for round in 0..30u64 {
            let class_size = 16u64 << ((warp.warp_id + round) % 5);
            let mut ptrs = Vec::with_capacity(spb as usize / 4);
            for i in 0..spb / 4 {
                let p = g.malloc(&warp.lane(0), class_size);
                if p.is_null() {
                    continue;
                }
                g.memory().write_stamp(p, warp.warp_id * 1_000_000 + round * 1000 + i);
                ptrs.push((p, warp.warp_id * 1_000_000 + round * 1000 + i));
            }
            for &(p, stamp) in &ptrs {
                if g.memory().read_stamp(p) != stamp {
                    corrupt.fetch_add(1, Ordering::Relaxed);
                }
                g.free(&warp.lane(0), p);
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0, "double allocation during churn");
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().expect("invariants violated after churn");
    // No segment may be lost: after a reset everything is claimable.
    g.reset();
    assert_eq!(g.free_segments(), 4);
    g.check_invariants().expect("invariants violated after reset");
}

#[test]
fn block_pop_racing_reclaim_never_double_serves() {
    // Two populations: block-grabbers (whole-block mallocs, which pop from
    // rings) and slice churners (which drive free counters to the reclaim
    // threshold). The ldcv re-check is what keeps them apart.
    let g = Gallatin::new(churn_config());
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4), 128, |warp| {
        let l = warp.lane(0);
        for round in 0..40u64 {
            if warp.warp_id % 2 == 0 {
                // Whole-block path (1 KB blocks of class 0).
                let p = g.malloc(&l, 1024);
                if !p.is_null() {
                    g.memory().write_stamp(p, warp.warp_id ^ round);
                    if g.memory().read_stamp(p) != warp.warp_id ^ round {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    g.free(&l, p);
                }
            } else {
                // Slice path on the same class (16 B slices, same blocks).
                let mut ptrs = [DevicePtr::NULL; 16];
                for (i, slot) in ptrs.iter_mut().enumerate() {
                    *slot = g.malloc(&l, 16);
                    if !slot.is_null() {
                        g.memory().write_stamp(*slot, round * 100 + i as u64);
                    }
                }
                for (i, p) in ptrs.iter().enumerate() {
                    if !p.is_null() {
                        if g.memory().read_stamp(*p) != round * 100 + i as u64 {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        g.free(&l, *p);
                    }
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0);
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().expect("invariants violated after pop/reclaim race");
}

#[test]
fn large_allocation_racing_segment_reclaim() {
    // Multi-segment claims from the back race against slice-churn
    // reclaims: the contiguous claim's per-bit rollback must never
    // intersect a segment the block pipeline still owns.
    let g = Gallatin::new(GallatinConfig::small_test(512 << 10)); // 8 segments
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4), 64, |warp| {
        let l = warp.lane(0);
        for round in 0..30u64 {
            if warp.warp_id % 4 == 0 {
                // 2-segment large allocation.
                let p = g.malloc(&l, 128 << 10);
                if !p.is_null() {
                    g.memory().write_stamp(p, warp.warp_id);
                    g.memory().write_stamp(p.offset((128 << 10) - 8), warp.warp_id);
                    if g.memory().read_stamp(p) != warp.warp_id {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    g.free(&l, p);
                }
            } else {
                let p = g.malloc(&l, 16 << ((warp.warp_id + round) % 5));
                if !p.is_null() {
                    g.memory().write_stamp(p, warp.warp_id * 7919 + round);
                    if g.memory().read_stamp(p) != warp.warp_id * 7919 + round {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    g.free(&l, p);
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0);
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().expect("invariants violated after large/reclaim race");
}

// =====================================================================
// Deterministic-schedule coverage
// =====================================================================

/// The reclaim churn as a deterministic scenario: one full mixed-class
/// run (slice, whole-block, and 2-segment large allocations) under the
/// seeded scheduler, panicking on any contract violation so
/// `explore_schedules` can attribute it to its seed.
fn churn_scenario(seed: u64) {
    let g = Gallatin::new(GallatinConfig::small_test(512 << 10)); // 8 segments
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4).seeded(seed), 64, |warp| {
        let l = warp.lane(0);
        for round in 0..6u64 {
            match (warp.warp_id + round) % 3 {
                0 => {
                    // Slice churn across classes.
                    let mut ptrs = [DevicePtr::NULL; 8];
                    for (i, slot) in ptrs.iter_mut().enumerate() {
                        *slot = g.malloc(&l, 16 << ((round + i as u64) % 5));
                        if !slot.is_null() {
                            g.memory().write_stamp(*slot, round * 100 + i as u64);
                        }
                    }
                    for (i, p) in ptrs.iter().enumerate() {
                        if !p.is_null() {
                            if g.memory().read_stamp(*p) != round * 100 + i as u64 {
                                corrupt.fetch_add(1, Ordering::Relaxed);
                            }
                            g.free(&l, *p);
                        }
                    }
                }
                1 => {
                    // Whole-block path (pops from rings, racing reclaim).
                    let p = g.malloc(&l, 1024);
                    if !p.is_null() {
                        g.memory().write_stamp(p, warp.warp_id ^ round);
                        if g.memory().read_stamp(p) != warp.warp_id ^ round {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        g.free(&l, p);
                    }
                }
                _ => {
                    // 2-segment large allocation from the back.
                    let p = g.malloc(&l, 128 << 10);
                    if !p.is_null() {
                        g.memory().write_stamp(p, warp.warp_id);
                        if g.memory().read_stamp(p) != warp.warp_id {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        g.free(&l, p);
                    }
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0, "double allocation under seed {seed}");
    assert_eq!(g.stats().reserved_bytes, 0, "leak under seed {seed}");
    if let Err(e) = g.check_invariants() {
        panic!("invariants violated under seed {seed}:\n{e}");
    }
}

/// Sweep the churn scenario across 64 deterministic schedules. A failing
/// interleaving reports its seed and reproduces exactly with
/// `GALLATIN_SCHED_SEED=<seed> cargo test -p gallatin reclaim`.
#[test]
fn deterministic_schedule_sweep_survives_reclaim_churn() {
    match explore_schedules(0..64, churn_scenario) {
        Ok(ran) => assert!(ran >= 1, "sweep must run at least one schedule"),
        Err(failure) => panic!("{failure}"),
    }
}

/// The acceptance property of the deterministic mode: the same seed
/// replays the identical interleaving, so two runs agree on *every*
/// metrics counter (including schedule-sensitive ones like CAS
/// failures) and on the final heap state.
#[test]
fn same_seed_replays_identical_metrics_and_outcome() {
    fn run(seed: u64) -> (gpu_sim::metrics::MetricsSnapshot, u64, u64) {
        let g = Gallatin::new(GallatinConfig::small_test(256 << 10));
        launch_warps(DeviceConfig::with_sms(4).seeded(seed), 96, |warp| {
            let l = warp.lane(0);
            for round in 0..8u64 {
                let p = g.malloc(&l, 16 << ((warp.warp_id + round) % 5));
                if !p.is_null() {
                    g.free(&l, p);
                }
            }
        });
        g.check_invariants().expect("invariants violated");
        (g.metrics().unwrap().snapshot(), g.stats().reserved_bytes, g.free_segments())
    }
    let a = run(0xA11C);
    let b = run(0xA11C);
    assert_eq!(a, b, "identical seed must replay the identical schedule");
}

// =====================================================================
// Fault-injected straggler coverage: format-drain under contention
// =====================================================================

/// The churn scenario with a schedule fault: the warp making the `nth`
/// pop-CAS crossing ([`PreemptPoint::RingPop`]) is parked for many turn
/// grants, so it holds a popped block while every other warp keeps
/// freeing blocks, reclaiming segments, and reformatting them for other
/// classes around it. Returns the run's metrics for aggregate assertions.
///
/// Correctness here is the whole reclamation protocol at once: the
/// reclaim quiesce-check must see the straggler's block as *out*
/// (derived occupancy, not a wrappable counter) and abort; a straggler
/// resuming onto a reclaimed/reformatted segment must be routed home by
/// Algorithm 2's `ldcv` re-check; and a format drain overlapping the
/// park must wait the straggler out rather than terminate early — any
/// early termination tears the ring rebuild and shows up as a double
/// allocation (payload stamps) or a cross-structure inconsistency
/// (`check_invariants`).
fn faulted_churn(seed: u64, nth: u64) -> gpu_sim::metrics::MetricsSnapshot {
    let g = Gallatin::new(churn_config());
    let corrupt = AtomicU64::new(0);
    let cfg = DeviceConfig::with_sms(4).seeded(seed).with_fault(FaultPlan::park(
        PreemptPoint::RingPop,
        nth,
        48,
    ));
    // 4 warps: even warps hammer the whole-block path (ring pops — fault
    // candidates), odd warps churn slices across classes (reclaim and
    // reformat pressure on the same 4 segments).
    launch_warps(cfg, 128, |warp| {
        let l = warp.lane(0);
        for round in 0..6u64 {
            if warp.warp_id % 2 == 0 {
                let p = g.malloc(&l, 1024);
                if !p.is_null() {
                    g.memory().write_stamp(p, warp.warp_id * 1000 + round);
                    if g.memory().read_stamp(p) != warp.warp_id * 1000 + round {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    g.free(&l, p);
                }
            } else {
                let mut ptrs = [DevicePtr::NULL; 8];
                for (i, slot) in ptrs.iter_mut().enumerate() {
                    *slot = g.malloc(&l, 16 << ((warp.warp_id + round + i as u64) % 5));
                    if !slot.is_null() {
                        g.memory().write_stamp(*slot, round * 100 + i as u64);
                    }
                }
                for (i, p) in ptrs.iter().enumerate() {
                    if !p.is_null() {
                        if g.memory().read_stamp(*p) != round * 100 + i as u64 {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        g.free(&l, *p);
                    }
                }
            }
        }
    });
    assert_eq!(
        corrupt.load(Ordering::Relaxed),
        0,
        "double allocation under seed {seed}, fault nth {nth}"
    );
    assert_eq!(g.stats().reserved_bytes, 0, "leak under seed {seed}, fault nth {nth}");
    if let Err(e) = g.check_invariants() {
        panic!("invariants violated under seed {seed}, fault nth {nth}:\n{e}");
    }
    g.metrics().unwrap().snapshot()
}

/// Sweep the faulted churn across schedules × fault positions. Each run
/// is individually checked (stamps, leak, invariants); in aggregate the
/// sweep must have attempted reclaims around the parked popper — and
/// must not have bounced a single block. A popper parked with its block
/// out keeps its segment's occupancy one short, so nothing reclaims
/// under it, and under the deterministic scheduler `get` crosses no
/// preemption point between finding a segment and popping from it: the
/// `ldcv` re-check has nothing to catch here. The bounces this sweep
/// once counted (seed 1, nth 7 and 13) were `free_block` handing a
/// reclaimed-and-reformatted segment's bit back to its old class — the
/// `get_many` livelock, whose fix and whose `ldcv` route-home are
/// pinned by the unit tests in `src/tiers/block.rs`. A failing
/// combination replays exactly from its `(seed, nth)` pair.
#[test]
fn parked_popper_sweep_reclaims_around_it_and_never_bounces() {
    let (mut attempts, mut bounces) = (0u64, 0u64);
    for seed in 0..8u64 {
        for nth in [1u64, 3, 7, 13] {
            let s = faulted_churn(seed, nth);
            attempts += s.reclaim_attempts;
            bounces += s.straggler_bounces;
        }
    }
    assert!(attempts > 0, "sweep never attempted a reclaim — workload too tame");
    assert_eq!(bounces, 0, "a block tree handed `get` a segment of another class");
}

// =====================================================================
// Invariant-checker negative coverage
// =====================================================================

/// A deliberately-stale memory-table entry — the exact shape of bug the
/// `ldcv` staleness check defends against (a segment recycled while a
/// reader still believes its old `tree_id`) — must be caught by
/// `check_invariants`.
#[test]
fn invariant_checker_catches_stale_table_entry() {
    let g = Gallatin::new(churn_config());
    let warp = gpu_sim::WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = warp.lane(0);
    let p = g.malloc(&lane, 16);
    assert!(!p.is_null());
    g.check_invariants().expect("healthy heap must pass");

    // Simulate the stale transition: the formatted segment's table entry
    // reverts to TREE_FREE while a slice is still live and its blocks
    // are still owned by the class pipeline.
    let seg = g.geometry().segment_of(p.0);
    let true_id = g.table().seg(seg).tree_id.swap(TREE_FREE, Ordering::SeqCst);
    let err = g.check_invariants().expect_err("stale table entry must be flagged");
    assert!(err.contains(&format!("segment {seg}")), "error must name the stale segment: {err}");
    assert!(
        err.contains("TREE_FREE but missing from the segment tree"),
        "error must identify the free/formatted contradiction: {err}"
    );

    // Restoring the true id heals the heap.
    g.table().seg(seg).tree_id.store(true_id, Ordering::SeqCst);
    g.check_invariants().expect("restored heap must pass");
    g.free(&lane, p);
    assert_eq!(g.stats().reserved_bytes, 0);
}
