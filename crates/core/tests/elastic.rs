//! Elastic-pool sweeps: segment donation, shrink, and grow racing live
//! device traffic and the segment-reclamation protocol.
//!
//! Donation re-homes a segment with a three-step handoff (withdraw →
//! quiesce-check → route-then-publish; see `gallatin`'s `elastic`
//! module docs). These sweeps drive that handoff *concurrently* with
//! block churn under the deterministic scheduler: a maintenance warp
//! migrates capacity back and forth — donate hot↔cold, shrink to the
//! pool free list, grow back — while churn warps allocate, stamp,
//! verify, and free across every tier, including fault-injected
//! stragglers parked mid-ring-pop across the donation window. Any
//! protocol hole shows up as a torn payload (stamps), a lost or
//! double-owned segment (conservation + `check_invariants`), or a
//! routing error (a free panics on an unowned pointer).
//!
//! A failing combination reports its schedule seed and replays exactly
//! with `GALLATIN_SCHED_SEED=<seed>` (see TESTING.md "Elastic pool
//! sweeps").

use gallatin::{Gallatin, GallatinConfig, GallatinPool, TREE_FREE};
use gpu_sim::ledger::Ledger;
use gpu_sim::sched::seed_count;
use gpu_sim::trace::TraceSink;
use gpu_sim::{
    cases, explore_schedules, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, FaultPlan,
    PreemptPoint, WarpCtx,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Two instances of 4 segments each: tight enough that donation and
/// shrink visibly move the capacity the churn warps compete over.
fn elastic_config() -> GallatinConfig {
    GallatinConfig::small_test(256 << 10)
}

/// The sweep's seed count: `GALLATIN_ELASTIC_SEEDS` overrides it (the CI
/// adversarial job's quick elastic step sets 4; the default matches the
/// adversarial suite's 16).
fn sweep_seeds() -> u64 {
    seed_count("GALLATIN_ELASTIC_SEEDS", 16)
}

/// Totals a run contributes to the sweep-level assertions.
struct ElasticOutcome {
    donated: u64,
    returned: u64,
    adopted: u64,
}

/// One deterministic run: warp 0 performs elastic maintenance while
/// warps 1–3 churn blocks and slices on both instances. Every run is
/// individually checked for payload integrity, leak-freedom, segment
/// conservation, and cross-structure invariants.
fn donation_racing_churn(seed: u64, fault: Option<FaultPlan>) -> ElasticOutcome {
    let pool = GallatinPool::new(2, elastic_config()); // 8 segments total
    let corrupt = AtomicU64::new(0);
    let mut cfg = DeviceConfig::with_sms(4).seeded(seed);
    if let Some(f) = fault {
        cfg = cfg.with_fault(f);
    }
    launch_warps(cfg, 128, |warp| {
        let l = warp.lane(0);
        if warp.warp_id == 0 {
            // Maintenance warp: shuttle capacity while the others churn.
            // Without planted corruption a donation may find the donor
            // empty (Ok(0)) but must never observe a torn segment —
            // membership in a segment tree implies quiescence, and the
            // withdraw step makes the handoff all-or-nothing.
            for round in 0..6u64 {
                let (from, to) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
                match pool.donate(from, to, 1) {
                    Ok(_) => {}
                    Err(e) => panic!(
                        "donation observed a non-quiescent segment in a segment tree \
                         under seed {seed}: {e}"
                    ),
                }
                let parked = pool.shrink_instance(to, 1);
                // Whatever shrink parked is up for grabs: this grow and
                // the malloc path's adopt-before-spill race for it.
                pool.grow(from, parked);
            }
        } else {
            for round in 0..6u64 {
                if warp.warp_id % 2 == 0 {
                    // Whole-block path: pops from rings (fault-injection
                    // candidates), frees drive segment reclaim.
                    let p = pool.malloc(&l, 1024);
                    if !p.is_null() {
                        pool.memory().write_stamp(p, warp.warp_id * 1000 + round);
                        if pool.memory().read_stamp(p) != warp.warp_id * 1000 + round {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        pool.free(&l, p);
                    }
                } else {
                    // Slice churn across classes: reformat pressure on
                    // the same segments donation is shuttling.
                    let mut ptrs = [DevicePtr::NULL; 8];
                    for (i, slot) in ptrs.iter_mut().enumerate() {
                        *slot = pool.malloc(&l, 16 << ((warp.warp_id + round + i as u64) % 5));
                        if !slot.is_null() {
                            pool.memory().write_stamp(*slot, round * 100 + i as u64);
                        }
                    }
                    for (i, p) in ptrs.iter().enumerate() {
                        if !p.is_null() {
                            if pool.memory().read_stamp(*p) != round * 100 + i as u64 {
                                corrupt.fetch_add(1, Ordering::Relaxed);
                            }
                            pool.free(&l, *p);
                        }
                    }
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0, "torn payload under seed {seed}");
    assert_eq!(pool.stats().reserved_bytes, 0, "leak under seed {seed}");
    let s = pool.stats();
    let owned: u64 = s.children.iter().map(|i| i.owned_segments).sum();
    assert_eq!(owned + s.pool_free_segments, 8, "segments not conserved under seed {seed}: {s:?}");
    if let Err(e) = pool.check_invariants() {
        panic!("invariants violated under seed {seed}:\n{e}");
    }
    ElasticOutcome {
        donated: s.donated_segments,
        returned: s.returned_segments,
        adopted: s.adopted_segments,
    }
}

/// 16-seed sweep (`GALLATIN_ELASTIC_SEEDS` overrides the count) of
/// donation/shrink/grow racing reclaim, no faults. In
/// aggregate the sweep must actually have moved capacity — a sweep
/// where every donation found an empty donor would prove nothing.
#[test]
fn donation_racing_reclaim_schedule_sweep() {
    let totals = std::sync::Mutex::new((0u64, 0u64, 0u64));
    match explore_schedules(0..sweep_seeds(), |seed| {
        let o = donation_racing_churn(seed, None);
        let mut t = totals.lock().unwrap();
        t.0 += o.donated;
        t.1 += o.returned;
        t.2 += o.adopted;
    }) {
        Ok(ran) => assert!(ran >= 1, "sweep must run at least one schedule"),
        Err(failure) => panic!("{failure}"),
    }
    let (donated, returned, adopted) = *totals.lock().unwrap();
    assert!(donated > 0, "sweep never donated a segment — workload too tame");
    assert!(
        returned > 0 && adopted > 0,
        "sweep never exercised shrink/grow (returned {returned}, adopted {adopted})"
    );
}

/// The same seeds with a straggler parked at a ring-pop crossing for
/// 48 turn grants — holding a popped block across donations, shrinks,
/// reclaims, and reformat traffic. The parked warp's segment is
/// formatted (hence absent from every segment tree), so the
/// claim-unreachable step must simply never offer it to a donation;
/// the straggler must resume onto intact state.
#[test]
fn donation_racing_straggler_fault_sweep() {
    let donated = AtomicU64::new(0);
    for seed in 0..sweep_seeds() {
        for nth in [1u64, 7] {
            let o =
                donation_racing_churn(seed, Some(FaultPlan::park(PreemptPoint::RingPop, nth, 48)));
            donated.fetch_add(o.donated, Ordering::Relaxed);
        }
    }
    assert!(
        donated.load(Ordering::Relaxed) > 0,
        "faulted sweep never donated a segment — workload too tame"
    );
}

/// Forced quiesce failure: metadata planted to look formatted while the
/// segment sits in the donor's tree — the exact torn state a racing
/// reclaim bug would leave in the donation window. The donation must
/// bounce the segment back (never re-home it), the independent
/// invariant sweep must flag the same contradiction, and healing the
/// plant must let the full donation through.
#[test]
fn donation_across_a_torn_quiesce_window_bounces_and_never_corrupts() {
    let pool = GallatinPool::new(2, elastic_config());
    pool.instance(0).table().seg(0).tree_id.store(0, Ordering::SeqCst);
    let err = pool.donate(0, 1, 4).unwrap_err();
    assert!(err.contains("quiesce"), "unexpected error: {err}");
    let s = pool.stats();
    assert_eq!(s.children[0].owned_segments, 4, "the bounced segment stayed home");
    assert_eq!(s.donated_segments, 0);
    let report = pool.check_invariants().unwrap_err();
    assert!(
        report.contains("simultaneously free and formatted"),
        "invariant sweep must flag the planted tear: {report}"
    );
    pool.instance(0).table().seg(0).tree_id.store(TREE_FREE, Ordering::SeqCst);
    assert_eq!(pool.donate(0, 1, 4), Ok(4));
    pool.check_invariants().expect("clean after the healed donation");
}

/// Planted corruption under live traffic: after a churn launch leaves
/// formatted segments with live allocations, a donation that *skips*
/// the quiesce protocol (test-only `debug_donate_skip_quiesce`) must be
/// caught by `check_invariants` — the donor still holds block-tree
/// state for a segment it no longer owns.
#[test]
fn skip_quiesce_donation_after_real_traffic_is_caught() {
    let pool = GallatinPool::new(2, elastic_config());
    let held = std::sync::Mutex::new(Vec::new());
    launch_warps(DeviceConfig::with_sms(4).seeded(5), 128, |warp| {
        let l = warp.lane(0);
        for i in 0..4u64 {
            let p = pool.malloc(&l, 16 << ((warp.warp_id + i) % 5));
            if !p.is_null() {
                held.lock().unwrap().push(p);
            }
        }
    });
    assert!(!held.lock().unwrap().is_empty());
    pool.check_invariants().expect("healthy before the planted corruption");
    let seg = pool.debug_donate_skip_quiesce(0, 1).expect("a formatted segment to steal");
    let report = pool.check_invariants().unwrap_err();
    assert!(report.contains(&format!("segment {seg}")), "unexpected report: {report}");
    assert!(
        report.contains("not owned by this instance")
            || report.contains("simultaneously free and formatted"),
        "unexpected report: {report}"
    );
}

// ---------------------------------------------------------------------------
// Compaction migration property: for ANY live-slice layout, a compaction
// pass preserves every payload byte-for-byte and leaves a lifecycle
// ledger with zero leaks, double frees, unknown frees, and size
// mismatches — every migration is an honestly-paired malloc/free.
// ---------------------------------------------------------------------------

/// Sizes spanning the slice classes plus the smallest whole-block size,
/// so arbitrary layouts mix both compactable granularities.
const COMPACT_MENU: [u64; 6] = [16, 32, 64, 128, 256, 1024];

#[test]
fn compaction_preserves_contents_and_the_ledger_balances() {
    cases("compaction_preserves_contents_and_the_ledger_balances", 24, |rng| {
        let layout: Vec<(usize, bool)> = (0..10 + rng.below(110))
            .map(|_| (rng.below(6) as usize, rng.next_u64() & 1 == 1))
            .collect();
        let occupancy = [0.25, 0.5, 0.9][rng.below(3) as usize];
        let sink = Arc::new(TraceSink::new());
        let records = gpu_sim::trace::with_sink(sink.clone(), || {
            let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
            let host = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
            let lane = host.lane(0);
            // Arbitrary layout: allocate everything, stamp, then free
            // the subset the layout marks dead — leaving an arbitrary
            // scatter of live slices across blocks and segments.
            let mut all: Vec<(DevicePtr, u64, u64, bool)> = Vec::new();
            for (i, &(menu_idx, keep)) in layout.iter().enumerate() {
                let size = COMPACT_MENU[menu_idx];
                let p = g.malloc(&lane, size);
                assert!(!p.is_null(), "layout exhausted the test heap");
                let stamp = 0xC0_0000 + i as u64;
                g.memory().write_stamp(p, stamp);
                all.push((p, size, stamp, keep));
            }
            for &(p, _, _, keep) in &all {
                if !keep {
                    g.free(&lane, p);
                }
            }
            let mut live: Vec<(DevicePtr, u64, u64)> =
                all.iter().filter(|e| e.3).map(|&(p, size, stamp, _)| (p, size, stamp)).collect();
            let pairs: Vec<(DevicePtr, u64)> = live.iter().map(|&(p, size, _)| (p, size)).collect();
            let relos = g.compact(&pairs, occupancy);
            for r in &relos {
                assert_eq!(r.size, live.iter().find(|e| e.0 == r.old).unwrap().1);
                let e = live.iter_mut().find(|e| e.0 == r.old).unwrap();
                e.0 = r.new;
            }
            // Every live payload survived the migration byte-for-byte.
            for &(p, _, stamp) in &live {
                assert_eq!(
                    g.memory().read_stamp(p),
                    stamp,
                    "payload torn by compaction (relocations: {:?})",
                    relos
                );
            }
            g.check_invariants().expect("invariants violated after compaction");
            for &(p, _, _) in &live {
                g.free(&lane, p);
            }
            assert_eq!(g.stats().reserved_bytes, 0);
            sink.snapshot()
        });
        assert_eq!(sink.dropped(), 0);
        let outcome = Ledger::build(&records).outcome();
        assert_eq!(outcome.leaks, 0, "compaction leaked: {:?}", outcome);
        assert_eq!(outcome.double_frees, 0, "compaction double-freed: {:?}", outcome);
        assert_eq!(outcome.unknown_frees, 0, "compaction freed unknown ptr: {:?}", outcome);
        assert_eq!(outcome.size_mismatches, 0, "compaction size mismatch: {:?}", outcome);
        assert_eq!(outcome.mallocs, outcome.frees, "every malloc pairs with a free");
    });
}
