//! Cross-instance routing in the sharded pool (ISSUE 5 acceptance):
//!
//! * property: a pointer malloc'd on instance `i` and freed from a lane
//!   pinned to instance `j` routes home by pointer range, for arbitrary
//!   pool widths, SM pinnings, and size mixes;
//! * seeded sweep: churn with rotated cross-instance frees shows zero
//!   leaks and zero double frees in the lifecycle ledger across 16
//!   deterministic schedule seeds;
//! * spill regression: exhausting a home instance spills to the sibling
//!   deterministically, the spilled events carry the sibling's instance
//!   tag, and the trace replays byte-identically under the same seed;
//! * the global allocator can be pool-backed (`init_global`),
//!   exercised here because this integration binary is its own process.

use gallatin::global::{
    global_allocator, global_allocator_initialized, global_check_invariants, global_free,
    global_malloc, init_global,
};
use gallatin::{GallatinConfig, GallatinPool};
use gpu_sim::ledger::Ledger;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{cases, launch, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const HEAP: u64 = 1 << 20; // per instance: 16 small_test segments
const WARPS: u64 = 8;

/// One seeded round: every warp mallocs a mixed batch on its home
/// instance, then a second kernel frees each warp's batch from a
/// *different* warp (hence, for pool widths > 1, routinely a different
/// home instance). The armed ledger proves every free found its owner.
fn routed_churn(seed: u64, n: usize) {
    let pool = Arc::new(GallatinPool::new(n, GallatinConfig::small_test(HEAP)));
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    trace::with_sink(sink.clone(), || {
        // (malloc home, batch) per warp, for the rotated free pass.
        let slots: Vec<Mutex<(usize, Vec<DevicePtr>)>> =
            (0..WARPS).map(|_| Mutex::new((0, Vec::new()))).collect();
        launch_warps(DeviceConfig::with_sms(4).seeded(seed), WARPS * 32, |warp| {
            let k = warp.active as usize;
            let sizes: Vec<Option<u64>> =
                (0..k).map(|l| Some(16u64 << ((warp.base_tid as usize + l) % 4))).collect();
            let mut out = vec![DevicePtr::NULL; k];
            pool.warp_malloc(warp, &sizes, &mut out);
            let home = warp.sm_id as usize % n;
            for p in &out {
                assert!(!p.is_null(), "per-instance heap must not exhaust");
                assert_eq!(
                    (p.0 / pool.stride()) as usize,
                    home,
                    "an uncontended pool places on the home instance"
                );
            }
            *slots[warp.warp_id as usize].lock().unwrap() = (home, out);
        });
        assert_eq!(pool.total_spills(), 0, "this workload fits every home instance");
        // Rotated frees: warp w returns warp (w+1)'s batch.
        let cross = AtomicU64::new(0);
        launch_warps(DeviceConfig::with_sms(4).seeded(seed ^ 0x5eed), WARPS * 32, |warp| {
            let victim = ((warp.warp_id + 1) % WARPS) as usize;
            let (owner_home, ptrs) = slots[victim].lock().unwrap().clone();
            if warp.sm_id as usize % n != owner_home {
                cross.fetch_add(1, Ordering::Relaxed);
            }
            pool.warp_free(warp, &ptrs);
        });
        if n > 1 {
            assert!(
                cross.load(Ordering::Relaxed) > 0,
                "rotation must exercise the cross-instance path"
            );
        }
        assert_eq!(pool.stats().reserved_bytes, 0, "every routed free reached its owner");
        let ledger = Ledger::build(&sink.snapshot());
        assert!(ledger.live.is_empty(), "seed {seed}: cross-instance leaks: {:?}", ledger.live);
        assert!(
            ledger.unmatched_frees.is_empty(),
            "seed {seed}: mis-routed frees: {:?}",
            ledger.unmatched_frees
        );
        pool.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

#[test]
fn cross_instance_frees_route_home_across_16_seeds() {
    for seed in 0..16 {
        routed_churn(seed, 2);
    }
}

#[test]
fn wider_pools_route_the_same_way() {
    for seed in [3, 11] {
        routed_churn(seed, 4);
    }
}

/// The headline property: instance `i` mallocs (SM pinning chooses
/// `i`), a lane pinned to an arbitrary instance `j` frees, and the
/// reservation comes back to zero — the free routed home purely by
/// pointer range.
#[test]
fn pointer_mallocd_on_i_freed_from_j_routes_home() {
    cases("pointer_mallocd_on_i_freed_from_j_routes_home", 64, |rng| {
        let (n, malloc_sm, free_sm) =
            (1 + rng.below(4) as usize, rng.below(8) as u32, rng.below(8) as u32);
        let (count, class_skew) = (1 + rng.below(32) as usize, rng.below(5) as usize);
        let pool = GallatinPool::new(n, GallatinConfig::small_test(HEAP));
        let wm = WarpCtx { warp_id: 0, sm_id: malloc_sm, base_tid: 0, active: count as u32 };
        let sizes: Vec<Option<u64>> =
            (0..count).map(|l| Some(16u64 << ((l + class_skew) % 5))).collect();
        let mut out = vec![DevicePtr::NULL; count];
        pool.warp_malloc(&wm, &sizes, &mut out);
        let home = malloc_sm as usize % n;
        for p in &out {
            assert!(!p.is_null());
            assert_eq!(
                (p.0 / pool.stride()) as usize,
                home,
                "a fresh pool serves from the home instance"
            );
        }
        assert_eq!(pool.total_spills(), 0);
        let wf = WarpCtx { warp_id: 1, sm_id: free_sm, base_tid: 1 << 20, active: count as u32 };
        pool.warp_free(&wf, &out);
        assert_eq!(
            pool.stats().reserved_bytes,
            0,
            "a free from instance {} must route to owner {}",
            free_sm as usize % n,
            home
        );
        pool.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    });
}

/// Exhaust instance 0 wholesale from SM 0 and overflow once; return the
/// spill counters and the trace export for replay comparison.
fn spill_run(seed: u64) -> (u64, u64, String) {
    let pool = Arc::new(GallatinPool::new(2, GallatinConfig::small_test(HEAP)));
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let export = trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(1).seeded(seed), 32, |warp| {
            let l = warp.lane(0);
            let seg = pool.instance(0).geometry().segment_bytes;
            // 16 segment-sized claims drain instance 0; the 17th must
            // come from instance 1.
            let held: Vec<_> = (0..17).map(|_| pool.malloc(&l, seg)).collect();
            assert!(held.iter().all(|p| !p.is_null()), "sibling must absorb the overflow");
            assert!(held[..16].iter().all(|p| p.0 < pool.stride()), "home serves first");
            assert!(held[16].0 >= pool.stride(), "the 17th allocation spilled");
            for p in held {
                pool.free(&l, p);
            }
        });
        pool.check_invariants().expect("clean after the spill round-trip");
        trace::chrome_trace_json(&sink.snapshot())
    });
    (pool.spill_count(0), pool.spill_count(1), export)
}

#[test]
fn spill_path_is_deterministic_and_instance_tagged() {
    let (home, sibling, a) = spill_run(5);
    assert_eq!((home, sibling), (1, 0), "exactly one spill, charged to the home instance");
    assert!(a.contains("\"instance\": 1"), "spilled events must carry the serving instance's tag");
    let (home2, _, b) = spill_run(5);
    assert_eq!(home2, 1);
    assert_eq!(a, b, "the spill schedule must replay byte-identically under one seed");
}

#[test]
fn global_allocator_can_be_a_pool() {
    assert!(!global_allocator_initialized());
    // 32 MB (two default segments) per instance.
    let shard = GallatinConfig { heap_bytes: 32 << 20, ..GallatinConfig::default() };
    let Ok(pool) = init_global(GallatinPool::new(2, shard)) else {
        panic!("first init in this process must succeed")
    };
    assert_eq!(pool.num_children(), 2);
    assert_eq!(global_allocator().heap_bytes(), 64 << 20);
    assert_eq!(global_allocator().name(), "GallatinPool");
    // Double init of either flavour reports what already won.
    let Err(err) = init_global(GallatinPool::new(4, shard)) else {
        panic!("a second init must fail")
    };
    assert_eq!(err.existing, "GallatinPool");
    let err = gallatin::global::init_global_allocator(16 << 20).unwrap_err();
    assert_eq!(err.existing, "GallatinPool");

    let ok = AtomicU64::new(0);
    launch(DeviceConfig::with_sms(4), 4096, |ctx| {
        let p = global_malloc(ctx, 48);
        assert!(!p.is_null());
        global_allocator().memory().write_stamp(p, ctx.global_tid());
        assert_eq!(global_allocator().memory().read_stamp(p), ctx.global_tid());
        global_free(ctx, p);
        ok.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ok.load(Ordering::Relaxed), 4096);
    assert_eq!(global_allocator().stats().reserved_bytes, 0);
    global_check_invariants().expect("pool-backed global consistent after the storm");
}
