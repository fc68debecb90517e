//! Device-level routing in the hierarchical topology pool (ISSUE 10
//! acceptance), mirroring `pool_routing.rs` one layer up:
//!
//! * property: a pointer malloc'd on device `i` (SM affinity chooses
//!   `i`, and the instance within it) and freed from a lane pinned to
//!   an arbitrary device `j` routes home through the `(device,
//!   instance)` tables, for arbitrary `(devices × width × SM × size
//!   class)` combinations — the pointer→device→instance round-trip;
//! * seeded sweep: churn with rotated cross-device frees shows zero
//!   leaks and zero double frees in the lifecycle ledger across
//!   `GALLATIN_TOPO_SEEDS` deterministic schedule seeds (default 16;
//!   CI quick uses 4);
//! * spill regression: exhausting a whole device crosses the
//!   interconnect deterministically, the spilled events carry the peer
//!   device's tag, and the trace replays byte-identically under the
//!   same seed;
//! * the global allocator can be topology-backed
//!   (`init_global`), exercised here because this
//!   integration binary is its own process.

use gallatin::global::{
    global_allocator, global_allocator_initialized, global_check_invariants, global_free,
    global_malloc, init_global,
};
use gallatin::{DevicePool, GallatinConfig};
use gpu_sim::ledger::Ledger;
use gpu_sim::sched::seed_count;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{cases, launch, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const HEAP: u64 = 1 << 20; // per instance: 16 small_test segments
const WARPS: u64 = 8;

/// Seed sweep width, overridable by `GALLATIN_TOPO_SEEDS` (the CI quick
/// lane sets 4).
fn topo_seeds() -> u64 {
    seed_count("GALLATIN_TOPO_SEEDS", 16)
}

/// One seeded round: every warp mallocs a mixed batch on its affinity
/// device, then a second kernel frees each warp's batch from the *next*
/// warp — one SM over, hence (for multi-device topologies) routinely
/// one device over. The armed ledger proves every free found its owner.
fn routed_churn(seed: u64, devices: u32, width: usize) {
    let pool = Arc::new(DevicePool::new(devices, width, GallatinConfig::small_test(HEAP)));
    let num_sms = devices * width as u32;
    let device_bytes = pool.stride() * width as u64;
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    trace::with_sink(sink.clone(), || {
        // (malloc home device, batch) per warp, for the rotated pass.
        let slots: Vec<Mutex<(usize, Vec<DevicePtr>)>> =
            (0..WARPS).map(|_| Mutex::new((0, Vec::new()))).collect();
        launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed), WARPS * 32, |warp| {
            let k = warp.active as usize;
            let sizes: Vec<Option<u64>> =
                (0..k).map(|l| Some(16u64 << ((warp.base_tid as usize + l) % 4))).collect();
            let mut out = vec![DevicePtr::NULL; k];
            pool.warp_malloc(warp, &sizes, &mut out);
            let home = warp.sm_id as usize % devices as usize;
            for p in &out {
                assert!(!p.is_null(), "per-device heap must not exhaust");
                assert_eq!(
                    (p.0 / device_bytes) as usize,
                    home,
                    "an uncontended topology places on the affinity device"
                );
            }
            *slots[warp.warp_id as usize].lock().unwrap() = (home, out);
        });
        assert_eq!(pool.total_spills(), 0, "this workload fits every home device");
        // Rotated frees: warp w returns warp (w+1)'s batch.
        let cross = AtomicU64::new(0);
        launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed ^ 0x5eed), WARPS * 32, |warp| {
            let victim = ((warp.warp_id + 1) % WARPS) as usize;
            let (owner_home, ptrs) = slots[victim].lock().unwrap().clone();
            if warp.sm_id as usize % devices as usize != owner_home {
                cross.fetch_add(1, Ordering::Relaxed);
            }
            pool.warp_free(warp, &ptrs);
        });
        if devices > 1 {
            assert!(
                cross.load(Ordering::Relaxed) > 0,
                "rotation must exercise the cross-device path"
            );
            let peer = pool.metrics().unwrap().snapshot().peer_accesses;
            assert!(peer > 0, "peer frees must be classified");
        }
        assert_eq!(pool.stats().reserved_bytes, 0, "every routed free reached its owner");
        let ledger = Ledger::build(&sink.snapshot());
        assert!(ledger.live.is_empty(), "seed {seed}: cross-device leaks: {:?}", ledger.live);
        assert!(
            ledger.unmatched_frees.is_empty(),
            "seed {seed}: mis-routed frees: {:?}",
            ledger.unmatched_frees
        );
        pool.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

#[test]
fn cross_device_frees_route_home_across_seeds() {
    for seed in 0..topo_seeds() {
        routed_churn(seed, 2, 2);
    }
}

#[test]
fn wider_topologies_route_the_same_way() {
    for seed in [3, 11] {
        routed_churn(seed, 4, 2);
        routed_churn(seed, 3, 1);
    }
}

/// The headline property: SM affinity picks device `i` and instance
/// `i'` within it; a warp on an arbitrary other SM frees; the
/// reservation comes back to zero — the free routed home purely by
/// the pointer→device→instance tables.
#[test]
fn pointer_mallocd_on_device_i_freed_from_j_routes_home() {
    cases("pointer_mallocd_on_device_i_freed_from_j_routes_home", 64, |rng| {
        let (devices, width) = (1 + rng.below(4) as u32, 1 + rng.below(2) as usize);
        let (malloc_sm, free_sm) = (rng.below(8) as u32, rng.below(8) as u32);
        let (count, class_skew) = (1 + rng.below(32) as usize, rng.below(5) as usize);
        let pool = DevicePool::new(devices, width, GallatinConfig::small_test(HEAP));
        let device_bytes = pool.stride() * width as u64;
        let seg_bytes = pool.pool(0).instance(0).geometry().segment_bytes;
        let wm = WarpCtx { warp_id: 0, sm_id: malloc_sm, base_tid: 0, active: count as u32 };
        let sizes: Vec<Option<u64>> =
            (0..count).map(|l| Some(16u64 << ((l + class_skew) % 5))).collect();
        let mut out = vec![DevicePtr::NULL; count];
        pool.warp_malloc(&wm, &sizes, &mut out);
        let home_dev = malloc_sm as usize % devices as usize;
        let home_inst = malloc_sm as usize % width;
        for p in &out {
            assert!(!p.is_null());
            // Pointer → physical device → instance round-trip: the
            // flat instance index decomposes as device × width + local.
            assert_eq!(
                (p.0 / device_bytes) as usize,
                home_dev,
                "a fresh topology serves from the affinity device"
            );
            assert_eq!(
                (p.0 / pool.stride()) as usize,
                home_dev * width + home_inst,
                "…and from the affinity instance within it"
            );
            // The routing table agrees with the physical placement
            // (no donations have moved anything yet).
            assert_eq!(pool.owner_of_segment(p.0 / seg_bytes), Some(home_dev));
        }
        assert_eq!(pool.total_spills(), 0);
        let wf = WarpCtx { warp_id: 1, sm_id: free_sm, base_tid: 1 << 20, active: count as u32 };
        pool.warp_free(&wf, &out);
        assert_eq!(
            pool.stats().reserved_bytes,
            0,
            "a free from device {} must route to owner {}",
            free_sm as usize % devices as usize,
            home_dev
        );
        pool.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    });
}

/// Exhaust device 0 wholesale from SM 0 and overflow once; return the
/// cross-spill counters and the trace export for replay comparison.
fn spill_run(seed: u64) -> (u64, u64, String) {
    let pool = Arc::new(DevicePool::new(2, 1, GallatinConfig::small_test(HEAP)));
    let device_bytes = pool.stride();
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let export = trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(1).seeded(seed), 32, |warp| {
            let l = warp.lane(0);
            let seg = pool.pool(0).instance(0).geometry().segment_bytes;
            // 16 segment-sized claims drain device 0 (width 1); the
            // 17th must cross the interconnect.
            let held: Vec<_> = (0..17).map(|_| pool.malloc(&l, seg)).collect();
            assert!(held.iter().all(|p| !p.is_null()), "the peer must absorb the overflow");
            assert!(held[..16].iter().all(|p| p.0 < device_bytes), "home device serves first");
            assert!(held[16].0 >= device_bytes, "the 17th allocation crossed devices");
            for p in held {
                pool.free(&l, p);
            }
        });
        pool.check_invariants().expect("clean after the cross-device round-trip");
        trace::chrome_trace_json(&sink.snapshot())
    });
    (pool.spill_count(0), pool.spill_count(1), export)
}

#[test]
fn cross_device_spill_is_deterministic_and_device_tagged() {
    let (home, peer, a) = spill_run(5);
    assert_eq!((home, peer), (1, 0), "exactly one cross spill, charged to the home device");
    assert!(a.contains("\"device\": 1"), "spilled events must carry the serving device's tag");
    let (home2, _, b) = spill_run(5);
    assert_eq!(home2, 1);
    assert_eq!(a, b, "the cross-device spill must replay byte-identically under one seed");
}

#[test]
fn global_allocator_can_be_a_device_pool() {
    assert!(!global_allocator_initialized());
    // 16 MB (one default segment) per instance.
    let shard = GallatinConfig { heap_bytes: 16 << 20, ..GallatinConfig::default() };
    let Ok(pool) = init_global(DevicePool::new(2, 2, shard)) else {
        panic!("first init in this process must succeed")
    };
    assert_eq!((pool.devices(), pool.width()), (2, 2));
    assert_eq!(global_allocator().heap_bytes(), 64 << 20);
    assert_eq!(global_allocator().name(), "DevicePool");
    // Double init of any flavour reports what already won.
    let Err(err) = init_global(DevicePool::new(4, 1, shard)) else {
        panic!("a second init must fail")
    };
    assert_eq!(err.existing, "DevicePool");
    let err = gallatin::global::init_global_allocator(64 << 20).unwrap_err();
    assert_eq!(err.existing, "DevicePool");

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
    global_check_invariants().expect("topology-backed global consistent after the storm");
    // Same-lane malloc/free is all-local traffic — affinity routing
    // keeps a self-contained storm off the interconnect entirely.
    let s = pool.metrics().unwrap().snapshot();
    assert!(s.local_accesses > 0);
    assert_eq!(s.peer_accesses, 0, "a same-lane storm never crosses the interconnect");
}
