//! Integration tests for Gallatin's three pipelines interacting: slices,
//! whole blocks, and multi-segment allocations sharing one heap, plus
//! segment reclamation and cross-class reuse.

use gallatin::{DevicePool, Gallatin, GallatinConfig};
use gpu_sim::{launch, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn host_lane_call<R>(f: impl FnOnce(&gpu_sim::LaneCtx) -> R) -> R {
    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    f(&warp.lane(0))
}

#[test]
fn all_three_pipelines_share_one_heap() {
    // Default geometry: 16 MB segments, slices 16..4096, blocks 64K..16M.
    let g = Gallatin::new(GallatinConfig { heap_bytes: 256 << 20, ..Default::default() });
    host_lane_call(|l| {
        let slice = g.malloc(l, 100); // slice pipeline (rounds to 128)
        let block = g.malloc(l, 100 << 10); // block pipeline (128 KB block)
        let large = g.malloc(l, 40 << 20); // 3 segments from the back
        assert!(!slice.is_null() && !block.is_null() && !large.is_null());

        // Small from the front, large from the back of the heap.
        assert!(slice.0 < 32 << 20);
        assert!(large.0 >= (256 - 48) << 20);

        // All three payloads are live and disjoint.
        g.memory().write_stamp(slice, 1);
        g.memory().write_stamp(block, 2);
        g.memory().write_stamp(large, 3);
        assert_eq!(g.memory().read_stamp(slice), 1);
        assert_eq!(g.memory().read_stamp(block), 2);
        assert_eq!(g.memory().read_stamp(large), 3);

        g.free(l, slice);
        g.free(l, block);
        g.free(l, large);
        assert_eq!(g.stats().reserved_bytes, 0);
    });
    g.check_invariants().expect("invariants violated after mixed-pipeline round");
}

#[test]
fn segments_recycle_across_classes() {
    // Small heap: 4 segments. Fill with one class, free, then fill with
    // another class — the same segments must be reformatted.
    let g = Gallatin::new(GallatinConfig::small_test(256 << 10));
    host_lane_call(|l| {
        let mut ptrs = Vec::new();
        loop {
            let p = g.malloc(l, 16);
            if p.is_null() {
                break;
            }
            ptrs.push(p);
        }
        assert!(!ptrs.is_empty());
        for p in ptrs.drain(..) {
            g.free(l, p);
        }
        assert_eq!(g.free_segments(), 4, "all segments reclaimed");
        // Now the other extreme: whole-heap allocation.
        let big = g.malloc(l, 256 << 10);
        assert!(!big.is_null(), "reformat-to-large failed");
        g.free(l, big);
    });
    g.check_invariants().expect("invariants violated after cross-class recycling");
}

#[test]
fn concurrent_mixed_pipeline_storm() {
    let g = Gallatin::new(GallatinConfig { heap_bytes: 256 << 20, ..Default::default() });
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(16), 2048, |warp| {
        for lane in warp.lanes() {
            let l = warp.lane(lane);
            let tid = l.global_tid();
            let size = match tid % 7 {
                0..=3 => 16 << (tid % 9), // slices
                4 | 5 => 64 << 10,        // whole blocks
                _ => 17 << 20,            // 2 segments
            };
            let p = g.malloc(&l, size);
            if p.is_null() {
                continue; // transient exhaustion on the large path is ok
            }
            g.memory().write_stamp(p, tid ^ 0x5eed);
            if g.memory().read_stamp(p) != tid ^ 0x5eed {
                corrupt.fetch_add(1, Ordering::Relaxed);
            }
            g.free(&l, p);
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0);
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().expect("invariants violated after mixed-pipeline storm");
}

#[test]
fn small_heap_storm_replays_the_recorded_trajectory() {
    // The storm above on a 256-segment heap (4 leaf words per tree),
    // under the deterministic scheduler: per warp, slices of every class,
    // whole blocks, and one 2-segment request from the back. The counts
    // are what PR 26's parent measured under each of its three search
    // budgets (the climb, a 64-word leaf scan, the flat scan), all equal:
    // how a search reads the tree must never move what it finds, so a
    // later search change has to replay them to the atomic.
    // (seed, atomic_rmw, cas_attempts, reclaim_attempts)
    for (seed, rmw, cas, reclaims) in [(3u64, 358, 209, 18), (104, 359, 209, 17)] {
        let g = Gallatin::new(GallatinConfig::small_test(16 << 20));
        let corrupt = AtomicU64::new(0);
        launch_warps(DeviceConfig::with_sms(4).seeded(seed), 256, |warp| {
            for lane in warp.lanes() {
                let l = warp.lane(lane);
                let tid = l.global_tid();
                let size = match lane {
                    0 => 100 << 10,               // 2 segments
                    1..=8 => 1 << (10 + tid % 5), // whole blocks, every class
                    _ => 16 << (tid % 5),         // slices, every class
                };
                let p = g.malloc(&l, size);
                if p.is_null() {
                    continue; // counted in failed_mallocs below
                }
                g.memory().write_stamp(p, tid ^ 0x5eed);
                if g.memory().read_stamp(p) != tid ^ 0x5eed {
                    corrupt.fetch_add(1, Ordering::Relaxed);
                }
                g.free(&l, p);
            }
        });
        assert_eq!(corrupt.load(Ordering::Relaxed), 0, "seed {seed}");
        assert_eq!(g.stats().reserved_bytes, 0, "seed {seed}");
        g.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let m = g.metrics().expect("Gallatin counts").snapshot();
        assert_eq!((m.mallocs, m.frees, m.failed_mallocs), (256, 256, 0), "seed {seed}");
        assert_eq!(
            (m.atomic_rmw, m.cas_attempts, m.reclaim_attempts),
            (rmw, cas, reclaims),
            "seed {seed}: the storm left its recorded trajectory"
        );
    }
}

#[test]
fn pool_storm_replays_the_recorded_trajectory() {
    // The storm above through two routing levels, under the deterministic
    // scheduler: a `DevicePool` of 2 devices × 3 instances (16 segments
    // each), every warp two collective mallocs held across each other,
    // then two collective frees. Each warp has idle lanes, one oversize
    // lane and one 2-segment lane; SM 0's warps fill the rest with whole
    // 16 KiB blocks, so their home instance overflows into its siblings
    // and device 0 into device 1, while the other SMs draw blocks and
    // slices of every class. The counts are what commit 3ce2129 measured:
    // how a level hands a warp to its children must never move what the
    // children do, so a routing change has to replay them to the atomic.
    // A lane a leaf denies counts there as a failed malloc and tries the
    // next child. (seed, summed over the six leaves [mallocs, frees,
    // failed, atomic_rmw, cas_attempts], [in-device spills, cross-device
    // spills, oversize denials])
    for (seed, counts, routing) in [
        (3u64, [1166, 861, 305, 630, 265], [132, 39, 32]),
        (104, [1347, 833, 514, 609, 254], [116, 54, 32]),
    ] {
        let t = DevicePool::new(2, 3, GallatinConfig::small_test(1 << 20));
        let oversize = t.stride() + 1;
        let corrupt = AtomicU64::new(0);
        launch_warps(DeviceConfig::with_sms(4).seeded(seed), 16 * 32, |warp| {
            let size = |lane: usize| {
                let tid = warp.base_tid + lane as u64;
                match lane {
                    _ if lane % 8 == 7 => None, // idle
                    0 => Some(oversize),
                    1 => Some(100 << 10), // 2 segments
                    _ if warp.sm_id == 0 => Some(16 << 10),
                    2..=8 => Some(1 << (10 + tid % 5)), // whole blocks, every class
                    _ => Some(16 << (tid % 5)),         // slices, every class
                }
            };
            let sizes: Vec<Option<u64>> = warp.lanes().map(size).collect();
            let held: Vec<Vec<DevicePtr>> = (0..2)
                .map(|_| {
                    let mut out = vec![DevicePtr::NULL; sizes.len()];
                    t.warp_malloc(warp, &sizes, &mut out);
                    out
                })
                .collect();
            for (round, out) in held.iter().enumerate() {
                for (lane, &p) in out.iter().enumerate().filter(|(_, p)| !p.is_null()) {
                    let stamp = (warp.base_tid + lane as u64) << 1 | round as u64;
                    t.memory().write_stamp(p, stamp);
                    if t.memory().read_stamp(p) != stamp {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            for out in &held {
                t.warp_free(warp, out);
            }
        });
        assert_eq!(corrupt.load(Ordering::Relaxed), 0, "seed {seed}");
        assert_eq!(t.stats().reserved_bytes, 0, "seed {seed}");
        t.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let leaves = (0..6).map(|k| t.pool(k / 3).instance(k % 3).metrics().unwrap().snapshot());
        let m = leaves.fold([0u64; 5], |sum, m| {
            let leaf = [m.mallocs, m.frees, m.failed_mallocs, m.atomic_rmw, m.cas_attempts];
            std::array::from_fn(|k| sum[k] + leaf[k])
        });
        assert_eq!(m, counts, "seed {seed}: the storm left its recorded trajectory");
        let s = t.topo_stats();
        let denied = s.devices.iter().map(|d| d.oversize_denials).sum::<u64>();
        assert_eq!([s.in_device_spills, s.cross_spills, denied], routing, "seed {seed}");
    }
}

#[test]
fn slice_blocks_fully_recycle_under_churn() {
    // Repeatedly allocate and free entire blocks' worth of slices; the
    // allocator must sustain this indefinitely within a small heap.
    let g = Gallatin::new(GallatinConfig::small_test(128 << 10)); // 2 segments
    let spb = g.geometry().slices_per_block;
    for _round in 0..50 {
        let ptrs = Mutex::new(Vec::new());
        let failed = AtomicU64::new(0);
        launch(DeviceConfig::with_sms(4), spb, |l| {
            let p = g.malloc(l, 16);
            if p.is_null() {
                failed.fetch_add(1, Ordering::Relaxed);
            } else {
                ptrs.lock().unwrap().push(p.0);
            }
        });
        assert_eq!(failed.load(Ordering::Relaxed), 0, "churn exhausted the heap");
        let v = ptrs.into_inner().unwrap();
        launch(DeviceConfig::with_sms(4), v.len() as u64, |l| {
            g.free(l, DevicePtr(v[l.global_tid() as usize]));
        });
    }
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().expect("invariants violated after slice churn");
}

#[test]
fn interleaved_large_and_small_never_overlap() {
    let g = Gallatin::new(GallatinConfig { heap_bytes: 128 << 20, ..Default::default() });
    // One task churns multi-segment allocations; others churn slices.
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(8), 512, |warp| {
        for lane in warp.lanes() {
            let l = warp.lane(lane);
            let tid = l.global_tid();
            if tid % 64 == 0 {
                let p = g.malloc(&l, 20 << 20); // 2 segments
                if !p.is_null() {
                    g.memory().write_stamp(p, tid);
                    g.memory().write_stamp(p.offset((20 << 20) - 8), tid);
                    if g.memory().read_stamp(p) != tid {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    g.free(&l, p);
                }
            } else {
                for _ in 0..20 {
                    let p = g.malloc(&l, 64);
                    if !p.is_null() {
                        g.memory().write_stamp(p, tid);
                        if g.memory().read_stamp(p) != tid {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        g.free(&l, p);
                    }
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0);
    g.check_invariants().expect("invariants violated after large/small interleave");
}

#[test]
fn geometry_inverse_mapping_on_live_allocations() {
    // Every returned pointer must map back to the segment/block/slice it
    // came from — the invariant `free` relies on (paper §5).
    let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
    let geo = *g.geometry();
    host_lane_call(|l| {
        for size in [16u64, 32, 64, 128, 256] {
            let p = g.malloc(l, size);
            assert!(!p.is_null());
            let class = geo.slice_class(size).unwrap();
            let seg = geo.segment_of(p.0);
            let block = geo.block_of(p.0, class);
            let slice = geo.slice_of(p.0, class);
            assert_eq!(geo.offset_of(seg, block, slice, class), p.0);
            assert_eq!(p.0 % geo.slice_size(class), 0, "slice alignment");
            g.free(l, p);
        }
    });
    g.check_invariants().expect("invariants violated after inverse-mapping walk");
}
