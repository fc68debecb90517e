//! Property-based model test: an arbitrary sequence of malloc/free
//! operations against Gallatin must maintain the allocator contract —
//! every live allocation occupies a range disjoint from all other live
//! allocations and inside the heap, and frees return capacity.

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{cases, DeviceAllocator, DevicePtr, SplitMix64, WarpCtx};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    /// Allocate `size` bytes (index into a size menu).
    Malloc(u8),
    /// Free the i-th oldest live allocation (modulo live count).
    Free(u16),
}

fn op(rng: &mut SplitMix64) -> Op {
    match rng.below(2) {
        0 => Op::Malloc(rng.below(13) as u8),
        _ => Op::Free(rng.below(1024) as u16),
    }
}

/// The size menu spans all three pipelines of the small-test geometry
/// (64 KB segments, 16–256 B slices, 1–16 KB blocks, multi-segment),
/// plus the zero-size edge case (a valid minimum-slice request per the
/// `DeviceAllocator::malloc` contract).
fn menu(idx: u8) -> u64 {
    match idx {
        0 => 0,
        1 => 1,
        2 => 16,
        3 => 17,
        4 => 100,
        5 => 256,      // largest slice
        6 => 257,      // smallest block class
        7 => 1024,     // one block
        8 => 5000,     // mid block
        9 => 16 << 10, // largest block / rounding edge
        10 => (16 << 10) + 1,
        11 => 64 << 10,  // exactly one segment
        12 => 100 << 10, // two segments
        _ => unreachable!(),
    }
}

/// Internal footprint upper bound for overlap checking: what the
/// allocator may reserve for a request (its size-class rounding).
fn rounded(size: u64, geo: &gallatin::Geometry) -> u64 {
    let size = size.max(1); // zero-size requests take a minimum slice
    if let Some(c) = geo.slice_class(size) {
        geo.slice_size(c)
    } else if let Some(c) = geo.block_class(size) {
        geo.block_size(c)
    } else {
        geo.segments_for(size) * geo.segment_bytes
    }
}

#[test]
fn live_allocations_stay_disjoint() {
    cases("live_allocations_stay_disjoint", 48, |rng| {
        let ops: Vec<Op> = (0..1 + rng.below(299)).map(|_| op(rng)).collect();
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let geo = *g.geometry();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let lane = warp.lane(0);

        // Live set: start offset -> (rounded length, requested size).
        let mut live: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                Op::Malloc(i) => {
                    let size = menu(i);
                    let p = g.malloc(&lane, size);
                    if p.is_null() {
                        continue; // exhaustion is legal
                    }
                    let len = rounded(size, &geo);
                    assert!(p.0 + size <= g.heap_bytes(), "out of heap");
                    // Disjoint from every live range (by internal
                    // footprint, which is what the allocator reserves).
                    if let Some((&prev_start, &(prev_len, _))) = live.range(..=p.0).next_back() {
                        assert!(
                            prev_start + prev_len <= p.0,
                            "overlaps predecessor: new [{}, +{len}) vs [{prev_start}, +{prev_len})",
                            p.0
                        );
                    }
                    if let Some((&next_start, _)) = live.range(p.0 + 1..).next() {
                        assert!(
                            p.0 + len <= next_start,
                            "overlaps successor: new [{}, +{len}) vs {next_start}",
                            p.0
                        );
                    }
                    live.insert(p.0, (len, size));
                    order.push(p.0);
                }
                Op::Free(i) => {
                    if order.is_empty() {
                        continue;
                    }
                    let idx = (i as usize) % order.len();
                    let off = order.swap_remove(idx);
                    live.remove(&off);
                    g.free(&lane, DevicePtr(off));
                }
            }
        }

        // Drain and verify the allocator recovers everything except the
        // "wavefront": blocks cached in the per-SM buffers pin at most
        // one segment per slice class even when every payload is freed —
        // the utilization cost the paper attributes to the block buffer
        // (§6.11). All pinned segments sit at the front of the heap.
        for off in order {
            g.free(&lane, DevicePtr(off));
        }
        assert_eq!(g.stats().reserved_bytes, 0);
        g.check_invariants().unwrap_or_else(|e| panic!("{e}"));
        let wavefront = geo.num_classes as u64 * geo.segment_bytes;
        let p = g.malloc(&lane, g.heap_bytes() - wavefront);
        assert!(!p.is_null(), "heap minus wavefront must be allocatable after drain");
        g.free(&lane, p);
        // After a reset even the wavefront is released.
        g.reset();
        let p = g.malloc(&lane, g.heap_bytes());
        assert!(!p.is_null(), "whole heap must be allocatable after reset");
        g.free(&lane, p);
        g.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    });
}

#[test]
fn payloads_never_alias() {
    cases("payloads_never_alias", 48, |rng| {
        let ops: Vec<(u8, bool)> = (0..1 + rng.below(199))
            .map(|_| (rng.below(13) as u8, rng.next_u64() & 1 == 1))
            .collect();
        // Write a unique stamp into every live allocation after each
        // operation batch; a clobbered stamp means aliasing.
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let lane = warp.lane(0);
        let mut live: Vec<(DevicePtr, u64)> = Vec::new();
        let mut stamp = 0u64;

        for (i, do_free) in ops {
            if do_free && !live.is_empty() {
                let (p, _) = live.swap_remove((i as usize) % live.len());
                g.free(&lane, p);
            } else {
                let p = g.malloc(&lane, menu(i).max(8));
                if !p.is_null() {
                    stamp += 1;
                    g.memory().write_stamp(p, stamp);
                    live.push((p, stamp));
                }
            }
            for &(p, s) in &live {
                assert_eq!(g.memory().read_stamp(p), s, "stamp clobbered");
            }
        }
        for (p, _) in live {
            g.free(&lane, p);
        }
        g.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    });
}

/// A once-recorded failing input (`ops = [Malloc(0)]`) kept as an
/// explicit case: a zero-size allocation returns a valid, unique,
/// freeable pointer and leaves the heap consistent.
#[test]
fn regression_single_zero_size_malloc() {
    let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = warp.lane(0);
    let p = g.malloc(&lane, 0);
    let q = g.malloc(&lane, 0);
    assert!(!p.is_null() && !q.is_null(), "malloc(0) must succeed");
    assert_ne!(p.0, q.0, "zero-size allocations must be unique");
    g.free(&lane, p);
    g.free(&lane, q);
    assert_eq!(g.stats().reserved_bytes, 0);
    g.check_invariants().unwrap();
}
