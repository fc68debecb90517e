//! XMalloc (Huang et al.): warp-level request combining.
//!
//! XMalloc's signature idea is *coalescing at the memory-request level*:
//! allocations issued by the same warp in the same cycle are packed into
//! one combined superblock allocation with per-lane headers; one elected
//! lane performs the underlying allocation for everyone (paper §2
//! "XMalloc"). The backing store is a linked heap with tiers of free
//! buffers for common sizes.
//!
//! Port shape:
//!
//! * combined allocations are served from **two tiers** of lock-free LIFO
//!   free lists ([`crate::util::OffsetStack`]) threaded through the
//!   arena, refilled from a bump cursor — tier 1 is a small array of
//!   stacks hashed by warp (low contention, checked first; frees go
//!   here), tier 2 is one global stack per class (the overflow pool,
//!   checked when tier 1 misses), mirroring the original's two buffer
//!   tiers;
//! * [`XMalloc::warp_malloc`] packs the warp's requests into one combined
//!   block: a 16-byte combined header (live-lane refcount) plus, per
//!   lane, a 16-byte lane header recording the combined base;
//! * `free` decrements the combined refcount; the last lane returns the
//!   combined block to its size class — so one warp's allocations are
//!   physically adjacent and are recycled as a unit, exactly the
//!   behaviour that makes XMalloc fast on uniform warps and wasteful on
//!   divergent ones.

use crate::util::{align_up, OffsetStack};
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest combined-block class.
const MIN_CLASS_BYTES: u64 = 64;
/// Combined header: `[refcount u64][class u64]`.
const COMBINED_HEADER: u64 = 16;
/// Lane header: `[combined base u64][reserved u64]`.
const LANE_HEADER: u64 = 16;

/// Tier-1 stacks per class, hashed by warp id.
const TIER1_WAYS: usize = 16;

/// The XMalloc allocator.
pub struct XMalloc {
    mem: DeviceMemory,
    /// Tier 1: `TIER1_WAYS` warp-hashed free lists per class.
    tier1: Vec<[OffsetStack; TIER1_WAYS]>,
    /// Tier 2: one global overflow free list per class.
    stacks: Vec<OffsetStack>,
    bump: AtomicU64,
    reserved: AtomicU64,
    metrics: Metrics,
}

impl XMalloc {
    /// Build an instance over a fresh arena.
    pub fn new(heap_bytes: u64) -> Self {
        let heap_bytes = align_up(heap_bytes, 64);
        // Classes MIN_CLASS_BYTES..=next_power_of_two(heap).
        let classes = (heap_bytes.next_power_of_two().trailing_zeros()
            - MIN_CLASS_BYTES.trailing_zeros()
            + 1) as usize;
        XMalloc {
            mem: DeviceMemory::new(heap_bytes as usize),
            tier1: (0..classes).map(|_| std::array::from_fn(|_| OffsetStack::new())).collect(),
            stacks: (0..classes).map(|_| OffsetStack::new()).collect(),
            bump: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            metrics: Metrics::new(),
        }
    }

    #[inline]
    fn class_of(&self, combined: u64) -> usize {
        let rounded = combined.next_power_of_two().max(MIN_CLASS_BYTES);
        (rounded.trailing_zeros() - MIN_CLASS_BYTES.trailing_zeros()) as usize
    }

    #[inline]
    fn class_bytes(&self, class: usize) -> u64 {
        MIN_CLASS_BYTES << class
    }

    /// Get a combined block of at least `combined` bytes: tier-1 free
    /// list first, tier-2 second, bump third.
    fn get_combined(&self, warp_hash: u64, combined: u64) -> Option<(u64, usize)> {
        let class = self.class_of(combined);
        if class >= self.stacks.len() {
            return None;
        }
        let way = (warp_hash as usize) % TIER1_WAYS;
        if let Some(off) = self.tier1[class][way].pop(|o| self.mem.load_u64(o)) {
            self.metrics.count_cas(true);
            return Some((off, class));
        }
        if let Some(off) = self.stacks[class].pop(|o| self.mem.load_u64(o)) {
            self.metrics.count_cas(true);
            return Some((off, class));
        }
        let bytes = self.class_bytes(class);
        let off = self.bump.fetch_add(bytes, Ordering::Relaxed);
        self.metrics.count_rmw();
        if off + bytes <= self.mem.len() as u64 {
            Some((off, class))
        } else {
            // Bump exhausted. Try larger classes' free lists before
            // failing (simple escalation; no splitting).
            for c in class + 1..self.stacks.len() {
                if let Some(off) = self.stacks[c].pop(|o| self.mem.load_u64(o)) {
                    self.metrics.count_cas(true);
                    return Some((off, c));
                }
            }
            None
        }
    }

    /// Serve a batch of lane requests as one combined allocation.
    /// `sizes[i]` are the per-lane byte counts; returns per-lane pointers.
    fn combined_malloc(&self, warp_hash: u64, sizes: &[u64]) -> Vec<DevicePtr> {
        debug_assert!(!sizes.is_empty());
        let lane_spans: Vec<u64> = sizes.iter().map(|&s| LANE_HEADER + align_up(s, 16)).collect();
        let payload: u64 = lane_spans.iter().sum();
        let combined = COMBINED_HEADER + payload;
        let Some((base, class)) = self.get_combined(warp_hash, combined) else {
            for _ in sizes {
                self.metrics.count_malloc(false);
            }
            return vec![DevicePtr::NULL; sizes.len()];
        };
        // Combined header: refcount = number of lanes; class + tier-1
        // way (chosen at allocation) packed for the freeing side.
        self.mem.store_u64(base, sizes.len() as u64);
        let way = (warp_hash as usize % TIER1_WAYS) as u64;
        self.mem.store_u64(base + 8, (way << 32) | class as u64);
        self.reserved.fetch_add(self.class_bytes(class), Ordering::Relaxed);
        let mut out = Vec::with_capacity(sizes.len());
        let mut cursor = base + COMBINED_HEADER;
        for &span in &lane_spans {
            self.mem.store_u64(cursor, base);
            out.push(DevicePtr(cursor + LANE_HEADER));
            cursor += span;
            self.metrics.count_malloc(true);
        }
        self.metrics.count_coalesced(sizes.len() as u64 - 1);
        out
    }
}

impl DeviceAllocator for XMalloc {
    fn name(&self) -> &str {
        "XMalloc"
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, _ctx: &LaneCtx, size: u64) -> DevicePtr {
        // Zero-size requests are valid (the `DeviceAllocator::malloc`
        // contract): the lane header alone makes the pointer unique.
        self.combined_malloc(_ctx.warp.warp_id, &[size])[0]
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        if ptr.is_null() {
            return;
        }
        self.metrics.count_free();
        let base = self.mem.load_u64(ptr.0 - LANE_HEADER);
        let remaining = self.mem.atomic_u64(base).fetch_sub(1, Ordering::AcqRel);
        self.metrics.count_rmw();
        assert!(remaining >= 1, "combined-block refcount underflow (double free?)");
        if remaining == 1 {
            // Last lane: recycle the combined block into its tier-1 way
            // (the original's fast buffer; tier 2 fills via bump misses).
            let word = self.mem.load_u64(base + 8);
            let class = (word & 0xffff_ffff) as usize;
            let way = (word >> 32) as usize % TIER1_WAYS;
            self.reserved.fetch_sub(self.class_bytes(class), Ordering::Relaxed);
            self.tier1[class][way].push(base, |o, n| self.mem.store_u64(o, n));
            self.metrics.count_cas(true);
        }
    }

    /// The defining XMalloc move: all requesting lanes of the warp share
    /// one combined allocation.
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        debug_assert_eq!(sizes.len(), warp.active as usize);
        let lanes: Vec<usize> = warp.lanes().filter(|&l| sizes[l].is_some()).collect();
        for p in out.iter_mut() {
            *p = DevicePtr::NULL;
        }
        if lanes.is_empty() {
            return;
        }
        let req: Vec<u64> = lanes.iter().map(|&l| sizes[l].unwrap()).collect();
        let ptrs = self.combined_malloc(warp.warp_id, &req);
        for (&lane, ptr) in lanes.iter().zip(ptrs) {
            out[lane] = ptr;
        }
    }

    fn reset(&self) {
        for ways in &self.tier1 {
            for s in ways {
                s.clear();
            }
        }
        for s in &self.stacks {
            s.clear();
        }
        self.bump.store(0, Ordering::Relaxed);
        self.reserved.store(0, Ordering::Relaxed);
        self.metrics.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.mem.len() as u64
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn stats(&self) -> AllocStats {
        AllocStats::leaf(self.mem.len() as u64, self.reserved.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch_warps, DeviceConfig};

    fn warp_of(n: u32) -> WarpCtx {
        WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: n }
    }

    #[test]
    fn warp_requests_share_one_combined_block() {
        let a = XMalloc::new(1 << 20);
        let warp = warp_of(8);
        let sizes = vec![Some(64u64); 8];
        let mut out = vec![DevicePtr::NULL; 8];
        a.warp_malloc(&warp, &sizes, &mut out);
        assert!(out.iter().all(|p| !p.is_null()));
        // All eight live in one combined region: same recorded base.
        let bases: Vec<u64> = out.iter().map(|p| a.mem.load_u64(p.0 - LANE_HEADER)).collect();
        assert!(bases.windows(2).all(|w| w[0] == w[1]));
        // Payloads are disjoint.
        for w in out.windows(2) {
            assert!(w[1].0 - w[0].0 >= 64 + LANE_HEADER);
        }
        a.warp_free(&warp, &out);
        assert_eq!(a.stats().reserved_bytes, 0);
    }

    #[test]
    fn combined_block_recycles_after_last_free() {
        let a = XMalloc::new(1 << 20);
        let warp = warp_of(4);
        let sizes = vec![Some(32u64); 4];
        let mut out = vec![DevicePtr::NULL; 4];
        a.warp_malloc(&warp, &sizes, &mut out);
        let base = a.mem.load_u64(out[0].0 - LANE_HEADER);
        // Free all but one: block must not recycle yet.
        for p in &out[..3] {
            a.free(&warp.lane(0), *p);
        }
        let mut out2 = vec![DevicePtr::NULL; 4];
        a.warp_malloc(&warp, &sizes, &mut out2);
        let base2 = a.mem.load_u64(out2[0].0 - LANE_HEADER);
        assert_ne!(base, base2, "block recycled while a lane was live");
        a.free(&warp.lane(0), out[3]);
        // Now the original block is on the free list and is reused.
        let mut out3 = vec![DevicePtr::NULL; 4];
        a.warp_malloc(&warp, &sizes, &mut out3);
        let base3 = a.mem.load_u64(out3[0].0 - LANE_HEADER);
        assert_eq!(base3, base, "freed combined block must be reused");
    }

    #[test]
    fn scalar_path_is_a_one_lane_combination() {
        let a = XMalloc::new(1 << 16);
        let warp = warp_of(1);
        let l = warp.lane(0);
        let p = a.malloc(&l, 100);
        assert!(!p.is_null());
        a.mem.write_stamp(p, 77);
        assert_eq!(a.mem.read_stamp(p), 77);
        a.free(&l, p);
        assert_eq!(a.stats().reserved_bytes, 0);
    }

    #[test]
    fn zero_allocates_and_oversize_fails() {
        let a = XMalloc::new(1 << 16);
        let warp = warp_of(1);
        let l = warp.lane(0);
        // Zero-size requests succeed with a unique lane slot.
        let x = a.malloc(&l, 0);
        let y = a.malloc(&l, 0);
        assert!(!x.is_null() && !y.is_null());
        assert_ne!(x.0, y.0);
        a.free(&l, x);
        a.free(&l, y);
        assert!(a.malloc(&l, 1 << 20).is_null());
    }

    #[test]
    fn exhaustion_then_recycling() {
        let a = XMalloc::new(1 << 14);
        let warp = warp_of(1);
        let l = warp.lane(0);
        let mut live = Vec::new();
        loop {
            let p = a.malloc(&l, 1024);
            if p.is_null() {
                break;
            }
            live.push(p);
        }
        assert!(live.len() >= 4);
        for p in &live {
            a.free(&l, *p);
        }
        assert!(!a.malloc(&l, 1024).is_null(), "free lists must serve after exhaustion");
    }

    #[test]
    fn concurrent_warps_do_not_overlap() {
        let a = XMalloc::new(8 << 20);
        launch_warps(DeviceConfig::with_sms(8), 1024, |warp| {
            let n = warp.active as usize;
            let sizes: Vec<Option<u64>> =
                (0..n).map(|l| Some(16 + (warp.base_tid + l as u64) % 128)).collect();
            let mut out = vec![DevicePtr::NULL; n];
            for round in 0..4u64 {
                a.warp_malloc(warp, &sizes, &mut out);
                for (l, p) in out.iter().enumerate() {
                    if !p.is_null() {
                        a.memory().write_stamp(*p, warp.base_tid + l as u64 + round);
                    }
                }
                for (l, p) in out.iter().enumerate() {
                    if !p.is_null() {
                        assert_eq!(a.memory().read_stamp(*p), warp.base_tid + l as u64 + round);
                    }
                }
                a.warp_free(warp, &out);
            }
        });
        assert_eq!(a.stats().reserved_bytes, 0);
    }

    #[test]
    fn reset_restores_bump_and_lists() {
        let a = XMalloc::new(1 << 16);
        let warp = warp_of(1);
        a.malloc(&warp.lane(0), 512);
        a.reset();
        assert_eq!(a.stats().reserved_bytes, 0);
        assert!(!a.malloc(&warp.lane(0), 512).is_null());
    }
}
