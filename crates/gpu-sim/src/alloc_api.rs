//! The common device-allocator interface.
//!
//! Every allocator in this workspace — Gallatin and all survey baselines —
//! implements [`DeviceAllocator`], so the benchmark harness can run the
//! identical kernels over each of them, as the Winter et al. survey
//! testbed does with its uniform malloc/free interface.
//!
//! Two entry points exist per operation:
//!
//! * scalar ([`DeviceAllocator::malloc`] / [`DeviceAllocator::free`]) —
//!   one lane allocating on its own;
//! * warp-collective ([`DeviceAllocator::warp_malloc`] /
//!   [`DeviceAllocator::warp_free`]) — the whole warp's requests at once.
//!
//! The default collective implementations simply loop over lanes issuing
//! scalar calls, which is exactly what a non-coalescing allocator does on
//! hardware (32 independent atomic transactions). Gallatin overrides them
//! to perform the paper's opportunistic coalescing.

use crate::mem::{DeviceMemory, DevicePtr};
use crate::metrics::Metrics;
use crate::warp::{LaneCtx, WarpCtx};

/// Point-in-time occupancy statistics reported by an allocator: one node
/// of a tree that mirrors the allocator's. A leaf (a single heap) has no
/// children; a router reports its own routing counters and one node per
/// child, in child order. Relaxed reads: exact only when quiescent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes the allocator manages (a child: its initial shard).
    pub heap_bytes: u64,
    /// Bytes currently reserved by live allocations, *as accounted by the
    /// allocator* (includes internal rounding to its size classes).
    ///
    /// Contract: never a wrapped value. Allocators that track this with
    /// unpaired relaxed counters (a free's subtraction can be observed
    /// before the matching allocation's addition, momentarily driving the
    /// raw counter below zero) must saturate the reading to 0 rather
    /// than surface ~2^64 here.
    pub reserved_bytes: u64,
    /// Segments still unclaimed in the segment trees at or below here.
    pub free_segments: u64,
    /// Segments this node answers for: as a child, what its parent routes
    /// to it (initial shard, minus donations/returns, plus adoptions).
    pub owned_segments: u64,
    /// As a child, allocations homed here that a sibling had to absorb;
    /// on the router `stats()` was called on, the total over its children.
    pub spills: u64,
    /// Requests this router denied up front for exceeding the stride.
    pub oversize_denials: u64,
    /// Segments this router re-homed child-to-child (elastic donation).
    pub donated_segments: u64,
    /// Segments returned to this router's free list (shrink).
    pub returned_segments: u64,
    /// Segments adopted out of this router's free list (grow /
    /// adopt-before-spill).
    pub adopted_segments: u64,
    /// Segments currently parked on this router's free list.
    pub pool_free_segments: u64,
    /// One node per child, in child order; empty for a leaf.
    pub children: Vec<AllocStats>,
}

impl AllocStats {
    /// A leaf's node: its heap and reservation, every other count zero.
    pub fn leaf(heap_bytes: u64, reserved_bytes: u64) -> Self {
        AllocStats { heap_bytes, reserved_bytes, ..Default::default() }
    }

    /// Unreserved bytes (an upper bound on what further admissions could
    /// reserve; a child's headroom binds for sizes near its stride).
    pub fn headroom_bytes(&self) -> u64 {
        self.heap_bytes - self.reserved_bytes.min(self.heap_bytes)
    }
}

/// A device-side memory allocator running on the simulated SIMT substrate.
pub trait DeviceAllocator: Send + Sync {
    /// Short display name used in benchmark tables, e.g. `"Gallatin"`,
    /// `"Ouroboros-P"`.
    fn name(&self) -> &str;

    /// The arena this allocator hands pointers into.
    fn memory(&self) -> &DeviceMemory;

    /// Allocate `size` bytes from device code. Returns
    /// [`DevicePtr::NULL`] when the request cannot be satisfied.
    ///
    /// **Zero-size requests are valid**: `malloc(0)` behaves exactly like
    /// a one-byte request — it returns a unique, freeable pointer
    /// (occupying the allocator's minimum granule), matching CUDA device
    /// `malloc`. NULL therefore always means exhaustion or an unsupported
    /// size, never "you asked for nothing". Every allocator in the
    /// workspace implements this by clamping the request to one byte at
    /// its entry point.
    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr;

    /// Return an allocation obtained from [`DeviceAllocator::malloc`].
    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr);

    /// Warp-collective allocation: `sizes[lane]` is `Some(size)` for each
    /// requesting lane; on return `out[lane]` holds that lane's pointer
    /// (or NULL). The default issues scalar calls lane by lane.
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        debug_assert_eq!(sizes.len(), warp.active as usize);
        debug_assert_eq!(out.len(), warp.active as usize);
        for lane in warp.lanes() {
            if let Some(size) = sizes[lane] {
                out[lane] = self.malloc(&warp.lane(lane), size);
            } else {
                out[lane] = DevicePtr::NULL;
            }
        }
    }

    /// Warp-collective free of `ptrs[lane]` (NULL entries are skipped).
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        debug_assert_eq!(ptrs.len(), warp.active as usize);
        for lane in warp.lanes() {
            if !ptrs[lane].is_null() {
                self.free(&warp.lane(lane), ptrs[lane]);
            }
        }
    }

    /// Reinitialize to the freshly-constructed state. The benchmark resets
    /// allocators between rounds (paper §6.1) so every round measures
    /// cold-state behaviour; must only be called while no kernel is live.
    fn reset(&self);

    /// Total bytes under management.
    fn heap_bytes(&self) -> u64;

    /// Whether a request of `size` bytes is supported *by design* (e.g.
    /// Ouroboros natively supports nothing above its 8192-byte chunk and
    /// services bigger requests only through its CUDA-heap fallback).
    /// Zero is always supported (see [`DeviceAllocator::malloc`]).
    fn supports_size(&self, size: u64) -> bool {
        size <= self.heap_bytes()
    }

    /// `false` for pseudo-allocators that do not actually manage memory
    /// and may double-allocate (RegEff-AW). Such allocators are shown in
    /// figures as an optimum but excluded from comparisons (paper §6.2).
    fn is_managing(&self) -> bool {
        true
    }

    /// Instrumentation counters, if the allocator keeps them.
    fn metrics(&self) -> Option<&Metrics> {
        None
    }

    /// How many devices this allocator spans. Single-device allocators
    /// (everything except the topology-aware pool-of-pools) report 1.
    fn device_count(&self) -> u32 {
        1
    }

    /// The device whose arena holds `ptr`'s bytes. On a single device
    /// this is always 0; a topology-aware allocator routes by its
    /// device stride (see [`crate::mem::DevicePtr::device_of`]).
    fn device_of(&self, ptr: DevicePtr) -> u32 {
        debug_assert!(!ptr.is_null());
        0
    }

    /// The device an allocation issued from `sm` is preferentially
    /// placed on (SM→device affinity). 0 on a single device.
    fn affinity_device(&self, sm: u32) -> u32 {
        let _ = sm;
        0
    }

    /// Verify the allocator's internal cross-structure invariants,
    /// returning every violation found. Must only be called while the
    /// allocator is quiescent (no kernel live) — like
    /// [`DeviceAllocator::reset`], it is a host-side maintenance point.
    /// Allocators without introspection pass vacuously; tests call this
    /// after every concurrency scenario so a silent corruption (leaked
    /// block, stale table entry, bad accounting) fails loudly.
    ///
    /// Quiescence is also what makes *occupancy drift* detectable: with
    /// no operation in flight, any queue/ring whose derived occupancy
    /// disagrees with its enumerated contents — or that reports a cell
    /// claimed by a ticket but never published — is corrupt, not merely
    /// mid-update, and implementations are expected to report it as an
    /// error rather than skip over it.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }

    /// Occupancy statistics.
    fn stats(&self) -> AllocStats {
        AllocStats::leaf(self.heap_bytes(), 0)
    }
}

/// Blanket impl so `Arc<A>`/`Box<A>`/`&A` can be used wherever a
/// `DeviceAllocator` is expected.
impl<T: DeviceAllocator + ?Sized> DeviceAllocator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn memory(&self) -> &DeviceMemory {
        (**self).memory()
    }
    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        (**self).malloc(ctx, size)
    }
    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr) {
        (**self).free(ctx, ptr)
    }
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        (**self).warp_malloc(warp, sizes, out)
    }
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        (**self).warp_free(warp, ptrs)
    }
    fn reset(&self) {
        (**self).reset()
    }
    fn heap_bytes(&self) -> u64 {
        (**self).heap_bytes()
    }
    fn supports_size(&self, size: u64) -> bool {
        (**self).supports_size(size)
    }
    fn is_managing(&self) -> bool {
        (**self).is_managing()
    }
    fn metrics(&self) -> Option<&Metrics> {
        (**self).metrics()
    }
    fn device_count(&self) -> u32 {
        (**self).device_count()
    }
    fn device_of(&self, ptr: DevicePtr) -> u32 {
        (**self).device_of(ptr)
    }
    fn affinity_device(&self, sm: u32) -> u32 {
        (**self).affinity_device(sm)
    }
    fn check_invariants(&self) -> Result<(), String> {
        (**self).check_invariants()
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{launch_warps, DeviceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A trivial bump allocator used to exercise the trait defaults.
    struct Bump {
        mem: DeviceMemory,
        next: AtomicU64,
    }

    impl Bump {
        fn new(len: usize) -> Self {
            Bump { mem: DeviceMemory::new(len), next: AtomicU64::new(0) }
        }
    }

    impl DeviceAllocator for Bump {
        fn name(&self) -> &str {
            "Bump"
        }
        fn memory(&self) -> &DeviceMemory {
            &self.mem
        }
        fn malloc(&self, _ctx: &LaneCtx, size: u64) -> DevicePtr {
            let size = size.next_multiple_of(8);
            let off = self.next.fetch_add(size, Ordering::Relaxed);
            if off + size <= self.mem.len() as u64 {
                DevicePtr(off)
            } else {
                DevicePtr::NULL
            }
        }
        fn free(&self, _ctx: &LaneCtx, _ptr: DevicePtr) {}
        fn reset(&self) {
            self.next.store(0, Ordering::Relaxed);
        }
        fn heap_bytes(&self) -> u64 {
            self.mem.len() as u64
        }
    }

    #[test]
    fn default_warp_malloc_services_all_lanes() {
        let a = Bump::new(1 << 20);
        launch_warps(DeviceConfig::default(), 64, |warp| {
            let sizes = vec![Some(16u64); warp.active as usize];
            let mut out = vec![DevicePtr::NULL; warp.active as usize];
            a.warp_malloc(warp, &sizes, &mut out);
            for p in &out {
                assert!(!p.is_null());
            }
            a.warp_free(warp, &out);
        });
    }

    #[test]
    fn bump_returns_disjoint_ranges() {
        let a = Bump::new(1 << 16);
        let ptrs = std::sync::Mutex::new(Vec::new());
        launch_warps(DeviceConfig::default(), 128, |warp| {
            for lane in warp.lanes() {
                let p = a.malloc(&warp.lane(lane), 32);
                assert!(!p.is_null());
                ptrs.lock().unwrap().push(p.0);
            }
        });
        let mut v = ptrs.into_inner().unwrap();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 128);
    }

    #[test]
    fn exhaustion_returns_null() {
        let a = Bump::new(64);
        launch_warps(DeviceConfig::default(), 1, |warp| {
            let l = warp.lane(0);
            assert!(!a.malloc(&l, 64).is_null());
            assert!(a.malloc(&l, 64).is_null());
            a.reset();
            assert!(!a.malloc(&l, 64).is_null());
        });
    }

    #[test]
    fn trait_object_dispatch_works() {
        let a = Bump::new(1 << 12);
        let dyn_ref: &dyn DeviceAllocator = &a;
        assert_eq!(dyn_ref.name(), "Bump");
        assert!(dyn_ref.is_managing());
        assert!(dyn_ref.metrics().is_none());
        assert!(dyn_ref.supports_size(8));
        assert!(dyn_ref.supports_size(0), "zero-size requests are part of the contract");
        assert!(!dyn_ref.supports_size(dyn_ref.heap_bytes() + 1));
        // Topology defaults: a plain allocator is one device, everything
        // local to device 0.
        assert_eq!(dyn_ref.device_count(), 1);
        assert_eq!(dyn_ref.device_of(DevicePtr(64)), 0);
        assert_eq!(dyn_ref.affinity_device(31), 0);
    }
}
