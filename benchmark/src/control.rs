//! The control allocator: the "harness floor" ROADMAP item 1 asks for,
//! kept in the benchmark so no file of the program changes.
//!
//! [`BumpControl`] hands out memory from a wrapping bump pointer and
//! never reclaims anything, but it crosses the scheduler's preemption
//! points where a steady-state Gallatin call does: one CAS-class point
//! per coalesced same-class malloc group (Gallatin's batched slice
//! claim), one per non-slice malloc, one RMW-class point per warp of
//! frees (Gallatin pays one per distinct block). Run through the same
//! kernel it therefore costs what the launch, the hand-off and the
//! benchmark's own verification cost, and nothing else.

use gpu_sim::{
    preempt_point, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, PreemptPoint, WarpCtx,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Granule of the bump pointer and smallest size class.
const MIN_GRANULE: u64 = 16;

/// A bump-pointer allocator over a wrapping window.
pub struct BumpControl {
    mem: DeviceMemory,
    /// Bytes of the window the pointer wraps over; the arena behind it
    /// is `window + max_request` long so no allocation straddles its end.
    window: u64,
    max_request: u64,
    /// Requests up to this size coalesce by power-of-two class.
    max_slice: u64,
    /// Larger requests are rounded up to a multiple of this, so that a
    /// workload of large requests only ever writes at these strides.
    large_align: u64,
    next: AtomicU64,
}

impl BumpControl {
    /// A control allocator whose pointer wraps over `window` bytes.
    ///
    /// The caller sizes `window` above the bytes its workload allocates
    /// during the lifetime of any one allocation; the workloads verify
    /// stamps before every free, so an undersized window fails loudly.
    pub fn new(window: u64, max_request: u64, max_slice: u64, large_align: u64) -> Self {
        assert!(window >= max_request && max_request >= max_slice.next_power_of_two());
        assert!(large_align.is_power_of_two() && large_align >= MIN_GRANULE);
        let len = (window + max_request + large_align) as usize;
        BumpControl {
            mem: DeviceMemory::new(len),
            window,
            max_request,
            max_slice,
            large_align,
            next: AtomicU64::new(0),
        }
    }

    /// Touch every page a workload can write, as the workloads do for
    /// the allocator under test, so the floor pays no first-touch fault
    /// the real run does not: the whole arena, or — when large requests
    /// are aligned to more than a page — the first page of each stride
    /// (a workload of large requests stamps only the start of each).
    pub fn prefault(&self) {
        if self.large_align <= 4096 {
            self.mem.zero_range(0, self.mem.len());
        } else {
            for off in (0..self.mem.len() as u64).step_by(self.large_align as usize) {
                self.mem.store_u64(off, 0);
            }
        }
    }

    /// Bytes handed out since construction; at or above the window the
    /// pointer has wrapped onto memory that may still be live.
    pub fn bumped_bytes(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn bump(&self, bytes: u64) -> DevicePtr {
        if bytes > self.max_request {
            return DevicePtr::NULL;
        }
        let align = if bytes > self.max_slice { self.large_align } else { MIN_GRANULE };
        let bytes = bytes.max(1).next_multiple_of(align);
        DevicePtr(self.next.fetch_add(bytes, Ordering::Relaxed) % self.window)
    }

    fn class_of(&self, size: u64) -> Option<u32> {
        (size <= self.max_slice).then(|| size.max(MIN_GRANULE).next_power_of_two().trailing_zeros())
    }
}

impl DeviceAllocator for BumpControl {
    fn name(&self) -> &str {
        "BumpControl"
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, _ctx: &LaneCtx, size: u64) -> DevicePtr {
        preempt_point(PreemptPoint::Cas);
        self.bump(size)
    }

    fn free(&self, _ctx: &LaneCtx, _ptr: DevicePtr) {
        preempt_point(PreemptPoint::Rmw);
    }

    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        let mut seen = 0u64; // bit per class already served
        for lane in warp.lanes() {
            out[lane] = DevicePtr::NULL;
        }
        for lane in warp.lanes() {
            let Some(size) = sizes[lane] else { continue };
            match self.class_of(size) {
                Some(class) if seen & (1 << class) == 0 => {
                    // Leader of a same-class group: one point, one
                    // fetch_add for every lane of the group.
                    seen |= 1 << class;
                    preempt_point(PreemptPoint::Cas);
                    let in_group =
                        |peer: &usize| sizes[*peer].and_then(|s| self.class_of(s)) == Some(class);
                    let peers = (lane..warp.active as usize).filter(in_group);
                    let base = self
                        .next
                        .fetch_add((peers.clone().count() as u64) << class, Ordering::Relaxed);
                    for (rank, peer) in peers.enumerate() {
                        out[peer] = DevicePtr((base + ((rank as u64) << class)) % self.window);
                    }
                }
                Some(_) => {}
                None => {
                    preempt_point(PreemptPoint::Cas);
                    out[lane] = self.bump(size);
                }
            }
        }
    }

    fn warp_free(&self, _warp: &WarpCtx, ptrs: &[DevicePtr]) {
        // The control keeps no size per pointer, so a warp's frees are
        // one group: the floor, not a model, of Gallatin's per-block
        // grouping.
        if ptrs.iter().any(|p| !p.is_null()) {
            preempt_point(PreemptPoint::Rmw);
        }
    }

    fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }

    fn heap_bytes(&self) -> u64 {
        self.window
    }

    fn supports_size(&self, size: u64) -> bool {
        size <= self.max_request
    }
}
