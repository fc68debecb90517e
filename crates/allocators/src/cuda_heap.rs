//! The CUDA device-heap model: fully general, globally serialized.
//!
//! The real CUDA device `malloc` supports any size but serializes heavily
//! under concurrent access, which is why the paper calls it "often several
//! orders of magnitude slower than the current state-of-the-art" (§1) and
//! why every chunk-limited allocator uses it only as a large-allocation
//! fallback. This model reproduces that behaviour class with an
//! address-ordered first-fit free list with boundary coalescing behind a
//! single lock: correct for any size, and a global serialization point
//! whose throughput collapses as thread count grows — the shape the
//! scaling benchmarks need.
//!
//! Each allocation carries an 8-byte size header, as a device heap does.

use crate::util::lock;
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const HEADER: u64 = 8;

/// A globally locked first-fit free list over a *region* of somebody's
/// arena. This is the reusable core of the CUDA-heap model; Ouroboros
/// embeds one over its reserved fallback region (the paper's "50 MB in
/// the CUDA heap" / 500 MB reserve), and [`CudaHeapSim`] wraps one over a
/// whole arena.
pub struct FirstFitHeap {
    region_start: u64,
    region_len: u64,
    /// Free regions keyed by offset (address-ordered → first fit is the
    /// leftmost fit; coalescing is a neighbor lookup).
    free: Mutex<BTreeMap<u64, u64>>,
    reserved: AtomicU64,
}

impl FirstFitHeap {
    /// A heap over `[region_start, region_start + region_len)` of an
    /// arena.
    pub fn new(region_start: u64, region_len: u64) -> Self {
        assert!(region_len >= 64, "heap region too small");
        let mut map = BTreeMap::new();
        map.insert(region_start, region_len);
        FirstFitHeap {
            region_start,
            region_len,
            free: Mutex::new(map),
            reserved: AtomicU64::new(0),
        }
    }

    /// Bytes currently reserved (headers included).
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Whether `ptr` falls inside this heap's region.
    pub fn owns(&self, ptr: DevicePtr) -> bool {
        !ptr.is_null() && ptr.0 >= self.region_start && ptr.0 < self.region_start + self.region_len
    }

    /// First-fit allocation; the size header lives in `mem`.
    pub fn malloc(&self, mem: &DeviceMemory, size: u64, metrics: &Metrics) -> DevicePtr {
        // Zero-size requests take the minimum granule (the
        // `DeviceAllocator::malloc` contract).
        let size = size.max(1);
        let need = crate::util::align_up(size, 8) + HEADER;
        metrics.count_lock();
        let mut free = lock(&self.free);
        // First fit: leftmost region large enough.
        let found = free.iter().find(|(_, &len)| len >= need).map(|(&off, &len)| (off, len));
        let Some((off, len)) = found else {
            return DevicePtr::NULL;
        };
        free.remove(&off);
        if len > need {
            free.insert(off + need, len - need);
        }
        drop(free);
        mem.store_u64(off, need);
        self.reserved.fetch_add(need, Ordering::Relaxed);
        DevicePtr(off + HEADER)
    }

    /// Free with boundary-tag coalescing.
    pub fn free(&self, mem: &DeviceMemory, ptr: DevicePtr, metrics: &Metrics) {
        if ptr.is_null() {
            return;
        }
        let off = ptr.0 - HEADER;
        let len = mem.load_u64(off);
        assert!(
            len >= HEADER && off + len <= self.region_start + self.region_len,
            "corrupt heap header"
        );
        self.reserved.fetch_sub(len, Ordering::Relaxed);
        metrics.count_lock();
        let mut free = lock(&self.free);
        let mut start = off;
        let mut size = len;
        // Coalesce with the predecessor…
        if let Some((&p_off, &p_len)) = free.range(..off).next_back() {
            if p_off + p_len == off {
                free.remove(&p_off);
                start = p_off;
                size += p_len;
            }
        }
        // …and the successor.
        if let Some(&s_len) = free.get(&(off + len)) {
            free.remove(&(off + len));
            size += s_len;
        }
        let prev = free.insert(start, size);
        debug_assert!(prev.is_none(), "double free at {start}");
    }

    /// Restore the whole region to one free extent. Reset-time only.
    pub fn reset(&self) {
        let mut free = lock(&self.free);
        free.clear();
        free.insert(self.region_start, self.region_len);
        drop(free);
        self.reserved.store(0, Ordering::Relaxed);
    }
}

/// Globally locked first-fit heap standing in for `cudaMalloc`'s device
/// heap — see the module docs.
pub struct CudaHeapSim {
    mem: DeviceMemory,
    heap: FirstFitHeap,
    metrics: Metrics,
    name: &'static str,
}

impl CudaHeapSim {
    /// Build a device heap over a fresh arena.
    pub fn new(heap_bytes: u64) -> Self {
        Self::named(heap_bytes, "CUDA")
    }

    /// Same allocator under a different display name.
    pub fn named(heap_bytes: u64, name: &'static str) -> Self {
        let mem = DeviceMemory::new(heap_bytes as usize);
        let heap = FirstFitHeap::new(0, heap_bytes);
        CudaHeapSim { mem, heap, metrics: Metrics::new(), name }
    }

    /// Allocate without a lane context (host-side / fallback use).
    pub fn raw_malloc(&self, size: u64) -> DevicePtr {
        let p = self.heap.malloc(&self.mem, size, &self.metrics);
        self.metrics.count_malloc(!p.is_null());
        p
    }

    /// Free without a lane context.
    pub fn raw_free(&self, ptr: DevicePtr) {
        self.metrics.count_free();
        self.heap.free(&self.mem, ptr, &self.metrics);
    }
}

impl DeviceAllocator for CudaHeapSim {
    fn name(&self) -> &str {
        self.name
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, _ctx: &LaneCtx, size: u64) -> DevicePtr {
        self.raw_malloc(size)
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        self.raw_free(ptr)
    }

    fn reset(&self) {
        self.heap.reset();
        self.metrics.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.mem.len() as u64
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn stats(&self) -> AllocStats {
        AllocStats::leaf(self.mem.len() as u64, self.heap.reserved_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceConfig};

    #[test]
    fn first_fit_prefers_low_addresses() {
        let h = CudaHeapSim::new(1 << 16);
        let a = h.raw_malloc(100);
        let b = h.raw_malloc(100);
        assert!(a.0 < b.0);
        h.raw_free(a);
        let c = h.raw_malloc(50);
        assert_eq!(c.0, a.0, "freed low region reused first");
    }

    #[test]
    fn coalescing_rebuilds_large_regions() {
        let h = CudaHeapSim::new(1 << 16);
        let ptrs: Vec<_> = (0..8).map(|_| h.raw_malloc(4096)).collect();
        assert!(ptrs.iter().all(|p| !p.is_null()));
        assert!(h.raw_malloc(40_000).is_null(), "fragmented");
        for p in ptrs {
            h.raw_free(p);
        }
        assert!(!h.raw_malloc(60_000).is_null(), "coalesced back to one region");
    }

    #[test]
    fn any_size_supported_up_to_heap() {
        let h = CudaHeapSim::new(1 << 20);
        let p = h.raw_malloc((1 << 20) - 16);
        assert!(!p.is_null());
        assert!(h.raw_malloc(16).is_null());
        h.raw_free(p);
        assert!(!h.raw_malloc(1).is_null());
    }

    #[test]
    fn zero_size_allocates_minimum_granule() {
        let h = CudaHeapSim::new(1 << 12);
        let a = h.raw_malloc(0);
        let b = h.raw_malloc(0);
        assert!(!a.is_null() && !b.is_null());
        assert_ne!(a.0, b.0, "zero-size allocations must be unique");
        h.raw_free(a);
        h.raw_free(b);
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let h = CudaHeapSim::new(1 << 20);
        let ptrs = Mutex::new(Vec::new());
        launch(DeviceConfig::default(), 1000, |l| {
            let p = h.malloc(l, 64);
            assert!(!p.is_null());
            h.memory().write_stamp(p, l.global_tid());
            lock(&ptrs).push((p, l.global_tid()));
        });
        for &(p, tid) in lock(&ptrs).iter() {
            assert_eq!(h.memory().read_stamp(p), tid);
        }
        let mut offs: Vec<u64> = lock(&ptrs).iter().map(|&(p, _)| p.0).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 1000);
    }

    #[test]
    fn reset_restores_whole_heap() {
        let h = CudaHeapSim::new(1 << 14);
        for _ in 0..10 {
            h.raw_malloc(512);
        }
        h.reset();
        assert_eq!(h.stats().reserved_bytes, 0);
        assert!(!h.raw_malloc((1 << 14) - 16).is_null());
    }
}
