//! The Ouroboros allocator family (Winter et al.): queue-based recycling
//! over 8192-byte chunks.
//!
//! Device memory is carved into **chunks** of 8192 bytes; a chunk is split
//! into equal **pages** of one power-of-two size class (16 B…8192 B). Each
//! class owns a queue; an allocation pops from the smallest class that
//! fits, carving a fresh chunk when the queue is dry.
//!
//! The published matrix of variants crosses two axes (paper §2
//! "Ouroboros"):
//!
//! * **what the queues recycle** — [`OuroborosKind::Chunk`] (C series):
//!   a fully freed chunk returns to a shared chunk queue and can be
//!   re-split for *any* class ("full reuse");
//!   [`OuroborosKind::Page`] (P series): freed pages go back to their own
//!   class's queue and can only ever serve that class again. The paper's
//!   warmed-up experiment (§6.9) hinges on exactly this: P variants never
//!   release memory, so their second run starts with pre-filled queues.
//! * **how the queue is built** — S (a bounded ring), VA (a growable
//!   segmented array) or VL (a linked list). Here every queue is one
//!   locked FIFO that takes no preemption point, and S's bound cannot
//!   bind: a class queue never holds more pages than the native region
//!   has of that class, the chunk queue never more than its chunks. So
//!   C/P; S, VA and VL are one run here: [`Ouroboros::VARIANTS`] has one
//!   row per series.
//!
//! No variant natively serves requests above the 8192-byte chunk; those
//! fall back to a **capped** CUDA-heap reserve at the top of the arena
//! (the paper's 500 MB reserve, scaled to the heap). The cap is what
//! makes Ouroboros fail the skewed-graph expansion test that Gallatin
//! passes.

use crate::cuda_heap::FirstFitHeap;
use crate::util::{class_of, class_size, lock};
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Chunk size: the hard ceiling of native allocations.
pub const CHUNK_BYTES: u64 = 8192;
/// Smallest page class.
const MIN_PAGE: u64 = 16;
/// Number of page classes: 16, 32, …, 8192.
const NUM_CLASSES: usize = 10;

/// C series (chunk reuse) vs P series (page reuse).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OuroborosKind {
    /// C series: whole chunks recycle for any class (full reuse).
    Chunk,
    /// P series: pages recycle only for their original class.
    Page,
}

/// One unbounded locked FIFO of device offsets.
type Queue = Mutex<VecDeque<u64>>;

/// Per-chunk metadata for the C series' full-reuse accounting.
struct ChunkMeta {
    /// Pages freed back in this chunk's current life.
    freed: AtomicU32,
    /// Page class of the current life.
    class: AtomicU32,
}

/// Packed `(chunk_id + 1, pages_taken)` word for a class's active chunk
/// (C series). Zero id means "no active chunk".
const ACTIVE_CNT_BITS: u32 = 24;
const ACTIVE_CNT_MASK: u64 = (1 << ACTIVE_CNT_BITS) - 1;

#[inline]
fn active_pack(id_plus1: u64, count: u64) -> u64 {
    (id_plus1 << ACTIVE_CNT_BITS) | count
}

#[inline]
fn active_unpack(word: u64) -> (u64, u64) {
    (word >> ACTIVE_CNT_BITS, word & ACTIVE_CNT_MASK)
}

/// An Ouroboros allocator instance.
pub struct Ouroboros {
    mem: DeviceMemory,
    kind: OuroborosKind,
    name: &'static str,
    /// P series: page queues, one per class.
    page_queues: Vec<Queue>,
    /// C series: active chunk per class, packed `(id+1, pages_taken)`.
    active: Vec<AtomicU64>,
    /// C series: fully freed chunks available for any class.
    chunk_queue: Queue,
    /// Bump cursor over the native region, in chunks.
    next_chunk: AtomicU64,
    /// Number of chunks in the native region.
    num_chunks: u64,
    chunk_meta: Box<[ChunkMeta]>,
    /// CUDA-heap fallback over the reserve at the top of the arena.
    fallback: FirstFitHeap,
    reserved: AtomicU64,
    metrics: Metrics,
}

impl Ouroboros {
    /// Build a variant with the default (paper-style) CUDA-heap reserve.
    pub fn new(heap_bytes: u64, kind: OuroborosKind) -> Self {
        // Reserve for the CUDA-heap fallback: the paper's setups keep
        // 500 MB beside the allocator; scale to a quarter of small heaps.
        let reserve = (heap_bytes / 4).clamp(64 << 10, 500 << 20);
        Self::with_reserve(heap_bytes, kind, reserve)
    }

    /// Explicit fallback-reserve size (the graph expansion experiment
    /// varies this).
    pub fn with_reserve(heap_bytes: u64, kind: OuroborosKind, reserve: u64) -> Self {
        assert!(heap_bytes > reserve + CHUNK_BYTES, "heap too small for reserve");
        let native = (heap_bytes - reserve) / CHUNK_BYTES * CHUNK_BYTES;
        let num_chunks = native / CHUNK_BYTES;
        Ouroboros {
            mem: DeviceMemory::new(heap_bytes as usize),
            kind,
            name: Self::VARIANTS.iter().find(|v| v.1 == kind).expect("both series are listed").0,
            page_queues: (0..NUM_CLASSES).map(|_| Queue::default()).collect(),
            active: (0..NUM_CLASSES).map(|_| AtomicU64::new(0)).collect(),
            chunk_queue: Queue::default(),
            next_chunk: AtomicU64::new(0),
            num_chunks,
            chunk_meta: (0..num_chunks)
                .map(|_| ChunkMeta { freed: AtomicU32::new(0), class: AtomicU32::new(0) })
                .collect(),
            fallback: FirstFitHeap::new(native, heap_bytes - native),
            reserved: AtomicU64::new(0),
            metrics: Metrics::new(),
        }
    }

    /// Grab a chunk: recycled (C series) or freshly carved.
    fn get_chunk(&self, class: usize) -> Option<u64> {
        let recycled = lock(&self.chunk_queue).pop_front();
        let id = match recycled {
            Some(id) => id,
            None => {
                let id = self.next_chunk.fetch_add(1, Ordering::Relaxed);
                self.metrics.count_rmw();
                if id >= self.num_chunks {
                    // The cursor stays past the end; every later carve
                    // fails the same way until `reset` rewinds it.
                    return None;
                }
                id
            }
        };
        let meta = &self.chunk_meta[id as usize];
        meta.class.store(class as u32, Ordering::Release);
        meta.freed.store(0, Ordering::Release);
        Some(id)
    }

    /// Split chunk `id` into pages of `class`, returning one and queueing
    /// the rest.
    fn split_chunk(&self, id: u64, class: usize) -> u64 {
        let page = class_size(class, MIN_PAGE);
        let pages = CHUNK_BYTES / page;
        let base = id * CHUNK_BYTES;
        lock(&self.page_queues[class]).extend((1..pages).map(|p| base + p * page));
        base
    }

    fn native_malloc(&self, size: u64) -> DevicePtr {
        let class = class_of(size, MIN_PAGE);
        debug_assert!(class < NUM_CLASSES);
        match self.kind {
            // P series: page-granular reuse through the class queue.
            OuroborosKind::Page => {
                let queued = lock(&self.page_queues[class]).pop_front();
                if let Some(off) = queued {
                    self.metrics.count_rmw();
                    return DevicePtr(off);
                }
                match self.get_chunk(class) {
                    Some(id) => DevicePtr(self.split_chunk(id, class)),
                    None => match lock(&self.page_queues[class]).pop_front() {
                        Some(off) => DevicePtr(off),
                        None => DevicePtr::NULL,
                    },
                }
            }
            // C series: pages come off the class's active chunk; reuse is
            // chunk-granular (a chunk re-enters circulation only when all
            // of its pages have been freed).
            OuroborosKind::Chunk => {
                let page = class_size(class, MIN_PAGE);
                let pages = CHUNK_BYTES / page;
                loop {
                    let cur = self.active[class].load(Ordering::Acquire);
                    let (id_plus1, cnt) = active_unpack(cur);
                    if id_plus1 != 0 && cnt < pages {
                        let ok = self.active[class]
                            .compare_exchange_weak(
                                cur,
                                cur + 1,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok();
                        self.metrics.count_cas(ok);
                        if ok {
                            return DevicePtr((id_plus1 - 1) * CHUNK_BYTES + cnt * page);
                        }
                        continue;
                    }
                    // No active chunk, or exhausted: install a fresh one.
                    let Some(new) = self.get_chunk(class) else {
                        return DevicePtr::NULL;
                    };
                    let desired = active_pack(new + 1, 1);
                    let ok = self.active[class]
                        .compare_exchange(cur, desired, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                    self.metrics.count_cas(ok);
                    if ok {
                        return DevicePtr(new * CHUNK_BYTES);
                    }
                    // Someone else installed first; recycle ours.
                    lock(&self.chunk_queue).push_back(new);
                }
            }
        }
    }

    fn native_free(&self, ptr: DevicePtr) {
        let chunk = ptr.0 / CHUNK_BYTES;
        let meta = &self.chunk_meta[chunk as usize];
        let class = meta.class.load(Ordering::Acquire) as usize;
        match self.kind {
            OuroborosKind::Page => {
                // P series: the page only ever serves its original class.
                lock(&self.page_queues[class]).push_back(ptr.0);
                self.metrics.count_rmw();
            }
            OuroborosKind::Chunk => {
                // C series: the chunk becomes reusable for any class once
                // every page of its current life has been returned.
                let pages = (CHUNK_BYTES / class_size(class, MIN_PAGE)) as u32;
                let freed = meta.freed.fetch_add(1, Ordering::AcqRel) + 1;
                self.metrics.count_rmw();
                if freed == pages {
                    lock(&self.chunk_queue).push_back(chunk);
                }
            }
        }
    }
}

impl DeviceAllocator for Ouroboros {
    fn name(&self) -> &str {
        self.name
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, _ctx: &LaneCtx, size: u64) -> DevicePtr {
        // Zero-size requests take the minimum granule (the
        // `DeviceAllocator::malloc` contract).
        let size = size.max(1);
        let ptr = if size <= CHUNK_BYTES {
            self.native_malloc(size)
        } else {
            // Fallback to the capped CUDA-heap reserve.
            self.fallback.malloc(&self.mem, size, &self.metrics)
        };
        if !ptr.is_null() {
            let charged = if size <= CHUNK_BYTES {
                class_size(class_of(size, MIN_PAGE), MIN_PAGE)
            } else {
                // Must mirror the free path, which reads the fallback's
                // header (8-byte-aligned payload).
                crate::util::align_up(size, 8)
            };
            self.reserved.fetch_add(charged, Ordering::Relaxed);
        }
        self.metrics.count_malloc(!ptr.is_null());
        ptr
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        if ptr.is_null() {
            return;
        }
        self.metrics.count_free();
        if self.fallback.owns(ptr) {
            // Reserved-bytes accounting for fallback frees uses the
            // header the first-fit heap wrote.
            let hdr = self.mem.load_u64(ptr.0 - 8);
            self.reserved.fetch_sub(hdr.saturating_sub(8), Ordering::Relaxed);
            self.fallback.free(&self.mem, ptr, &self.metrics);
        } else {
            let chunk = ptr.0 / CHUNK_BYTES;
            let class = self.chunk_meta[chunk as usize].class.load(Ordering::Acquire) as usize;
            self.reserved.fetch_sub(class_size(class, MIN_PAGE), Ordering::Relaxed);
            self.native_free(ptr);
        }
    }

    fn reset(&self) {
        for q in &self.page_queues {
            lock(q).clear();
        }
        for a in &self.active {
            a.store(0, Ordering::Relaxed);
        }
        lock(&self.chunk_queue).clear();
        self.next_chunk.store(0, Ordering::Relaxed);
        for m in self.chunk_meta.iter() {
            m.freed.store(0, Ordering::Relaxed);
            m.class.store(0, Ordering::Relaxed);
        }
        self.fallback.reset();
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

impl Ouroboros {
    /// The two series under their display names, in the order the paper's
    /// figures list them. Each row stands for the paper's S, VA and VL
    /// labels of its series (see the module docs).
    pub const VARIANTS: [(&'static str, OuroborosKind); 2] =
        [("Ouroboros-C", OuroborosKind::Chunk), ("Ouroboros-P", OuroborosKind::Page)];

    /// The series a display name denotes.
    pub fn parse_name(name: &str) -> Option<OuroborosKind> {
        Self::VARIANTS.iter().find(|v| v.0 == name).map(|v| v.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch_warps, DeviceConfig, WarpCtx};

    fn with_lane<R>(f: impl FnOnce(&LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    fn all_variants(heap: u64) -> Vec<Ouroboros> {
        Ouroboros::VARIANTS.iter().map(|v| Ouroboros::new(heap, v.1)).collect()
    }

    #[test]
    fn names_cover_the_matrix() {
        let names: Vec<String> =
            all_variants(4 << 20).iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, ["Ouroboros-C", "Ouroboros-P"]);
    }

    #[test]
    fn alloc_free_roundtrip_all_variants() {
        for a in all_variants(4 << 20) {
            with_lane(|l| {
                let ptrs: Vec<_> = (0..300).map(|i| a.malloc(l, 16 << (i % 5))).collect();
                assert!(ptrs.iter().all(|p| !p.is_null()), "{}", a.name());
                let mut offs: Vec<u64> = ptrs.iter().map(|p| p.0).collect();
                offs.sort_unstable();
                offs.dedup();
                assert_eq!(offs.len(), 300, "{} overlap", a.name());
                for p in ptrs {
                    a.free(l, p);
                }
                assert_eq!(a.stats().reserved_bytes, 0, "{}", a.name());
            });
        }
    }

    #[test]
    fn p_series_reuses_only_same_class() {
        let a = Ouroboros::with_reserve(
            2 * CHUNK_BYTES + (64 << 10) + CHUNK_BYTES,
            OuroborosKind::Page,
            64 << 10,
        );
        // Native region: 3 chunks. Fill them all with 16 B pages.
        with_lane(|l| {
            let per_chunk = (CHUNK_BYTES / 16) as usize;
            let ptrs: Vec<_> = (0..3 * per_chunk).map(|_| a.malloc(l, 16)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            for &p in &ptrs {
                a.free(l, p);
            }
            // All memory returned — but only as 16 B pages. A 4 KB
            // request finds no chunk (P series cannot repurpose).
            assert!(a.malloc(l, 4096).is_null(), "P series must not repurpose pages");
            assert!(!a.malloc(l, 16).is_null());
        });
    }

    #[test]
    fn c_series_repurposes_freed_chunks() {
        let a = Ouroboros::with_reserve(
            2 * CHUNK_BYTES + (64 << 10) + CHUNK_BYTES,
            OuroborosKind::Chunk,
            64 << 10,
        );
        with_lane(|l| {
            let per_chunk = (CHUNK_BYTES / 16) as usize;
            let ptrs: Vec<_> = (0..3 * per_chunk).map(|_| a.malloc(l, 16)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            for &p in &ptrs {
                a.free(l, p);
            }
            // Full reuse: the freed chunks serve a different class.
            assert!(!a.malloc(l, 4096).is_null(), "C series must repurpose chunks");
        });
    }

    #[test]
    fn large_requests_use_capped_fallback() {
        let a = Ouroboros::with_reserve(1 << 20, OuroborosKind::Chunk, 128 << 10);
        with_lane(|l| {
            let big = a.malloc(l, 8 * CHUNK_BYTES);
            assert!(!big.is_null(), "fallback serves large requests");
            assert!(big.0 >= (1 << 20) - (128 << 10), "fallback lives in the reserve");
            // The reserve is capped: a request beyond it fails even
            // though the native region has room.
            assert!(a.malloc(l, 256 << 10).is_null(), "reserve cap enforced");
            a.free(l, big);
            assert_eq!(a.stats().reserved_bytes, 0);
        });
    }

    #[test]
    fn page_payloads_do_not_overlap_under_contention() {
        for a in all_variants(8 << 20) {
            launch_warps(DeviceConfig::with_sms(8), 512, |warp| {
                for lane in warp.lanes() {
                    let l = warp.lane(lane);
                    for round in 0..4u64 {
                        let p = a.malloc(&l, 16 << (l.global_tid() % 4));
                        if !p.is_null() {
                            a.memory().write_stamp(p, l.global_tid() * 7 + round);
                            assert_eq!(
                                a.memory().read_stamp(p),
                                l.global_tid() * 7 + round,
                                "{} clobbered",
                                a.name()
                            );
                            a.free(&l, p);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn warmed_up_p_series_serves_from_queues() {
        // The §6.9 effect: after a run without reset, P queues are full
        // and the next run never carves chunks.
        let a = Ouroboros::new(4 << 20, OuroborosKind::Page);
        with_lane(|l| {
            let ptrs: Vec<_> = (0..1000).map(|_| a.malloc(l, 64)).collect();
            for &p in &ptrs {
                a.free(l, p);
            }
            let carved_before = a.next_chunk.load(Ordering::Relaxed);
            let again: Vec<_> = (0..1000).map(|_| a.malloc(l, 64)).collect();
            assert!(again.iter().all(|p| !p.is_null()));
            assert_eq!(
                a.next_chunk.load(Ordering::Relaxed),
                carved_before,
                "warmed-up run must not carve new chunks"
            );
        });
    }

    #[test]
    fn reset_restores_cold_state() {
        let a = Ouroboros::new(4 << 20, OuroborosKind::Chunk);
        with_lane(|l| {
            for _ in 0..100 {
                a.malloc(l, 128);
            }
        });
        a.reset();
        assert_eq!(a.stats().reserved_bytes, 0);
        assert_eq!(a.next_chunk.load(Ordering::Relaxed), 0);
        with_lane(|l| assert!(!a.malloc(l, 128).is_null()));
    }
}
