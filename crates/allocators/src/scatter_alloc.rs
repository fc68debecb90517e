//! ScatterAlloc (Steinberger et al.): hashed scattering over superblock
//! pages.
//!
//! The heap is split into fixed superblocks, each subdivided into fixed
//! pages. An allocation rounds to a power-of-two chunk size, hashes
//! `(warp, size)` to a superblock and then to a page inside it,
//! dedicates that page to its chunk size on first touch, and claims a
//! chunk with an atomic bitfield OR; collisions probe sibling pages of
//! the superblock, then re-hash to another superblock. Scattering trades
//! fragmentation for low contention — the structural reason ScatterAlloc
//! wins the paper's mid-range 512-byte scaling window and loses
//! utilization elsewhere. A per-superblock fill counter lets walkers
//! skip saturated superblocks without touching their pages.
//!
//! Allocations larger than a page are not possible (the paper notes the
//! real limit is the superblock; our page is the practical unit and is
//! sized to cover the benchmark's 8192-byte requests). Pages stay
//! dedicated to their first chunk size for the allocator's lifetime,
//! reproducing ScatterAlloc's known utilization decay on shifting size
//! mixes.

use crate::util::align_up;
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Page size: the largest servable allocation.
const PAGE_SIZE: u64 = 16 << 10;
/// Smallest chunk (same as the benchmark's smallest request).
const MIN_CHUNK: u64 = 16;
/// Bitmap words per page (one bit per MIN_CHUNK-sized slot).
const BITMAP_WORDS: usize = (PAGE_SIZE / MIN_CHUNK / 64) as usize;
/// Pages per superblock (superblock = 128 × 16 KB = 2 MiB).
const PAGES_PER_SB: u64 = 128;
/// Page probes within a superblock before re-hashing.
const SB_PAGE_PROBES: u64 = 16;
/// Superblocks probed before giving up.
const MAX_SB_PROBES: u64 = 64;

struct PageMeta {
    /// Chunk size the page is dedicated to; 0 = virgin.
    chunk_size: AtomicU32,
    /// Chunks currently allocated from this page.
    count: AtomicU32,
    /// One bit per chunk.
    bitmap: [AtomicU64; BITMAP_WORDS],
}

impl PageMeta {
    fn new() -> Self {
        PageMeta {
            chunk_size: AtomicU32::new(0),
            count: AtomicU32::new(0),
            bitmap: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn reset(&self) {
        self.chunk_size.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        for w in &self.bitmap {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// The ScatterAlloc allocator.
pub struct ScatterAlloc {
    mem: DeviceMemory,
    pages: Box<[PageMeta]>,
    /// Chunks currently allocated per superblock — a cheap saturation
    /// hint so probes skip full superblocks.
    sb_fill: Box<[AtomicU64]>,
    reserved: AtomicU64,
    metrics: Metrics,
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ScatterAlloc {
    /// Build an instance over a fresh arena (rounded up to whole pages).
    pub fn new(heap_bytes: u64) -> Self {
        let heap_bytes = align_up(heap_bytes, PAGE_SIZE);
        assert!(heap_bytes >= PAGE_SIZE, "heap smaller than one page");
        let num_pages = (heap_bytes / PAGE_SIZE) as usize;
        let num_sbs = (num_pages as u64).div_ceil(PAGES_PER_SB) as usize;
        ScatterAlloc {
            mem: DeviceMemory::new(heap_bytes as usize),
            pages: (0..num_pages).map(|_| PageMeta::new()).collect(),
            sb_fill: (0..num_sbs).map(|_| AtomicU64::new(0)).collect(),
            reserved: AtomicU64::new(0),
            metrics: Metrics::new(),
        }
    }

    /// Pages in superblock `sb` (the last superblock may be partial).
    #[inline]
    fn sb_pages(&self, sb: usize) -> u64 {
        let start = sb as u64 * PAGES_PER_SB;
        (self.pages.len() as u64 - start).min(PAGES_PER_SB)
    }

    /// Claim one chunk in `page` (already dedicated to `chunk`), scanning
    /// the bitfield from a hashed start position.
    fn claim_chunk(&self, page: usize, chunk: u64, hash: u64) -> Option<u64> {
        let meta = &self.pages[page];
        let chunks_per_page = (PAGE_SIZE / chunk) as usize;
        let words = chunks_per_page.div_ceil(64);
        let start_word = (hash as usize) % words;
        for i in 0..words {
            let w = (start_word + i) % words;
            // Bits valid in this word (last word may be partial).
            let valid = if (w + 1) * 64 <= chunks_per_page {
                u64::MAX
            } else {
                (1u64 << (chunks_per_page - w * 64)) - 1
            };
            loop {
                let cur = meta.bitmap[w].load(Ordering::Acquire);
                let open = !cur & valid;
                if open == 0 {
                    break;
                }
                let bit = open.trailing_zeros() as u64;
                let prev = meta.bitmap[w].fetch_or(1 << bit, Ordering::AcqRel);
                self.metrics.count_rmw();
                if prev & (1 << bit) == 0 {
                    return Some(w as u64 * 64 + bit);
                }
                // Lost the bit; rescan the word.
            }
        }
        None
    }
}

impl DeviceAllocator for ScatterAlloc {
    fn name(&self) -> &str {
        "ScatterAlloc"
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        if size > PAGE_SIZE {
            self.metrics.count_malloc(false);
            return DevicePtr::NULL;
        }
        // size == 0 rounds up to MIN_CHUNK here: zero-size requests take
        // the minimum granule (the `DeviceAllocator::malloc` contract).
        let chunk = size.next_power_of_two().max(MIN_CHUNK);
        let chunks_per_page = PAGE_SIZE / chunk;
        let base_hash = splitmix(ctx.warp.warp_id ^ (chunk << 40));
        let num_sbs = self.sb_fill.len();
        for sb_probe in 0..MAX_SB_PROBES.min(num_sbs as u64) {
            let sb = (splitmix(base_hash.wrapping_add(sb_probe)) as usize) % num_sbs;
            let sb_pages = self.sb_pages(sb);
            // Saturation hint: a superblock whose fill already covers
            // every chunk it could hold is skipped without page probes.
            let sb_capacity = sb_pages * chunks_per_page;
            if self.sb_fill[sb].load(Ordering::Relaxed) >= sb_capacity {
                continue;
            }
            let page_hash = splitmix(base_hash ^ (sb as u64) << 17);
            for page_probe in 0..SB_PAGE_PROBES.min(sb_pages) {
                let page = sb * PAGES_PER_SB as usize
                    + ((page_hash.wrapping_add(page_probe)) % sb_pages) as usize;
                let meta = &self.pages[page];
                // Dedicate a virgin page, or verify the dedication.
                let cur = meta.chunk_size.load(Ordering::Acquire);
                if cur == 0 {
                    let _ = meta.chunk_size.compare_exchange(
                        0,
                        chunk as u32,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    self.metrics.count_cas(true);
                }
                if meta.chunk_size.load(Ordering::Acquire) != chunk as u32 {
                    continue;
                }
                // Reserve headroom via the fill count, then grab a bit.
                let prior = meta.count.fetch_add(1, Ordering::AcqRel);
                self.metrics.count_rmw();
                if prior as u64 >= chunks_per_page {
                    meta.count.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                if let Some(slot) =
                    self.claim_chunk(page, chunk, page_hash.wrapping_add(page_probe))
                {
                    self.sb_fill[sb].fetch_add(1, Ordering::Relaxed);
                    self.reserved.fetch_add(chunk, Ordering::Relaxed);
                    self.metrics.count_malloc(true);
                    return DevicePtr(page as u64 * PAGE_SIZE + slot * chunk);
                }
                meta.count.fetch_sub(1, Ordering::AcqRel);
            }
        }
        self.metrics.count_malloc(false);
        DevicePtr::NULL
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        if ptr.is_null() {
            return;
        }
        self.metrics.count_free();
        let page = (ptr.0 / PAGE_SIZE) as usize;
        let meta = &self.pages[page];
        let chunk = meta.chunk_size.load(Ordering::Acquire) as u64;
        assert!(chunk >= MIN_CHUNK, "free into an undedicated page");
        let slot = (ptr.0 % PAGE_SIZE) / chunk;
        let prev =
            meta.bitmap[(slot / 64) as usize].fetch_and(!(1 << (slot % 64)), Ordering::AcqRel);
        self.metrics.count_rmw();
        assert!(prev & (1 << (slot % 64)) != 0, "double free of chunk {slot} in page {page}");
        meta.count.fetch_sub(1, Ordering::AcqRel);
        self.sb_fill[page / PAGES_PER_SB as usize].fetch_sub(1, Ordering::Relaxed);
        self.reserved.fetch_sub(chunk, Ordering::Relaxed);
        // Pages stay dedicated: ScatterAlloc does not re-type pages.
    }

    fn reset(&self) {
        for p in self.pages.iter() {
            p.reset();
        }
        for f in self.sb_fill.iter() {
            f.store(0, Ordering::Relaxed);
        }
        self.reserved.store(0, Ordering::Relaxed);
        self.metrics.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.mem.len() as u64
    }

    fn supports_size(&self, size: u64) -> bool {
        size <= PAGE_SIZE
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
    use gpu_sim::{launch_warps, DeviceConfig, WarpCtx};

    fn with_lane<R>(f: impl FnOnce(&LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 3, sm_id: 0, base_tid: 96, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn allocations_are_chunk_aligned_and_distinct() {
        let a = ScatterAlloc::new(4 << 20);
        with_lane(|l| {
            let mut offs = Vec::new();
            for _ in 0..200 {
                let p = a.malloc(l, 100); // rounds to 128
                assert!(!p.is_null());
                assert_eq!(p.0 % 128, 0);
                offs.push(p.0);
            }
            offs.sort_unstable();
            offs.dedup();
            assert_eq!(offs.len(), 200);
            for &o in &offs {
                a.free(l, DevicePtr(o));
            }
            assert_eq!(a.stats().reserved_bytes, 0);
        });
    }

    #[test]
    fn page_limit_enforced() {
        let a = ScatterAlloc::new(1 << 20);
        with_lane(|l| {
            assert!(!a.malloc(l, PAGE_SIZE).is_null());
            assert!(a.malloc(l, PAGE_SIZE + 1).is_null());
            // Zero-size requests succeed with a minimum-chunk allocation.
            let z = a.malloc(l, 0);
            assert!(!z.is_null());
            a.free(l, z);
        });
        assert!(a.supports_size(8192));
        assert!(a.supports_size(0));
        assert!(!a.supports_size(PAGE_SIZE + 1));
    }

    #[test]
    fn pages_stay_dedicated_to_first_size() {
        // A tiny heap with one page: once dedicated to 16 B chunks, a
        // 4 KB request cannot be served.
        let a = ScatterAlloc::new(PAGE_SIZE);
        with_lane(|l| {
            let p = a.malloc(l, 16);
            assert!(!p.is_null());
            assert!(a.malloc(l, 4096).is_null(), "page must stay dedicated");
            a.free(l, p);
            assert!(a.malloc(l, 4096).is_null(), "dedication survives frees");
            assert!(!a.malloc(l, 16).is_null());
        });
    }

    #[test]
    fn free_then_realloc_reuses_chunks() {
        let a = ScatterAlloc::new(PAGE_SIZE); // one page: 1024 chunks of 16 B
        with_lane(|l| {
            let ptrs: Vec<_> = (0..1024).map(|_| a.malloc(l, 16)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            assert!(a.malloc(l, 16).is_null(), "page full");
            for &p in &ptrs {
                a.free(l, p);
            }
            assert!(!a.malloc(l, 16).is_null());
        });
    }

    #[test]
    fn concurrent_storm_no_overlap() {
        let a = ScatterAlloc::new(8 << 20);
        launch_warps(DeviceConfig::with_sms(8), 1024, |warp| {
            for lane in warp.lanes() {
                let l = warp.lane(lane);
                for round in 0..5u64 {
                    let size = 16 << ((l.global_tid() + round) % 6);
                    let p = a.malloc(&l, size);
                    if !p.is_null() {
                        a.memory().write_stamp(p, l.global_tid() * 31 + round);
                        assert_eq!(a.memory().read_stamp(p), l.global_tid() * 31 + round);
                        a.free(&l, p);
                    }
                }
            }
        });
        assert_eq!(a.stats().reserved_bytes, 0);
    }

    #[test]
    fn reset_revirginizes_pages() {
        let a = ScatterAlloc::new(PAGE_SIZE);
        with_lane(|l| {
            a.malloc(l, 16);
        });
        a.reset();
        with_lane(|l| {
            assert!(!a.malloc(l, 4096).is_null(), "reset must clear dedication");
        });
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let a = ScatterAlloc::new(PAGE_SIZE);
        with_lane(|l| {
            let p = a.malloc(l, 64);
            a.free(l, p);
            a.free(l, p);
        });
    }
}
