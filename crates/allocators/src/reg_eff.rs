//! The Register-Efficient (RegEff) allocator family (Vinkler & Havran),
//! as benchmarked by the survey and the Gallatin paper.
//!
//! The design is a lock-free list of chunks threaded through the heap
//! itself: every chunk is `[8-byte header][payload]`, and the header packs
//! the payload size with a state (free / used / dead). Allocation walks
//! the chunk list from a *rover* position, claiming a free chunk with one
//! CAS and splitting off the remainder; freeing flips the state back with
//! optional forward coalescing.
//!
//! Variants (paper §2 "RegEff", §6.2):
//!
//! * **A** — atomic: one list, every walk starts at the heap head. Lowest
//!   fragmentation, highest contention.
//! * **AW** — atomic wrapper: a single `atomicAdd` bump with a no-op free.
//!   Shown in figures as the optimal-throughput bound but excluded from
//!   comparisons because it does not manage memory (it wraps and can hand
//!   the same bytes out twice). [`gpu_sim::DeviceAllocator::is_managing`]
//!   returns `false`.
//! * **C** — circular: a shared rover remembers where the last allocation
//!   succeeded, spreading walkers around the list.
//! * **CF** — circular + fused: frees coalesce with the following free
//!   chunk (fighting the fragmentation the rover causes).
//! * **CM** — circular multi: the heap is pre-split into per-rover
//!   regions, hashed by warp. This is the survey's "fragmented into a
//!   binary heap" structure: it multiplies throughput but caps the
//!   largest possible allocation at a region (`heap / num_rovers`).
//! * **CFM** — CM + fused coalescing.

use crate::util::align_up;
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics};
use std::sync::atomic::{AtomicU64, Ordering};

/// Chunk states packed into the low header bits.
const FREE: u64 = 0;
const USED: u64 = 1;
/// A chunk absorbed into its predecessor by fused coalescing; walkers
/// step over it, it is never claimed or revived.
const DEAD: u64 = 2;
/// Transient: a claimer owns the chunk and is publishing its split.
/// Walkers wait out this state instead of hopping the stale full extent
/// (a stale `(USED, whole_region)` header would leap them over the entire
/// free frontier and exhaust their walk budget).
const LOCKED: u64 = 3;
const STATE_MASK: u64 = 3;

const HEADER: u64 = 8;
/// Don't split off remainders smaller than this payload.
const MIN_SPLIT: u64 = 16;
/// Rovers for the multi variants.
const NUM_ROVERS: usize = 32;

#[inline]
fn pack(state: u64, size: u64) -> u64 {
    (size << 2) | state
}

#[inline]
fn unpack(header: u64) -> (u64, u64) {
    (header & STATE_MASK, header >> 2)
}

/// Which RegEff variant an instance runs as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegEffVariant {
    /// Atomic: one list, walks start at the heap head.
    A,
    /// Atomic wrapper: bump allocator with no-op free (not managing).
    AW,
    /// Circular: a shared rover spreads walkers around the list.
    C,
    /// Circular fused: C plus forward coalescing on free.
    CF,
    /// Circular multi: per-rover heap regions hashed by warp.
    CM,
    /// Circular fused multi: CM plus coalescing.
    CFM,
}

impl RegEffVariant {
    fn coalesces(self) -> bool {
        matches!(self, RegEffVariant::CF | RegEffVariant::CFM)
    }

    fn num_regions(self) -> usize {
        match self {
            RegEffVariant::CM | RegEffVariant::CFM => NUM_ROVERS,
            _ => 1,
        }
    }

    fn uses_rover(self) -> bool {
        !matches!(self, RegEffVariant::A | RegEffVariant::AW)
    }

    /// Every variant under its display name, in the order the paper's
    /// figures list them.
    pub const ALL: [(&'static str, RegEffVariant); 6] = [
        ("RegEff-A", RegEffVariant::A),
        ("RegEff-AW", RegEffVariant::AW),
        ("RegEff-C", RegEffVariant::C),
        ("RegEff-CF", RegEffVariant::CF),
        ("RegEff-CM", RegEffVariant::CM),
        ("RegEff-CFM", RegEffVariant::CFM),
    ];

    /// The variant a display name denotes.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    fn display(self) -> &'static str {
        Self::ALL.iter().find(|v| v.1 == self).expect("every variant is listed").0
    }
}

/// A RegEff allocator instance.
pub struct RegEff {
    mem: DeviceMemory,
    variant: RegEffVariant,
    /// Region boundaries: region r is `[bounds[r], bounds[r+1])`.
    bounds: Vec<u64>,
    /// One rover per region: the offset where the next walk starts.
    rovers: Vec<AtomicU64>,
    /// AW bump cursor.
    bump: AtomicU64,
    reserved: AtomicU64,
    metrics: Metrics,
}

impl RegEff {
    /// Build the given variant over a fresh arena.
    pub fn new(heap_bytes: u64, variant: RegEffVariant) -> Self {
        let heap_bytes = align_up(heap_bytes, 64);
        let mem = DeviceMemory::new(heap_bytes as usize);
        let regions = variant.num_regions();
        let mut bounds = Vec::with_capacity(regions + 1);
        for r in 0..=regions {
            bounds.push(align_up(heap_bytes * r as u64 / regions as u64, 8));
        }
        *bounds.last_mut().unwrap() = heap_bytes;
        let rovers = bounds[..regions].iter().map(|&b| AtomicU64::new(b)).collect();
        let alloc = RegEff {
            mem,
            variant,
            bounds,
            rovers,
            bump: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            metrics: Metrics::new(),
        };
        alloc.init_regions();
        alloc
    }

    fn init_regions(&self) {
        for r in 0..self.variant.num_regions() {
            let (lo, hi) = (self.bounds[r], self.bounds[r + 1]);
            self.mem.store_u64(lo, pack(FREE, hi - lo - HEADER));
            self.rovers[r].store(lo, Ordering::Relaxed);
        }
    }

    #[inline]
    fn region_of(&self, ctx_hash: u64) -> usize {
        (ctx_hash as usize) % self.variant.num_regions()
    }

    /// Walk the chunk list of region `r` from `start`, claiming the first
    /// free chunk that fits. Returns the payload offset.
    fn walk_alloc(&self, r: usize, need: u64) -> DevicePtr {
        let (lo, hi) = (self.bounds[r], self.bounds[r + 1]);
        let start = if self.variant.uses_rover() {
            let s = self.rovers[r].load(Ordering::Relaxed);
            if s >= lo && s < hi {
                s
            } else {
                lo
            }
        } else {
            lo
        };
        let mut pos = start;
        let mut traveled: u64 = 0;
        let budget = 2 * (hi - lo);
        loop {
            if pos + HEADER > hi {
                pos = lo;
            }
            let header = self.mem.atomic_u64(pos).load(Ordering::Acquire);
            let (state, size) = unpack(header);
            if size == 0 || pos + HEADER + size > hi {
                // Header corrupted by a racing split we half-observed;
                // restart from the region head (rare).
                pos = lo;
                traveled += HEADER;
                if traveled > budget {
                    return DevicePtr::NULL;
                }
                continue;
            }
            if state == LOCKED {
                // A claimer is mid-split; the window is two stores, so
                // wait it out rather than hopping the stale extent.
                // (Preemption point: under deterministic scheduling the
                // mid-split claimer may be parked and must get the turn.)
                gpu_sim::spin_hint();
                traveled += 1;
                if traveled > budget {
                    return DevicePtr::NULL;
                }
                continue;
            }
            if state == FREE && size >= need {
                // Lock the WHOLE chunk first; only then, owning its full
                // extent, publish a split. (Writing a remainder header
                // before winning the claim would scribble over memory a
                // racing winner already owns.)
                let ok = self
                    .mem
                    .atomic_u64(pos)
                    .compare_exchange(
                        header,
                        pack(LOCKED, size),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                self.metrics.count_cas(ok);
                if !ok {
                    // Lost the claim; re-examine this position.
                    continue;
                }
                let got = if size >= need + HEADER + MIN_SPLIT {
                    // Publish the remainder first (Release), then our own
                    // shrunk header, so any walker that sees the shrunk
                    // size finds a valid header at the jump target.
                    let rem_off = pos + HEADER + need;
                    self.mem
                        .atomic_u64(rem_off)
                        .store(pack(FREE, size - need - HEADER), Ordering::Release);
                    self.mem.atomic_u64(pos).store(pack(USED, need), Ordering::Release);
                    need
                } else {
                    self.mem.atomic_u64(pos).store(pack(USED, size), Ordering::Release);
                    size
                };
                if self.variant.uses_rover() {
                    self.rovers[r].store(pos + HEADER + got, Ordering::Relaxed);
                }
                self.reserved.fetch_add(got + HEADER, Ordering::Relaxed);
                return DevicePtr(pos + HEADER);
            }
            // Used, dead, or too small: advance.
            pos += HEADER + size;
            traveled += HEADER + size;
            if traveled > budget {
                return DevicePtr::NULL;
            }
        }
    }

    fn list_free(&self, ptr: DevicePtr) {
        let pos = ptr.0 - HEADER;
        let header = self.mem.atomic_u64(pos).load(Ordering::Acquire);
        let (state, mut size) = unpack(header);
        assert_eq!(state, USED, "free of non-allocated pointer at {}", ptr.0);
        self.reserved.fetch_sub(size + HEADER, Ordering::Relaxed);
        let r = self.bounds.partition_point(|&b| b <= pos).saturating_sub(1);
        let hi = self.bounds[r + 1];
        if self.variant.coalesces() {
            // Fused: absorb following free chunks (bounded walk).
            for _ in 0..4 {
                let next = pos + HEADER + size;
                if next + HEADER > hi {
                    break;
                }
                let nh = self.mem.atomic_u64(next).load(Ordering::Acquire);
                let (ns, nsize) = unpack(nh);
                if ns != FREE || nsize == 0 || next + HEADER + nsize > hi {
                    break;
                }
                let ok = self
                    .mem
                    .atomic_u64(next)
                    .compare_exchange(nh, pack(DEAD, nsize), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                self.metrics.count_cas(ok);
                if !ok {
                    break;
                }
                size += HEADER + nsize;
            }
        }
        self.mem.atomic_u64(pos).store(pack(FREE, size), Ordering::Release);
        self.metrics.count_rmw();
    }
}

impl DeviceAllocator for RegEff {
    fn name(&self) -> &str {
        self.variant.display()
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        // Zero-size requests take the minimum granule (the
        // `DeviceAllocator::malloc` contract).
        let need = align_up(size.max(1), 8);
        let ptr = match self.variant {
            RegEffVariant::AW => {
                // One atomicAdd, wrapping; never fails, never manages.
                let heap = self.mem.len() as u64;
                let off = self.bump.fetch_add(need + HEADER, Ordering::Relaxed) % heap;
                self.metrics.count_rmw();
                if off + need <= heap {
                    DevicePtr(off)
                } else {
                    DevicePtr(0)
                }
            }
            _ => {
                let r = self.region_of(ctx.warp.warp_id);
                let p = self.walk_alloc(r, need);
                if p.is_null() && self.variant.num_regions() > 1 {
                    // Spill to the neighbor regions before giving up.
                    let mut p2 = DevicePtr::NULL;
                    for step in 1..self.variant.num_regions() {
                        let alt = (r + step) % self.variant.num_regions();
                        p2 = self.walk_alloc(alt, need);
                        if !p2.is_null() {
                            break;
                        }
                    }
                    p2
                } else {
                    p
                }
            }
        };
        self.metrics.count_malloc(!ptr.is_null());
        ptr
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        if ptr.is_null() {
            return;
        }
        self.metrics.count_free();
        if self.variant == RegEffVariant::AW {
            return; // no-op by design
        }
        self.list_free(ptr);
    }

    fn reset(&self) {
        self.init_regions();
        self.bump.store(0, Ordering::Relaxed);
        self.reserved.store(0, Ordering::Relaxed);
        self.metrics.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.mem.len() as u64
    }

    fn supports_size(&self, size: u64) -> bool {
        // Bounded by one region's single initial chunk.
        size <= self.mem.len() as u64 / self.variant.num_regions() as u64 - HEADER
    }

    fn is_managing(&self) -> bool {
        self.variant != RegEffVariant::AW
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
    use gpu_sim::{launch, launch_warps, DeviceConfig, WarpCtx};

    fn with_lane<R>(f: impl FnOnce(&LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    fn managed_variants() -> Vec<RegEffVariant> {
        vec![
            RegEffVariant::A,
            RegEffVariant::C,
            RegEffVariant::CF,
            RegEffVariant::CM,
            RegEffVariant::CFM,
        ]
    }

    #[test]
    fn alloc_free_roundtrip_every_variant() {
        for v in managed_variants() {
            let a = RegEff::new(1 << 20, v);
            with_lane(|l| {
                let ptrs: Vec<_> = (0..100).map(|_| a.malloc(l, 64)).collect();
                assert!(ptrs.iter().all(|p| !p.is_null()), "{v:?}");
                let mut offs: Vec<u64> = ptrs.iter().map(|p| p.0).collect();
                offs.sort_unstable();
                offs.dedup();
                assert_eq!(offs.len(), 100, "{v:?} double allocation");
                for p in ptrs {
                    a.free(l, p);
                }
                assert_eq!(a.stats().reserved_bytes, 0, "{v:?}");
            });
        }
    }

    #[test]
    fn aw_is_a_non_managing_wrapper() {
        let a = RegEff::new(1 << 16, RegEffVariant::AW);
        assert!(!a.is_managing());
        with_lane(|l| {
            let p = a.malloc(l, 32);
            assert!(!p.is_null());
            a.free(l, p); // no-op
                          // AW never runs out: it wraps.
            for _ in 0..10_000 {
                assert!(!a.malloc(l, 512).is_null());
            }
        });
    }

    #[test]
    fn multi_variants_cap_native_size_at_region() {
        let a = RegEff::new(32 << 20, RegEffVariant::CM);
        let region = (32 << 20) / 32 - HEADER;
        assert!(a.supports_size(region) && !a.supports_size(region + 1));
        let single = RegEff::new(32 << 20, RegEffVariant::C);
        assert!(single.supports_size(16 << 20));
    }

    #[test]
    fn exhaustion_returns_null_then_free_recovers() {
        let a = RegEff::new(1 << 14, RegEffVariant::C);
        with_lane(|l| {
            let mut ptrs = Vec::new();
            loop {
                let p = a.malloc(l, 1024);
                if p.is_null() {
                    break;
                }
                ptrs.push(p);
            }
            assert!(ptrs.len() >= 10);
            for p in &ptrs {
                a.free(l, *p);
            }
            assert!(!a.malloc(l, 1024).is_null());
        });
    }

    #[test]
    fn coalescing_variant_reassembles_regions() {
        let a = RegEff::new(1 << 14, RegEffVariant::CF);
        with_lane(|l| {
            let ptrs: Vec<_> = (0..8).map(|_| a.malloc(l, 1024)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            // Free back-to-front so forward coalescing sees free chunks.
            for p in ptrs.iter().rev() {
                a.free(l, *p);
            }
            let big = a.malloc(l, 8 * 1024 + 512);
            assert!(!big.is_null(), "coalescing failed to rebuild a large chunk");
        });
    }

    #[test]
    fn concurrent_storm_no_overlap() {
        for v in [RegEffVariant::C, RegEffVariant::CFM] {
            let a = RegEff::new(4 << 20, v);
            launch_warps(DeviceConfig::with_sms(8), 512, |warp| {
                for lane in warp.lanes() {
                    let l = warp.lane(lane);
                    for round in 0..5 {
                        let size = 16 << ((l.global_tid() + round) % 5);
                        let p = a.malloc(&l, size);
                        if !p.is_null() {
                            a.memory().write_stamp(p, l.global_tid() * 100 + round);
                            assert_eq!(
                                a.memory().read_stamp(p),
                                l.global_tid() * 100 + round,
                                "{v:?} clobbered"
                            );
                            a.free(&l, p);
                        }
                    }
                }
            });
            assert_eq!(a.stats().reserved_bytes, 0, "{v:?}");
        }
    }

    #[test]
    fn a_variant_serializes_from_head() {
        // Behavioural marker: A restarts at the head, so after freeing the
        // first chunk a new allocation lands there.
        let a = RegEff::new(1 << 16, RegEffVariant::A);
        with_lane(|l| {
            let first = a.malloc(l, 64);
            let _second = a.malloc(l, 64);
            a.free(l, first);
            let third = a.malloc(l, 64);
            assert_eq!(third.0, first.0);
        });
    }

    #[test]
    fn reset_restores_capacity() {
        let a = RegEff::new(1 << 16, RegEffVariant::CM);
        launch(DeviceConfig::with_sms(4), 64, |l| {
            a.malloc(l, 256);
        });
        a.reset();
        assert_eq!(a.stats().reserved_bytes, 0);
        with_lane(|l| {
            let region = (1 << 16) / RegEffVariant::CM.num_regions() as u64 - HEADER;
            assert!(a.supports_size(region) && !a.malloc(l, region).is_null());
        });
    }
}
