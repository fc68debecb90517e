//! The Gallatin allocator: its state, size routing and the warp-collective
//! entry points; each tier's protocol is an `impl Gallatin` block in
//! [`crate::tiers`].
//!
//! Allocation routes by size (paper Figure 3, smallest pipeline first):
//!
//! * `size ≤ max_slice` (4096 B default) → **slice** pipeline
//!   ([`crate::tiers::slice`]): coalesce same-class requests in the
//!   warp, one batched claim on the cached block's malloc counter serves
//!   the whole group (Algorithm 3);
//! * `max_slice < size ≤ segment` → **block** pipeline
//!   ([`crate::tiers::block`]): pop whole blocks of the smallest
//!   sufficient class, a warp's group one ring ticket a run (Algorithm 2);
//! * `size > segment` → **segment** pipeline
//!   ([`crate::tiers::segment`]): claim contiguous segments from the
//!   *back* of the segment tree (Algorithm 1's multi-segment branch).
//!
//! Frees invert the mapping from the pointer offset alone (Algorithm 4):
//! divide by the segment size for the segment id, read its `tree_id`,
//! then route to the slice, block, or segment return path. Group order in
//! a warp: slice classes, block classes, multi-segment lanes on a malloc;
//! multi-segment lanes, whole-block runs, slice groups on a free.

use crate::buffer::BlockBuffer;
use crate::config::{GallatinConfig, Geometry};
use crate::router::{Arena, Level};
use crate::table::{BlockHandle, MemoryTable, LARGE_BASE, LARGE_BODY, TREE_FREE};
use crate::tiers::RESERVED;
use gpu_sim::{
    trace, AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, LaneMask, Metrics,
    Striped, WarpCtx, WARP_SIZE,
};
use std::sync::Arc;
use veb::VebTree;

/// The Gallatin GPU memory manager.
pub struct Gallatin {
    pub(crate) geo: Geometry,
    pub(crate) mem: DeviceMemory,
    /// One bit per free segment; allocations claim from the front,
    /// multi-segment allocations from the back (Algorithm 1, §4.1).
    pub(crate) segments: VebTree,
    /// One tree per class; a set bit means "this segment is formatted for
    /// the class and has blocks available" (Algorithm 2, §4.2).
    pub(crate) block_trees: Vec<VebTree>,
    /// Per-class, per-SM cached blocks the slice pipeline claims from
    /// (Algorithm 3, §4.3).
    pub(crate) buffers: Vec<BlockBuffer>,
    /// Shared in pool mode: every instance under a [`crate::Router`]
    /// holds the same table so a donated segment's metadata travels with
    /// it (see `crate::elastic`).
    pub(crate) table: Arc<MemoryTable>,
    pub(crate) metrics: Metrics,
    /// Start tree probes at an SM-hashed position (paper §4.3); see
    /// [`GallatinConfig::randomize_probe_starts`].
    pub(crate) randomize_probes: bool,
    /// Bytes reserved by live allocations (internal accounting, includes
    /// size-class rounding), in cell [`RESERVED`].
    pub(crate) reserved: Striped,
    /// The segment span `[first, first+count)` this instance initially
    /// owns — the whole universe standalone, one shard in pool mode.
    /// `reset_local` restores exactly this span.
    pub(crate) span: (u64, u64),
}

/// Append lifecycle-ledger violations (leaks and unmatched frees seen by
/// the host thread's trace sink, when its teardown leak check is armed)
/// to `errors`, each with full provenance. The ledger pairs per
/// `(device, instance, ptr)` and names both in every line, so one pass
/// covers every instance whose events the sink captured.
fn ledger_errors(errors: &mut Vec<String>) {
    let Some(sink) = trace::current_sink() else { return };
    if !sink.leak_check_enabled() {
        return;
    }
    errors.extend(gpu_sim::ledger::Ledger::build(&sink.snapshot()).anomaly_lines());
}

/// The tail every invariant check ends with, whatever the level that ran
/// it: add the lifecycle-ledger pass to the structural `errors` (once,
/// at the root — the ledger already spans every device and instance; with
/// the sink's leak check armed, an allocation the trace saw malloc'd but
/// never freed is a violation), and on failure leave a replayable trace
/// behind, named `dump_label`.
pub(crate) fn invariant_report(mut errors: Vec<String>, dump_label: &str) -> Result<(), String> {
    ledger_errors(&mut errors);
    if errors.is_empty() {
        return Ok(());
    }
    if let Some(path) = trace::auto_dump(dump_label) {
        errors.push(format!("trace auto-dumped to {}", path.display()));
    }
    Err(errors.join("\n"))
}

impl Gallatin {
    /// Build and initialize an allocator over a fresh arena. Owns the
    /// whole heap and a private memory table; pool instances are instead
    /// built over a shared table (`Level::build`, see `crate::elastic`) so
    /// a donated segment's metadata is visible from its new home.
    pub fn new(cfg: GallatinConfig) -> Self {
        let geo = cfg.geometry();
        let mem = DeviceMemory::new(geo.heap_bytes as usize);
        Level::build(&[], &Arena::new(cfg, mem), 0, geo.num_segments)
    }

    /// The derived geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Number of segments currently free (diagnostics / tests).
    pub fn free_segments(&self) -> u64 {
        self.segments.count()
    }

    /// Bytes reserved by live allocations, saturated against wrap.
    ///
    /// The `reserved` counter is a wrapping sum over per-thread cells,
    /// adjusted with unpaired adds and subs on the malloc and free paths,
    /// so a reader racing those updates can observe the subtraction
    /// before the matching addition and see the sum momentarily below
    /// zero — which as a `u64` reads as ~2^64. Stats must never surface
    /// that absurdity, so a wrapped reading reports 0. (The transient is
    /// read-side only: the adds and subs themselves always pair off, and
    /// [`Self::check_invariants`] verifies the settled value exactly.)
    pub fn reserved_bytes(&self) -> u64 {
        let raw = self.reserved.sum(RESERVED);
        if (raw as i64) < 0 {
            0
        } else {
            raw
        }
    }

    /// Raw access to the memory table, for tests and diagnostic tools
    /// (e.g. corrupting a `tree_id` to exercise [`Self::check_invariants`]).
    /// Not part of the allocation API.
    #[doc(hidden)]
    pub fn table(&self) -> &MemoryTable {
        &self.table
    }

    // ==================================================================
    // Invariant checking (host-side diagnostics)
    // ==================================================================

    /// The structural share of [`Self::check_invariants`] — every tier's
    /// table/tree/buffer cross-checks plus the reserved-counter audit,
    /// without the trace-ledger pass or the auto-dump (the root of a
    /// routing hierarchy runs those once) — restricted to segments
    /// `owned` says belong to this instance. A router passes its routing
    /// table here: each instance audits exactly the segments currently
    /// homed on it (including adopted ones), and flags any unowned
    /// segment that still lingers in one of its trees — the footprint of
    /// a donation that skipped the quiesce handshake.
    pub(crate) fn structural_errors_where(&self, owned: &dyn Fn(u64) -> bool) -> Vec<String> {
        let mut errors: Vec<String> = Vec::new();
        // Invariant 4 first: collects each segment's cached blocks for
        // the per-block ownership accounting in the walk.
        let buffered = self.check_buffers(owned, &mut errors);
        let computed_reserved = self.check_segments(&buffered, owned, &mut errors);
        // Invariant 5: the reserved counter matches the table. Checked on
        // the raw sum, not the saturating accessor — a wrapped value is
        // itself the violation being reported.
        let reserved = self.reserved.sum(RESERVED);
        if computed_reserved != reserved {
            let wrapped = if (reserved as i64) < 0 { " (wrapped below zero)" } else { "" };
            errors.push(format!(
                "reserved accounting mismatch: counter says {reserved} bytes{wrapped}, table \
                 implies {computed_reserved}"
            ));
        }
        errors
    }

    /// Walk the segment tree, block trees, memory table, and per-SM block
    /// buffers and verify the cross-structure invariants of paper §4–5:
    ///
    /// 1. each segment has exactly one owner — `tree_id` is `TREE_FREE`
    ///    iff the segment is in the segment tree, and a segment in a block
    ///    tree is formatted for exactly that class;
    /// 2. freed segments are drained — a `TREE_FREE` segment's ring holds
    ///    every block of its previous format, with no live slices and no
    ///    whole-block bits outstanding;
    /// 3. every block of a formatted segment is accounted for exactly
    ///    once: waiting in the ring, handed out wholesale, cached in a
    ///    per-SM buffer, or carrying live slices;
    /// 4. every buffered block belongs to a segment whose `tree_id`
    ///    matches the buffer's class;
    /// 5. the `reserved` counter equals the byte total implied by live
    ///    slices, whole blocks, and large allocations.
    ///
    /// Each tier checks its own share: invariant 4 in `check_buffers`,
    /// 1/2 and the segment walk in `check_segments`, per-block ownership
    /// and the double-free audit in `check_formatted` / `check_slices`.
    ///
    /// Like [`Gallatin::trim`], this must only run while the allocator is
    /// quiescent (a host-side maintenance point between kernels). All
    /// violations are collected before returning, so one corruption
    /// reports its full blast radius in a single `Err`.
    pub fn check_invariants(&self) -> Result<(), String> {
        invariant_report(self.structural_errors_where(&|_| true), "invariant_failure")
    }

    // ==================================================================
    // Size routing
    // ==================================================================

    /// Allocate `n` contiguous segments (requests above the largest
    /// block).
    fn large_malloc(&self, size: u64) -> DevicePtr {
        let n = self.geo.segments_for(size);
        match self.claim_back(n) {
            Some(start) => {
                self.reserved.add(RESERVED, n * self.geo.segment_bytes);
                let off = start * self.geo.segment_bytes;
                trace::emit(|| trace::TraceEvent::Malloc {
                    size: n * self.geo.segment_bytes,
                    tier: trace::AllocTier::Large,
                    ptr: off,
                });
                DevicePtr(off)
            }
            None => DevicePtr::NULL,
        }
    }

    /// The group that serves `size`, indexed by the exponent of the size it
    /// hands out over `min_slice`: slice class `c` at `c`, block class `c`
    /// at `c + log2(slices_per_block)` — above every slice class, since a
    /// block request exceeds `max_slice`. `None`: a multi-segment request.
    pub(crate) fn group_of(&self, size: u64) -> Option<usize> {
        let block_base = self.geo.slices_per_block.trailing_zeros() as usize;
        let block_group = || self.geo.block_class(size).map(|class| class + block_base);
        self.geo.slice_class(size).or_else(block_group)
    }

    /// Serve `lanes`, all of [`Self::group_of`]'s `group`, through `assign`;
    /// returns the lanes served, the group's lowest. A slice group is
    /// [`Self::malloc_slices`]'s; a block group (mid-size requests) takes
    /// one whole block a lane: per run [`Self::get_many`] returns — one
    /// ring ticket — one `fetch_or` per bitmap word and one `reserved.add`.
    pub(crate) fn malloc_group(
        &self,
        group: usize,
        sm_id: u32,
        lanes: LaneMask,
        mut assign: impl FnMut(usize, DevicePtr),
    ) -> usize {
        if group < self.geo.num_classes {
            return self.malloc_slices(sm_id, group, lanes, assign);
        }
        let class = group - self.geo.slices_per_block.trailing_zeros() as usize;
        let size = self.geo.block_size(class);
        let mut left = lanes; // lanes not yet served
        let mut run = [0u64; WARP_SIZE];
        while !left.is_empty() {
            let want = &mut run[..left.count()];
            let Some((seg, n)) = self.get_many(class, sm_id, want) else {
                break; // heap exhausted for this class
            };
            self.table.seg(seg).set_whole_blocks(&run[..n]);
            self.reserved.add(RESERVED, n as u64 * size);
            for (&block, lane) in run[..n].iter().zip(left.by_ref()) {
                let off = self.geo.offset_of(seg, block, 0, class);
                let tier = trace::AllocTier::Block;
                trace::emit(|| trace::TraceEvent::Malloc { size, tier, ptr: off });
                assign(lane, DevicePtr(off));
            }
        }
        lanes.count() - left.count()
    }

    pub(crate) fn malloc_routed(&self, sm_id: u32, size: u64) -> DevicePtr {
        // Zero-size requests are served as the minimum slice (see the
        // `DeviceAllocator::malloc` contract).
        let mut ptr = DevicePtr::NULL;
        if let Some(group) = self.group_of(size.max(1)) {
            self.malloc_group(group, sm_id, LaneMask::lane(0), |_, p| ptr = p);
        } else {
            ptr = self.large_malloc(size);
        }
        self.metrics.count_malloc(!ptr.is_null());
        ptr
    }

    /// The one free-route decode: read the segment's `tree_id` and
    /// release what `ptr` names — a large run — or, for a pointer into a
    /// formatted segment, return its `(segment, class, block)` and whether
    /// it names a block handed out whole, for [`Self::free_stamped`] to
    /// return in a run or to the block's slice counter. The caller also
    /// counts the free: once per pointer, or once per warp. Panics on
    /// foreign, interior-large and unformatted-segment pointers.
    ///
    /// The Free event (stamped with `lane`) records the bytes *this
    /// path* releases; the trace Ledger cross-checks it against the
    /// paired Malloc, so a misrouted free (wrong tier, wrong class)
    /// surfaces as a typed size-mismatch anomaly instead of silent
    /// accounting drift. Each branch emits before the region becomes
    /// reusable by others (a whole block's in `free_stamped`).
    #[inline]
    fn release(&self, lane: u32, ptr: DevicePtr) -> Option<(u64, usize, u64, bool)> {
        let off = ptr.0;
        assert!(off < self.geo.heap_bytes, "free of foreign pointer {off}");
        let seg = self.geo.segment_of(off);
        let meta = self.table.seg(seg);
        let id = meta.ldcv_tree_id();
        let freed =
            |size: u64| trace::emit_lane(lane, || trace::TraceEvent::Free { ptr: off, size });
        if (id as usize) < self.geo.num_classes {
            let class = id as usize;
            let block = self.geo.block_of(off, class);
            let whole = self.geo.slice_of(off, class) == 0 && meta.is_whole_block(block);
            if !whole {
                freed(self.geo.slice_size(class));
            }
            return Some((seg, class, block, whole));
        } else if id == LARGE_BODY {
            freed(0);
            panic!("free of interior pointer into a large allocation (segment {seg})");
        } else if id >= LARGE_BASE && id != TREE_FREE {
            match self.table.unmark_large(seg) {
                Some(n) => {
                    freed(n * self.geo.segment_bytes);
                    self.reserved.sub(RESERVED, n * self.geo.segment_bytes);
                    self.segments.insert_range(seg, n);
                }
                // Raced large free: the run length is gone, size unknown.
                None => freed(0),
            }
        } else {
            freed(0);
            panic!("free into an unformatted segment {seg} (double free?)");
        }
        None
    }

    /// Count and free what the lanes of `live` name in `ptrs`, events
    /// stamped `stamp` (`None`: their lane). Large frees complete inside
    /// `release`, lane by lane. Then whole-block lanes ballot by segment,
    /// leaders ascending: one `fetch_and` per bitmap word clears a run, the
    /// lanes that won their bit share one `reserved.sub` and one
    /// [`Self::free_many`] — one ring ticket — and a lane that lost (a
    /// block named twice, a double free) takes the slice route, as a lane
    /// loop would. Last, slice lanes ballot by block (paper §6.5).
    pub(crate) fn free_stamped(&self, live: LaneMask, ptrs: &[DevicePtr], stamp: Option<u32>) {
        self.metrics.count_frees(live.count() as u64);
        let stamp = |lane: usize| stamp.unwrap_or(lane as u32);
        let max_blocks = self.geo.max_blocks;
        // Block handle and class of each block or slice lane.
        let (mut handles, mut classes) = ([BlockHandle(0); WARP_SIZE], [0u8; WARP_SIZE]);
        let (mut wholes, mut slices) = (LaneMask::EMPTY, LaneMask::EMPTY);
        for lane in live {
            if let Some((seg, class, block, whole)) = self.release(stamp(lane), ptrs[lane]) {
                handles[lane] = BlockHandle::new(seg, block, max_blocks);
                classes[lane] = class as u8;
                if whole { &mut wholes } else { &mut slices }.insert(lane);
            }
        }
        let freed = |lane: usize, size: u64| {
            trace::emit_lane(stamp(lane), || trace::TraceEvent::Free { ptr: ptrs[lane].0, size })
        };
        while let Some(leader) = wholes.lowest() {
            // A segment's handles are `first..first + max_blocks`, and it has
            // one class while a block of it is out.
            let (seg, class) = (handles[leader].segment(max_blocks), classes[leader] as usize);
            let block = |lane: usize| handles[lane].0.wrapping_sub(seg * max_blocks);
            let group = wholes.keep(|lane| block(lane) < max_blocks);
            wholes = wholes.without(group);
            let won = self.table.seg(seg).clear_whole_blocks(group, block);
            let mut run = [0u64; WARP_SIZE];
            for (slot, lane) in run.iter_mut().zip(won) {
                freed(lane, self.geo.block_size(class));
                *slot = block(lane);
            }
            if !won.is_empty() {
                self.reserved.sub(RESERVED, won.count() as u64 * self.geo.block_size(class));
                self.free_many(seg, &run[..won.count()], class);
            }
            for lane in group.without(won) {
                freed(lane, self.geo.slice_size(class));
                slices.insert(lane);
            }
        }
        while let Some(leader) = slices.lowest() {
            let group = slices.keep(|lane| handles[lane] == handles[leader]);
            slices = slices.without(group);
            let (h, class, n) = (handles[leader], classes[leader] as usize, group.count() as u32);
            self.free_slices(h.segment(max_blocks), class, h.block(max_blocks), n);
        }
    }

    pub(crate) fn free_routed(&self, ptr: DevicePtr) {
        self.free_stamped(LaneMask::lane(0), &[ptr], Some(trace::LANE_NONE));
    }
}

impl DeviceAllocator for Gallatin {
    fn name(&self) -> &str {
        "Gallatin"
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        self.malloc_routed(ctx.sm_id(), size)
    }

    fn free(&self, _ctx: &LaneCtx, ptr: DevicePtr) {
        self.free_routed(ptr);
    }

    /// One ballot; `free_stamped` documents the groups and their order.
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        debug_assert_eq!(ptrs.len(), warp.active as usize);
        self.free_lanes(warp.sm_id, LaneMask::ballot(ptrs, |p| !p.is_null()), ptrs);
    }

    /// One ballot; `Level::malloc_lanes` documents the groups and their order.
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        debug_assert_eq!(sizes.len(), warp.active as usize);
        debug_assert_eq!(out.len(), warp.active as usize);
        out.fill(DevicePtr::NULL);
        self.malloc_lanes(warp.sm_id, LaneMask::ballot(sizes, Option::is_some), sizes, out);
    }

    fn reset(&self) {
        self.reset_local();
        self.table.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.geo.heap_bytes
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn check_invariants(&self) -> Result<(), String> {
        Gallatin::check_invariants(self)
    }

    fn stats(&self) -> AllocStats {
        let free_segments = self.free_segments();
        AllocStats { free_segments, ..AllocStats::leaf(self.geo.heap_bytes, self.reserved_bytes()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch_warps, DeviceConfig};

    fn tiny() -> Gallatin {
        Gallatin::new(GallatinConfig::small_test(1 << 20)) // 16 segments
    }

    fn with_lane<R>(f: impl FnOnce(&LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn slice_allocations_are_distinct_and_in_bounds() {
        let g = tiny();
        with_lane(|l| {
            let mut ptrs = Vec::new();
            for _ in 0..500 {
                let p = g.malloc(l, 16);
                assert!(!p.is_null());
                assert!(p.0 + 16 <= g.heap_bytes());
                ptrs.push(p.0);
            }
            ptrs.sort_unstable();
            ptrs.dedup();
            assert_eq!(ptrs.len(), 500);
            for &p in &ptrs {
                g.free(l, DevicePtr(p));
            }
        });
    }

    #[test]
    fn size_zero_allocates_and_oversize_fails_cleanly() {
        let g = tiny();
        with_lane(|l| {
            // malloc(0) returns a valid unique pointer (the contract in
            // `DeviceAllocator::malloc`): it is a minimum-slice request.
            let a = g.malloc(l, 0);
            let b = g.malloc(l, 0);
            assert!(!a.is_null() && !b.is_null());
            assert_ne!(a.0, b.0, "zero-size allocations must be unique");
            g.free(l, a);
            g.free(l, b);
            assert!(g.malloc(l, g.heap_bytes() + 1).is_null());
            g.check_invariants().unwrap();
        });
    }

    #[test]
    fn large_allocations_come_from_the_back() {
        let g = tiny();
        with_lane(|l| {
            let seg_bytes = g.geometry().segment_bytes;
            let p = g.malloc(l, 3 * seg_bytes); // 3 contiguous segments
            assert!(!p.is_null());
            assert_eq!(p.0 % seg_bytes, 0);
            assert_eq!(g.geometry().segment_of(p.0), 13, "claims from the back");
            let small = g.malloc(l, 16);
            assert_eq!(g.geometry().segment_of(small.0), 0, "small from the front");
            g.free(l, p);
            assert_eq!(g.free_segments(), 15); // one held by the slice segment
            g.free(l, small);
        });
    }

    #[test]
    fn whole_heap_allocation_succeeds_when_empty() {
        let g = tiny();
        with_lane(|l| {
            let p = g.malloc(l, g.heap_bytes());
            assert!(!p.is_null());
            assert_eq!(p.0, 0);
            assert!(g.malloc(l, 16).is_null(), "nothing left");
            g.free(l, p);
            assert!(!g.malloc(l, 16).is_null());
        });
    }

    #[test]
    fn payload_stamps_survive() {
        let g = tiny();
        with_lane(|l| {
            let ptrs: Vec<_> = (0..200)
                .map(|i| {
                    let p = g.malloc(l, 64);
                    g.memory().write_stamp(p, 0xabc0 + i);
                    p
                })
                .collect();
            for (i, &p) in ptrs.iter().enumerate() {
                assert_eq!(g.memory().read_stamp(p), 0xabc0 + i as u64);
                g.free(l, p);
            }
        });
    }

    #[test]
    fn mixed_warp_requests_route_correctly() {
        let g = tiny();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 10 };
        let sizes = vec![
            Some(16u64),
            Some(16),
            Some(256),
            None,
            Some(1024),           // block path
            Some((2 * 64) << 10), // large path (2 segments)
            Some(16),
            Some(32),
            Some(16 << 10), // a second block class
            Some(1000),     // joins lane 4's run
        ];
        let mut out = vec![DevicePtr::NULL; 10];
        g.warp_malloc(&warp, &sizes, &mut out);
        for (i, p) in out.iter().enumerate() {
            if sizes[i].is_some() {
                assert!(!p.is_null(), "lane {i} failed");
            } else {
                assert!(p.is_null());
            }
        }
        assert_eq!(out[9].0, out[4].0 + 1024, "one class, one segment, consecutive blocks");
        g.warp_free(&warp, &out);
        assert_eq!(g.stats().reserved_bytes, 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_malloc_free_storm_no_overlap() {
        let g = std::sync::Arc::new(Gallatin::new(GallatinConfig::small_test(2 << 20)));
        let threads = 2048u64;
        launch_warps(DeviceConfig::with_sms(8), threads, |warp| {
            let n = warp.active as usize;
            let sizes: Vec<Option<u64>> =
                (0..n).map(|l| Some(16 << ((warp.base_tid as usize + l) % 4))).collect();
            let mut out = vec![DevicePtr::NULL; n];
            for _round in 0..10 {
                g.warp_malloc(warp, &sizes, &mut out);
                for (l, p) in out.iter().enumerate() {
                    if !p.is_null() {
                        g.memory().write_stamp(*p, warp.base_tid + l as u64);
                    }
                }
                for (l, p) in out.iter().enumerate() {
                    if !p.is_null() {
                        assert_eq!(
                            g.memory().read_stamp(*p),
                            warp.base_tid + l as u64,
                            "payload clobbered: overlapping allocation"
                        );
                    }
                }
                g.warp_free(warp, &out);
            }
        });
        assert_eq!(g.stats().reserved_bytes, 0);
        g.check_invariants().expect("invariants violated after storm");
    }

    #[test]
    fn invariants_hold_through_the_allocation_lifecycle() {
        let g = tiny();
        g.check_invariants().expect("fresh allocator");
        with_lane(|l| {
            // Live allocations across all three pipelines.
            let slices: Vec<_> = (0..10).map(|i| g.malloc(l, 16 << (i % 5))).collect();
            let block = g.malloc(l, 1024);
            let large = g.malloc(l, 2 * (64 << 10));
            g.check_invariants().expect("live allocations");
            // A stale bit (class 1's, on class 0's segment, whose 63 home
            // blocks pass for "full") is dropped by `try_reclaim`, not obeyed.
            let seg = g.geo.segment_of(block.0);
            g.block_trees[1].insert(seg);
            g.try_reclaim(seg, 1, 63);
            assert!(!g.block_trees[1].contains(seg) && g.table.seg(seg).ldcv_tree_id() == 0);
            for &p in &slices {
                g.free(l, p);
            }
            g.free(l, block);
            g.free(l, large);
            g.check_invariants().expect("after frees");
        });
        g.trim();
        g.check_invariants().expect("after trim");
        g.reset();
        g.check_invariants().expect("after reset");
    }

    #[test]
    fn invariant_checker_flags_reserved_drift() {
        let g = tiny();
        with_lane(|l| {
            let p = g.malloc(l, 16);
            g.reserved.add(RESERVED, 1);
            let err = g.check_invariants().unwrap_err();
            assert!(err.contains("reserved accounting mismatch"), "unexpected report: {err}");
            // Undone from another thread: only the sum over cells counts.
            std::thread::scope(|s| s.spawn(|| g.reserved.sub(RESERVED, 1)).join()).unwrap();
            g.free(l, p);
            g.check_invariants().expect("healthy after undoing the drift");
        });
    }

    #[test]
    fn reserved_stat_never_reports_a_wrapped_value() {
        let g = tiny();
        // Simulate the read-side transient: a free's sub observed before
        // the matching malloc's add drives the raw sum below zero (~2^64
        // as a u64).
        g.reserved.sub(RESERVED, 4096);
        assert_eq!(g.stats().reserved_bytes, 0, "wrapped counter must saturate to 0");
        assert_eq!(g.reserved_bytes(), 0);
        g.reserved.add(RESERVED, 4096);
        assert_eq!(g.stats().reserved_bytes, 0);
        // Ordinary values pass through untouched.
        with_lane(|l| {
            let p = g.malloc(l, 16);
            assert!(g.stats().reserved_bytes > 0);
            g.free(l, p);
            assert_eq!(g.stats().reserved_bytes, 0);
        });
        g.check_invariants().expect("healthy after the transient was undone");
    }

    #[test]
    fn reserved_settles_to_zero_when_other_threads_free() {
        // Each round every thread frees what its neighbour allocated, so
        // each thread's own `reserved` cell only ever drifts (up on the
        // allocating side of a pair, below zero on the freeing side);
        // the sum over cells must still settle to exactly 0.
        const THREADS: usize = 4;
        let g = Gallatin::new(GallatinConfig::small_test(4 << 20));
        let handoff: Vec<_> = (0..THREADS).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        let round_done = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (g, handoff, round_done) = (&g, &handoff, &round_done);
                s.spawn(move || {
                    let warp =
                        WarpCtx { warp_id: t as u64, sm_id: t as u32, base_tid: 0, active: 1 };
                    let lane = warp.lane(0);
                    for round in 0..50u64 {
                        // All three pipelines: slices, a block, a large run.
                        let sizes = [16, 64 << (round % 4), 1024, 2 * (64 << 10)];
                        let mine: Vec<_> = sizes.iter().map(|&sz| g.malloc(&lane, sz)).collect();
                        assert!(mine.iter().all(|p| !p.is_null()));
                        *handoff[t].lock().unwrap() = mine;
                        round_done.wait();
                        let theirs =
                            std::mem::take(&mut *handoff[(t + 1) % THREADS].lock().unwrap());
                        for p in theirs {
                            g.free(&lane, p);
                        }
                        round_done.wait();
                    }
                });
            }
        });
        assert_eq!(g.stats().reserved_bytes, 0);
        g.check_invariants().expect("reserved matches the table after the storm");
    }

    #[test]
    fn reset_restores_full_capacity() {
        let g = tiny();
        with_lane(|l| {
            for _ in 0..100 {
                g.malloc(l, 64);
            }
            let p = g.malloc(l, (4 * 64) << 10);
            assert!(!p.is_null());
        });
        g.reset();
        assert_eq!(g.free_segments(), 16);
        assert_eq!(g.stats().reserved_bytes, 0);
        with_lane(|l| {
            let p = g.malloc(l, g.heap_bytes());
            assert!(!p.is_null(), "whole heap available after reset");
        });
    }

    #[test]
    #[should_panic(expected = "interior pointer")]
    fn interior_large_free_panics() {
        let g = tiny();
        with_lane(|l| {
            let p = g.malloc(l, 2 * (64 << 10));
            g.free(l, DevicePtr(p.0 + (64 << 10)));
        });
    }
}
