//! Block tier: per-class block trees and per-SM block buffers
//! (Algorithm 2).
//!
//! A set bit in a class's tree means "this segment is formatted for the
//! class and has blocks available" (paper §4.2); blocks wait in their
//! segment's ring — leaving and coming home a run a ticket, the segment
//! made findable before it is reclaimed — and the hot wavefront is cached
//! per SM in [`crate::buffer::BlockBuffer`] slots for the slice tier.

use super::seed_diag;
use crate::gallatin::Gallatin;
use crate::table::{SegmentMeta, DRAIN_SPIN_LIMIT};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// The block tier: `Gallatin::block_trees`, the segments' rings and the
/// per-SM buffer wavefront `Gallatin::buffers`.
impl Gallatin {
    /// Pop a run of up to `out.len()` blocks of `class` from **one**
    /// formatted segment (probing the block tree from `sm_id`'s start
    /// hint) — one ring ticket, one staleness check — pulling a new
    /// segment from the segment tree when none has blocks available.
    /// Returns the segment and the run's length.
    pub(crate) fn get_many(
        &self,
        class: usize,
        sm_id: u32,
        out: &mut [u64],
    ) -> Option<(u64, usize)> {
        let hint = self.probe_hint(sm_id, self.geo.num_segments);
        loop {
            let Some(seg) = self.block_trees[class].find_first_from(hint) else {
                // No formatted segment with availability; grab a new one.
                if !self.provide(class, sm_id) {
                    // One more scan: a concurrent thread may have attached
                    // a segment between our search and the failed claim.
                    self.block_trees[class].find_first_from(hint)?;
                }
                continue;
            };
            let meta = self.table.seg(seg);
            let n = meta.ring.pop_many(out);
            if n == 0 {
                // Ring empty: deactivate the segment so searches skip it.
                self.deactivate(&meta, class, seg);
                continue;
            }
            self.metrics.count_rmw();
            // Algorithm 2's staleness check: the segment may have been
            // reclaimed and reformatted since we found it.
            if meta.ldcv_tree_id() != class as u32 {
                // Route the run home whole (the straggler bounce the
                // reclaim protocol's drain waits for) and retry elsewhere.
                self.push_home_many(&meta, seg, &out[..n]);
                self.metrics.count_straggler_bounce();
                self.metrics.count_cas(false);
                // A reclaimer holds the bit while it runs, so this is a
                // no-op in the reclaim race; a bit that outlived the
                // segment's time in this class (a `free_many` re-insert
                // racing reclaim + reformat) must go, or the next probe
                // finds the same segment and bounces again, forever.
                self.deactivate(&meta, class, seg);
                continue;
            }
            return Some((seg, n));
        }
    }

    /// Take `seg` out of `class`'s tree so searches skip it, then repair
    /// the race where a free landed in between: a segment that still is
    /// `class`'s and has blocks home goes straight back.
    fn deactivate(&self, meta: &SegmentMeta, class: usize, seg: u64) {
        if self.block_trees[class].claim_exact(seg) {
            self.metrics.count_cas(true);
            if !meta.ring.is_empty() && meta.ldcv_tree_id() == class as u32 {
                self.block_trees[class].insert(seg);
            }
        }
    }

    /// Push `blocks` home to `seg`'s ring in as few tickets as it allows,
    /// riding out transient fullness: `push_many` reports 0 while the
    /// popper of the wrapped-onto cell is between its ticket CAS and its
    /// sequence store, and dropping a block would leak it. The wait is
    /// bounded — a push that can never land means a block was duplicated
    /// or the ring was torn, so after [`DRAIN_SPIN_LIMIT`] spins this
    /// panics with replay diagnostics instead of hanging silently.
    fn push_home_many(&self, meta: &SegmentMeta, seg: u64, mut blocks: &[u64]) {
        let mut spins = 0u64;
        while let Some(&block) = blocks.first() {
            let pushed = meta.ring.push_many(blocks);
            blocks = &blocks[pushed..];
            if pushed > 0 {
                continue;
            }
            gpu_sim::spin_hint();
            spins += 1;
            if spins > DRAIN_SPIN_LIMIT {
                panic!(
                    "segment {seg}: block {block} cannot be pushed home after {spins} spins \
                     (ring occupancy {}, {} push(es) in flight, sched seed {})",
                    meta.ring.len(),
                    meta.ring.pushes_in_flight(),
                    seed_diag(),
                );
            }
        }
        self.metrics.count_rmw();
    }

    /// Return a run of `seg`'s blocks to its ring and restore the
    /// segment's block-tree visibility; reclaim the segment when every
    /// block is home (paper §4.2 / §5). **Findable first, reclaimed
    /// second**: a popper's `deactivate` may have cleared the bit, and a
    /// run that brings the last blocks home (every free, when the block
    /// *is* the segment) would find `try_reclaim`'s `claim_exact` failing
    /// and leave the segment full, formatted and in no tree.
    pub(crate) fn free_many(&self, seg: u64, blocks: &[u64], class: usize) {
        let meta = self.table.seg(seg);
        self.push_home_many(&meta, seg, blocks);
        // Idempotent set-bit — unless the segment was reclaimed and
        // reformatted while this warp sat at `push_home_many`'s preemption
        // points: a bit in the old class's tree would send `get_many`
        // popping another class's blocks.
        if meta.ldcv_tree_id() == class as u32 {
            self.block_trees[class].insert(seg);
        }
        let nblocks = self.geo.blocks_per_segment(class);
        if meta.ring.len() == nblocks {
            self.try_reclaim(seg, class, nblocks);
        }
    }

    /// The buffer share of the invariant check (invariant 4: every
    /// buffered block belongs to a segment whose `tree_id` matches the
    /// buffer's class), collecting each segment's cached blocks for the
    /// per-block ownership accounting. `current(i)` for i < num_slots
    /// visits each slot exactly once (identity under the modular SM
    /// mapping). A buffered block of a segment the instance does not
    /// own (per `owned`) is an error: a segment must be fully drained —
    /// wavefront included — before it can be donated away.
    pub(crate) fn check_buffers(
        &self,
        owned: &dyn Fn(u64) -> bool,
        errors: &mut Vec<String>,
    ) -> HashMap<u64, HashSet<u64>> {
        let geo = &self.geo;
        let mut buffered: HashMap<u64, HashSet<u64>> = HashMap::new();
        for (class, buffer) in self.buffers.iter().enumerate() {
            for i in 0..buffer.num_slots() {
                let Some((handle, _gen)) = buffer.current(i) else { continue };
                let seg = handle.segment(geo.max_blocks);
                let block = handle.block(geo.max_blocks);
                if seg >= geo.num_segments || block >= geo.blocks_per_segment(class) {
                    errors.push(format!(
                        "buffer[class {class}] slot {i} holds out-of-range block {seg}/{block}"
                    ));
                    continue;
                }
                if !owned(seg) {
                    errors.push(format!(
                        "buffer[class {class}] slot {i} caches block {block} of segment \
                         {seg}, which this instance does not own"
                    ));
                }
                let id = self.table.seg(seg).ldcv_tree_id();
                if id != class as u32 {
                    errors.push(format!(
                        "buffer[class {class}] slot {i} caches block {block} of segment \
                         {seg}, whose tree_id is {id}"
                    ));
                }
                if !buffered.entry(seg).or_default().insert(block) {
                    errors.push(format!("block {seg}/{block} is cached in two buffer slots"));
                }
            }
        }
        buffered
    }

    /// The formatted-segment share of the invariant check (invariant 3:
    /// every block of a formatted segment is accounted for exactly once
    /// — waiting in the ring, handed out wholesale, cached in a per-SM
    /// buffer, or carrying live slices). Returns the segment's
    /// reserved-byte contribution; live-slice accounting delegates to
    /// `check_slices`.
    pub(crate) fn check_formatted(
        &self,
        seg: u64,
        class: usize,
        cached_set: &HashSet<u64>,
        errors: &mut Vec<String>,
    ) -> u64 {
        let geo = &self.geo;
        let meta = self.table.seg(seg);
        let nblocks = geo.blocks_per_segment(class);
        let cur = meta.cur_blocks.load(Ordering::Acquire) as u64;
        if cur != nblocks {
            errors.push(format!(
                "segment {seg} (class {class}): cur_blocks is {cur}, format implies \
                 {nblocks}"
            ));
        }
        let snap = meta.ring.snapshot();
        // Skipped cells are an error, not a tolerance: the
        // allocator is quiescent here, so every ticket must be
        // published — a hole can mask a vanished block.
        if snap.skipped > 0 {
            errors.push(format!(
                "segment {seg} ring has {} unpublished cell(s) at a quiescent point \
                 (torn push, or phantom occupancy masking a vanished block)",
                snap.skipped
            ));
        }
        if snap.ids.len() as u64 + snap.skipped != meta.ring.len() {
            errors.push(format!(
                "segment {seg} ring occupancy drift: derived occupancy {} vs {} \
                 published + {} unpublished cell(s)",
                meta.ring.len(),
                snap.ids.len(),
                snap.skipped
            ));
        }
        let mut in_ring = vec![false; nblocks as usize];
        for &b in &snap.ids {
            if b >= nblocks {
                errors.push(format!(
                    "segment {seg} ring holds out-of-range block {b} (class {class} \
                     has {nblocks} blocks)"
                ));
            } else if std::mem::replace(&mut in_ring[b as usize], true) {
                errors.push(format!("segment {seg} ring holds block {b} twice"));
            }
        }
        let mut reserved = 0u64;
        for b in 0..nblocks {
            let Some(live) = self.check_slices(seg, b, errors) else { continue };
            let whole = meta.is_whole_block(b);
            let ringed = in_ring[b as usize];
            let cached = cached_set.contains(&b);
            // Invariant 3: exactly one owner per block.
            if ringed && (whole || cached || live > 0) {
                errors.push(format!(
                    "segment {seg} block {b} is in the ring but also in use \
                     (whole={whole}, buffered={cached}, live slices={live})"
                ));
            }
            if whole && (cached || live > 0) {
                errors.push(format!(
                    "segment {seg} block {b} is wholesale but also \
                     buffered={cached} / live slices={live}"
                ));
            }
            if !ringed && !whole && !cached && live == 0 {
                errors.push(format!(
                    "segment {seg} block {b} is unaccounted for: not in the ring, \
                     not wholesale, not buffered, and has no live slices"
                ));
            }
            reserved += if whole { geo.block_size(class) } else { live * geo.slice_size(class) };
        }
        reserved
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GallatinConfig;
    use crate::gallatin::Gallatin;
    use gpu_sim::{
        launch_warps, launch_warps_profiled, DeviceAllocator, DeviceConfig, DevicePtr, FaultPlan,
        PreemptPoint, WarpCtx,
    };
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    fn tiny() -> Gallatin {
        Gallatin::new(GallatinConfig::small_test(1 << 20)) // 16 segments
    }

    #[test]
    fn block_allocation_and_free_roundtrip() {
        let g = tiny();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let l = warp.lane(0);
        // 1 KB > max_slice (256 B): block path, 1 KB blocks.
        let p = g.malloc(&l, 1000);
        assert!(!p.is_null());
        assert_eq!(p.0 % 1024, 0, "block allocations are block-aligned");
        let before = g.free_segments();
        g.free(&l, p);
        // Freeing the only block returns the segment.
        assert_eq!(g.free_segments(), before + 1);
    }

    /// Front-first probes, so the segment a reclaim frees is the one the
    /// next format grabs.
    fn front_first() -> Gallatin {
        Gallatin::new(GallatinConfig {
            randomize_probe_starts: false,
            ..GallatinConfig::small_test(1 << 20)
        })
    }

    /// Regression for the `get_many` livelock. Warp 0 frees a
    /// whole block and is parked at one of `free_many`'s preemption
    /// points; warp 1 brings the last block home, reclaims the segment
    /// and reformats it for another class. Parked after its push
    /// published, warp 0 used to resume, see a ring length that was not
    /// its class's block count, and hand the old class's tree the
    /// segment's bit back — which `get_many` then found, bounced off and
    /// re-found forever. Sweeping the fault over the launch's first Rmw
    /// crossings, under a few schedules, covers that window without
    /// hard-coding its index.
    #[test]
    fn free_block_parked_across_reclaim_and_reformat_leaves_no_stale_bit() {
        let host = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let raced = AtomicU64::new(0);
        for (seed, nth) in (0..8u64).flat_map(|s| (1..=12u64).map(move |n| (s, n))) {
            let g = front_first();
            let (a, b) = (g.malloc(&host.lane(0), 1000), g.malloc(&host.lane(0), 1000));
            let seg = g.geometry().segment_of(a.0);
            assert_eq!(g.geometry().segment_of(b.0), seg, "both class-0 blocks share a segment");
            let (freeing, reformatted) = (AtomicBool::new(false), AtomicBool::new(false));
            let other = AtomicU64::new(0);
            let fault = FaultPlan::park(PreemptPoint::Rmw, nth, 10_000);
            launch_warps(DeviceConfig::with_sms(1).seeded(seed).with_fault(fault), 64, |warp| {
                let l = warp.lane(0);
                if warp.warp_id == 0 {
                    freeing.store(true, Ordering::SeqCst);
                    g.free(&l, a);
                    // Still inside `free` when warp 1 finished, with the
                    // block home (or the segment could not have been
                    // reclaimed): parked in the window under test.
                    let c = DevicePtr(other.load(Ordering::SeqCst));
                    if reformatted.load(Ordering::SeqCst) && g.geometry().segment_of(c.0) == seg {
                        raced.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    while !freeing.load(Ordering::SeqCst) {
                        gpu_sim::spin_hint();
                    }
                    g.free(&l, b);
                    other.store(g.malloc(&l, 2000).0, Ordering::SeqCst);
                    reformatted.store(true, Ordering::SeqCst);
                }
            });
            let c = DevicePtr(other.load(Ordering::SeqCst));
            assert!(!c.is_null());
            for s in 0..g.geometry().num_segments {
                let id = g.table.seg(s).ldcv_tree_id();
                assert!(
                    id == 0 || !g.block_trees[0].contains(s),
                    "seed {seed} nth {nth}: class 0's tree holds segment {s}, whose tree_id is {id}"
                );
            }
            // `get_many` for the old class returns (it spun forever on the
            // stale bit) and the heap drains clean.
            let d = g.malloc(&host.lane(0), 1000);
            assert!(!d.is_null(), "seed {seed} nth {nth}");
            g.free(&host.lane(0), c);
            g.free(&host.lane(0), d);
            assert_eq!(g.stats().reserved_bytes, 0, "seed {seed} nth {nth}");
            g.check_invariants().unwrap_or_else(|e| panic!("seed {seed} nth {nth}: {e}"));
        }
        assert!(
            raced.into_inner() > 0,
            "no fault position parked the freeing warp across the reformat"
        );
    }

    /// The other half of the fix: a stale bit that does get planted (in
    /// `Pool` mode the check-then-insert in `free_many` is not atomic)
    /// costs `get_many` one bounce, not an endless loop.
    #[test]
    fn get_clears_a_stale_bit_after_one_bounce() {
        let g = front_first();
        let l = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 }.lane(0);
        let c = g.malloc(&l, 2000);
        let seg = g.geometry().segment_of(c.0);
        g.block_trees[0].insert(seg);
        let d = g.malloc(&l, 1000);
        assert!(!d.is_null());
        assert_ne!(g.geometry().segment_of(d.0), seg, "class 0 is served from its own segment");
        assert!(!g.block_trees[0].contains(seg), "the bounce clears the stale bit");
        assert_eq!(g.metrics().unwrap().snapshot().straggler_bounces, 1);
        g.free(&l, c);
        g.free(&l, d);
        g.check_invariants().expect("clean after the bounce");
    }

    #[test]
    fn probe_hints_spread_sms_and_knob_restores_legacy_order() {
        // Randomized probe starts (default on): SM 0 keeps the legacy
        // front-first placement, other SMs start their segment probes at
        // hashed positions so concurrent warps do not all claim bit 0.
        // SM 1 allocates first, so its segment claim cannot piggyback on
        // a segment another SM already activated.
        let g = tiny(); // 16 segments
        let w0 = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let w1 = WarpCtx { warp_id: 1, sm_id: 1, base_tid: 32, active: 1 };
        let b = g.malloc(&w1.lane(0), 16);
        assert_ne!(g.geometry().segment_of(b.0), 0, "SM 1 probes from its hashed start");
        // SM 0 joins the already-active segment instead of claiming a
        // fresh one: wraparound still finds "any free".
        let a = g.malloc(&w0.lane(0), 16);
        assert_eq!(g.geometry().segment_of(a.0), g.geometry().segment_of(b.0));
        g.free(&w0.lane(0), a);
        g.free(&w1.lane(0), b);
        g.check_invariants().expect("invariants hold with randomized probes");

        // Knob off: every SM scans from the front, as the seed did.
        let legacy = Gallatin::new(GallatinConfig {
            randomize_probe_starts: false,
            ..GallatinConfig::small_test(1 << 20)
        });
        let c = legacy.malloc(&w1.lane(0), 16);
        assert_eq!(legacy.geometry().segment_of(c.0), 0, "knob off restores front-first order");
        legacy.free(&w1.lane(0), c);
        legacy.check_invariants().expect("invariants hold with the knob off");
    }

    /// `[atomic_rmw, cas_attempts, mallocs, frees, failed_mallocs]` since the last call.
    fn spent(g: &Gallatin) -> [u64; 5] {
        let m = g.metrics().unwrap().snapshot();
        g.metrics().unwrap().reset();
        [m.atomic_rmw, m.cas_attempts, m.mallocs, m.frees, m.failed_mallocs]
    }

    fn warp(active: usize) -> WarpCtx {
        WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: active as u32 }
    }

    fn warp_malloc(g: &Gallatin, size: u64, lanes: usize) -> Vec<DevicePtr> {
        let mut out = vec![DevicePtr::NULL; lanes];
        g.warp_malloc(&warp(lanes), &vec![Some(size); lanes], &mut out);
        out
    }

    /// The block-tier twin of the slice tier's steady-state group test: in
    /// a formatted segment, a 32-lane single-class block warp costs what one
    /// lane costs — one ring ticket (the one counted RMW, two preemption
    /// points) and one bitmap word a run, each way.
    #[test]
    fn a_block_warp_costs_one_ticket_and_one_bitmap_word_a_run() {
        let cost = |lanes: usize| {
            let g = tiny();
            let held = g.malloc(&warp(1).lane(0), 1000); // formats class 0's segment
            let seg = g.table.seg(g.geo.segment_of(held.0));
            let whole = |p: &DevicePtr| seg.is_whole_block(g.geo.block_of(p.0, 0));
            let device = DeviceConfig::with_sms(1).seeded(3);
            let out = Mutex::new(Vec::new());
            spent(&g);
            let malloc_steps = launch_warps_profiled(device, lanes as u64, |_| {
                *out.lock().unwrap() = warp_malloc(&g, 1000, lanes);
            });
            let out = out.into_inner().unwrap();
            assert!(out.iter().all(whole));
            assert_eq!(spent(&g), [1, 0, lanes as u64, 0, 0], "{lanes}-lane malloc");
            let free_steps = launch_warps_profiled(device, lanes as u64, |w| g.warp_free(w, &out));
            assert_eq!(spent(&g), [1, 0, 0, lanes as u64, 0], "{lanes}-lane free");
            assert!(!out.iter().any(whole) && seg.ring.len() == 63, "the run is home");
            (malloc_steps, free_steps)
        };
        // Steps by kind, in `PreemptPoint::ALL` order then the finish: each
        // way the ticket's counted RMW, its ring window and the warp's end.
        let malloc = (3, [1, 0, 0, 0, 0, 1, 0, 1]);
        let free = (3, [1, 0, 0, 0, 0, 0, 1, 1]);
        assert_eq!(cost(1), (malloc, free), "one lane");
        assert_eq!(cost(32), (malloc, free), "steps: a run crosses the points one block crosses");
    }

    /// Runs that span two bitmap words (`max_blocks` 128) and two segments:
    /// every block is marked, found again and cleared; a group the heap
    /// cannot fill leaves exactly its unserved lanes NULL.
    #[test]
    fn runs_span_bitmap_words_and_segments_and_stop_at_exhaustion() {
        let g = Gallatin::new(GallatinConfig {
            segment_bytes: 128 << 10, // 128 class-0 blocks: two bitmap words
            randomize_probe_starts: false,
            ..GallatinConfig::small_test(256 << 10)
        });
        let mut held = warp_malloc(&g, 1000, 32);
        held.extend(warp_malloc(&g, 1000, 16));
        spent(&g);
        let across_words = warp_malloc(&g, 1000, 32);
        assert_eq!(spent(&g), [1, 0, 32, 0, 0], "one run, one ticket, two words");
        let blocks: Vec<_> = across_words.iter().map(|p| g.geo.block_of(p.0, 0)).collect();
        assert_eq!(blocks, (48..80).collect::<Vec<_>>());
        assert!((48..80).all(|b| g.table.seg(0).is_whole_block(b)));
        held.extend(warp_malloc(&g, 1000, 32));
        spent(&g);
        let across_segments = warp_malloc(&g, 1000, 32);
        // Two runs' tickets and segment 1's attach (a tree insert; two
        // CASes: segment 0 deactivated, segment 1 claimed).
        assert_eq!(spent(&g), [3, 2, 32, 0, 0]);
        let segs: Vec<_> = across_segments.iter().map(|p| g.geo.segment_of(p.0)).collect();
        assert_eq!(segs, [[0u64; 16], [1; 16]].concat());
        (0..3).for_each(|_| held.extend(warp_malloc(&g, 1000, 32)));
        let short = warp_malloc(&g, 1000, 32); // 16 blocks left in a 2-segment heap
        assert!(short[..16].iter().all(|p| !p.is_null()) && short[16..] == [DevicePtr::NULL; 16]);
        assert_eq!(spent(&g)[2..], [32 * 4, 0, 16], "mallocs, frees, failed");
        g.warp_free(&warp(32), &across_segments);
        assert_eq!(spent(&g), [2, 0, 0, 32, 0], "a ticket a segment");
        g.warp_free(&warp(32), &across_words);
        assert!((48..80).all(|b| !g.table.seg(0).is_whole_block(b)));
        held.extend(short);
        held.chunks(32).for_each(|ptrs| g.warp_free(&warp(ptrs.len()), ptrs));
        assert_eq!((g.stats().reserved_bytes, g.free_segments()), (0, 2));
        g.check_invariants().unwrap();
    }

    /// Two lanes naming one whole block behave as the lane loop does: the
    /// second takes the slice route and trips the double-free audit.
    #[test]
    fn two_lanes_freeing_one_block_are_a_lane_loops_double_free() {
        let report = |collective: bool| {
            let g = tiny();
            let a = warp_malloc(&g, 1000, 2)[0]; // the other keeps the segment formatted
            if collective {
                g.warp_free(&warp(3), &[a, DevicePtr::NULL, a]);
            } else {
                g.free(&warp(1).lane(0), a);
                g.free(&warp(1).lane(0), a);
            }
            let seg = g.table.seg(g.geo.segment_of(a.0));
            assert_eq!((seg.ring.len(), g.metrics().unwrap().snapshot().frees), (63, 2));
            g.check_invariants().unwrap_err()
        };
        assert!(report(true).contains("(double free)"), "{}", report(true));
        assert_eq!(report(true), report(false));
    }

    /// The PR 2 straggler window, a run wide. Segment 0 is free (its four
    /// class-4 blocks home) with a stale bit in class 4's tree; warp 0's
    /// 3-lane group pops a run from it, fails the `ldcv` check and is parked
    /// mid-`push_many`, tickets taken and no cell published, while warp 1
    /// formats segment 0 for class 0: the drain waits, one bounce counted.
    #[test]
    fn a_run_parked_mid_push_is_waited_out_by_the_format_drain() {
        for seed in 0..8 {
            let g = front_first();
            let first = g.malloc(&warp(1).lane(0), 16 << 10);
            g.free(&warp(1).lane(0), first);
            assert_eq!((g.geo.segment_of(first.0), g.free_segments()), (0, 16));
            g.block_trees[4].insert(0); // what a `free_many` racing the reclaim plants
            let fault = FaultPlan::park(PreemptPoint::RingPush, 1, 40);
            let (popped, served) = (AtomicBool::new(false), Mutex::new(Vec::new()));
            launch_warps(DeviceConfig::with_sms(1).seeded(seed).with_fault(fault), 64, |w| {
                if w.warp_id == 0 {
                    popped.store(true, Ordering::SeqCst);
                    let out = warp_malloc(&g, 16 << 10, 3); // no lock across its yields
                    served.lock().unwrap().extend(out);
                } else {
                    while !popped.load(Ordering::SeqCst) {
                        gpu_sim::spin_hint();
                    }
                    let p = g.malloc(&w.lane(0), 1000);
                    assert_eq!(g.geo.segment_of(p.0), 0, "seed {seed}: the front segment");
                    served.lock().unwrap().push(p);
                }
            });
            let (m, served) = (g.metrics().unwrap().snapshot(), served.into_inner().unwrap());
            assert!(m.drain_spins > 0, "seed {seed}: the format never met the parked run");
            assert_eq!(m.straggler_bounces, 1, "seed {seed}: once per bounced run");
            assert!(!g.block_trees[4].contains(0), "seed {seed}: the stale bit is gone");
            assert!(served.iter().all(|p| !p.is_null()), "seed {seed}: {served:?}");
            served.iter().for_each(|&p| g.free(&warp(1).lane(0), p));
            assert_eq!(g.stats().reserved_bytes, 0, "seed {seed}");
            g.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
