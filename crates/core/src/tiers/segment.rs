//! Segment tier: the segment tree, claim/reclaim/trim (Algorithm 1).
//!
//! Segments are claimed from the *front* of the tree to be formatted
//! for a slice class and from the *back* (contiguous first-fit) for
//! large allocations, keeping the two traffic kinds from fragmenting
//! each other (paper §4.1). The class→free transition is the two-phase
//! verify described in [`crate::table`]'s module docs; `trim` is the
//! host-side maintenance hook that releases the buffered wavefront.

use crate::gallatin::Gallatin;
use crate::table::{LARGE_BASE, LARGE_BODY, SLICE_COUNT_MASK, TREE_FREE};
use gpu_sim::trace;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// The segment tier: the protocols that move segments of
/// `Gallatin::segments` between "free" and "formatted".
impl Gallatin {
    /// Claim one free segment, probing from `sm_id`'s hashed start with
    /// wraparound. Every claim attempt — won or lost — is surfaced to the
    /// metrics, so the E14 ablation prices exactly the CAS traffic the
    /// randomized starts remove.
    fn claim_front(&self, sm_id: u32) -> Option<u64> {
        let universe = self.geo.num_segments;
        let hint = self.probe_hint(sm_id, universe);
        let mut x = hint;
        // With a zero hint the first pass already covers the whole
        // universe, so there is nothing to wrap back for.
        let mut wrapped = hint == 0;
        loop {
            match self.segments.successor(x) {
                Some(s) => {
                    let won = self.segments.claim_exact(s);
                    self.metrics.count_cas(won);
                    if won {
                        return Some(s);
                    }
                    // Lost the race for s; resume the scan just past it.
                    x = s + 1;
                }
                None => {
                    if wrapped {
                        return None;
                    }
                    wrapped = true;
                    x = 0;
                }
            }
            if x >= universe {
                if wrapped {
                    return None;
                }
                wrapped = true;
                x = 0;
            }
        }
    }

    /// Claim one segment from the segment tree (probing from `sm_id`'s
    /// start hint), format it for `class`, and attach it to that block
    /// tree. Returns `false` when no segment is free.
    pub(crate) fn provide(&self, class: usize, sm_id: u32) -> bool {
        let Some(seg) = self.claim_front(sm_id) else {
            return false;
        };
        trace::emit(|| trace::TraceEvent::SegmentGrab { seg, class: class as u32 });
        let drain_spins = self.table.format_segment(seg, class);
        self.metrics.count_drain_spins(drain_spins);
        // Broadcast availability: insert into the block tree last, so any
        // thread that finds the segment sees a fully formatted state.
        self.block_trees[class].insert(seg);
        self.metrics.count_rmw();
        true
    }

    /// Claim `n` contiguous segments from the *back* of the segment tree
    /// (first fit from the end) as one large allocation.
    pub(crate) fn claim_back(&self, n: u64) -> Option<u64> {
        let start = self.segments.claim_contiguous_from_back(n)?;
        self.table.mark_large(start, n);
        Some(start)
    }

    /// Attempt the class→free transition — the two-phase verify described
    /// in `crate::table`'s module docs.
    pub(crate) fn try_reclaim(&self, seg: u64, class: usize, nblocks: u64) {
        // Phase 1 (claim-unreachable): remove the segment from its block
        // tree so no new block request can find it.
        if !self.block_trees[class].claim_exact(seg) {
            // Not present: either a popper deactivated it (it will be
            // re-inserted by the next free) or another reclaimer owns it.
            return;
        }
        let meta = self.table.seg(seg);
        // ...and publish FREE so any popper already inside Algorithm 2
        // fails its ldcv staleness re-check and pushes its block back.
        // SeqCst retained: this write races `ldcv_tree_id` on the free/pop
        // path in a store-buffering shape — reclaimer writes FREE then
        // reads occupancy, popper bumps occupancy then reads the id; weaker,
        // each could miss the other (TESTING.md, "Ordering audit"). A CAS
        // from `class`, not a store: `free_many` may have set the bit just
        // as another reclaimer took the segment — a stale bit is dropped.
        let free = Ordering::SeqCst;
        if meta.tree_id.compare_exchange(class as u32, TREE_FREE, free, free).is_err() {
            return;
        }
        self.metrics.count_reclaim_attempt();
        trace::emit(|| trace::TraceEvent::SegmentReclaim {
            seg,
            class: class as u32,
            phase: trace::ReclaimPhase::Attempt,
        });
        // Phase 2 (quiesce-check): derived occupancy equal to the block
        // count proves every block is home *and* every push is published
        // — a popper that slipped in before the FREE store has already
        // passed its ticket CAS and lowered len(), so one observation
        // suffices; no second scan or wait is needed.
        if meta.ring.len() != nblocks {
            // Abort rather than wait: the in-window popper legitimately
            // owns its block (its ldcv predates our publish) and will
            // re-trigger reclaim when it frees. The segment stays
            // formatted.
            self.metrics.count_reclaim_abort();
            trace::emit(|| trace::TraceEvent::SegmentReclaim {
                seg,
                class: class as u32,
                phase: trace::ReclaimPhase::Abort,
            });
            // Aborts are a legitimate outcome under contention; dump the
            // trace only when explicitly asked (debugging a reclaim race).
            // The sink is tested first: an untraced run never takes the
            // process environment's lock.
            if trace::current_sink().is_some()
                && std::env::var_os(trace::TRACE_ABORT_DUMP_ENV).is_some()
            {
                trace::auto_dump("reclaim_abort");
            }
            // Release (abort restore): re-publishing the class only has
            // to be visible-with-context to Acquire readers; the
            // handshake above already ran and nothing new was written
            // that a reader could miss.
            meta.tree_id.store(class as u32, Ordering::Release);
            self.block_trees[class].insert(seg);
            return;
        }
        // Publish: the ring is full and the id is FREE; any late
        // straggler bounces off the ldcv check and the next format's
        // bounded drain covers the push-back.
        self.segments.insert(seg);
        trace::emit(|| trace::TraceEvent::SegmentReclaim {
            seg,
            class: class as u32,
            phase: trace::ReclaimPhase::Publish,
        });
    }

    /// Release the block-buffer *wavefront*: every block cached in a
    /// per-SM buffer slot that has served no live slices is returned to
    /// its segment's ring (and the segment to the segment tree when that
    /// empties it).
    ///
    /// The paper attributes Gallatin's utilization gap to exactly these
    /// always-populated buffers (§6.11: "as all allocation sizes start
    /// with some blocks live, allocating from only one size will leave
    /// the initialized blocks from other sizes untouched"). `trim` is the
    /// corresponding maintenance hook: an application at a memory
    /// high-water mark can call it between kernels to recover the
    /// wavefront. Blocks with live slices stay cached.
    ///
    /// Must not run concurrently with allocation (host-side maintenance
    /// point, like a stream synchronization on the GPU).
    pub fn trim(&self) -> u64 {
        let mut reclaimed = 0;
        for (class, buffer) in self.buffers.iter().enumerate() {
            for handle in buffer.drain() {
                let seg = handle.segment(self.geo.max_blocks);
                let block = handle.block(self.geo.max_blocks);
                let meta = self.table.seg(seg);
                let word = meta.claim_word(block);
                let served = (word & SLICE_COUNT_MASK) as u64;
                let freed = meta.free_ctr(block).load(Ordering::Acquire) as u64;
                if served == freed {
                    // No live slices: safe to recycle wholesale.
                    meta.retire_claim_word(block);
                    meta.free_ctr(block).store(0, Ordering::Release);
                    self.free_many(seg, &[block], class);
                    reclaimed += 1;
                } else {
                    // Live slices: *retire* the block — mark it exhausted
                    // (count saturated, generation preserved) and credit
                    // the never-served slices as freed, so the ordinary
                    // free path recycles it once the live slices come
                    // back. (Re-buffering it instead could strand it if
                    // the slot is taken, leaking the block.)
                    let spb = self.geo.slices_per_block;
                    meta.malloc_ctr(block)
                        .store((word & !SLICE_COUNT_MASK) | spb as u32, Ordering::Relaxed);
                    let credit = (spb - served) as u32;
                    let prev = meta.free_ctr(block).fetch_add(credit, Ordering::AcqRel);
                    if (prev + credit) as u64 == spb {
                        // All live slices were freed between our loads:
                        // recycle now.
                        meta.retire_claim_word(block);
                        meta.free_ctr(block).store(0, Ordering::Release);
                        self.free_many(seg, &[block], class);
                        reclaimed += 1;
                    }
                }
            }
        }
        reclaimed
    }

    /// The segment tier's share of the invariant check: walk every
    /// segment this instance owns (per the `owned` predicate — always
    /// true standalone, the pool's routing table in pool mode) and
    /// verify single ownership (invariant 1), drained-ness of free
    /// segments (invariant 2), and large-allocation span integrity,
    /// delegating formatted segments to `check_formatted`.
    /// Unowned segments are another instance's to audit, but any residue
    /// of one in *this* instance's trees is an error (a donation that
    /// left without the quiesce handshake). Returns the reserved-byte
    /// total implied by the table for the owned segments.
    pub(crate) fn check_segments(
        &self,
        buffered: &HashMap<u64, HashSet<u64>>,
        owned: &dyn Fn(u64) -> bool,
        errors: &mut Vec<String>,
    ) -> u64 {
        let geo = &self.geo;
        let spb = geo.slices_per_block;
        let empty = HashSet::new();
        let mut computed_reserved: u64 = 0;
        // LARGE_BODY segments still owed to the most recent large head.
        let mut expect_body = 0u64;
        for seg in 0..geo.num_segments {
            let in_seg_tree = self.segments.contains(seg);
            if !owned(seg) {
                if in_seg_tree {
                    errors.push(format!(
                        "segment {seg} is not owned by this instance but is still in its \
                         segment tree"
                    ));
                }
                for (c, tree) in self.block_trees.iter().enumerate() {
                    if tree.contains(seg) {
                        errors.push(format!(
                            "segment {seg} is not owned by this instance but is still in its \
                             block tree {c}"
                        ));
                    }
                }
                if expect_body > 0 {
                    errors.push(format!(
                        "segment {seg} leaves this instance's ownership while a large \
                         allocation is still owed {expect_body} body segment(s)"
                    ));
                    expect_body = 0;
                }
                continue;
            }
            let meta = self.table.seg(seg);
            let id = meta.ldcv_tree_id();
            for (c, tree) in self.block_trees.iter().enumerate() {
                if tree.contains(seg) && id != c as u32 {
                    errors.push(format!(
                        "segment {seg} is in block tree {c} but its tree_id is {id}"
                    ));
                }
            }
            if id == LARGE_BODY {
                if expect_body == 0 {
                    errors.push(format!(
                        "segment {seg} is marked LARGE_BODY with no preceding large head"
                    ));
                } else {
                    expect_body -= 1;
                }
                if in_seg_tree {
                    errors.push(format!("large-body segment {seg} is also in the segment tree"));
                }
                continue;
            }
            if expect_body > 0 {
                errors.push(format!(
                    "segment {seg} (tree_id {id}) interrupts a large allocation still owed \
                     {expect_body} body segment(s)"
                ));
                expect_body = 0;
            }
            if id == TREE_FREE {
                if !in_seg_tree {
                    errors.push(format!(
                        "segment {seg} is TREE_FREE but missing from the segment tree"
                    ));
                }
                // Invariant 2: drained, with nothing outstanding.
                let prev_blocks = meta.cur_blocks.load(Ordering::Acquire) as u64;
                if meta.ring.len() != prev_blocks {
                    errors.push(format!(
                        "free segment {seg} is not drained: ring holds {} of {prev_blocks} \
                         blocks",
                        meta.ring.len()
                    ));
                }
                let snap = meta.ring.snapshot();
                if snap.skipped > 0 {
                    errors.push(format!(
                        "free segment {seg} ring has {} unpublished cell(s) at a quiescent \
                         point (torn push, or phantom occupancy masking a vanished block)",
                        snap.skipped
                    ));
                }
                for b in 0..prev_blocks {
                    let m = (meta.claim_word(b) & SLICE_COUNT_MASK) as u64;
                    let f = meta.free_ctr(b).load(Ordering::Acquire) as u64;
                    if m.min(spb) != f {
                        errors.push(format!(
                            "free segment {seg} block {b} has live slices \
                             (malloc_ctr {m}, free_ctr {f})"
                        ));
                    }
                    if meta.is_whole_block(b) {
                        errors.push(format!(
                            "free segment {seg} block {b} still has its whole-block bit set"
                        ));
                    }
                }
                continue;
            }
            if (id as usize) < geo.num_classes {
                let class = id as usize;
                if in_seg_tree {
                    errors.push(format!(
                        "segment {seg} is formatted for class {class} but is also in the \
                         segment tree (simultaneously free and formatted)"
                    ));
                }
                let cached_set = buffered.get(&seg).unwrap_or(&empty);
                computed_reserved += self.check_formatted(seg, class, cached_set, errors);
                continue;
            }
            if id >= LARGE_BASE {
                let n = (id - LARGE_BASE) as u64;
                if n == 0 || seg + n > geo.num_segments {
                    errors.push(format!(
                        "segment {seg} heads a large allocation with invalid span {n}"
                    ));
                } else {
                    expect_body = n - 1;
                    computed_reserved += n * geo.segment_bytes;
                }
                if in_seg_tree {
                    errors.push(format!("large-head segment {seg} is also in the segment tree"));
                }
                continue;
            }
            errors.push(format!("segment {seg} has invalid tree_id {id}"));
        }
        if expect_body > 0 {
            errors.push(format!(
                "large allocation at the end of the heap is missing {expect_body} body \
                 segment(s)"
            ));
        }
        computed_reserved
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GallatinConfig;
    use crate::gallatin::Gallatin;
    use gpu_sim::{DeviceAllocator, WarpCtx};
    use std::sync::atomic::Ordering;

    fn tiny() -> Gallatin {
        Gallatin::new(GallatinConfig::small_test(1 << 20)) // 16 segments
    }

    fn with_lane<R>(f: impl FnOnce(&gpu_sim::LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn trim_releases_the_wavefront() {
        let g = tiny(); // 16 segments
        with_lane(|l| {
            // Touch every slice class once: each pins a buffered block,
            // and thus a segment.
            let ptrs: Vec<_> = (0..5).map(|c| g.malloc(l, 16 << c)).collect();
            for &p in &ptrs {
                g.free(l, p);
            }
            assert!(g.free_segments() < 16, "wavefront pins segments");
            let reclaimed = g.trim();
            assert!(reclaimed >= 5, "trim reclaimed only {reclaimed}");
            assert_eq!(g.free_segments(), 16, "wavefront fully released");
            // Allocation still works after a trim.
            let p = g.malloc(l, 16);
            assert!(!p.is_null());
            g.free(l, p);
        });
    }

    #[test]
    fn trim_retires_blocks_with_live_slices() {
        let g = tiny();
        with_lane(|l| {
            let live = g.malloc(l, 16);
            assert!(!live.is_null());
            g.memory().write_stamp(live, 0x11fe);
            g.trim();
            // The live slice survives the trim…
            assert_eq!(g.memory().read_stamp(live), 0x11fe);
            // …and freeing it recycles the retired block and its segment.
            g.free(l, live);
            assert_eq!(g.free_segments(), 16);
            assert_eq!(g.stats().reserved_bytes, 0);
        });
    }

    #[test]
    fn invariant_checker_flags_stale_tree_id() {
        let g = tiny();
        // Corrupt the table: claim a free segment's tree_id without
        // removing it from the segment tree or formatting it.
        g.table().seg(15).tree_id.store(0, Ordering::SeqCst);
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("segment 15"), "unexpected report: {err}");
        assert!(err.contains("simultaneously free and formatted"), "unexpected report: {err}");
    }

    #[test]
    fn invariant_checker_flags_vanished_block() {
        let g = tiny();
        with_lane(|l| {
            let p = g.malloc(l, 16);
            g.free(l, p);
        });
        g.check_invariants().expect("healthy before corruption");
        // Steal a block out of the slice segment's ring and drop it.
        let seg = 0;
        g.table().seg(seg).ring.pop().unwrap();
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("unaccounted"), "unexpected report: {err}");
    }

    #[test]
    fn invariant_checker_rejects_phantom_occupancy() {
        let g = tiny();
        with_lane(|l| {
            let p = g.malloc(l, 16);
            g.free(l, p);
        });
        g.check_invariants().expect("healthy before injection");
        // Inject occupancy drift: a ticket with no published block, the
        // footprint the retired side-counter design could produce.
        g.table().seg(0).ring.debug_inject_phantom_push();
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("unpublished cell"), "unexpected report: {err}");
    }
}
