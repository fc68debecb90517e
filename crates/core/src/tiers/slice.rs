//! Slice tier: generation-tagged claim words and coalesced group claims
//! (Algorithm 3).
//!
//! The hot path: a same-class warp group's leader issues one batched
//! claim on the cached block's malloc counter
//! ([`crate::table::Segment::claim_slices`]), reserving slices for
//! every lane in a single successful RMW. Claim words carry a recycle
//! generation so a stale buffered handle can never land slices on a
//! recycled block (the slice-pipeline ABA).

use super::RESERVED;
use crate::gallatin::Gallatin;
use crate::table::{BlockHandle, SLICE_COUNT_MASK};
use gpu_sim::{trace, DevicePtr, LaneMask};
use std::sync::atomic::Ordering;

/// Number of times the slice pipeline retries a failed block refresh
/// before declaring the heap exhausted.
const SLICE_RETRIES: usize = 64;

/// The slice tier. It holds no state of its own: slice state lives in the
/// claim words and free counters of the memory table, and the cached
/// wavefront belongs to the block tier — this block is the *protocol*.
impl Gallatin {
    /// Pop one block of `class` as a buffer entry: its handle and the
    /// current recycle generation of its claim word — captured when a
    /// block enters a buffer so later claims and buffer swaps can detect
    /// that the block was recycled in between (see
    /// [`crate::table::Segment::claim_slices`] and [`crate::buffer`]).
    fn fresh_entry(&self, class: usize, sm_id: u32) -> Option<(BlockHandle, u32)> {
        let mut block = [0];
        let (seg, _) = self.get_many(class, sm_id, &mut block)?;
        let gen = self.table.seg(seg).slice_gen(block[0]);
        Some((BlockHandle::new(seg, block[0], self.geo.max_blocks), gen))
    }

    /// Return one buffer entry's block unused: the 1-length `free_many`.
    fn free_block(&self, handle: BlockHandle, class: usize) {
        let (seg, block) = (handle.segment(self.geo.max_blocks), handle.block(self.geo.max_blocks));
        self.free_many(seg, &[block], class);
    }

    /// Allocate one slice of `class` per lane in `lanes` (a coalesced
    /// group), writing results through `assign`. Returns the number of
    /// lanes served (the group's lowest); the rest hit heap exhaustion.
    ///
    /// The group leader's single batched claim on the cached block's
    /// malloc counter ([`crate::table::Segment::claim_slices`])
    /// reserves slices for every lane in one successful RMW — one atomic
    /// per group, not per lane; lanes that did not fit the block retry
    /// after the last-slice taker swaps a fresh block into the buffer.
    /// Allocation-free: this is the hot path.
    pub(crate) fn malloc_slices(
        &self,
        sm_id: u32,
        class: usize,
        lanes: LaneMask,
        mut assign: impl FnMut(usize, DevicePtr),
    ) -> usize {
        let spb = self.geo.slices_per_block;
        let buffer = &self.buffers[class];
        let mut left = lanes; // lanes not yet served, the leader lowest
        let mut attempts = 0;
        while !left.is_empty() {
            attempts += 1;
            if attempts > SLICE_RETRIES {
                break; // heap exhausted for this class
            }
            let entry = match buffer.current(sm_id) {
                Some(e) => e,
                None => {
                    // Leader fetches a block and installs it.
                    let Some(fresh) = self.fresh_entry(class, sm_id) else { break };
                    match buffer.try_install(sm_id, fresh) {
                        Ok(()) => fresh,
                        Err(winner) => {
                            // Someone beat us; return ours and use theirs.
                            self.free_block(fresh.0, class);
                            winner
                        }
                    }
                }
            };
            let (handle, gen) = entry;
            let seg = handle.segment(self.geo.max_blocks);
            let block = handle.block(self.geo.max_blocks);
            let meta = self.table.seg(seg);
            let (base, take) =
                meta.claim_slices(block, left.count() as u32, spb, gen, &self.metrics);
            if take > 0 {
                // One successful RMW served `take` lanes: the leader's
                // atomic plus `take − 1` piggybacked followers.
                self.metrics.count_coalesced((take - 1) as u64);
                trace::emit(|| trace::TraceEvent::CoalesceGroup {
                    class: class as u32,
                    lanes: take,
                });
                for (rank, lane) in left.by_ref().take(take as usize).enumerate() {
                    let idx = base as u64 + rank as u64;
                    let off = self.geo.offset_of(seg, block, idx, class);
                    trace::emit_lane(lane as u32, || trace::TraceEvent::Malloc {
                        size: self.geo.slice_size(class),
                        tier: trace::AllocTier::Slice,
                        ptr: off,
                    });
                    assign(lane, DevicePtr(off));
                }
                self.reserved.add(RESERVED, take as u64 * self.geo.slice_size(class));
            }

            if (base, take) == (0, 0) {
                // Generation mismatch: the cached entry went stale (the
                // block was recycled out from under us). Evict it if it is
                // still in the slot, then retry with whatever is current.
                buffer.try_clear(sm_id, entry);
                continue;
            }

            if (base + take) as u64 == spb && take > 0 {
                // This group took the block's final slice: it is the
                // designated replacer (paper §4.3). Swap in a fresh block,
                // or clear the slot on exhaustion so others can retry.
                match self.fresh_entry(class, sm_id) {
                    Some(fresh) => {
                        if !buffer.try_replace(sm_id, entry, fresh) {
                            self.free_block(fresh.0, class);
                        }
                    }
                    None => {
                        buffer.try_clear(sm_id, entry);
                    }
                }
            } else if !left.is_empty() {
                // Found the block exhausted (or only partly served): the
                // designated replacer owns the swap; yield so it can
                // finish, then retry with the fresh block. (spin_hint
                // also hands the turn back under deterministic
                // scheduling — the replacer may be a parked warp.)
                gpu_sim::spin_hint();
            }
        }
        lanes.count() - left.count()
    }

    /// Return `n` slices of one block with a single atomic — Algorithm
    /// 4's small-allocation branch at `n == 1`, and the coalesced-free
    /// counterpart of Algorithm 3 (paper §6.5: frees from
    /// the same warp hitting the same block share one `fetch_add`).
    pub(crate) fn free_slices(&self, seg: u64, class: usize, block: u64, n: u32) {
        let meta = self.table.seg(seg);
        let spb = self.geo.slices_per_block;
        let prev = meta.free_ctr(block).fetch_add(n, Ordering::AcqRel);
        self.metrics.count_rmw();
        self.metrics.count_coalesced(n.saturating_sub(1) as u64);
        self.reserved.sub(RESERVED, n as u64 * self.geo.slice_size(class));
        if prev as u64 + n as u64 == spb {
            // Every slice allocated and returned: recycle the block.
            // Exclusive here (only one free observes the last count).
            // Bumping the claim word's generation invalidates any stale
            // buffer entry and in-flight claim that still references this
            // incarnation of the block — without it, a claimant that read
            // the handle before the recycle could land slices on the
            // recycled counter (the slice-pipeline ABA).
            meta.retire_claim_word(block);
            meta.free_ctr(block).store(0, Ordering::Release);
            self.free_many(seg, &[block], class);
        }
    }

    /// The slice share of the invariant check for one block: verify the
    /// free counter never exceeds served slices (a double free) and
    /// return the live-slice count, or `None` when the counters are
    /// inconsistent (the block's ownership cannot be judged).
    pub(crate) fn check_slices(&self, seg: u64, b: u64, errors: &mut Vec<String>) -> Option<u64> {
        let meta = self.table.seg(seg);
        let spb = self.geo.slices_per_block;
        let m = (meta.claim_word(b) & SLICE_COUNT_MASK) as u64;
        let f = meta.free_ctr(b).load(Ordering::Acquire) as u64;
        let served = m.min(spb);
        if f > served {
            errors.push(format!(
                "segment {seg} block {b}: free counter {f} exceeds served \
                 slices {served} (double free)"
            ));
            return None;
        }
        Some(served - f)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GallatinConfig;
    use crate::gallatin::Gallatin;
    use crate::table::SLICE_COUNT_MASK;
    use gpu_sim::{DeviceAllocator, DevicePtr, WarpCtx};

    fn tiny() -> Gallatin {
        Gallatin::new(GallatinConfig::small_test(1 << 20)) // 16 segments
    }

    fn with_lane<R>(f: impl FnOnce(&gpu_sim::LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn slice_exhaustion_returns_null_not_overlap() {
        // Heap of 2 segments, all blocks of class 0 = 64 slices each.
        let g = Gallatin::new(GallatinConfig::small_test(128 << 10));
        with_lane(|l| {
            let mut ptrs = std::collections::HashSet::new();
            let mut failed = 0;
            for _ in 0..(2 * 64 * 64 + 100) {
                let p = g.malloc(l, 16);
                if p.is_null() {
                    failed += 1;
                } else {
                    assert!(ptrs.insert(p.0), "double allocation at {}", p.0);
                }
            }
            assert!(failed >= 100, "over-subscription must fail");
        });
    }

    #[test]
    fn free_then_realloc_reuses_memory() {
        let g = tiny();
        with_lane(|l| {
            // Fill a whole block so it recycles on full free.
            let spb = g.geometry().slices_per_block as usize;
            let ptrs: Vec<_> = (0..spb).map(|_| g.malloc(l, 16)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            for &p in &ptrs {
                g.free(l, p);
            }
            // The allocator can serve the same number again.
            let again: Vec<_> = (0..spb).map(|_| g.malloc(l, 16)).collect();
            assert!(again.iter().all(|p| !p.is_null()));
            for &p in &again {
                g.free(l, p);
            }
        });
    }

    #[test]
    fn warp_malloc_coalesces_same_class() {
        let g = tiny();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 32 };
        let sizes = vec![Some(16u64); 32];
        let mut out = vec![DevicePtr::NULL; 32];
        let before = g.metrics().unwrap().snapshot();
        g.warp_malloc(&warp, &sizes, &mut out);
        let mut offs: Vec<u64> = out.iter().map(|p| p.0).collect();
        assert!(out.iter().all(|p| !p.is_null()));
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 32);
        // Coalescing: 31 of the 32 requests piggybacked on the leader.
        let m = g.metrics().unwrap().snapshot();
        assert_eq!(m.coalesced_requests, 31);
        // Atomic budget, like the free-side twin: 32 mallocs including a
        // cold start (segment claim, format, block-tree insert, ring
        // pop, slice claim) stay a handful of atomics, not ~32.
        let atomics = (m.atomic_rmw + m.cas_attempts) - (before.atomic_rmw + before.cas_attempts);
        assert!(atomics <= 6, "mallocs not coalesced: {atomics} atomics for 32 requests");
        g.warp_free(&warp, &out);
    }

    #[test]
    fn warp_malloc_coalesces_steady_state_group_to_one_atomic() {
        // The malloc-side twin of `warp_free_coalesces_same_block`,
        // asserting the paper's O(1) headline exactly: once a block is
        // cached, a coalesced 32-lane same-class group costs ONE atomic
        // RMW on shared metadata (the batched slice claim).
        let g = tiny();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 16 };
        // Warm-up: 16 slices install a block (64 slices) in SM 0's slot.
        let sizes = vec![Some(16u64); 16];
        let mut warm = vec![DevicePtr::NULL; 16];
        g.warp_malloc(&warp, &sizes, &mut warm);
        assert!(warm.iter().all(|p| !p.is_null()));
        // Measured group: 32 more slices fit the cached block (16+32<64),
        // so no block fetch and no last-slice replacement can hide cost.
        let full = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 32 };
        let sizes = vec![Some(16u64); 32];
        let mut out = vec![DevicePtr::NULL; 32];
        let before = g.metrics().unwrap().snapshot();
        g.warp_malloc(&full, &sizes, &mut out);
        let after = g.metrics().unwrap().snapshot();
        assert!(out.iter().all(|p| !p.is_null()));
        let atomics =
            (after.atomic_rmw + after.cas_attempts) - (before.atomic_rmw + before.cas_attempts);
        assert_eq!(atomics, 1, "a steady-state coalesced group must cost exactly one RMW");
        assert_eq!(after.coalesced_requests - before.coalesced_requests, 31);
        g.warp_free(&full, &out);
        g.warp_free(&warp, &warm);
        assert_eq!(g.stats().reserved_bytes, 0);
    }

    #[test]
    fn batched_claim_never_overshoots_the_block_counter() {
        // The bounded CAS claim must clamp to the block's remaining
        // capacity: a group larger than what is left takes the remainder
        // (and the last-slice duty), never pushing malloc_ctr past spb.
        let g = tiny(); // spb = 64
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 32 };
        let sizes = vec![Some(16u64); 32];
        let mut out = vec![DevicePtr::NULL; 32];
        // 3 warps × 32 = 96 slices: the first block (64) is exhausted
        // mid-group and a second is installed.
        let mut all = Vec::new();
        for _ in 0..3 {
            g.warp_malloc(&warp, &sizes, &mut out);
            assert!(out.iter().all(|p| !p.is_null()));
            all.extend(out.iter().copied());
        }
        let spb = g.geometry().slices_per_block as u32;
        for seg in 0..g.geometry().num_segments {
            let meta = g.table().seg(seg);
            for b in 0..g.geometry().max_blocks {
                let m = meta.claim_word(b) & SLICE_COUNT_MASK;
                assert!(m <= spb, "segment {seg} block {b}: claim count {m} overshot {spb}");
            }
        }
        g.warp_free(&warp, &all[..32]);
        g.warp_free(&warp, &all[32..64]);
        g.warp_free(&warp, &all[64..]);
        assert_eq!(g.stats().reserved_bytes, 0);
        g.check_invariants().expect("invariants after exhausting blocks mid-group");
    }

    #[test]
    fn warp_free_coalesces_same_block() {
        let g = tiny();
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 32 };
        let sizes = vec![Some(16u64); 32];
        let mut out = vec![DevicePtr::NULL; 32];
        g.warp_malloc(&warp, &sizes, &mut out);
        assert!(out.iter().all(|p| !p.is_null()));
        let before = g.metrics().unwrap().snapshot().atomic_rmw;
        g.warp_free(&warp, &out);
        let after = g.metrics().unwrap().snapshot().atomic_rmw;
        // 32 frees of slices in (at most two) blocks: a handful of
        // fetch_adds, not 32.
        assert!(
            after - before <= 4,
            "frees not coalesced: {} atomics for 32 frees",
            after - before
        );
        assert_eq!(g.stats().reserved_bytes, 0);
    }
}
