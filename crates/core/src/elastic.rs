//! Elastic pool operations: segment donation, shrink, and grow.
//!
//! A [`crate::Router`] starts with fixed disjoint shards, but memory
//! pressure is rarely uniform — a hot child exhausts its shard while a
//! cold sibling sits on free segments. The paper's two-phase segment
//! reclamation (§4.4) already defines the state this module needs: a
//! segment the reclaim protocol published back to a segment tree is
//! *quiescent free* — no live slices, no wholesale blocks, every block
//! home in the ring and published, no straggler mid-push
//! ([`crate::table::SegmentMeta::is_quiescent_free`]). Such a segment can
//! be re-homed without copying a byte, because every leaf shares one
//! arena and one memory table; ownership is only tree membership plus a
//! row in each level's routing table. (On real hardware a segment donated
//! across devices stays resident on the donor GPU and the recipient
//! serves it as mapped peer memory — the tariff's peer counter shows it.)
//!
//! **Donation** ([`Router::donate`]: instance-to-instance on a
//! `GallatinPool`, device-to-device on a `DevicePool`) moves quiescent
//! free segments from a cold child straight to a hot one, in three steps
//! per segment, written once in terms of [`Level`]:
//!
//! 1. *claim-unreachable* ([`Level::withdraw`]) — take the segment out
//!    of the donor (a leaf's tree bit; a router's parked list first, then
//!    its children), so no donor-side malloc can claim it;
//! 2. *quiesce-check* — verify the shared metadata still shows the
//!    reclaimed state (the predicate phase 2 of `try_reclaim` publishes).
//!    A failure puts the segment back exactly where it came from
//!    ([`Level::restore`]) and aborts the donation — never corrupts;
//! 3. *re-home* — the donor stops answering ([`Level::release`]), this
//!    level's `seg_owner` switches (so frees route to the new owner
//!    *before* it can hand out pointers), a `SegmentDonate` event is
//!    traced under the recipient's stamp, then the recipient routes and
//!    publishes the segment ([`Level::accept`]).
//!
//! Only free segments move, so no live allocation ever changes owner
//! mid-lifecycle: the trace ledger's `(device, instance, ptr)` pairing
//! survives any interleaving of donations with traffic.
//!
//! **Shrink** (`shrink_instance`) runs the same
//! withdraw-and-quiesce steps but parks the segment on the level's free
//! list (`seg_owner` = unowned) — memory returned to the pool, reported
//! as headroom and re-claimable by **grow** (or by the spill walk's
//! adopt-before-spill, which prefers adopting returned headroom over
//! spilling to a sibling).

use crate::buffer::BlockBuffer;
use crate::gallatin::Gallatin;
use crate::router::{Arena, Level, Router, UNOWNED};
use gpu_sim::{trace, DevicePtr, LaneMask, Metrics, Striped};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use veb::VebTree;

/// The leaf of every routing hierarchy: it serves the lane masks the
/// routers hand down, owns a span of the shared table's universe, and a
/// segment is handed to or taken from it through its segment tree alone.
impl Level for Gallatin {
    const DEPTH: usize = 0;

    /// Pointers are *global* offsets into the arena — the routers above
    /// route them by segment ownership, and a donated segment's metadata
    /// needs no translation because every instance reads the same table.
    fn build(shape: &[usize], arena: &Arena, first_seg: u64, num_segs: u64) -> Self {
        assert!(shape.is_empty(), "a Gallatin instance is a leaf: no fan-out below it");
        let (cfg, mem) = (arena.full, arena.mem.clone_view());
        let geo = cfg.geometry();
        assert!(
            mem.len() as u64 >= geo.heap_bytes,
            "device memory of {} bytes cannot back a {}-byte heap",
            mem.len(),
            geo.heap_bytes
        );
        assert!(first_seg + num_segs <= geo.num_segments, "owned span exceeds the universe");
        // Every instance's trees span the whole universe, so an adopted
        // segment is insertable anywhere; the segment tree starts with
        // only the owned span free.
        let segments = VebTree::new(geo.num_segments);
        segments.insert_range(first_seg, num_segs);
        let block_trees = (0..geo.num_classes).map(|_| VebTree::new(geo.num_segments)).collect();
        let slots = |c| BlockBuffer::slots_for_class(cfg.num_sms, c, cfg.min_buffer_slots);
        Gallatin {
            geo,
            mem,
            segments,
            block_trees,
            buffers: (0..geo.num_classes).map(|c| BlockBuffer::new(slots(c))).collect(),
            table: Arc::clone(&arena.table),
            metrics: Metrics::new(),
            randomize_probes: cfg.randomize_probe_starts,
            reserved: Striped::default(),
            span: (first_seg, num_segs),
        }
    }

    /// Opportunistic coalescing (Algorithm 3): one pass sorts the lanes
    /// into a group per slice class and per block class, each group's
    /// leader issues one atomic for the whole group (per run, in the block
    /// tier), and the multi-segment lanes fall through to the scalar path.
    /// The order — slice classes ascending, then block classes, lanes
    /// ascending inside a class, multi-segment lanes ascending last — is
    /// the CAS order, hence part of every recorded schedule.
    fn malloc_lanes(
        &self,
        sm_id: u32,
        live: LaneMask,
        sizes: &[Option<u64>],
        out: &mut [DevicePtr],
    ) -> LaneMask {
        let size = |lane: usize| sizes[lane].expect("a live lane carries a request");
        // Group `g` hands out `min_slice << g` bytes; bit `g` marks it used.
        let (mut groups, mut occupied) = ([LaneMask::EMPTY; u64::BITS as usize], 0u64);
        let (mut scalar, mut served) = (LaneMask::EMPTY, LaneMask::EMPTY);
        for lane in live {
            // max(1): zero-size requests coalesce into the smallest class.
            match self.group_of(size(lane).max(1)) {
                Some(group) => {
                    groups[group].insert(lane);
                    occupied |= 1 << group;
                }
                None => scalar.insert(lane),
            }
        }
        while occupied != 0 {
            let group = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let lanes = groups[group];
            let n = self.malloc_group(group, sm_id, lanes, |lane, p| out[lane] = p);
            lanes.take(n).for_each(|lane| served.insert(lane));
            self.metrics.count_mallocs(n as u64, (lanes.count() - n) as u64);
        }
        for lane in scalar {
            let p = self.malloc_routed(sm_id, size(lane));
            if !p.is_null() {
                out[lane] = p;
                served.insert(lane);
            }
        }
        served
    }

    /// Lane-stamped: `Gallatin::free_stamped` documents its groups.
    fn free_lanes(&self, _sm_id: u32, live: LaneMask, ptrs: &[DevicePtr]) {
        self.free_stamped(live, ptrs, None);
    }

    /// Drain the buffer wavefront, restore the segment tree to the
    /// instance's *initial* span, clear the block trees and counters.
    fn reset_local(&self) {
        for b in &self.buffers {
            b.drain();
        }
        self.segments.clear();
        self.segments.insert_range(self.span.0, self.span.1);
        for t in &self.block_trees {
            t.clear();
        }
        self.metrics.reset();
        self.reserved.reset();
    }

    fn local_errors(&self, routed_here: &dyn Fn(u64) -> bool) -> Vec<String> {
        self.structural_errors_where(routed_here)
    }

    /// A lone Gallatin serves any size up to its heap: it has no notion
    /// of an oversize request, so the router above keeps the count.
    fn note_oversize(&self, _sm_id: u32, _lanes: u64) -> bool {
        false
    }

    /// Once the bit is claimed, no malloc on this instance can reach the
    /// segment.
    fn withdraw(&self) -> Option<u64> {
        self.segments.claim_first_ge(0)
    }

    fn restore(&self, seg: u64) {
        self.segments.insert(seg);
    }

    /// Inserting the bit is the publish — the very next malloc may claim
    /// and format the segment. The caller must already have routed it
    /// here.
    fn accept(&self, seg: u64, _nth: u64) {
        self.segments.insert(seg);
    }
}

impl<C: Level> Router<C> {
    /// The donor side of the protocol in the module docs. `Ok(None)`
    /// when child `from` has nothing free; `Err(seg)` when `seg` failed
    /// the quiesce check and was bounced back — membership in a donor
    /// tree should already imply quiescence, but the check is the
    /// protocol, not an optimization: a torn segment never changes hands.
    fn take_quiescent(&self, from: usize) -> Result<Option<u64>, u64> {
        let donor = &self.children[from];
        let Some(seg) = donor.withdraw() else { return Ok(None) };
        if !self.table.seg(seg).is_quiescent_free() {
            donor.restore(seg);
            return Err(seg);
        }
        donor.release(seg);
        Ok(Some(seg))
    }

    /// Re-home up to `max` quiescent free segments from child `from` to
    /// child `to` (round-robin over the recipient's own children, if it
    /// has any). Returns the number donated, possibly 0. A failed quiesce
    /// check aborts the donation with an error naming the partial
    /// progress, which is already counted.
    ///
    /// Host-side operation, but safe to run concurrently with device
    /// traffic: every step is an atomic handoff (tree claim → routing
    /// store → tree insert) and only free segments move.
    pub fn donate(&self, from: usize, to: usize, max: u64) -> Result<u64, String> {
        let child = Self::CHILD;
        if from == to {
            return Err(format!("donation requires two distinct {child}s"));
        }
        let n = self.children.len();
        if from >= n || to >= n {
            return Err(format!("donation between out-of-range {child}s {from} -> {to}"));
        }
        let mut moved = 0u64;
        let mut outcome = Ok(());
        while moved < max {
            match self.take_quiescent(from) {
                Ok(Some(seg)) => {
                    // Route first, then publish: a free targeting this
                    // segment must reach the recipient from the instant
                    // the recipient can hand out pointers from it.
                    self.seg_owner[seg as usize].store(to as u32, Ordering::Release);
                    Self::enter(to, || {
                        trace::emit(|| trace::TraceEvent::SegmentDonate {
                            from: from as u32,
                            to: to as u32,
                            seg,
                        })
                    });
                    self.children[to].accept(seg, moved);
                    moved += 1;
                }
                Ok(None) => break,
                Err(seg) => {
                    outcome = Err(format!(
                        "segment {seg} failed the quiesce check mid-donation \
                         ({moved} segment(s) already moved between {child}s)"
                    ));
                    break;
                }
            }
        }
        self.donations.fetch_add(moved, Ordering::Relaxed);
        outcome.map(|()| moved)
    }

    /// Withdraw up to `max` quiescent free segments from child `i` and
    /// park them on the level free list (memory returned to the pool).
    /// Returns the number returned; stops early at a segment that fails
    /// the quiesce check. [`Gallatin::trim`] the instances first to release
    /// the buffered wavefront if the child should give up everything.
    pub fn shrink_instance(&self, i: usize, max: u64) -> u64 {
        let mut count = 0u64;
        while count < max {
            let Ok(Some(seg)) = self.take_quiescent(i) else { break };
            self.seg_owner[seg as usize].store(UNOWNED, Ordering::Release);
            self.parked.insert(seg);
            count += 1;
        }
        self.returned.fetch_add(count, Ordering::Relaxed);
        count
    }

    /// Adopt up to `max` segments from the level free list into child
    /// `i` (the inverse of shrink). Returns the number adopted. The spill
    /// walk calls this automatically when a home child is exhausted
    /// while the level holds returned headroom.
    pub fn grow(&self, i: usize, max: u64) -> u64 {
        let mut count = 0u64;
        while count < max {
            let Some(seg) = self.parked.claim_first_ge(0) else { break };
            self.seg_owner[seg as usize].store(i as u32, Ordering::Release);
            self.children[i].accept(seg, count);
            count += 1;
        }
        if count > 0 {
            self.adopted.fetch_add(count, Ordering::Relaxed);
        }
        count
    }
}

impl Router<Gallatin> {
    /// Test-only sabotage: re-home a *formatted* segment from `from` to
    /// `to` without the claim-unreachable or quiesce steps — exactly
    /// the corruption a buggy donation would plant. Returns the segment
    /// moved, or `None` if the donor holds no formatted segment. The
    /// planted state must be caught by `check_invariants` (the donor
    /// still holds the segment in a block tree it no longer owns; the
    /// recipient sees it simultaneously free and formatted).
    #[doc(hidden)]
    pub fn debug_donate_skip_quiesce(&self, from: usize, to: usize) -> Option<u64> {
        let num_classes = self.children[from].geometry().num_classes;
        let seg = (0..self.seg_owner.len() as u64).find(|&seg| {
            self.owner_of_segment(seg) == Some(from)
                && (self.table.seg(seg).ldcv_tree_id() as usize) < num_classes
        })?;
        self.seg_owner[seg as usize].store(to as u32, Ordering::Release);
        self.children[to].accept(seg, 0);
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GallatinConfig;
    use crate::router::{Level, Router};
    use crate::table::TREE_FREE;
    use crate::{DevicePool, Gallatin, GallatinPool};
    use gpu_sim::metrics::MetricsSnapshot;
    use gpu_sim::{trace, DeviceAllocator, DevicePtr, LaneMask, TraceSink, WarpCtx, WARP_SIZE};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn pool(n: usize) -> GallatinPool {
        GallatinPool::new(n, GallatinConfig::small_test(1 << 20)) // 16 segments each
    }

    fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
        WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
    }

    #[test]
    fn donation_rehomes_free_segments_and_routing_follows() {
        let p = pool(2);
        assert_eq!(p.donate(0, 1, 4), Ok(4));
        let s = p.stats();
        assert_eq!(s.donated_segments, 4);
        assert_eq!(s.children[0].owned_segments, 12);
        assert_eq!(s.children[1].owned_segments, 20);
        p.check_invariants().expect("clean after donation");
        // Instance 1 can now hold 20 segment-sized allocations at home.
        let l1 = warp_on(1, 1);
        let seg = p.instance(1).geometry().segment_bytes;
        let held: Vec<_> = (0..20).map(|_| p.malloc(&l1.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(1), 0, "all 20 served at home after the donation");
        // Frees of pointers in donated segments route to the new owner.
        for q in held {
            p.free(&warp_on(7, 1).lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after routed frees of donated segments");
    }

    /// The bounce protocol, at whichever level `r` routes: a torn
    /// segment 0 on child 0's first leaf must bounce back, not donate.
    fn donation_bounces<C: Level>(r: &Router<C>) {
        let level = r.name();
        // Plant a torn state: segment 0 claims to be formatted while
        // still sitting in its leaf's segment tree.
        r.table.seg(0).tree_id.store(0, Ordering::SeqCst);
        let err = r.donate(0, 1, 16).unwrap_err();
        assert!(err.contains("quiesce"), "{level}: unexpected error: {err}");
        // The segment bounced back to the donor: nothing crossed over.
        assert_eq!(r.stats().children[0].owned_segments, 16, "{level}");
        assert_eq!(r.donations.load(Ordering::Relaxed), 0, "{level}");
        // Undoing the corruption lets the full donation through.
        r.table.seg(0).tree_id.store(TREE_FREE, Ordering::SeqCst);
        assert_eq!(r.donate(0, 1, 16), Ok(16), "{level}");
        r.check_invariants().expect("clean after the repaired donation");
    }

    #[test]
    fn donation_bounces_when_the_quiesce_check_fails_at_both_levels() {
        donation_bounces(&pool(2));
        donation_bounces(&DevicePool::new(2, 1, GallatinConfig::small_test(1 << 20)));
    }

    #[test]
    fn donation_skipping_quiesce_is_caught_by_the_invariant_check() {
        let p = pool(2);
        // Live traffic pins a formatted segment on instance 0.
        let l0 = warp_on(0, 1);
        let live = p.malloc(&l0.lane(0), 16);
        assert!(!live.is_null());
        p.check_invariants().expect("healthy before the planted corruption");
        let seg = p.debug_donate_skip_quiesce(0, 1).expect("a formatted segment to steal");
        let err = p.check_invariants().unwrap_err();
        assert!(err.contains(&format!("segment {seg}")), "unexpected report: {err}");
        assert!(
            err.contains("not owned by this instance")
                || err.contains("simultaneously free and formatted"),
            "unexpected report: {err}"
        );
    }

    #[test]
    fn shrink_returns_segments_and_malloc_adopts_them_back() {
        // Scalar and warp-collective requests go through one walk, so
        // both arms must adopt parked headroom before spilling — and
        // report the same `(spills, adopted)`.
        for collective in [false, true] {
            let p = pool(2);
            assert_eq!(p.shrink_instance(1, 10), 10);
            let s = p.stats();
            assert_eq!((s.returned_segments, s.pool_free_segments), (10, 10));
            p.check_invariants().expect("clean after shrink");
            // Instance 0's home pressure adopts from the pool free list
            // before spilling: 20 claims = 16 original + 4 adopted, 0 spills.
            let w0 = warp_on(0, 20);
            let seg = p.instance(0).geometry().segment_bytes;
            let mut held = vec![DevicePtr::NULL; 20];
            if collective {
                p.warp_malloc(&w0, &[Some(seg); 20], &mut held);
            } else {
                held.iter_mut().for_each(|q| *q = p.malloc(&w0.lane(0), seg));
            }
            assert!(held.iter().all(|q| !q.is_null()));
            let s = p.stats();
            assert_eq!(
                (s.spills, s.adopted_segments),
                (0, 4),
                "collective = {collective}: adoption absorbs the pressure, no spills"
            );
            assert_eq!(s.pool_free_segments, 6);
            p.warp_free(&w0, &held);
            assert_eq!(p.stats().reserved_bytes, 0);
            p.check_invariants().expect("clean after adopted traffic");
        }
    }

    #[test]
    fn donation_conserves_segments_and_reset_restores_the_shards() {
        let p = pool(4);
        assert_eq!(p.donate(0, 3, 2), Ok(2));
        assert_eq!(p.shrink_instance(1, 3), 3);
        assert_eq!(p.grow(2, 1), 1);
        let s = p.stats();
        let owned: u64 = s.children.iter().map(|i| i.owned_segments).sum();
        assert_eq!(owned + s.pool_free_segments, 64, "segments are conserved");
        p.check_invariants().expect("clean after a donate/shrink/grow mix");
        p.reset();
        let s = p.stats();
        assert!(s.children.iter().all(|i| i.owned_segments == 16));
        assert_eq!(s.pool_free_segments, 0);
        assert_eq!((s.donated_segments, s.returned_segments, s.adopted_segments), (0, 0, 0));
        p.check_invariants().expect("clean after reset");
    }

    // The `Level` mask contract, checked at the leaf and at both routers:
    // every case below runs on a `Gallatin`, a `GallatinPool(3)` and a
    // `DevicePool(2×3)`, each built fresh at `small_test`.

    trait Fresh: Level {
        fn fresh() -> Self;
        /// Every leaf, in routing order.
        fn leaves(&self) -> Vec<&Gallatin>;
        /// Oversize lanes from SM 0, `[counted where they belong, counted
        /// anywhere else]`: at the lowest router on the home path, or as
        /// the lone leaf's failed mallocs (oversize there is beyond its heap).
        fn denials(&self) -> [u64; 2];
        /// Spills charged to SM 0's home by the lowest router above it.
        fn spills(&self) -> u64;
    }

    fn failed(leaves: &[&Gallatin]) -> u64 {
        leaves.iter().map(|g| g.metrics.snapshot().failed_mallocs).sum()
    }

    impl Fresh for Gallatin {
        fn fresh() -> Self {
            Gallatin::new(GallatinConfig::small_test(1 << 20))
        }
        fn leaves(&self) -> Vec<&Gallatin> {
            vec![self]
        }
        fn denials(&self) -> [u64; 2] {
            [failed(&[self]), 0]
        }
        fn spills(&self) -> u64 {
            0
        }
    }

    impl Fresh for GallatinPool {
        fn fresh() -> Self {
            pool(3)
        }
        fn leaves(&self) -> Vec<&Gallatin> {
            self.children.iter().collect()
        }
        fn denials(&self) -> [u64; 2] {
            [self.oversize_denials.load(Ordering::Relaxed), failed(&self.leaves())]
        }
        fn spills(&self) -> u64 {
            self.spill_count(0)
        }
    }

    impl Fresh for DevicePool {
        fn fresh() -> Self {
            DevicePool::new(2, 3, GallatinConfig::small_test(1 << 20))
        }
        fn leaves(&self) -> Vec<&Gallatin> {
            self.children.iter().flat_map(|d| d.leaves()).collect()
        }
        fn denials(&self) -> [u64; 2] {
            let ([home, a], [b, c]) = (self.children[0].denials(), self.children[1].denials());
            [home, a + b + c + self.oversize_denials.load(Ordering::Relaxed)]
        }
        fn spills(&self) -> u64 {
            self.children[0].spills()
        }
    }

    macro_rules! at_every_level {
        ($case:ident) => {{
            $case::<Gallatin>();
            $case::<GallatinPool>();
            $case::<DevicePool>();
        }};
    }

    /// What every lane of `out` starts as, and keeps unless it is served.
    const SENTINEL: DevicePtr = DevicePtr(u64::MAX - 7);

    fn mask(lanes: &[usize]) -> LaneMask {
        LaneMask::ballot(&[(); WARP_SIZE], |_| true).keep(|lane| lanes.contains(&lane))
    }

    /// A request in every lane: a 2-segment run every seventh lane, a
    /// 4 KiB block every seventh from lane 5, slices otherwise — each its
    /// own class, so a lane reserves exactly what it asks for.
    fn requests() -> Vec<Option<u64>> {
        let size = |lane: u64| match lane % 7 {
            0 => 128 << 10,
            5 => 4 << 10,
            _ => 16 << (lane % 3),
        };
        (0..WARP_SIZE as u64).map(|lane| Some(size(lane))).collect()
    }

    /// Every counter a call can move: each leaf's, and the tariff's.
    fn counters<L: Fresh>(level: &L) -> (Vec<MetricsSnapshot>, Option<MetricsSnapshot>) {
        let leaves = level.leaves().iter().map(|g| g.metrics.snapshot()).collect();
        (leaves, level.metrics().map(|m| m.snapshot()))
    }

    #[test]
    fn a_sparse_mask_is_served_and_no_other_lane_is_touched() {
        fn case<L: Fresh>() {
            let (level, sizes) = (L::fresh(), requests());
            let live = mask(&[0, 3, 5, 14, 31]);
            let mut out = vec![SENTINEL; WARP_SIZE];
            let served = level.malloc_lanes(0, live, &sizes, &mut out);
            assert_eq!(served, live, "{}: every live lane fits", level.name());
            assert_eq!(LaneMask::ballot(&out, |p| *p != SENTINEL), served, "{}", level.name());
            assert!(out.iter().all(|p| !p.is_null()), "{}", level.name());
            level.free_lanes(0, served, &out);
            assert_eq!(level.stats().reserved_bytes, 0, "{}", level.name());
            level.check_invariants().expect("clean after a sparse mask");
        }
        at_every_level!(case);
    }

    #[test]
    fn oversize_lanes_leave_the_mask_and_are_denied_once() {
        fn case<L: Fresh>() {
            let (level, mut sizes) = (L::fresh(), requests());
            sizes[3] = Some(level.heap_bytes() / level.leaves().len() as u64 + 1);
            sizes[6] = sizes[3];
            let mut out = vec![SENTINEL; WARP_SIZE];
            let served = level.malloc_lanes(0, mask(&[2, 3, 4, 6]), &sizes, &mut out);
            assert_eq!(served, mask(&[2, 4]), "{}", level.name());
            assert_eq!(LaneMask::ballot(&out, |p| *p != SENTINEL), served, "{}", level.name());
            assert_eq!(level.denials(), [2, 0], "{}: one count per lane", level.name());
            level.free_lanes(0, served, &out);
            level.check_invariants().expect("clean after oversize lanes");
        }
        at_every_level!(case);
    }

    #[test]
    fn an_exhausted_home_spills_the_mask_to_a_sibling() {
        fn case<L: Fresh>() {
            let level = L::fresh();
            let seg = level.leaves()[0].geometry().segment_bytes;
            let lane = warp_on(0, 1);
            let held: Vec<_> = (0..16).map(|_| level.malloc(&lane.lane(0), seg)).collect();
            assert!(held.iter().all(|p| !p.is_null()) && level.spills() == 0, "{}", level.name());
            let (live, sizes) = (mask(&[1, 2]), vec![Some(seg); WARP_SIZE]);
            let mut out = vec![SENTINEL; WARP_SIZE];
            let served = level.malloc_lanes(0, live, &sizes, &mut out);
            // A lone leaf has no sibling: its full heap denies both lanes.
            let sibling = level.leaves().len() > 1;
            assert_eq!(served, if sibling { live } else { LaneMask::EMPTY }, "{}", level.name());
            assert_eq!(level.spills(), served.count() as u64, "{}", level.name());
            assert_eq!(LaneMask::ballot(&out, |p| *p != SENTINEL), served, "{}", level.name());
            level.free_lanes(0, served, &out);
            held.into_iter().for_each(|p| level.free(&lane.lane(0), p));
            assert_eq!(level.stats().reserved_bytes, 0, "{}", level.name());
            level.check_invariants().expect("clean after a spill");
        }
        at_every_level!(case);
    }

    #[test]
    fn an_empty_mask_enters_no_child() {
        fn case<L: Fresh>() {
            let (level, sizes) = (L::fresh(), requests());
            let (before, sink) = (counters(&level), Arc::new(TraceSink::new()));
            let mut out = vec![SENTINEL; WARP_SIZE];
            let served = trace::with_sink(sink.clone(), || {
                level.free_lanes(0, LaneMask::EMPTY, &out);
                level.malloc_lanes(0, LaneMask::EMPTY, &sizes, &mut out)
            });
            assert_eq!(served, LaneMask::EMPTY, "{}", level.name());
            assert!(out.iter().all(|p| *p == SENTINEL), "{}", level.name());
            assert!(sink.snapshot().is_empty(), "{}: traced an idle call", level.name());
            assert_eq!(counters(&level), before, "{}", level.name());
        }
        at_every_level!(case);
    }

    #[test]
    fn freeing_a_sparse_mask_frees_exactly_its_lanes() {
        fn case<L: Fresh>() {
            let (level, sizes) = (L::fresh(), requests());
            let mut out = vec![DevicePtr::NULL; WARP_SIZE];
            level.warp_malloc(&warp_on(0, WARP_SIZE as u32), &sizes, &mut out);
            assert!(out.iter().all(|p| !p.is_null()), "{}", level.name());
            let (all, freed) = (mask(&(0..WARP_SIZE).collect::<Vec<_>>()), mask(&[0, 5, 6, 13]));
            let reserved = level.stats().reserved_bytes;
            level.free_lanes(0, freed, &out);
            let bytes: u64 = freed.filter_map(|lane| sizes[lane]).sum();
            assert_eq!(level.stats().reserved_bytes, reserved - bytes, "{}", level.name());
            level.check_invariants().expect("clean with the other lanes live");
            level.free_lanes(0, all.without(freed), &out);
            assert_eq!(level.stats().reserved_bytes, 0, "{}", level.name());
        }
        at_every_level!(case);
    }

    #[test]
    fn a_scalar_malloc_is_a_one_lane_collective() {
        fn case<L: Fresh>() {
            for size in [16, 4 << 10, 128 << 10] {
                let (scalar, collective) = (L::fresh(), L::fresh());
                let p = scalar.malloc(&warp_on(0, 1).lane(0), size);
                let mut q = [DevicePtr::NULL];
                collective.warp_malloc(&warp_on(0, 1), &[Some(size)], &mut q);
                assert!(!p.is_null() && p == q[0], "{}: {size} B", scalar.name());
                assert_eq!(counters(&scalar), counters(&collective), "{}", scalar.name());
            }
        }
        at_every_level!(case);
    }
}
