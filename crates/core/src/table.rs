//! The memory table: per-segment and per-block metadata (paper §5.1).
//!
//! Since the maximum number of blocks per segment is known at
//! construction, all metadata is pre-allocated: every segment carries a
//! `tree_id` word, a block ring queue ([`crate::ring::BlockRing`]), a
//! whole-block bitmap, and `max_blocks` pairs of slice claim/free
//! counters. Formatting a segment for a larger block size leaves the
//! excess counters unused, as in the paper, and here unmapped too: they
//! are two table-wide **block-major** arrays, `[block * num_segments +
//! seg]`, allocated zeroed, so formats of `n` blocks touch rows `0..n`.
//!
//! ## Segment lifecycle and the reclamation protocol
//!
//! A segment is in one of three logical states, encoded in `tree_id`:
//!
//! * `TREE_FREE` — owned by the segment tree;
//! * `0..num_classes` — formatted for that block tree;
//! * `LARGE_BASE + n` — head of an `n`-segment large allocation
//!   (`LARGE_BODY` marks its non-head segments).
//!
//! Transitions are guarded the way the paper's Algorithm 2 implies:
//!
//! * **Format** (free → class c): the formatter owns the segment
//!   exclusively (it claimed the bit from the segment tree). Before
//!   rebuilding the ring it *drains stragglers*: it spins until the ring's
//!   occupancy equals the block count of the segment's previous life. A
//!   straggler is a thread that popped a block just as the segment was
//!   being reclaimed; Algorithm 2's `ldcv` re-check makes it push the
//!   block back, and the drain guarantees the reformat cannot overlap
//!   that push. This closes the ABA window between reclaim and reuse.
//!   Because [`crate::ring::BlockRing::len`] is derived from the ring's
//!   ticket positions minus in-flight pushes (never a racy side counter),
//!   observing `len() == prev_blocks` proves every block is home *and*
//!   fully published — the drain doubles as a quiescence barrier, so the
//!   ring rebuild cannot tear an in-flight push. The drain spin is
//!   **bounded**: if a straggler never returns its block the formatter
//!   panics with a diagnostic naming the segment, the missing-block
//!   count, the in-flight push count, and the deterministic schedule
//!   seed (when one is active) so the hang replays from one line.
//! * **Reclaim** (class c → free) is a *two-phase verify*, triggered by
//!   the free that returns the last block:
//!   1. **claim-unreachable** — the reclaimer removes the segment from
//!      its block tree (`claim_exact`), so no new block request can find
//!      it, and publishes `TREE_FREE` so any popper already inside
//!      Algorithm 2 fails its `ldcv` staleness re-check and pushes its
//!      block back;
//!   2. **quiesce-check → publish** — it re-verifies that the ring's
//!      derived occupancy still equals the block count. Exact occupancy
//!      makes this single observation sufficient: a popper that slipped
//!      in before the publish has already passed its ticket CAS and
//!      lowered `len()`, so a full reading proves no block is out and no
//!      push is unpublished. On success the segment is handed to the
//!      segment tree; otherwise the reclaim *aborts* (restores the class
//!      id and block-tree bit) rather than waiting — the in-window
//!      popper legitimately owns its block and will re-trigger reclaim
//!      when it frees.

use crate::config::Geometry;
use crate::ring::BlockRing;
use gpu_sim::{trace, LaneMask};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// `tree_id` value for a segment owned by the segment tree.
pub const TREE_FREE: u32 = u32::MAX;
/// `tree_id` value for a non-head segment of a large allocation.
pub const LARGE_BODY: u32 = u32::MAX - 1;
/// `tree_id` base for heads of large allocations: `LARGE_BASE + n` marks
/// the head of an `n`-segment allocation. (The paper stores
/// `numBlockTrees + numSegments`; we offset from the top of the u32 range
/// to keep the class ids dense.)
pub const LARGE_BASE: u32 = 1 << 24;

/// Upper bound on format-drain spin iterations before declaring the
/// straggler lost and panicking with diagnostics. Sized for real stalls
/// (tens of milliseconds of OS-scheduling noise in pool mode), far above
/// anything a correct protocol produces.
pub const DRAIN_SPIN_LIMIT: u64 = 1 << 26;

/// A handle to one block: `(segment, block_index)` packed densely (`max_blocks` a power of two).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHandle(pub u64);

impl BlockHandle {
    /// Raw value of the null handle.
    pub const NULL_RAW: u64 = u64::MAX;

    /// Pack `(segment, block)` into a handle.
    #[inline]
    pub fn new(seg: u64, block: u64, max_blocks: u64) -> Self {
        BlockHandle(seg * max_blocks + block)
    }

    /// The segment this handle's block belongs to.
    #[inline]
    pub fn segment(self, max_blocks: u64) -> u64 {
        self.0 >> max_blocks.trailing_zeros()
    }

    /// The block index within its segment.
    #[inline]
    pub fn block(self, max_blocks: u64) -> u64 {
        self.0 & (max_blocks - 1)
    }
}

/// Per-segment metadata; the slice counters are reached through [`Segment`].
pub struct SegmentMeta {
    /// Current owner: `TREE_FREE`, a block-tree class, or a large-alloc
    /// marker. Only the reclaim handshake is SeqCst (the TREE_FREE
    /// store in `tiers/segment.rs` racing [`SegmentMeta::ldcv_tree_id`]
    /// — a store-buffering pair); every other access is Acquire/Release
    /// under exclusive segment ownership (see TESTING.md, "Ordering
    /// audit").
    pub tree_id: AtomicU32,
    /// Block count of the segment's current (or, when free, previous)
    /// format — the drain target for the next format.
    pub cur_blocks: AtomicU32,
    /// Free-block ring queue.
    pub ring: BlockRing,
    /// One bit per block: set while the block is handed out wholesale
    /// (block-level allocation) rather than sliced.
    pub whole_block: Box<[AtomicU64]>,
}

/// A segment's [`SegmentMeta`] (it derefs to it) and its column of the
/// table's counters: per block a *claim word* (generation above
/// [`SLICE_GEN_SHIFT`], count below; [`Segment::claim_slices`]) and a free counter.
#[derive(Clone, Copy)]
pub struct Segment<'a> {
    meta: &'a SegmentMeta,
    table: &'a MemoryTable,
    seg: u64,
}

impl std::ops::Deref for Segment<'_> {
    type Target = SegmentMeta;
    fn deref(&self) -> &SegmentMeta {
        self.meta
    }
}

/// Bit position of the recycle generation within a block's claim word;
/// the low bits below it hold the served-slice count, so
/// `slices_per_block` must fit in them (validated by the geometry).
pub const SLICE_GEN_SHIFT: u32 = 16;

/// Mask extracting the served-slice count from a claim word.
pub const SLICE_COUNT_MASK: u32 = (1 << SLICE_GEN_SHIFT) - 1;

impl SegmentMeta {
    fn new(max_blocks: u64) -> Self {
        let words = max_blocks.div_ceil(64) as usize;
        SegmentMeta {
            tree_id: AtomicU32::new(TREE_FREE),
            cur_blocks: AtomicU32::new(0),
            ring: BlockRing::new(max_blocks),
            whole_block: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Read the tree id with `ldcv` semantics (Algorithm 2's staleness
    /// check).
    ///
    /// SeqCst retained: this load is the freer's side of the reclaim
    /// handshake — freer writes counters then loads `tree_id`; reclaimer
    /// stores `TREE_FREE` then reads counters. Both must agree on one
    /// total order or each can miss the other's write (store-buffering),
    /// double-counting a freed slice into a reformatted segment.
    #[inline]
    pub fn ldcv_tree_id(&self) -> u32 {
        self.tree_id.load(Ordering::SeqCst)
    }

    /// Whether this segment is quiescent and free: owned by no block
    /// tree (`tree_id == TREE_FREE`) and fully drained — every block of
    /// its previous format is home in the ring and published. This is
    /// exactly the state the two-phase reclaim publishes, so it doubles
    /// as the precondition for re-homing a segment across pool instances
    /// (elastic donation): a segment passing this check has no live
    /// slices, no wholesale blocks, and no straggler mid-push.
    #[inline]
    pub fn is_quiescent_free(&self) -> bool {
        self.ldcv_tree_id() == TREE_FREE
            && self.ring.len() == self.cur_blocks.load(Ordering::Acquire) as u64
    }
}

impl<'a> Segment<'a> {
    /// `block`'s claim word.
    #[inline]
    pub fn malloc_ctr(&self, block: u64) -> &'a AtomicU32 {
        &self.table.claims[(block * self.table.geo.num_segments + self.seg) as usize]
    }

    /// `block`'s slice free counter.
    #[inline]
    pub fn free_ctr(&self, block: u64) -> &'a AtomicU32 {
        &self.table.frees[(block * self.table.geo.num_segments + self.seg) as usize]
    }

    /// Load `block`'s claim word (generation + served count).
    #[inline]
    pub fn claim_word(&self, block: u64) -> u32 {
        self.malloc_ctr(block).load(Ordering::Acquire)
    }

    /// The recycle generation `block` is currently in.
    #[inline]
    pub fn slice_gen(&self, block: u64) -> u32 {
        self.claim_word(block) >> SLICE_GEN_SHIFT
    }

    /// Advance `block`'s claim word to the next generation with a zero
    /// count. Called by whoever exclusively owns the block's recycle
    /// transition (the freer of the last slice, a trim, a reformat); the
    /// bump is what makes any claim still in flight against the old
    /// generation fail instead of landing on the recycled block.
    #[inline]
    pub fn retire_claim_word(&self, block: u64) {
        let ctr = self.malloc_ctr(block);
        let gen = ctr.load(Ordering::Acquire) >> SLICE_GEN_SHIFT;
        ctr.store(gen.wrapping_add(1) << SLICE_GEN_SHIFT, Ordering::Release);
    }

    /// Reserve up to `want` slices of `block` for one coalesced group
    /// with a single bounded CAS loop (Algorithm 3): one successful RMW
    /// claims the whole group's slices, and the claim is clamped to the
    /// block's remaining capacity so the count never overshoots `spb` —
    /// it is always an exact tally of slices handed out.
    ///
    /// The claim only lands while the block is still in generation
    /// `gen` — the generation under which the caller read the block out
    /// of its per-SM buffer slot. Without that check a claimant that
    /// stalls between reading the slot and CAS-ing the counter can land
    /// its claim on a block that was meanwhile fully freed, recycled
    /// (count reset), pushed to the ring, and even re-installed
    /// elsewhere — reserving slices from a block it does not own and
    /// wrecking the ring/buffer ownership invariants. A generation
    /// mismatch returns `(0, 0)`: the caller re-reads its buffer slot
    /// and retries against whatever lives there now. (16 generation
    /// bits wrap only after 65,536 recycles of one block *while* a
    /// claimant is stalled — not a window a bounded kernel can hold
    /// open.)
    ///
    /// Returns `(base, taken)`; `taken == 0` with an up-to-date
    /// generation means the block is exhausted and its designated
    /// replacer (the taker of the last slice) is swapping in a fresh
    /// one. Each CAS attempt is recorded on `metrics`, which doubles as
    /// the deterministic scheduler's preemption point.
    pub fn claim_slices(
        &self,
        block: u64,
        want: u32,
        spb: u64,
        gen: u32,
        metrics: &gpu_sim::Metrics,
    ) -> (u32, u32) {
        let ctr = self.malloc_ctr(block);
        let mut cur = ctr.load(Ordering::Acquire);
        let mut attempts = 0u32;
        loop {
            if cur >> SLICE_GEN_SHIFT != gen {
                self.emit_claim(block, attempts, gen, 0);
                return (0, 0); // stale handle: the block was recycled
            }
            let count = cur & SLICE_COUNT_MASK;
            let take = want.min((spb as u32).saturating_sub(count));
            if take == 0 {
                self.emit_claim(block, attempts, gen, 0);
                return (count, 0);
            }
            attempts += 1;
            match ctr.compare_exchange(cur, cur + take, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    metrics.count_cas(true);
                    self.emit_claim(block, attempts, gen, take);
                    return (count, take);
                }
                Err(actual) => {
                    metrics.count_cas(false);
                    cur = actual;
                }
            }
        }
    }

    /// Trace a resolved slice claim; everything inside the closure runs
    /// only with a sink installed.
    #[inline]
    fn emit_claim(&self, block: u64, attempts: u32, gen: u32, taken: u32) {
        trace::emit(|| trace::TraceEvent::ClaimCas { seg: self.seg, block, attempts, gen, taken });
    }

    /// Mark every block of `blocks` as handed out wholesale (block-level
    /// allocation): one `fetch_or` per bitmap word the run names, led by its first block.
    pub fn set_whole_blocks(&self, blocks: &[u64]) {
        for (i, &lead) in blocks.iter().enumerate() {
            let w = lead / 64;
            if blocks[..i].iter().all(|&b| b / 64 != w) {
                let in_word = blocks[i..].iter().filter(|&&b| b / 64 == w);
                let bits = in_word.fold(0u64, |bits, b| bits | 1 << (b % 64));
                self.whole_block[w as usize].fetch_or(bits, Ordering::AcqRel);
            }
        }
    }

    /// Clear the whole-block bits of the blocks `lanes` name (`block(lane)`),
    /// one `fetch_and` per bitmap word named (led by its lowest lane); returns
    /// the lanes that *won* their block — the first to name it, and only if
    /// its bit was set (exclusive among clearers, protecting against double free).
    pub fn clear_whole_blocks(&self, lanes: LaneMask, block: impl Fn(usize) -> u64) -> LaneMask {
        let (mut won, mut left) = (LaneMask::EMPTY, lanes);
        while let Some(lead) = left.lowest() {
            let w = block(lead) / 64;
            let here = left.keep(|lane| block(lane) / 64 == w);
            left = left.without(here);
            let bits = here.fold(0u64, |bits, lane| bits | 1 << (block(lane) % 64));
            let mut prev = self.whole_block[w as usize].fetch_and(!bits, Ordering::AcqRel);
            for (lane, bit) in here.map(|lane| (lane, 1 << (block(lane) % 64))) {
                if prev & bit != 0 {
                    won.insert(lane);
                    prev &= !bit; // a second lane naming the block finds it taken
                }
            }
        }
        won
    }

    /// Whether `block` is currently handed out wholesale.
    #[inline]
    pub fn is_whole_block(&self, block: u64) -> bool {
        self.whole_block[(block / 64) as usize].load(Ordering::Acquire) & (1 << (block % 64)) != 0
    }
}

/// The memory table: all segments' metadata.
pub struct MemoryTable {
    geo: Geometry,
    segments: Box<[SegmentMeta]>,
    /// Block-major claim words and free counters (see the module docs).
    claims: Box<[AtomicU32]>,
    frees: Box<[AtomicU32]>,
}

impl MemoryTable {
    /// Pre-allocate metadata for every segment of `geo` (paper §5.1).
    pub fn new(geo: Geometry) -> Self {
        let segments: Box<[SegmentMeta]> =
            (0..geo.num_segments).map(|_| SegmentMeta::new(geo.max_blocks)).collect();
        for (i, meta) in segments.iter().enumerate() {
            meta.ring.set_tag(i as u64);
        }
        let n = (geo.num_segments * geo.max_blocks) as usize;
        // SAFETY: all-zero bytes are a valid `AtomicU32` (0).
        let counters = || unsafe { Box::<[AtomicU32]>::new_zeroed_slice(n).assume_init() };
        MemoryTable { geo, segments, claims: counters(), frees: counters() }
    }

    /// Metadata of segment `seg`.
    #[inline]
    pub fn seg(&self, seg: u64) -> Segment<'_> {
        Segment { meta: &self.segments[seg as usize], table: self, seg }
    }

    /// The geometry this table was laid out for.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Format a freshly claimed segment for class `c`: drain stragglers
    /// from its previous life, rebuild the ring with the class's block
    /// ids, zero the counters, then publish the class id. Returns the
    /// number of spin iterations the drain took (0 when the segment was
    /// already quiescent), for the caller's `drain_spins` metric.
    ///
    /// The caller must exclusively own the segment (a successful
    /// `claim_exact`/`claim_first_ge` on the segment tree).
    ///
    /// # Panics
    ///
    /// The drain is bounded ([`DRAIN_SPIN_LIMIT`] iterations). If a
    /// straggler never pushes its block home — a protocol violation, not
    /// a slow schedule — this panics with the segment id, missing-block
    /// count, in-flight push count, and the active deterministic schedule
    /// seed so the failure replays deterministically.
    pub fn format_segment(&self, seg: u64, class: usize) -> u64 {
        let meta = self.seg(seg);
        debug_assert_eq!(meta.tree_id.load(Ordering::SeqCst), TREE_FREE);
        // Drain: wait until every block of the previous format is home.
        // len() is derived occupancy, so equality also proves no push is
        // mid-publish — the reset below cannot tear an in-flight store.
        let prev_blocks = meta.cur_blocks.load(Ordering::Acquire) as u64;
        let mut spins = 0u64;
        while meta.ring.len() < prev_blocks {
            // spin_hint keeps the straggler schedulable under the
            // deterministic scheduler (it may be a parked warp that
            // still has to push its block home).
            gpu_sim::spin_hint();
            spins += 1;
            if spins > DRAIN_SPIN_LIMIT {
                panic!(
                    "segment {seg} drain stalled after {spins} spins: \
                     {} of {prev_blocks} block(s) never returned \
                     ({} push(es) in flight, sched seed {})",
                    prev_blocks - meta.ring.len(),
                    meta.ring.pushes_in_flight(),
                    crate::tiers::seed_diag(),
                );
            }
        }
        let nblocks = self.geo.blocks_per_segment(class);
        meta.ring.reset_full(nblocks);
        meta.cur_blocks.store(nblocks as u32, Ordering::Release);
        for b in 0..nblocks as usize {
            // Zero the count but advance the generation: a claimant
            // stalled on a handle from before the reclaim must not land
            // on the reformatted block.
            meta.retire_claim_word(b as u64);
            meta.free_ctr(b as u64).store(0, Ordering::Relaxed);
        }
        for w in meta.whole_block.iter() {
            w.store(0, Ordering::Relaxed);
        }
        // Release: publishes the fully formatted segment (ring reset,
        // counters zeroed above) to the Acquire-class readers on the
        // malloc path. The SeqCst half of the reclaim handshake is the
        // *store to TREE_FREE* (tiers/segment.rs) racing ldcv_tree_id —
        // this store only ever follows an exclusive claim.
        meta.tree_id.store(class as u32, Ordering::Release);
        trace::emit(|| trace::TraceEvent::SegmentReformat {
            seg,
            class: class as u32,
            drain_spins: spins,
        });
        spins
    }

    /// Mark segments `[start, start+n)` as one large allocation. Caller
    /// exclusively owns them (claimed from the segment tree).
    pub fn mark_large(&self, start: u64, n: u64) {
        debug_assert!(n >= 1);
        // Release: the caller exclusively owns these segments (claimed
        // from the tree), so this is a plain publish, not a handshake.
        self.seg(start).tree_id.store(LARGE_BASE + n as u32, Ordering::Release);
        for s in start + 1..start + n {
            self.seg(s).tree_id.store(LARGE_BODY, Ordering::Release);
        }
    }

    /// Release a large allocation's segments back to the free state;
    /// returns `n`, the number of segments. Returns `None` if `seg` is not
    /// a large-allocation head (double free / bogus pointer).
    pub fn unmark_large(&self, seg: u64) -> Option<u64> {
        let meta = self.seg(seg);
        // Acquire: pairs with mark_large's Release publish; the CAS
        // below is the exclusivity arbiter, this load only routes.
        let id = meta.tree_id.load(Ordering::Acquire);
        if id < LARGE_BASE || id == LARGE_BODY || id == TREE_FREE {
            return None;
        }
        let n = (id - LARGE_BASE) as u64;
        // Exclusive release: only one freer may transition head → FREE.
        // AcqRel: winning the CAS both acquires the allocation's writes
        // and releases the freed state; losers only need the routing
        // Acquire above.
        if meta
            .tree_id
            .compare_exchange(id, TREE_FREE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        for s in seg + 1..seg + n {
            // Release: body segments become claimable; a claimant's
            // Acquire read of TREE_FREE must see the head transition
            // already done (program order above).
            self.seg(s).tree_id.store(TREE_FREE, Ordering::Release);
        }
        Some(n)
    }

    /// Reset every segment to the initial free state. Not thread-safe.
    /// Counters are stored only if nonzero: rows never written stay unmapped.
    pub fn reset(&self) {
        for meta in self.segments.iter() {
            meta.tree_id.store(TREE_FREE, Ordering::Relaxed);
            meta.cur_blocks.store(0, Ordering::Relaxed);
            meta.ring.reset_empty();
            for w in meta.whole_block.iter() {
                w.store(0, Ordering::Relaxed);
            }
        }
        for c in self.claims.iter().chain(self.frees.iter()) {
            if c.load(Ordering::Relaxed) != 0 {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GallatinConfig;
    use gpu_sim::{cases, SplitMix64};

    fn table() -> MemoryTable {
        MemoryTable::new(GallatinConfig::small_test(1 << 20).geometry())
    }

    #[test]
    fn block_handle_packs_and_unpacks() {
        let h = BlockHandle::new(5, 17, 64);
        assert_eq!(h.segment(64), 5);
        assert_eq!(h.block(64), 17);
    }

    #[test]
    fn format_publishes_class_and_fills_ring() {
        let t = table();
        t.format_segment(3, 1); // class 1: 2 KB blocks, 32 per segment
        let meta = t.seg(3);
        assert_eq!(meta.ldcv_tree_id(), 1);
        assert_eq!(meta.ring.len(), 32);
        assert_eq!(meta.cur_blocks.load(Ordering::Relaxed), 32);
        let mut ids = Vec::new();
        while let Some(b) = meta.ring.pop() {
            ids.push(b);
        }
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn reformat_after_full_return() {
        let t = table();
        t.format_segment(0, 0); // 64 blocks
        let meta = t.seg(0);
        let b = meta.ring.pop().unwrap();
        meta.ring.push(b);
        // Simulate reclaim then reformat for a different class.
        meta.tree_id.store(TREE_FREE, Ordering::SeqCst);
        t.format_segment(0, 4); // 16 KB blocks, 4 per segment
        assert_eq!(meta.ring.len(), 4);
        assert_eq!(meta.ldcv_tree_id(), 4);
    }

    #[test]
    fn whole_block_bits_are_exclusive() {
        let t = table();
        let meta = t.seg(1);
        meta.set_whole_blocks(&[63, 5]);
        assert!(meta.is_whole_block(63) && meta.is_whole_block(5));
        assert!(!meta.is_whole_block(62));
        // Lanes 0 and 2 both name block 63, lane 1 a clear bit: lane 0 wins.
        let lanes = LaneMask::ballot(&[63u64, 62, 63, 5], |_| true);
        let won = meta.clear_whole_blocks(lanes, |lane| [63, 62, 63, 5][lane]);
        assert_eq!(won.collect::<Vec<_>>(), [0, 3], "first namer of a set bit only");
        let again = meta.clear_whole_blocks(LaneMask::lane(0), |_| 63);
        assert!(again.is_empty(), "second clear must lose");
    }

    /// A run of `5..=32` blocks of a 256-block segment, unsorted, naming
    /// every one of the four bitmap words and some blocks twice.
    fn spanning_run(rng: &mut SplitMix64) -> Vec<u64> {
        let mut run: Vec<u64> = (0..4).map(|w| w * 64 + rng.below(64)).collect();
        run.extend((0..rng.below(28)).map(|_| rng.below(256)));
        if let Some(&b) = run.get(rng.below(run.len() as u64) as usize) {
            run.push(b);
        }
        for i in (1..run.len()).rev() {
            run.swap(i, rng.below(i as u64 + 1) as usize);
        }
        run
    }

    /// `set_whole_blocks` and `clear_whole_blocks` against a per-block
    /// loop over a plain bitmap, on `max_blocks = 256`: the bits after each
    /// pass, and the `won` lanes exactly — the first lane naming a set bit.
    #[test]
    fn bitmap_passes_match_a_per_block_reference() {
        let cfg =
            GallatinConfig { segment_bytes: 256 << 10, ..GallatinConfig::small_test(1 << 20) };
        let geo = cfg.geometry();
        assert_eq!(geo.max_blocks, 256);
        let t = MemoryTable::new(geo);
        cases("bitmap_passes_match_a_per_block_reference", 256, |rng| {
            let meta = t.seg(rng.below(geo.num_segments));
            let mut model = [0u64; 4];
            for _ in 0..3 {
                let run = spanning_run(rng);
                meta.set_whole_blocks(&run);
                run.iter().for_each(|&b| model[b as usize / 64] |= 1 << (b % 64));
                let names = spanning_run(rng);
                let lanes = LaneMask::ballot(&names, |_| rng.below(4) != 0);
                let mut want = LaneMask::EMPTY;
                for lane in lanes {
                    let (w, bit) = (names[lane] as usize / 64, 1 << (names[lane] % 64));
                    if model[w] & bit != 0 {
                        model[w] &= !bit;
                        want.insert(lane);
                    }
                }
                let won = meta.clear_whole_blocks(lanes, |lane| names[lane]);
                assert_eq!(won, want, "run {run:?}, names {names:?}, lanes {lanes:?}");
                for b in 0..256 {
                    assert_eq!(meta.is_whole_block(b), model[b as usize / 64] >> (b % 64) & 1 == 1);
                }
            }
            meta.whole_block.iter().for_each(|w| w.store(0, Ordering::Relaxed));
            // next case's start
        });
    }

    #[test]
    fn large_mark_unmark_roundtrip() {
        let t = table();
        t.mark_large(4, 3);
        assert_eq!(t.seg(4).ldcv_tree_id(), LARGE_BASE + 3);
        assert_eq!(t.seg(5).ldcv_tree_id(), LARGE_BODY);
        assert_eq!(t.seg(6).ldcv_tree_id(), LARGE_BODY);
        assert_eq!(t.unmark_large(4), Some(3));
        assert_eq!(t.seg(4).ldcv_tree_id(), TREE_FREE);
        assert_eq!(t.seg(5).ldcv_tree_id(), TREE_FREE);
        // Double free is rejected.
        assert_eq!(t.unmark_large(4), None);
        // Body segments are never valid heads.
        t.mark_large(8, 2);
        assert_eq!(t.unmark_large(9), None);
    }

    #[test]
    fn reset_restores_initial_state() {
        let t = table();
        t.format_segment(2, 0);
        t.seg(2).ring.pop();
        t.reset();
        assert_eq!(t.seg(2).ldcv_tree_id(), TREE_FREE);
        assert_eq!(t.seg(2).ring.len(), 0);
        assert_eq!(t.seg(2).cur_blocks.load(Ordering::Relaxed), 0);
        // Reformat works after reset (drain target is 0).
        t.format_segment(2, 0);
        assert_eq!(t.seg(2).ring.len(), 64);
    }

    #[test]
    fn drain_waits_for_straggler() {
        let t = std::sync::Arc::new(table());
        t.format_segment(0, 0);
        let b = t.seg(0).ring.pop().unwrap(); // straggler holds a block
        t.seg(0).tree_id.store(TREE_FREE, Ordering::SeqCst);

        let t2 = t.clone();
        let handle = std::thread::spawn(move || {
            // Will spin until the straggler pushes back.
            t2.format_segment(0, 1);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "format must wait for the straggler");
        t.seg(0).ring.push(b);
        handle.join().unwrap();
        assert_eq!(t.seg(0).ldcv_tree_id(), 1);
        assert_eq!(t.seg(0).ring.len(), 32);
    }
}
