//! The constant-size per-segment block ring queue.
//!
//! Paper §4.2: "Blocks are allocated and returned to the segment using a
//! constant-size per-segment ring queue." The queue hands out block ids
//! (`0..blocks_per_segment`) and receives them back when all of a block's
//! slices have been freed, enabling block reuse inside a live segment.
//!
//! This is a bounded MPMC queue in the classic Vyukov style: each cell
//! carries a sequence number that encodes whether it is ready for the next
//! enqueue or the next dequeue, so both operations are a single CAS on the
//! ticket counter plus one store per cell — **one ticket per run**: a call
//! claims as many consecutive ready cells as it has ids for, that many
//! single wins by one thread. Capacity is fixed at construction
//! (`max_blocks`, 256 in the paper's configuration).
//!
//! A cell is **one word**, `seq << 16 | id` ([`ID_BITS`]; 2 KiB for 256
//! cells): one Release store publishes it, one Acquire load both tests
//! its readiness and carries the id. `GallatinConfig::geometry` keeps
//! `max_blocks` within the id field.
//!
//! ## Occupancy
//!
//! Gallatin's segment-reclamation protocol needs a "ring is full again"
//! observation: a segment may only be recycled once every popped block has
//! been pushed back (see `crate::table`). Occupancy is therefore **derived
//! from the ticket counters**, never kept in a side counter:
//!
//! ```text
//! len() = (enqueue_pos - dequeue_pos) - pushes_in_flight
//! ```
//!
//! * `dequeue_pos` advances at a pop's CAS win — the instant the block
//!   leaves home — so a block held by a straggler is *never* counted;
//! * `enqueue_pos` advances at a push's CAS win, *before* the cell is
//!   published, so `push_in_flight` (incremented before the ticket CAS,
//!   decremented after the cell's publishing store) compensates:
//!   a push is only counted once its cell is fully published.
//!
//! Consequently `len()` can transiently *under*-report (which only delays
//! reclamation) but can never over-report or wrap: `len() == n` is a
//! proof that `n` blocks are home with their cells fully published and no
//! ring mutation in flight on them. An earlier revision kept a separate
//! `len: AtomicU64` updated *after* each queue op; a pop's `fetch_sub`
//! racing a push's trailing `fetch_add` could then momentarily drive the
//! counter through zero to ~2^64, spuriously satisfying every fullness
//! check downstream. The derived form makes that interleaving
//! unrepresentable.
//!
//! The pop CAS-win → cell-recycle window and the push CAS-win → publish
//! window are the *straggler windows* of the reclamation protocol; both
//! cross a [`gpu_sim::preempt_point`], once per call, so the deterministic
//! scheduler (and its fault injector, see `gpu_sim::sched::FaultPlan`) can
//! park a warp exactly there, holding its whole run.

use gpu_sim::{preempt_point, trace, PreemptPoint};
use std::sync::atomic::{AtomicU64, Ordering};

/// Width of a cell's id field; the sequence sits above it.
pub const ID_BITS: u32 = 16;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// Bounded MPMC queue of block ids with derived, non-wrapping occupancy.
pub struct BlockRing {
    /// One word a cell: `seq << ID_BITS | id`.
    cells: Box<[AtomicU64]>,
    /// Capacity mask (capacity is a power of two).
    mask: u64,
    enqueue_pos: AtomicU64,
    dequeue_pos: AtomicU64,
    /// Pushes between their ticket CAS and their cell publish. Always
    /// incremented *before* the CAS attempt (and rolled back on CAS
    /// failure) so no observer can count a ticket whose cell is still
    /// unpublished.
    push_in_flight: AtomicU64,
    /// Owner tag for trace attribution (the segment id, set once at table
    /// construction; `u64::MAX` for standalone rings). Written before any
    /// concurrency starts and loaded only inside trace-emit closures, so
    /// it costs nothing when tracing is off.
    tag: AtomicU64,
}

/// A quiescent view of a ring's contents (see [`BlockRing::snapshot`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// The ids of fully published cells, front to back.
    pub ids: Vec<u64>,
    /// Ticket positions in `[dequeue_pos, enqueue_pos)` whose cell was
    /// *not* published (an operation in flight, or a torn/phantom ticket).
    /// Nonzero at a quiescent point means the ring is corrupt: a hole can
    /// mask a vanished block, so invariant checkers must treat it as an
    /// error rather than skipping the cell.
    pub skipped: u64,
}

impl BlockRing {
    /// An empty ring with capacity for `capacity` block ids (rounded up to
    /// a power of two).
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0);
        let cap = capacity.next_power_of_two();
        let cells = (0..cap).map(|i| AtomicU64::new(i << ID_BITS)).collect();
        BlockRing {
            cells,
            mask: cap - 1,
            enqueue_pos: AtomicU64::new(0),
            dequeue_pos: AtomicU64::new(0),
            push_in_flight: AtomicU64::new(0),
            tag: AtomicU64::new(u64::MAX),
        }
    }

    /// Set the owner tag (segment id) stamped on this ring's trace
    /// events. Called once at table construction, before any launch.
    pub fn set_tag(&self, seg: u64) {
        self.tag.store(seg, Ordering::Relaxed);
    }

    /// The owner tag (segment id), or `u64::MAX` if never set.
    pub fn tag(&self) -> u64 {
        self.tag.load(Ordering::Relaxed)
    }

    /// Capacity (power of two ≥ requested).
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Current occupancy, derived from the ticket counters (see the
    /// module docs). May transiently under-report while an operation is
    /// in flight; never over-reports and never wraps. `len() == n` at any
    /// observation point proves `n` blocks are home and fully published.
    ///
    /// Load order matters: `dequeue_pos` first (so the subtraction cannot
    /// go negative — `enqueue_pos` only grows and always bounds it from
    /// above), `push_in_flight` last (so any push whose ticket we counted
    /// is either published or still represented in the in-flight count).
    #[inline]
    pub fn len(&self) -> u64 {
        // dequeue_pos stays SeqCst: the reclaim drain's `len() == n`
        // check races pop's ticket CAS in a store-buffering (Dekker)
        // shape — both sides must agree on a single total order or a
        // straggler's pop can hide from the drain (see TESTING.md,
        // "Ordering audit"). The other two legs only need to observe
        // values no older than the dequeue ticket they pair with, which
        // Acquire gives.
        let deq = self.dequeue_pos.load(Ordering::SeqCst);
        let enq = self.enqueue_pos.load(Ordering::Acquire);
        let in_flight = self.push_in_flight.load(Ordering::Acquire);
        (enq - deq).saturating_sub(in_flight)
    }

    /// Whether the ring is empty (same caveat as [`BlockRing::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes currently between their ticket CAS and their cell publish.
    /// Diagnostic for the reclaim/format paths: occupancy that is one
    /// short with `pushes_in_flight() > 0` means a straggler is mid-push
    /// and worth a bounded wait; occupancy short with no pushes in flight
    /// means the block is still held elsewhere.
    #[inline]
    pub fn pushes_in_flight(&self) -> u64 {
        // Acquire: a diagnostic read paired with push's Release-class
        // updates; no Dekker shape here (the caller already holds the
        // segment claim when it acts on the answer).
        self.push_in_flight.load(Ordering::Acquire)
    }

    fn cell(&self, ticket: u64) -> &AtomicU64 {
        &self.cells[(ticket & self.mask) as usize]
    }

    fn seq(&self, ticket: u64) -> u64 {
        self.cell(ticket).load(Ordering::Acquire) >> ID_BITS
    }

    /// How many consecutive tickets from `pos`, of at most `max`, find
    /// their cell's sequence `ready` past the ticket: 0 past it is a cell
    /// recycled for that push, 1 one published for that pop. Each ready
    /// cell's id goes to `id` from the same load.
    fn run(&self, pos: u64, max: usize, ready: u64, mut id: impl FnMut(usize, u64)) -> u64 {
        let words = (pos..pos + max as u64).map(|t| (t, self.cell(t).load(Ordering::Acquire)));
        let run = words.take_while(|&(t, word)| word >> ID_BITS == t + ready);
        run.enumerate().map(|(i, (_, word))| id(i, word & ID_MASK)).count() as u64
    }

    /// Enqueue the prefix of `values` that fits the run of recycled cells
    /// at the back, as **one** ticket, and return its length `m` — `m`
    /// single pushes won by one thread. 0 if the queue is full (only
    /// through misuse: a segment never holds more ids than its block
    /// count, which is ≤ capacity) or the next cell's pop is still
    /// recycling it (transient; callers retry with what is left).
    pub fn push_many(&self, values: &[u64]) -> usize {
        debug_assert!(values.iter().all(|&v| v <= ID_MASK), "block id wider than ID_BITS");
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let m = self.run(pos, values.len(), 0, |_, _| {});
            if m > 0 {
                // Announce the in-flight pushes *before* the ticket CAS:
                // any observer that counts the bumped enqueue_pos must
                // also see this increment (or the publish completed).
                self.push_in_flight.fetch_add(m, Ordering::SeqCst);
                // AcqRel: the CAS releases the in-flight increment above
                // to anyone who Acquire-loads the bumped ticket (len());
                // SeqCst added nothing — the drain's Dekker partner is
                // pop's ticket CAS, not this one.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + m,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Straggler window: tickets taken, no cell published
                        // yet. The fault injector parks warps here.
                        preempt_point(PreemptPoint::RingPush);
                        for (ticket, &value) in (pos..pos + m).zip(values) {
                            self.cell(ticket)
                                .store((ticket + 1) << ID_BITS | value, Ordering::Release);
                        }
                        // Release: the decrement must not sink above the
                        // last cell's publish, or len() could count a
                        // block home before its cell is readable.
                        self.push_in_flight.fetch_sub(m, Ordering::Release);
                        // Cells published: the blocks are home. The tag
                        // load happens inside the closure, so with no sink
                        // each line costs one thread-local check.
                        for &block in &values[..m as usize] {
                            trace::emit(|| trace::TraceEvent::RingPush { seg: self.tag(), block });
                        }
                        return m as usize;
                    }
                    Err(p) => {
                        // Release (rollback): nothing was published, but
                        // the decrement still must not sink below a later
                        // retry's increment.
                        self.push_in_flight.fetch_sub(m, Ordering::Release);
                        pos = p;
                    }
                }
            } else if values.is_empty() || self.seq(pos) < pos {
                return 0; // full
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Enqueue one block id: the 1-length [`Self::push_many`].
    pub fn push(&self, value: u64) -> bool {
        self.push_many(&[value]) == 1
    }

    /// Dequeue the run of published cells at the front into `out`, up to
    /// its length, as **one** ticket. Returns the run's length; 0 if the
    /// queue is empty; `out` past the run is unspecified. The ids are the
    /// readiness loads': a published cell changes only when popped.
    pub fn pop_many(&self, out: &mut [u64]) -> usize {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let m = self.run(pos, out.len(), 1, |i, id| out[i] = id);
            if m > 0 {
                // SeqCst retained: this ticket CAS is one side of the
                // store-buffering pair with the reclaim drain's len()
                // read (see TESTING.md, "Ordering audit") — weakening it
                // lets a pop and the drain each miss the other.
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + m,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // The blocks left home at the CAS win above; stamp
                        // the pops before entering the straggler window so
                        // the trace orders them ahead of whatever runs
                        // while this warp is parked.
                        for &block in &out[..m as usize] {
                            trace::emit(|| trace::TraceEvent::RingPop { seg: self.tag(), block });
                        }
                        // Straggler window: the run left home (occupancy
                        // already reflects it) but its cells have not been
                        // recycled for the next lap. A warp parked here by
                        // the fault injector holds the popped blocks across
                        // whatever the other warps do next — exactly the
                        // reclaim/reformat hazard of paper Algorithm 2.
                        preempt_point(PreemptPoint::RingPop);
                        for ticket in pos..pos + m {
                            let lap = ticket + self.mask + 1;
                            self.cell(ticket).store(lap << ID_BITS, Ordering::Release);
                        }
                        return m as usize;
                    }
                    Err(p) => pos = p,
                }
            } else if out.is_empty() || self.seq(pos) <= pos {
                return 0; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue one block id: the 1-length [`Self::pop_many`].
    pub fn pop(&self) -> Option<u64> {
        let mut v = [0];
        (self.pop_many(&mut v) == 1).then_some(v[0])
    }

    /// The ring's contents plus a count of unpublished cells.
    ///
    /// Only meaningful while the ring is quiescent (no concurrent
    /// push/pop): used by the invariant checker, which runs between
    /// kernels. At a quiescent point every ticket in
    /// `[dequeue_pos, enqueue_pos)` must map to a published cell, so
    /// `skipped != 0` is itself an invariant violation (a hole would
    /// otherwise silently mask a vanished block).
    pub fn snapshot(&self) -> RingSnapshot {
        // Acquire: the checker runs at quiescent points, so these loads
        // only need to see the final published values, not a total
        // store order.
        let deq = self.dequeue_pos.load(Ordering::Acquire);
        let enq = self.enqueue_pos.load(Ordering::Acquire);
        let mut snap = RingSnapshot { ids: Vec::with_capacity((enq - deq) as usize), skipped: 0 };
        for pos in deq..enq {
            if self.run(pos, 1, 1, |_, id| snap.ids.push(id)) == 0 {
                snap.skipped += 1;
            }
        }
        snap
    }

    /// Reinitialize to hold exactly the ids `0..count`, in order.
    ///
    /// **Not thread-safe**: callers must hold exclusive ownership of the
    /// segment (Gallatin's format path claims the segment from the segment
    /// tree and drains stragglers before calling this; the drain's
    /// `len() == prev_blocks` observation proves no push or pop is still
    /// mutating the cells — see the module docs).
    pub fn reset_full(&self, count: u64) {
        assert!(count <= self.capacity(), "segment block count exceeds ring capacity");
        for (i, cell) in (0..).zip(self.cells.iter()) {
            let word = if i < count { (i + 1) << ID_BITS | i } else { i << ID_BITS };
            cell.store(word, Ordering::Relaxed);
        }
        self.dequeue_pos.store(0, Ordering::Relaxed);
        self.push_in_flight.store(0, Ordering::Relaxed);
        self.enqueue_pos.store(count, Ordering::Release);
    }

    /// Reinitialize to empty. Same exclusivity requirement as
    /// [`BlockRing::reset_full`].
    pub fn reset_empty(&self) {
        for (i, cell) in (0..).zip(self.cells.iter()) {
            cell.store(i << ID_BITS, Ordering::Relaxed);
        }
        self.dequeue_pos.store(0, Ordering::Relaxed);
        self.push_in_flight.store(0, Ordering::Relaxed);
        self.enqueue_pos.store(0, Ordering::Release);
    }

    /// Corrupt the ring by taking an enqueue ticket without publishing a
    /// cell — the footprint of a torn push. Test-only: negative coverage
    /// for the invariant checker's occupancy-drift and snapshot-hole
    /// detection.
    #[doc(hidden)]
    pub fn debug_inject_phantom_push(&self) {
        self.enqueue_pos.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::sched::{explore_schedules, run_tasks, run_tasks_faulted, FaultPlan};
    use gpu_sim::{cases, SplitMix64};
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn fifo_order_single_threaded() {
        let r = BlockRing::new(8);
        assert!(r.is_empty());
        for i in 0..8 {
            assert!(r.push(i));
        }
        assert_eq!(r.len(), 8);
        assert!(!r.push(99), "full ring must reject");
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn reset_full_preloads_ids() {
        let r = BlockRing::new(16);
        r.reset_full(10);
        assert_eq!(r.len(), 10);
        let mut seen = Vec::new();
        while let Some(v) = r.pop() {
            seen.push(v);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // Reusable after drain.
        assert!(r.push(3));
        assert_eq!(r.pop(), Some(3));
    }

    #[test]
    fn reset_empty_discards_contents() {
        let r = BlockRing::new(8);
        r.push(1);
        r.push(2);
        r.reset_empty();
        assert_eq!(r.pop(), None);
        assert!(r.push(7));
        assert_eq!(r.pop(), Some(7));
    }

    #[test]
    fn snapshot_reflects_contents_without_consuming() {
        let r = BlockRing::new(8);
        r.reset_full(5);
        r.pop();
        r.push(0);
        let snap = r.snapshot();
        assert_eq!(snap.ids, vec![1, 2, 3, 4, 0]);
        assert_eq!(snap.skipped, 0, "quiescent ring has no holes");
        assert_eq!(r.len(), 5, "snapshot must not consume");
        assert_eq!(r.pop(), Some(1));
    }

    #[test]
    fn snapshot_reports_phantom_ticket_as_hole() {
        let r = BlockRing::new(8);
        r.reset_full(4);
        r.debug_inject_phantom_push();
        let snap = r.snapshot();
        assert_eq!(snap.ids, vec![0, 1, 2, 3], "published cells still visible");
        assert_eq!(snap.skipped, 1, "the torn ticket must be reported, not skipped");
    }

    /// The widest id a geometry allows, `max_blocks − 1` at `max_blocks =
    /// 2^16`, shares its cell word with the sequence and loses no bit
    /// through `push_many`, `snapshot` or `pop_many`, on the first lap and
    /// the second.
    #[test]
    fn the_widest_id_round_trips_the_cell_word() {
        let max_blocks = 1u64 << 16;
        let (top, r) = (max_blocks - 1, BlockRing::new(max_blocks));
        for lap in 0..2 {
            let run = [top, 0, top - 1, top];
            assert_eq!(r.push_many(&run), 4, "lap {lap}");
            assert_eq!(r.snapshot(), RingSnapshot { ids: run.to_vec(), skipped: 0 });
            let mut out = [0; 4];
            assert_eq!((r.pop_many(&mut out), out), (4, run), "lap {lap}");
            r.reset_full(max_blocks);
            assert_eq!(r.snapshot().ids.last(), Some(&top));
            let mut all = vec![0; max_blocks as usize];
            assert_eq!(r.pop_many(&mut all), max_blocks as usize);
            assert!(all.iter().copied().eq(0..max_blocks), "lap {lap}");
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(BlockRing::new(5).capacity(), 8);
        assert_eq!(BlockRing::new(256).capacity(), 256);
    }

    #[test]
    fn wraparound_many_cycles() {
        let r = BlockRing::new(4);
        for round in 0..100u64 {
            assert!(r.push(round));
            assert_eq!(r.pop(), Some(round));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn concurrent_push_pop_conserves_ids() {
        let r = BlockRing::new(256);
        r.reset_full(256);
        // 8 threads cycle pop→push; afterwards all 256 ids are present
        // exactly once.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        if let Some(v) = r.pop() {
                            assert!(v < 256);
                            // A push that wraps onto a cell whose pop is
                            // still in flight reports "full" transiently;
                            // retry until the cell's sequence is published.
                            while !r.push(v) {
                                std::hint::spin_loop();
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(r.len(), 256);
        let mut seen = HashSet::new();
        while let Some(v) = r.pop() {
            assert!(seen.insert(v), "duplicate id {v}");
        }
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn concurrent_producers_consumers() {
        let ring = BlockRing::new(64);
        let r = &ring;
        let produced: u64 = 4 * 5_000;
        let consumed = &std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        let v = t * 5_000 + i;
                        while !r.push(v) {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..4 {
                s.spawn(move || loop {
                    if r.pop().is_some() {
                        let n = consumed.fetch_add(1, Ordering::Relaxed) + 1;
                        if n >= produced {
                            break;
                        }
                    } else if consumed.load(Ordering::Relaxed) >= produced {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(r.is_empty());
    }

    /// Regression for the `len` underflow (ISSUE 2): the retired design
    /// kept occupancy in a side `AtomicU64` updated *after* each queue op,
    /// so on a near-empty ring a completed pop's `fetch_sub` could land
    /// before the racing push's trailing `fetch_add` and wrap the counter
    /// to ~2^64, spuriously passing every `len() >= n` fullness check. An
    /// observer task here watches occupancy at every preemption point
    /// while two workers cycle pop→push through the instrumented
    /// straggler windows; with the derived occupancy the bound
    /// `len() <= blocks` holds on every interleaving, while the side
    /// counter violated it for many seeds.
    #[test]
    fn occupancy_never_overreports_across_schedules() {
        let result = explore_schedules(0..64, |seed| {
            let r = BlockRing::new(4);
            r.reset_full(2); // near-empty: underflow territory
            run_tasks(seed, 3, |i| {
                if i < 2 {
                    for _ in 0..6 {
                        if let Some(v) = r.pop() {
                            while !r.push(v) {
                                gpu_sim::spin_hint();
                            }
                        }
                    }
                } else {
                    for _ in 0..32 {
                        let l = r.len();
                        assert!(l <= 2, "occupancy over-reports under seed {seed}: len() = {l}");
                        gpu_sim::spin_hint();
                    }
                }
            });
            assert_eq!(r.len(), 2, "both blocks home after quiescence (seed {seed})");
        });
        if let Err(failure) = result {
            panic!("{failure}");
        }
    }

    /// `1..160` ops: a push (the low bit) or a pop, of a run of `1..=32`.
    fn batched_ops(rng: &mut SplitMix64) -> Vec<(bool, usize)> {
        (0..1 + rng.below(159))
            .map(|_| (rng.next_u64() & 1 == 1, 1 + rng.below(32) as usize))
            .collect()
    }

    /// `push_many` / `pop_many` against a `VecDeque`, over capacities
    /// 2–32 and runs of 1–32 so tickets wrap many laps: a run longer
    /// than the free (published) cells lands (returns) its prefix, a
    /// full (empty) ring 0, and `len()` is the model's at every step.
    #[test]
    fn batched_ops_match_a_deque_model() {
        cases("batched_ops_match_a_deque_model", 96, |rng| {
            let (cap_log, ops) = (1 + rng.below(5), batched_ops(rng));
            let r = BlockRing::new(1 << cap_log);
            let cap = r.capacity() as usize;
            let mut model = VecDeque::new();
            let mut next = 0u64;
            for (push, n) in ops {
                if push {
                    let values: Vec<u64> = (next..next + n as u64).collect();
                    let m = r.push_many(&values);
                    assert_eq!(m, n.min(cap - model.len()), "prefix that fits; full is 0");
                    model.extend(&values[..m]);
                    next += m as u64;
                } else {
                    let mut out = vec![u64::MAX; n];
                    let m = r.pop_many(&mut out);
                    assert_eq!(m, n.min(model.len()), "published prefix; empty is 0");
                    assert_eq!(&out[..m], &model.drain(..m).collect::<Vec<_>>()[..]);
                }
                assert_eq!(r.len(), model.len() as u64);
                assert_eq!(r.snapshot(), RingSnapshot { ids: model.clone().into(), skipped: 0 });
            }
            assert_eq!((r.push_many(&[]), r.pop_many(&mut [])), (0, 0));
        });
    }

    /// A run — of one block or of four — is all-or-nothing in `len()`: a
    /// warp parked at `RingPop` has every block it popped excluded, one
    /// parked at `RingPush` (tickets taken, no cell published) has none
    /// counted: the fullness observation the reclaim protocol consumes
    /// waits for the publish. The worker announces its phase around each
    /// call, the observer runs only where the worker yields, and the fault
    /// visits every crossing of both windows.
    #[test]
    fn a_parked_run_is_never_partly_counted() {
        let parked_samples = AtomicU64::new(0);
        let points = [PreemptPoint::RingPop, PreemptPoint::RingPush];
        for (width, point, nth) in [1u64, 4]
            .into_iter()
            .flat_map(|w| points.into_iter().flat_map(move |p| (1..=3).map(move |n| (w, p, n))))
        {
            let r = BlockRing::new(8);
            r.reset_full(6);
            let phase = AtomicU64::new(0); // 0 at rest, 1 popping, 2 holding, 3 pushing
            run_tasks_faulted(nth, 2, Some(FaultPlan::park(point, nth, 12)), |i| {
                for _ in 0..if i == 0 { 3 } else { 64 } {
                    if i == 0 {
                        let mut run = [0; 4];
                        let run = &mut run[..width as usize];
                        phase.store(1, Ordering::SeqCst);
                        assert_eq!(r.pop_many(run), run.len());
                        phase.store(2, Ordering::SeqCst);
                        gpu_sim::spin_hint();
                        phase.store(3, Ordering::SeqCst);
                        assert_eq!(r.push_many(run), run.len(), "its own cells were recycled");
                        phase.store(0, Ordering::SeqCst);
                    } else {
                        let (len, in_flight, phase) =
                            (r.len(), r.pushes_in_flight(), phase.load(Ordering::SeqCst));
                        let ctx = format!("width {width} {point:?} nth {nth} phase {phase}");
                        assert!(
                            len == 6 || len == 6 - width,
                            "{ctx}: len {len}, a run partly home"
                        );
                        assert_eq!(len == 6, phase == 0, "{ctx}: len {len}");
                        assert!(
                            in_flight == 0 || in_flight == width,
                            "{ctx}: {in_flight} in flight"
                        );
                        parked_samples.fetch_add(phase % 2, Ordering::Relaxed);
                    }
                    gpu_sim::spin_hint();
                }
            });
            assert_eq!((r.len(), r.snapshot().skipped), (6, 0));
        }
        assert!(parked_samples.into_inner() > 0, "no sample fell inside a straggler window");
    }

    /// Two warps each cycle batched pops into batched pushes on one ring,
    /// through both straggler windows, under 64 schedules: the id
    /// multiset is conserved, nothing torn, occupancy exact at the end.
    #[test]
    fn batched_pop_vs_batched_push_conserves_ids_across_schedules() {
        explore_schedules(0..64, |seed| {
            let r = BlockRing::new(16);
            r.reset_full(12);
            run_tasks(seed, 2, |i| {
                for round in 0..8 {
                    let mut run = [0; 7];
                    let got = r.pop_many(&mut run[..1 + (round + 3 * i as usize) % 7]);
                    let mut rest = &run[..got];
                    while !rest.is_empty() {
                        rest = &rest[r.push_many(rest)..];
                        gpu_sim::spin_hint();
                    }
                    assert!(r.len() <= 12, "seed {seed}: occupancy over-reports");
                }
            });
            let mut snap = r.snapshot();
            snap.ids.sort_unstable();
            let whole = RingSnapshot { ids: (0..12).collect(), skipped: 0 };
            assert_eq!((r.len(), snap), (12, whole), "seed {seed}");
        })
        .unwrap_or_else(|failure| panic!("{failure}"));
    }
}
