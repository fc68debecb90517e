//! Per-SM block buffers (paper §4.3, "Faster access to blocks").
//!
//! To keep slice allocation at one atomic in the common case, live blocks
//! are cached in a buffer indexed by streaming multiprocessor: the
//! smallest slice class gets one slot per SM, each larger class half as
//! many, with a floor (4 in the paper) to bound contention on big classes.
//! On the paper's A40 example with 128 SMs: 128 slots for 16 B, 64 for
//! 32 B, 32 for 64 B, and so on.
//!
//! A slot holds an [`Entry`] — the block handle *plus the recycle
//! generation it was installed under* (see
//! [`Segment::claim_slices`](crate::table::Segment::claim_slices)).
//! CAS-ing full entries rather than bare handles closes the slot-ABA
//! window: a designated replacer whose block was recycled and
//! re-installed while it fetched the replacement holds the old
//! generation, so its swap fails instead of evicting the live entry.

use crate::table::BlockHandle;
use gpu_sim::trace;
use std::sync::atomic::{AtomicU64, Ordering};

/// A buffered block: the handle and the claim-word generation it was
/// installed under.
pub type Entry = (BlockHandle, u32);

/// Sentinel for an unoccupied buffer slot.
pub const EMPTY_SLOT: u64 = BlockHandle::NULL_RAW;

/// Bit position of the generation within a packed slot word; handles
/// (segment × block indexes) stay far below 2^48 for any real geometry.
const SLOT_GEN_SHIFT: u32 = 48;

fn pack((block, gen): Entry) -> u64 {
    debug_assert_eq!(block.0 >> SLOT_GEN_SHIFT, 0, "block handle overflows the slot packing");
    ((gen as u64 & 0xFFFF) << SLOT_GEN_SHIFT) | block.0
}

fn unpack(v: u64) -> Entry {
    (BlockHandle(v & ((1 << SLOT_GEN_SHIFT) - 1)), (v >> SLOT_GEN_SHIFT) as u32)
}

/// The block buffer of one slice class.
pub struct BlockBuffer {
    slots: Box<[AtomicU64]>,
}

impl BlockBuffer {
    /// A buffer with `slots` slots, all empty.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0);
        BlockBuffer { slots: (0..slots).map(|_| AtomicU64::new(EMPTY_SLOT)).collect() }
    }

    /// Number of slots each class gets: `num_sms >> class`, floored at
    /// `min_slots` (paper §4.3's A40 example).
    pub fn slots_for_class(num_sms: u32, class: usize, min_slots: u32) -> u32 {
        (num_sms >> class).max(min_slots)
    }

    /// Number of slots in this buffer.
    #[inline]
    pub fn num_slots(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The slot an SM maps to.
    #[inline]
    pub fn slot(&self, sm_id: u32) -> &AtomicU64 {
        &self.slots[(sm_id as usize) % self.slots.len()]
    }

    /// Load the entry currently cached for `sm_id`, if any.
    #[inline]
    pub fn current(&self, sm_id: u32) -> Option<Entry> {
        let v = self.slot(sm_id).load(Ordering::Acquire);
        (v != EMPTY_SLOT).then(|| unpack(v))
    }

    /// Install `entry` into an empty slot. Returns `Err(current)` with
    /// the entry some other thread installed first.
    pub fn try_install(&self, sm_id: u32, entry: Entry) -> Result<(), Entry> {
        match self.slot(sm_id).compare_exchange(
            EMPTY_SLOT,
            pack(entry),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                trace::emit(|| trace::TraceEvent::BufferInstall {
                    slot: (sm_id as usize % self.slots.len()) as u32,
                    block: entry.0 .0,
                });
                Ok(())
            }
            Err(cur) => Err(unpack(cur)),
        }
    }

    /// Replace `old` with `new` (the exhausted-block swap done by the
    /// thread that took the block's last slice). Returns whether this
    /// thread performed the swap; a stale `old` — same block, earlier
    /// generation — fails.
    pub fn try_replace(&self, sm_id: u32, old: Entry, new: Entry) -> bool {
        let swapped = self
            .slot(sm_id)
            .compare_exchange(pack(old), pack(new), Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if swapped {
            trace::emit(|| trace::TraceEvent::BufferReplace {
                slot: (sm_id as usize % self.slots.len()) as u32,
                old: old.0 .0,
                new: new.0 .0,
            });
        }
        swapped
    }

    /// Clear `old` out of the slot (used when no replacement block could
    /// be obtained). Returns whether this thread performed the clear.
    pub fn try_clear(&self, sm_id: u32, old: Entry) -> bool {
        self.slot(sm_id)
            .compare_exchange(pack(old), EMPTY_SLOT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Drain every slot, returning the blocks that were cached. Used at
    /// reset; not safe concurrently with allocation.
    pub fn drain(&self) -> Vec<BlockHandle> {
        let mut out = Vec::new();
        for s in self.slots.iter() {
            let v = s.swap(EMPTY_SLOT, Ordering::AcqRel);
            if v != EMPTY_SLOT {
                out.push(unpack(v).0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_follow_paper_example() {
        // A40 example: 128 SMs → 128, 64, 32 … floored at 4.
        assert_eq!(BlockBuffer::slots_for_class(128, 0, 4), 128);
        assert_eq!(BlockBuffer::slots_for_class(128, 1, 4), 64);
        assert_eq!(BlockBuffer::slots_for_class(128, 2, 4), 32);
        assert_eq!(BlockBuffer::slots_for_class(128, 5, 4), 4);
        assert_eq!(BlockBuffer::slots_for_class(128, 8, 4), 4);
    }

    #[test]
    fn install_then_current() {
        let b = BlockBuffer::new(4);
        assert!(b.current(0).is_none());
        assert!(b.try_install(0, (BlockHandle(42), 3)).is_ok());
        assert_eq!(b.current(0), Some((BlockHandle(42), 3)));
        // Same slot via modular SM mapping.
        assert_eq!(b.current(4), Some((BlockHandle(42), 3)));
        // Competing install loses and learns the winner.
        assert_eq!(b.try_install(0, (BlockHandle(7), 0)), Err((BlockHandle(42), 3)));
    }

    #[test]
    fn replace_requires_expected_entry() {
        let b = BlockBuffer::new(2);
        b.try_install(1, (BlockHandle(10), 5)).unwrap();
        assert!(!b.try_replace(1, (BlockHandle(11), 5), (BlockHandle(12), 0)));
        // Right block, stale generation: the slot-ABA guard rejects it.
        assert!(!b.try_replace(1, (BlockHandle(10), 4), (BlockHandle(12), 0)));
        assert!(b.try_replace(1, (BlockHandle(10), 5), (BlockHandle(12), 0)));
        assert_eq!(b.current(1), Some((BlockHandle(12), 0)));
    }

    #[test]
    fn clear_empties_slot() {
        let b = BlockBuffer::new(1);
        b.try_install(0, (BlockHandle(5), 1)).unwrap();
        assert!(!b.try_clear(0, (BlockHandle(5), 0)), "stale generation must not clear");
        assert!(b.try_clear(0, (BlockHandle(5), 1)));
        assert!(b.current(0).is_none());
        assert!(!b.try_clear(0, (BlockHandle(5), 1)));
    }

    #[test]
    fn drain_collects_all_cached_blocks() {
        let b = BlockBuffer::new(3);
        b.try_install(0, (BlockHandle(1), 7)).unwrap();
        b.try_install(2, (BlockHandle(3), 0)).unwrap();
        let mut drained = b.drain();
        drained.sort_by_key(|h| h.0);
        assert_eq!(drained, vec![BlockHandle(1), BlockHandle(3)]);
        assert!(b.current(0).is_none());
    }
}
