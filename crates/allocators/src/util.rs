//! Shared building blocks for the baseline allocators.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, poisoned or not: a scenario that panicked under the lock
/// must not cascade into the next one's `lock`. Every critical section in
/// this crate leaves its data valid at each step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Round a request up to `align` (power of two).
#[inline]
pub fn align_up(size: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (size + align - 1) & !(align - 1)
}

/// Power-of-two size class index for `size`, relative to `min` (power of
/// two): 0 for `≤ min`, 1 for `≤ 2·min`, …
#[inline]
pub fn class_of(size: u64, min: u64) -> usize {
    debug_assert!(min.is_power_of_two());
    let rounded = size.next_power_of_two().max(min);
    (rounded.trailing_zeros() - min.trailing_zeros()) as usize
}

/// Size served by class `c`.
#[inline]
pub fn class_size(c: usize, min: u64) -> u64 {
    min << c
}

/// A Treiber stack of device offsets, with an ABA tag packed into the
/// head word (16-bit version, 48-bit offset — enough for 256 TB arenas).
///
/// The next-pointers live *inside the arena*, in the first 8 bytes of
/// each freed region, exactly as a device-side free list stores them.
pub struct OffsetStack {
    head: AtomicU64,
}
// (field private; constructor below)

const NIL: u64 = (1 << 48) - 1;
const OFF_MASK: u64 = (1 << 48) - 1;

impl OffsetStack {
    /// An empty stack.
    pub fn new() -> Self {
        OffsetStack { head: AtomicU64::new(NIL) }
    }

    #[inline]
    fn pack(tag: u64, off: u64) -> u64 {
        (tag << 48) | (off & OFF_MASK)
    }

    /// Push region at `off`; `link` stores the next-pointer into the
    /// region (the caller owns that memory).
    pub fn push(&self, off: u64, link: impl Fn(u64, u64)) {
        debug_assert!(off < NIL);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            link(off, head & OFF_MASK);
            let new = Self::pack((head >> 48).wrapping_add(1), off);
            match self.head.compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Pop a region offset; `next` reads the next-pointer out of a region.
    pub fn pop(&self, next: impl Fn(u64) -> u64) -> Option<u64> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let off = head & OFF_MASK;
            if off == NIL {
                return None;
            }
            let succ = next(off) & OFF_MASK;
            let new = Self::pack((head >> 48).wrapping_add(1), succ);
            match self.head.compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(off),
                Err(h) => head = h,
            }
        }
    }

    /// Empty the stack (reset-time only).
    pub fn clear(&self) {
        self.head.store(NIL, Ordering::Release);
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) & OFF_MASK == NIL
    }
}

impl Default for OffsetStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceMemory;

    #[test]
    fn align_and_classes() {
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(class_of(1, 16), 0);
        assert_eq!(class_of(16, 16), 0);
        assert_eq!(class_of(17, 16), 1);
        assert_eq!(class_of(4096, 16), 8);
        assert_eq!(class_size(3, 16), 128);
    }

    #[test]
    fn stack_lifo_order() {
        let mem = DeviceMemory::new(1024);
        let s = OffsetStack::new();
        let link = |off: u64, next: u64| mem.store_u64(off, next);
        let next = |off: u64| mem.load_u64(off);
        assert!(s.is_empty());
        s.push(0, link);
        s.push(64, link);
        s.push(128, link);
        assert_eq!(s.pop(next), Some(128));
        assert_eq!(s.pop(next), Some(64));
        assert_eq!(s.pop(next), Some(0));
        assert_eq!(s.pop(next), None);
    }

    #[test]
    fn stack_concurrent_conservation() {
        let mem = DeviceMemory::new(64 * 1024);
        let s = OffsetStack::new();
        for i in 0..64u64 {
            s.push(i * 1024, |o, n| mem.store_u64(o, n));
        }
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for _ in 0..5_000 {
                        if let Some(off) = s.pop(|o| mem.load_u64(o)) {
                            s.push(off, |o, n| mem.store_u64(o, n));
                        }
                    }
                });
            }
        });
        let mut seen = std::collections::HashSet::new();
        while let Some(off) = s.pop(|o| mem.load_u64(o)) {
            assert!(seen.insert(off), "duplicate {off}");
            assert_eq!(off % 1024, 0);
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn clear_empties() {
        let mem = DeviceMemory::new(1024);
        let s = OffsetStack::new();
        s.push(8, |o, n| mem.store_u64(o, n));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop(|o| mem.load_u64(o)), None);
    }
}
