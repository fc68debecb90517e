//! Word-parallel ("wide") scans over flat atomic bitmap levels.
//!
//! A narrow successor search walks the summary hierarchy one
//! `u64::trailing_zeros` at a time — one dependent load per level, each
//! a potential cache miss. When members are *dense enough*, scanning the
//! leaf level directly is faster: the leaf words are contiguous, so the
//! hardware prefetcher streams them, and OR-combining a stride of words
//! before testing lets the branch predictor fall through empty runs.
//!
//! [`wide_scan_from`] is that kernel: a bounded forward scan that loads
//! [`WIDE_STRIDE`] words per iteration, ORs them together, and only
//! inspects individual words when the combined value is non-zero. It
//! reports one of three outcomes (hit / exhausted the level / ran out of
//! budget) so callers can fall back to the hierarchical climb for large
//! sparse universes, where the summary walk wins again.
//!
//! The scan performs only `Acquire` loads — no RMWs — so enabling it
//! never changes the atomic-op *counts* the CI smoke gate pins; it is a
//! pure wall-clock play, A/B-able by building the tree with
//! `VebTree::new` or `VebTree::new_wide` (E21). Run with an unbounded
//! budget it is the whole search of a flat tree (`VebTree::new_flat`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Words OR-combined per scan iteration. Four 64-bit loads fill a cache
/// line on the simulated (and every real) 64-byte-line host; wider
/// strides showed no further gain in the E21 microbench.
pub const WIDE_STRIDE: usize = 4;

/// Default word budget for a bounded wide scan: how far past the query
/// point the leaf level is scanned before handing back to the
/// hierarchical climb. 64 words = 4096 items, one full summary word's
/// span — beyond that the climb resolves the gap in `O(height)` loads
/// instead of `O(gap/64)`.
pub const WIDE_SCAN_BUDGET_WORDS: usize = 64;

/// Outcome of a bounded wide scan over a flat level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideScan {
    /// First non-empty word in the scanned range: `(word_index, value)`.
    /// The value is the loaded word (non-zero); the caller picks the bit
    /// with `trailing_zeros`.
    Hit(usize, u64),
    /// The range `[from, level.len())` fit inside the budget and held no
    /// set bit. For a leaf level (the set's source of truth) this means
    /// there is no member at or after `from * 64`.
    Exhausted,
    /// The budget ran out before the end of the level. The payload is
    /// the first *unscanned* word index; every word before it was seen
    /// empty.
    Bounded(usize),
}

/// Scan `level[from..]` forward for the first non-zero word, loading at
/// most `budget` words. Loads are `Acquire`, matching the search-side
/// ordering of the narrow path.
///
/// Pass `budget = usize::MAX` for an unbounded scan (the flat tree,
/// which has no hierarchy to fall back to).
pub fn wide_scan_from(level: &[AtomicU64], from: usize, budget: usize) -> WideScan {
    let end = level.len().min(from.saturating_add(budget));
    let mut w = from;
    // Near window: members usually sit within a word or two of the
    // query point (dense occupancy), so test the first stride's words
    // individually — an early hit costs 1–2 loads instead of a full
    // OR-combined stride.
    let near_end = end.min(from.saturating_add(WIDE_STRIDE));
    while w < near_end {
        let v = level[w].load(Ordering::Acquire);
        if v != 0 {
            return WideScan::Hit(w, v);
        }
        w += 1;
    }
    // Strided body: OR WIDE_STRIDE words, test once.
    while w + WIDE_STRIDE <= end {
        let a = level[w].load(Ordering::Acquire);
        let b = level[w + 1].load(Ordering::Acquire);
        let c = level[w + 2].load(Ordering::Acquire);
        let d = level[w + 3].load(Ordering::Acquire);
        if a | b | c | d != 0 {
            // Cheap re-derivation: the four values are already in
            // registers; find the first non-zero among them.
            for (i, v) in [a, b, c, d].into_iter().enumerate() {
                if v != 0 {
                    return WideScan::Hit(w + i, v);
                }
            }
            unreachable!("combined word was non-zero");
        }
        w += WIDE_STRIDE;
    }
    // Tail: fewer than WIDE_STRIDE words left in the budgeted range.
    while w < end {
        let v = level[w].load(Ordering::Acquire);
        if v != 0 {
            return WideScan::Hit(w, v);
        }
        w += 1;
    }
    if end == level.len() {
        WideScan::Exhausted
    } else {
        WideScan::Bounded(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(words: &[u64]) -> Vec<AtomicU64> {
        words.iter().map(|&w| AtomicU64::new(w)).collect()
    }

    #[test]
    fn finds_first_nonzero_word() {
        let l = level(&[0, 0, 0, 0, 0, 0b100, 0, 1]);
        assert_eq!(wide_scan_from(&l, 0, usize::MAX), WideScan::Hit(5, 0b100));
        assert_eq!(wide_scan_from(&l, 6, usize::MAX), WideScan::Hit(7, 1));
        assert_eq!(wide_scan_from(&l, 5, usize::MAX), WideScan::Hit(5, 0b100));
    }

    #[test]
    fn exhausted_when_range_is_empty() {
        let l = level(&[0; 9]);
        assert_eq!(wide_scan_from(&l, 0, usize::MAX), WideScan::Exhausted);
        assert_eq!(wide_scan_from(&l, 9, usize::MAX), WideScan::Exhausted);
        // from past the end is a degenerate empty range.
        assert_eq!(wide_scan_from(&l, 100, usize::MAX), WideScan::Exhausted);
    }

    #[test]
    fn budget_bounds_the_scan() {
        let mut words = vec![0u64; 100];
        words[90] = 7;
        let l = level(&words);
        assert_eq!(wide_scan_from(&l, 0, 10), WideScan::Bounded(10));
        // Budget that lands mid-stride still reports the right resume point.
        assert_eq!(wide_scan_from(&l, 0, 7), WideScan::Bounded(7));
        assert_eq!(wide_scan_from(&l, 85, 10), WideScan::Hit(90, 7));
        assert_eq!(wide_scan_from(&l, 0, usize::MAX), WideScan::Hit(90, 7));
        // Saturating budget arithmetic: huge from + huge budget is fine.
        assert_eq!(wide_scan_from(&l, 95, usize::MAX), WideScan::Exhausted);
    }

    #[test]
    fn stride_tail_hits_are_found() {
        // Hits in every position relative to the stride boundary.
        for pos in 0..13usize {
            let mut words = vec![0u64; 13];
            words[pos] = 1 << (pos % 64);
            let l = level(&words);
            assert_eq!(
                wide_scan_from(&l, 0, usize::MAX),
                WideScan::Hit(pos, 1 << (pos % 64)),
                "pos {pos}"
            );
        }
    }
}
