//! The concurrent vEB tree proper.

use crate::word::{first_set_ge, first_set_le, WORD_BITS};
use std::sync::atomic::{AtomicU64, Ordering};

/// A concurrent van Emde Boas tree over a fixed universe `{0, …, u−1}`,
/// with single-`AtomicU64` nodes and 64-ary fan-out (paper §3.2).
///
/// `levels[0]` is the leaf bitmap (one bit per universe item); each higher
/// level summarizes 64 words of the level below; the last level is a
/// single word (the root). See the crate docs for the concurrency model.
///
/// ```
/// use veb::VebTree;
///
/// let t = VebTree::new(1 << 18);
/// t.insert(5);
/// t.insert(70_000);
/// assert_eq!(t.successor(6), Some(70_000));
/// assert_eq!(t.predecessor(69_999), Some(5));
/// // Claims are exclusive: only one caller wins each member.
/// assert_eq!(t.claim_first_ge(0), Some(5));
/// assert!(!t.contains(5));
/// ```
pub struct VebTree {
    universe: u64,
    levels: Vec<Box<[AtomicU64]>>,
}

impl VebTree {
    /// An empty tree over `{0, …, universe−1}`.
    ///
    /// # Panics
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "vEB universe must be non-empty");
        let mut levels = Vec::new();
        let mut width = universe;
        loop {
            let words = width.div_ceil(WORD_BITS);
            levels
                .push((0..words).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into_boxed_slice());
            if words == 1 {
                break;
            }
            width = words;
        }
        VebTree { universe, levels }
    }

    /// [`Self::new`] under its old name, kept only for
    /// `benchmark/src/layers.rs`, which builds its `veb.*_ns` probe with it.
    #[doc(hidden)]
    pub fn new_wide(universe: u64) -> Self {
        Self::new(universe)
    }

    /// A tree with every item of the universe present (Gallatin's segment
    /// tree starts with all segments free).
    pub fn new_full(universe: u64) -> Self {
        let t = Self::new(universe);
        t.fill();
        t
    }

    /// Universe size `u`.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of levels (root included): `⌈log₆₄ u⌉`, minimum 1.
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    fn check_index(&self, x: u64) {
        assert!(x < self.universe, "index {x} outside universe {}", self.universe);
    }

    /// Set every item present and rebuild all summaries. Not thread-safe;
    /// callers quiesce first (used at construction / allocator reset).
    pub fn fill(&self) {
        for (i, w) in self.levels[0].iter().enumerate() {
            let bits = (self.universe - i as u64 * WORD_BITS).min(WORD_BITS);
            w.store(u64::MAX >> (WORD_BITS - bits), Ordering::Relaxed);
        }
        self.rebuild_summaries();
    }

    /// Remove every item. Not thread-safe (reset-time only).
    pub fn clear(&self) {
        for level in &self.levels {
            for w in level.iter() {
                w.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Recompute every summary level from the leaves. Not thread-safe.
    fn rebuild_summaries(&self) {
        for li in 1..self.levels.len() {
            let (lower, upper) = {
                let (a, b) = self.levels.split_at(li);
                (&a[li - 1], &b[0])
            };
            for (wi, word) in upper.iter().enumerate() {
                let mut v = 0u64;
                for bit in 0..WORD_BITS as usize {
                    let child = wi * WORD_BITS as usize + bit;
                    if child < lower.len() && lower[child].load(Ordering::Relaxed) != 0 {
                        v |= 1 << bit;
                    }
                }
                word.store(v, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Summary propagation
    // ------------------------------------------------------------------

    /// After making leaf word `word_idx` (level 0) non-empty, set summary
    /// bits upward until a level already had the bit.
    fn propagate_set(&self, mut word_idx: u64) {
        for level in 1..self.levels.len() {
            let bit = word_idx % WORD_BITS;
            word_idx /= WORD_BITS;
            let prev = self.levels[level][word_idx as usize].fetch_or(1 << bit, Ordering::AcqRel);
            if prev & (1 << bit) != 0 {
                // Already marked; ancestors must be marked too (or a
                // racing remove will fix them up — see propagate_clear).
                return;
            }
        }
    }

    /// After observing leaf word `word_idx` empty, clear summary bits
    /// upward, re-checking the child after each clear to repair races with
    /// concurrent inserts (the insert may have set the child between our
    /// read and our clear).
    fn propagate_clear(&self, mut word_idx: u64) {
        for level in 1..self.levels.len() {
            let bit = word_idx % WORD_BITS;
            let parent_idx = word_idx / WORD_BITS;
            let child_word = &self.levels[level - 1][word_idx as usize];
            if child_word.load(Ordering::Acquire) != 0 {
                return; // child repopulated; summary bit must stay
            }
            let parent = &self.levels[level][parent_idx as usize];
            let prev = parent.fetch_and(!(1 << bit), Ordering::AcqRel);
            // Re-check: an insert may have set the child *after* our load
            // but *before* our clear, and its propagate_set may have run
            // before our clear (lost update). Repair by re-setting.
            if child_word.load(Ordering::Acquire) != 0 {
                parent.fetch_or(1 << bit, Ordering::AcqRel);
                return;
            }
            if prev & (1 << bit) == 0 {
                return; // bit already clear; ancestors handled elsewhere
            }
            let new_parent = prev & !(1 << bit);
            if new_parent != 0 {
                return; // parent still non-empty; nothing above changes
            }
            word_idx = parent_idx;
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Add `x` to the set. Returns `true` if `x` was absent.
    pub fn insert(&self, x: u64) -> bool {
        self.check_index(x);
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        let word = &self.levels[0][w as usize];
        // A plain load first: re-inserting a present member takes no RMW.
        if word.load(Ordering::Acquire) & (1 << b) != 0
            || word.fetch_or(1 << b, Ordering::AcqRel) & (1 << b) != 0
        {
            return false;
        }
        // Even when the word was already non-empty (so its summaries
        // should be set), a racing remove of the *other* bits may be
        // clearing them right now. propagate_set is idempotent and stops
        // at the first level already marked, so always run it.
        self.propagate_set(w);
        true
    }

    /// Remove `x` from the set. Returns `true` if `x` was present.
    pub fn remove(&self, x: u64) -> bool {
        self.check_index(x);
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        let prev = self.levels[0][w as usize].fetch_and(!(1 << b), Ordering::AcqRel);
        if prev & (1 << b) == 0 {
            return false;
        }
        if prev & !(1 << b) == 0 {
            self.propagate_clear(w);
        }
        true
    }

    /// Whether `x` is in the set.
    pub fn contains(&self, x: u64) -> bool {
        self.check_index(x);
        let (w, b) = (x / WORD_BITS, x % WORD_BITS);
        self.levels[0][w as usize].load(Ordering::Acquire) & (1 << b) != 0
    }

    /// Atomically remove `x` if present. Returns `true` on success —
    /// exclusive among concurrent claimants (Algorithm 1's `claimIndex`).
    pub fn claim_exact(&self, x: u64) -> bool {
        self.remove(x)
    }

    // ------------------------------------------------------------------
    // Searches
    // ------------------------------------------------------------------

    /// The minimum member `≥ x`, or `None`. `x` may equal the universe
    /// size (returns `None`), which simplifies "next after last" loops.
    pub fn successor(&self, x: u64) -> Option<u64> {
        if x >= self.universe {
            return None;
        }
        // Fast path: within x's own leaf word.
        let word_idx = x / WORD_BITS;
        let leaf = self.levels[0][word_idx as usize].load(Ordering::Acquire);
        if let Some(b) = first_set_ge(leaf, x % WORD_BITS) {
            return Some(word_idx * WORD_BITS + b);
        }
        self.climb_successor(word_idx)
    }

    /// Hierarchical successor: find the first member in a leaf word
    /// *strictly after* `word_idx`, assuming leaf word `word_idx` holds
    /// no answer.
    fn climb_successor(&self, mut word_idx: u64) -> Option<u64> {
        // Climb until a summary shows a non-empty word strictly after
        // word_idx, then descend; on stale summaries, skip the subtree.
        'restart: loop {
            let mut level = 1;
            let mut idx = word_idx; // bit index at `level`
            loop {
                if level >= self.levels.len() {
                    return None;
                }
                let word = self.levels[level][(idx / WORD_BITS) as usize].load(Ordering::Acquire);
                if let Some(b) = first_set_ge(word, (idx % WORD_BITS) + 1) {
                    // Descend from (level, word (idx/64), bit b).
                    let mut child = (idx / WORD_BITS) * WORD_BITS + b;
                    let mut l = level;
                    while l > 0 {
                        let w = self.levels[l - 1][child as usize].load(Ordering::Acquire);
                        match first_set_ge(w, 0) {
                            Some(bit) => {
                                if l == 1 {
                                    return Some(child * WORD_BITS + bit);
                                }
                                child = child * WORD_BITS + bit;
                                l -= 1;
                            }
                            None => {
                                // Stale summary: subtree empty. Skip past
                                // it and restart from there.
                                let span = WORD_BITS.pow(l as u32 - 1);
                                let next_item = (child + 1) * span * WORD_BITS;
                                if next_item >= self.universe {
                                    return None;
                                }
                                word_idx = next_item / WORD_BITS;
                                let leaf =
                                    self.levels[0][word_idx as usize].load(Ordering::Acquire);
                                if let Some(b) = first_set_ge(leaf, 0) {
                                    return Some(word_idx * WORD_BITS + b);
                                }
                                continue 'restart;
                            }
                        }
                    }
                    unreachable!("descent terminates at level 1");
                }
                // No member in this level's word after idx; climb.
                idx /= WORD_BITS;
                level += 1;
            }
        }
    }

    /// The minimum member `≥ start`, wrapping to the front of the
    /// universe when nothing lies at or above `start`.
    ///
    /// This is `successor` with a *probe hint*: callers that only need
    /// "any member" (Gallatin's segment and block queries, §4.3 of the
    /// paper) can start the scan at an SM-hashed position so concurrent
    /// warps fan out across different words instead of all reading —
    /// and then CAS-hammering — bit 0. `find_first_from(0)` is exactly
    /// `successor(0)`, so a zero hint preserves the legacy front-first
    /// order. Returns `None` only if both halves of the wrapped scan
    /// come up empty.
    pub fn find_first_from(&self, start: u64) -> Option<u64> {
        match self.successor(start) {
            Some(s) => Some(s),
            None if start == 0 => None,
            None => self.successor(0),
        }
    }

    /// The maximum member `≤ x`, or `None`. `x` is clamped to the
    /// universe.
    pub fn predecessor(&self, x: u64) -> Option<u64> {
        let x = x.min(self.universe - 1);
        let mut word_idx = x / WORD_BITS;
        let leaf = self.levels[0][word_idx as usize].load(Ordering::Acquire);
        if let Some(b) = first_set_le(leaf, x % WORD_BITS) {
            return Some(word_idx * WORD_BITS + b);
        }
        'restart: loop {
            let mut level = 1;
            let mut idx = word_idx;
            loop {
                if level >= self.levels.len() {
                    return None;
                }
                let word = self.levels[level][(idx / WORD_BITS) as usize].load(Ordering::Acquire);
                let within = idx % WORD_BITS;
                let found = if within == 0 { None } else { first_set_le(word, within - 1) };
                if let Some(b) = found {
                    let mut child = (idx / WORD_BITS) * WORD_BITS + b;
                    let mut l = level;
                    while l > 0 {
                        let w = self.levels[l - 1][child as usize].load(Ordering::Acquire);
                        match first_set_le(w, WORD_BITS - 1) {
                            Some(bit) => {
                                if l == 1 {
                                    return Some(child * WORD_BITS + bit);
                                }
                                child = child * WORD_BITS + bit;
                                l -= 1;
                            }
                            None => {
                                // Stale summary: skip below this subtree.
                                let span = WORD_BITS.pow(l as u32 - 1);
                                let first_item = child * span * WORD_BITS;
                                if first_item == 0 {
                                    return None;
                                }
                                let prev_item = first_item - 1;
                                word_idx = prev_item / WORD_BITS;
                                let leaf =
                                    self.levels[0][word_idx as usize].load(Ordering::Acquire);
                                if let Some(b) = first_set_le(leaf, prev_item % WORD_BITS) {
                                    return Some(word_idx * WORD_BITS + b);
                                }
                                continue 'restart;
                            }
                        }
                    }
                    unreachable!("descent terminates at level 1");
                }
                idx /= WORD_BITS;
                level += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Claims
    // ------------------------------------------------------------------

    /// Find and atomically remove the minimum member `≥ x`. This is the
    /// segment-allocation primitive of Algorithm 1: successor search plus
    /// a CAS-style claim, retried when another thread wins the race.
    pub fn claim_first_ge(&self, mut x: u64) -> Option<u64> {
        loop {
            let s = self.successor(x)?;
            if self.claim_exact(s) {
                return Some(s);
            }
            // Lost the race for s; resume the scan just past it. Another
            // thread may insert below s later, but a linearizable claim
            // only promises a member that was present at some point during
            // the call.
            x = s + 1;
            if x >= self.universe {
                return None;
            }
        }
    }

    /// Find and atomically remove the maximum member `≤ x`.
    pub fn claim_last_le(&self, mut x: u64) -> Option<u64> {
        loop {
            let p = self.predecessor(x)?;
            if self.claim_exact(p) {
                return Some(p);
            }
            if p == 0 {
                return None;
            }
            x = p - 1;
        }
    }

    /// Claim `n` *contiguous* members scanning from the back of the
    /// universe (first fit from the end — how Gallatin places
    /// multi-segment allocations, §4.1). Returns the first index of the
    /// run. Each leaf word of the run is claimed with one CAS, and a
    /// failed word rolls back the words above it, so concurrent
    /// claimants never overlap.
    pub fn claim_contiguous_from_back(&self, n: u64) -> Option<u64> {
        assert!(n > 0, "contiguous claim of zero items");
        if n > self.universe {
            return None;
        }
        let mut high = self.universe - 1;
        loop {
            // Find the highest member ≤ high; a run must end at a member.
            let end = self.predecessor(high)?;
            if end + 1 < n {
                return None;
            }
            // The next candidate run must end strictly below the highest
            // gap under `end`, or below `end` if the claim loses a race.
            let run = self.run_down_from(end, n);
            let below = if run < n {
                end - run
            } else if self.claim_run(end + 1 - n, end) {
                return Some(end + 1 - n);
            } else {
                end
            };
            if below == 0 {
                return None;
            }
            high = below - 1;
        }
    }

    /// How many members run contiguously down from `end`, counting at
    /// most `n`: `leading_ones` of each leaf word from `end`'s down.
    fn run_down_from(&self, end: u64, n: u64) -> u64 {
        let (mut w, mut top) = (end / WORD_BITS, end % WORD_BITS);
        let mut run = 0;
        loop {
            let word = self.levels[0][w as usize].load(Ordering::Acquire);
            let ones = (word << (WORD_BITS - 1 - top)).leading_ones() as u64;
            run += ones;
            if ones <= top || run >= n || w == 0 {
                return run.min(n);
            }
            (w, top) = (w - 1, WORD_BITS - 1);
        }
    }

    /// Claim every member of `[start, end]`, a word at a time from the
    /// top. If a word no longer holds its part of the run, the words
    /// already claimed go back and the claim fails.
    fn claim_run(&self, start: u64, end: u64) -> bool {
        for w in (start / WORD_BITS..=end / WORD_BITS).rev() {
            let mask = run_mask(w, start, end);
            let claim = |cur: u64| (cur & mask == mask).then_some(cur & !mask);
            let leaf = &self.levels[0][w as usize];
            match leaf.fetch_update(Ordering::AcqRel, Ordering::Acquire, claim) {
                Ok(prev) if prev == mask => self.propagate_clear(w),
                Ok(_) => {}
                Err(_) => {
                    let above = (w + 1) * WORD_BITS;
                    self.insert_range(above, (end + 1).saturating_sub(above));
                    return false;
                }
            }
        }
        true
    }

    /// Insert the `n` contiguous members `[x, x+n)` (returning a
    /// multi-segment allocation to the tree): one `fetch_or` per leaf
    /// word.
    pub fn insert_range(&self, x: u64, n: u64) {
        if n == 0 {
            return;
        }
        let end = x + n - 1;
        self.check_index(end);
        for w in x / WORD_BITS..=end / WORD_BITS {
            self.levels[0][w as usize].fetch_or(run_mask(w, x, end), Ordering::AcqRel);
            self.propagate_set(w);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Exact number of members (linear scan of leaves; test/metric use).
    pub fn count(&self) -> u64 {
        self.levels[0].iter().map(|w| w.load(Ordering::Acquire).count_ones() as u64).sum()
    }

    /// Whether the set is empty (leaf scan; exact).
    pub fn is_empty(&self) -> bool {
        self.levels[0].iter().all(|w| w.load(Ordering::Acquire) == 0)
    }

    /// First member, if any.
    pub fn first(&self) -> Option<u64> {
        self.successor(0)
    }

    /// Last member, if any.
    pub fn last(&self) -> Option<u64> {
        self.predecessor(self.universe - 1)
    }

    /// Iterate the members in ascending order via successor search.
    ///
    /// The iterator is a sequence of `successor` calls, so under
    /// concurrent mutation it sees a *traversal-consistent* view: every
    /// member present for the whole traversal is yielded; members
    /// inserted or removed mid-way may or may not appear.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut next = Some(0u64);
        std::iter::from_fn(move || {
            let start = next?;
            match self.successor(start) {
                Some(v) => {
                    next = (v + 1 < self.universe).then_some(v + 1);
                    Some(v)
                }
                None => {
                    next = None;
                    None
                }
            }
        })
    }

    /// Verify that every summary bit is consistent with the level below.
    /// Quiescent-state check used by tests.
    pub fn check_summaries(&self) -> Result<(), String> {
        for li in 1..self.levels.len() {
            for (wi, word) in self.levels[li].iter().enumerate() {
                let v = word.load(Ordering::Acquire);
                for bit in 0..WORD_BITS as usize {
                    let child = wi * WORD_BITS as usize + bit;
                    if child >= self.levels[li - 1].len() {
                        if v & (1 << bit) != 0 {
                            return Err(format!(
                                "level {li} word {wi} bit {bit}: set beyond child range"
                            ));
                        }
                        continue;
                    }
                    let child_nonempty = self.levels[li - 1][child].load(Ordering::Acquire) != 0;
                    let bit_set = v & (1 << bit) != 0;
                    if child_nonempty != bit_set {
                        return Err(format!(
                            "level {li} word {wi} bit {bit}: summary={bit_set} child_nonempty={child_nonempty}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The bits of leaf word `w` that lie in `[start, end]`.
fn run_mask(w: u64, start: u64, end: u64) -> u64 {
    let base = w * WORD_BITS;
    let lo = start.max(base) - base;
    let hi = end.min(base + WORD_BITS - 1) - base;
    (u64::MAX << lo) & (u64::MAX >> (WORD_BITS - 1 - hi))
}

impl std::fmt::Debug for VebTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VebTree")
            .field("universe", &self.universe)
            .field("height", &self.height())
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heights_match_universe() {
        assert_eq!(VebTree::new(1).height(), 1);
        assert_eq!(VebTree::new(64).height(), 1);
        assert_eq!(VebTree::new(65).height(), 2);
        assert_eq!(VebTree::new(4096).height(), 2);
        assert_eq!(VebTree::new(4097).height(), 3);
        assert_eq!(VebTree::new(262_144).height(), 3);
        assert_eq!(VebTree::new(16_777_216).height(), 4);
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let t = VebTree::new(500);
        assert!(!t.contains(123));
        assert!(t.insert(123));
        assert!(!t.insert(123));
        assert!(t.contains(123));
        assert!(t.remove(123));
        assert!(!t.remove(123));
        assert!(!t.contains(123));
        // A claim is an exclusive remove.
        t.insert(100);
        assert!(t.claim_exact(100));
        assert!(!t.claim_exact(100));
        assert!(!t.contains(100));
        t.check_summaries().unwrap();
    }

    #[test]
    fn successor_walks_members_in_order() {
        let t = VebTree::new(100_000);
        let members = [0u64, 1, 63, 64, 65, 4095, 4096, 4097, 50_000, 99_999];
        for &m in &members {
            t.insert(m);
        }
        let mut found = Vec::new();
        let mut x = 0;
        while let Some(s) = t.successor(x) {
            found.push(s);
            x = s + 1;
        }
        assert_eq!(found, members);
        t.check_summaries().unwrap();
    }

    #[test]
    fn predecessor_walks_members_in_reverse() {
        let t = VebTree::new(100_000);
        let members = [0u64, 63, 64, 4095, 4096, 99_999];
        for &m in &members {
            t.insert(m);
        }
        let mut found = Vec::new();
        let mut x = t.universe() - 1;
        while let Some(p) = t.predecessor(x) {
            found.push(p);
            if p == 0 {
                break;
            }
            x = p - 1;
        }
        let mut expect = members.to_vec();
        expect.reverse();
        assert_eq!(found, expect);
    }

    #[test]
    fn successor_of_member_is_itself() {
        let t = VebTree::new(1000);
        t.insert(500);
        assert_eq!(t.successor(500), Some(500));
        assert_eq!(t.successor(501), None);
        assert_eq!(t.predecessor(500), Some(500));
        assert_eq!(t.predecessor(499), None);
        // The universe may end mid-word, and may itself be queried.
        t.insert(999);
        assert_eq!(t.successor(501), Some(999));
        assert_eq!(t.predecessor(999), Some(999));
        assert_eq!(t.successor(1000), None);
    }

    #[test]
    fn empty_tree_has_no_members() {
        let t = VebTree::new(70_000);
        assert_eq!(t.successor(0), None);
        assert_eq!(t.predecessor(69_999), None);
        assert!(t.is_empty());
        assert_eq!(t.count(), 0);
        assert_eq!(t.first(), None);
        assert_eq!(t.last(), None);
    }

    #[test]
    fn full_tree_finds_everything() {
        let t = VebTree::new_full(10_000);
        assert_eq!(t.count(), 10_000);
        assert_eq!(t.successor(0), Some(0));
        assert_eq!(t.successor(9_999), Some(9_999));
        assert_eq!(t.predecessor(9_999), Some(9_999));
        t.check_summaries().unwrap();
    }

    #[test]
    fn partial_last_word_fill_is_exact() {
        let t = VebTree::new_full(70);
        assert_eq!(t.count(), 70);
        assert_eq!(t.predecessor(69), Some(69));
        assert_eq!(t.successor(69), Some(69));
        assert_eq!(t.successor(70), None);
        assert_eq!(t.last(), Some(69));
    }

    #[test]
    fn find_first_from_wraps_to_front() {
        let t = VebTree::new(1 << 14);
        for m in [10u64, 2000] {
            t.insert(m);
        }
        assert_eq!(t.find_first_from(0), Some(10));
        assert_eq!(t.find_first_from(10), Some(10));
        assert_eq!(t.find_first_from(11), Some(2000));
        // Nothing at or above the hint: wrap to the front.
        assert_eq!(t.find_first_from(2001), Some(10));
        assert_eq!(t.find_first_from(t.universe() - 1), Some(10));
        let t = VebTree::new(64);
        assert_eq!(t.find_first_from(0), None);
        assert_eq!(t.find_first_from(63), None);
    }

    #[test]
    fn claims_take_lowest_and_highest() {
        let t = VebTree::new(1 << 14);
        for m in [10u64, 20, 30, 40, 50, 60] {
            t.insert(m);
        }
        assert_eq!(t.claim_first_ge(0), Some(10));
        assert_eq!(t.claim_first_ge(0), Some(20));
        assert_eq!(t.claim_first_ge(25), Some(30));
        assert_eq!(t.claim_last_le(t.universe() - 1), Some(60));
        assert_eq!(t.claim_last_le(t.universe() - 1), Some(50));
        assert_eq!(t.claim_last_le(45), Some(40));
        assert_eq!(t.claim_first_ge(0), None);
        assert_eq!(t.claim_last_le(t.universe() - 1), None);
    }

    #[test]
    fn contiguous_claim_from_back() {
        let t = VebTree::new_full(256);
        assert_eq!(t.claim_contiguous_from_back(4), Some(252));
        assert_eq!(t.claim_contiguous_from_back(4), Some(248));
        assert_eq!(t.count(), 248);
        // Fragment the back: remove 240, runs must now fit below it.
        t.claim_exact(240);
        assert_eq!(t.claim_contiguous_from_back(8), Some(232));
        t.check_summaries().unwrap();
    }

    #[test]
    fn contiguous_claim_too_large_fails_cleanly() {
        let t = VebTree::new_full(64);
        assert_eq!(t.claim_contiguous_from_back(65), None);
        assert_eq!(t.count(), 64);
        assert_eq!(t.claim_contiguous_from_back(64), Some(0));
        assert_eq!(t.count(), 0);
        assert_eq!(t.claim_contiguous_from_back(1), None);
    }

    #[test]
    fn claims_from_both_ends_and_insert_range_restore_runs() {
        // A universe that ends mid-word, claimed from the back, the
        // front and the top, then handed back as a range.
        let t = VebTree::new_full(130);
        assert_eq!(t.claim_contiguous_from_back(4), Some(126));
        assert_eq!(t.claim_first_ge(0), Some(0));
        assert_eq!(t.claim_last_le(129), Some(125));
        t.insert_range(126, 4);
        assert_eq!(t.count(), 130 - 2);
        t.check_summaries().unwrap();
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_insert_panics() {
        VebTree::new(100).insert(100);
    }

    #[test]
    fn iter_yields_members_in_order() {
        let t = VebTree::new(100_000);
        let members = [3u64, 64, 65, 4096, 99_999];
        for &m in &members {
            t.insert(m);
        }
        let collected: Vec<u64> = t.iter().collect();
        assert_eq!(collected, members);
        assert_eq!(VebTree::new(10).iter().count(), 0);
        let t = VebTree::new_full(130);
        assert_eq!(t.iter().count(), 130);
        assert_eq!(t.iter().last(), Some(129));
    }

    #[test]
    fn clear_and_fill_are_inverses() {
        let t = VebTree::new(5000);
        t.fill();
        assert_eq!(t.count(), 5000);
        t.check_summaries().unwrap();
        t.clear();
        assert!(t.is_empty());
        t.check_summaries().unwrap();
    }
}
