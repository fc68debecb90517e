//! Concurrent stress tests for the vEB tree: exclusivity of claims and
//! eventual consistency of summaries under heavy contention.

use std::sync::atomic::{AtomicU64, Ordering};
use veb::VebTree;

/// `f(i)` for every `i < len`, raced by four threads over a shared cursor.
fn par_for_each(len: u64, f: impl Fn(u64) + Sync) {
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                f(i);
            });
        }
    });
}

#[test]
fn concurrent_claims_are_exclusive() {
    // N threads race to claim from a full tree; every item must be won by
    // exactly one claimant.
    let universe = 1u64 << 14;
    let tree = VebTree::new_full(universe);
    let winners: Vec<AtomicU64> = (0..universe).map(|_| AtomicU64::new(0)).collect();

    par_for_each(universe, |_| {
        if let Some(x) = tree.claim_first_ge(0) {
            winners[x as usize].fetch_add(1, Ordering::Relaxed);
        }
    });

    assert!(tree.is_empty());
    for (i, w) in winners.iter().enumerate() {
        assert_eq!(w.load(Ordering::Relaxed), 1, "item {i} claimed wrong number of times");
    }
}

#[test]
fn concurrent_insert_remove_storm_converges() {
    // Threads hammer disjoint-and-overlapping ranges with inserts and
    // removes; afterwards the leaf truth must match a replayed model and
    // summaries must be repaired.
    let universe = 1u64 << 12;
    let tree = VebTree::new(universe);

    // Phase 1: every item inserted and removed many times, ending with
    // inserts of even items only.
    par_for_each(universe, |x| {
        for _ in 0..20 {
            tree.insert(x);
            tree.remove(x);
        }
        if x % 2 == 0 {
            tree.insert(x);
        }
    });

    assert_eq!(tree.count(), universe / 2);
    for x in 0..universe {
        assert_eq!(tree.contains(x), x % 2 == 0, "item {x}");
    }
    // Successor over the quiescent tree must enumerate the evens.
    let mut cur = 0;
    let mut seen = 0;
    while let Some(s) = tree.successor(cur) {
        assert_eq!(s % 2, 0);
        seen += 1;
        cur = s + 1;
    }
    assert_eq!(seen, universe / 2);
}

#[test]
fn claim_and_reinsert_churn_preserves_count() {
    // Segment-tree usage pattern: threads claim an item, "use" it, insert
    // it back. Total membership must be conserved.
    let universe = 4096u64;
    let tree = VebTree::new_full(universe);

    par_for_each(32, |_| {
        for _ in 0..2_000 {
            if let Some(x) = tree.claim_first_ge(0) {
                tree.insert(x);
            }
        }
    });

    assert_eq!(tree.count(), universe);
    for x in 0..universe {
        assert!(tree.contains(x));
    }
}

#[test]
fn contended_claims_front_and_back_partition_universe() {
    // Half the threads claim from the front, half claim contiguous pairs
    // from the back; claims must never overlap.
    let universe = 1u64 << 12;
    let tree = VebTree::new_full(universe);
    let owned: Vec<AtomicU64> = (0..universe).map(|_| AtomicU64::new(0)).collect();

    par_for_each(256, |i| {
        if i % 2 == 0 {
            for _ in 0..4 {
                if let Some(x) = tree.claim_first_ge(0) {
                    owned[x as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            for _ in 0..2 {
                if let Some(s) = tree.claim_contiguous_from_back(2) {
                    owned[s as usize].fetch_add(1, Ordering::Relaxed);
                    owned[s as usize + 1].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });

    for (i, w) in owned.iter().enumerate() {
        assert!(w.load(Ordering::Relaxed) <= 1, "item {i} multiply claimed");
    }
    let claimed: u64 = owned.iter().map(|w| w.load(Ordering::Relaxed)).sum();
    assert_eq!(tree.count(), universe - claimed);
}

#[test]
fn successor_under_concurrent_mutation_stays_in_bounds() {
    // Searches racing with mutations must never return out-of-universe or
    // crash; values returned must have been members at some point.
    let universe = 1u64 << 10;
    let tree = VebTree::new(universe);
    for x in (0..universe).step_by(3) {
        tree.insert(x);
    }

    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..50 {
                for x in 0..universe {
                    if (x + round) % 2 == 0 {
                        tree.insert(x);
                    } else {
                        tree.remove(x);
                    }
                }
            }
        });
        s.spawn(|| {
            for _ in 0..20_000 {
                if let Some(v) = tree.successor(17) {
                    assert!(v < universe && v >= 17);
                }
                if let Some(v) = tree.predecessor(universe - 17) {
                    assert!(v <= universe - 17);
                }
            }
        });
    });
}

#[test]
fn word_runs_claimed_and_returned_concurrently_never_overlap() {
    // Four threads claim runs of 1..=70 from the back — every run over
    // 64 spans a word boundary, and the claims race on the same top
    // words — hold up to three, and hand each back with `insert_range`.
    // An item held twice, a count that is not restored or a stale
    // summary fails.
    let universe = 65 * 64 + 17; // three levels; the last word partial
    let tree = VebTree::new_full(universe);
    let held: Vec<AtomicU64> = (0..universe).map(|_| AtomicU64::new(0)).collect();
    let claims = AtomicU64::new(0);
    par_for_each(4, |t| {
        let mut mine: Vec<(u64, u64)> = Vec::new();
        for i in 0..3_000u64 {
            let n = 1 + (t * 31 + i * 17) % 70;
            if let Some(s) = tree.claim_contiguous_from_back(n) {
                for x in s..s + n {
                    assert_eq!(
                        held[x as usize].swap(1, Ordering::Relaxed),
                        0,
                        "item {x} held twice"
                    );
                }
                claims.fetch_add(1, Ordering::Relaxed);
                mine.push((s, n));
            }
            if mine.len() == 3 || i == 2_999 {
                for (s, n) in mine.drain(..) {
                    for x in s..s + n {
                        held[x as usize].store(0, Ordering::Relaxed);
                    }
                    tree.insert_range(s, n);
                }
            }
        }
    });
    assert!(claims.load(Ordering::Relaxed) > 6_000, "claims mostly failed");
    assert_eq!(tree.count(), universe);
    tree.check_summaries().unwrap();
}
