//! Black-box parity between the three leaf-scan budgets of the one
//! tree: narrow (hierarchical climb), wide (bounded word-parallel scan,
//! then climb) and flat (unbounded scan, no summary levels).
//!
//! The budget is a pure load-pattern change: on identical sets, every
//! search and claim must return exactly what the hierarchical path
//! returns, because the leaf level is the source of truth either way.
//! These tests drive all three through the public API with one op stream
//! and demand bit-identical answers.

use veb::VebTree;

fn trio(universe: u64) -> [VebTree; 3] {
    [VebTree::new(universe), VebTree::new_wide(universe), VebTree::new_flat(universe)]
}

/// Apply `op` to the narrow tree and demand the same answer of the
/// other two.
fn agree<T: PartialEq + std::fmt::Debug>(
    trees: &[VebTree; 3],
    what: &str,
    op: impl Fn(&VebTree) -> T,
) {
    let expect = op(&trees[0]);
    assert_eq!(op(&trees[1]), expect, "wide {what}");
    assert_eq!(op(&trees[2]), expect, "flat {what}");
}

#[test]
fn narrow_wide_and_flat_agree_on_one_op_stream() {
    // Two universes: 2^16 (3 levels, 1024 leaf words: the wide path
    // exercises Hit, Exhausted and Bounded) and 300_000 (4688 leaf words,
    // more than one root-child's span of 4096, so a sparse stretch makes
    // the wide scan return Bounded while the flat scan runs on past it).
    for (universe, ops) in [(1u64 << 16, 6000), (300_000, 3000)] {
        let trees = trio(universe);
        let mut x = 99u64;
        for _ in 0..ops {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (x >> 16) % universe;
            match x % 9 {
                0 | 1 => agree(&trees, "insert", |t| t.insert(v)),
                2 => agree(&trees, "remove", |t| t.remove(v)),
                3 => agree(&trees, &format!("succ({v})"), |t| t.successor(v)),
                4 => agree(&trees, &format!("from({v})"), |t| t.find_first_from(v)),
                5 => agree(&trees, &format!("claim_ge({v})"), |t| t.claim_first_ge(v)),
                6 => agree(&trees, &format!("pred({v})"), |t| t.predecessor(v)),
                7 => agree(&trees, &format!("claim_le({v})"), |t| t.claim_last_le(v)),
                _ => agree(&trees, &format!("contains({v})"), |t| t.contains(v)),
            }
        }
        agree(&trees, "count", |t| t.count());
        agree(&trees, "members", |t| t.iter().collect::<Vec<_>>());
        for t in &trees {
            t.check_summaries().unwrap();
        }
    }
}

#[test]
fn sparse_universe_wide_hands_off_to_the_climb_and_flat_scans_past_it() {
    // One member far past the wide budget (64 words = 4096 items) in a
    // 4096-word leaf level: wide must hand off to the climb, flat must
    // keep scanning, and both must find what narrow finds.
    let last = (1u64 << 18) - 1;
    let trees = trio(1 << 18);
    agree(&trees, "insert", |t| t.insert(last));
    agree(&trees, "succ(0)", |t| t.successor(0));
    assert_eq!(trees[0].successor(0), Some(last));
    agree(&trees, "succ(last)", |t| t.successor(last));
    agree(&trees, "pred(last)", |t| t.predecessor(last));
    agree(&trees, "insert", |t| t.insert(3));
    agree(&trees, "pred(last - 1)", |t| t.predecessor(last - 1));
    assert_eq!(trees[2].predecessor(last - 1), Some(3));
    agree(&trees, "remove", |t| t.remove(last));
    agree(&trees, "succ(4)", |t| t.successor(4));
    assert_eq!(trees[1].successor(4), None);
}

#[test]
fn backward_claims_agree_on_a_fragmented_full_universe() {
    // predecessor / claim_last_le / claim_contiguous_from_back are the
    // backward leg — the flat tree's own arm. Fill, punch holes so runs
    // must be found across word boundaries, then claim runs of mixed
    // sizes until none fits.
    let universe = 1u64 << 13;
    let trees = trio(universe);
    for t in &trees {
        t.fill();
    }
    agree(&trees, "count", |t| t.count());
    agree(&trees, "succ(4097)", |t| t.successor(4097));
    let mut x = 7u64;
    for _ in 0..600 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let v = (x >> 16) % universe;
        agree(&trees, &format!("claim_exact({v})"), |t| t.claim_exact(v));
    }
    for round in 0..400u64 {
        let n = 1 + round % 70;
        agree(&trees, &format!("contig({n})"), |t| t.claim_contiguous_from_back(n));
        if round % 5 == 0 {
            agree(&trees, "claim_le", |t| t.claim_last_le(universe - 1 - round));
        }
    }
    agree(&trees, "members", |t| t.iter().collect::<Vec<_>>());
    let start = trees[0].predecessor(universe - 1).map_or(0, |p| p + 1);
    if start < universe {
        for t in &trees {
            t.insert_range(start, universe - start);
        }
    }
    agree(&trees, "count after insert_range", |t| t.count());
    for t in &trees {
        t.check_summaries().unwrap();
    }
}
