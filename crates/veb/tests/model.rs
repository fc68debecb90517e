//! Model-based property tests: the concurrent vEB tree must agree with a
//! `BTreeSet` under any single-threaded operation sequence.

use gpu_sim::{cases, SplitMix64};
use std::collections::BTreeSet;
use veb::VebTree;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Successor(u64),
    Predecessor(u64),
    ClaimFirstGe(u64),
    ClaimLastLe(u64),
}

impl Op {
    fn arg(&mut self) -> &mut u64 {
        match self {
            Op::Insert(x)
            | Op::Remove(x)
            | Op::Contains(x)
            | Op::Successor(x)
            | Op::Predecessor(x)
            | Op::ClaimFirstGe(x)
            | Op::ClaimLastLe(x) => x,
        }
    }
}

/// `1..max_len` ops, each a uniform kind on a uniform key in `0..universe`.
fn ops(rng: &mut SplitMix64, universe: u64, max_len: u64) -> Vec<Op> {
    let kinds: [fn(u64) -> Op; 7] = [
        Op::Insert,
        Op::Remove,
        Op::Contains,
        Op::Successor,
        Op::Predecessor,
        Op::ClaimFirstGe,
        Op::ClaimLastLe,
    ];
    let len = 1 + rng.below(max_len - 1);
    (0..len).map(|_| kinds[rng.below(7) as usize](rng.below(universe))).collect()
}

/// `min_len..max_len` draws from `lo..hi`.
fn draws(rng: &mut SplitMix64, min_len: u64, max_len: u64, lo: u64, hi: u64) -> Vec<u64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| lo + rng.below(hi - lo)).collect()
}

fn model_successor(model: &BTreeSet<u64>, x: u64) -> Option<u64> {
    model.range(x..).next().copied()
}

fn model_predecessor(model: &BTreeSet<u64>, x: u64) -> Option<u64> {
    model.range(..=x).next_back().copied()
}

/// First index of the highest run of `n` consecutive members.
fn model_back_run(model: &BTreeSet<u64>, n: u64) -> Option<u64> {
    let mut run = 0;
    let mut above = None;
    for &v in model.iter().rev() {
        run = if above == Some(v + 1) { run + 1 } else { 1 };
        above = Some(v);
        if run == n {
            return Some(v);
        }
    }
    None
}

fn run_model(tree: VebTree, ops: Vec<Op>) {
    let mut model = BTreeSet::new();
    for op in ops {
        match op {
            Op::Insert(x) => {
                assert_eq!(tree.insert(x), model.insert(x), "insert({x})");
            }
            Op::Remove(x) => {
                assert_eq!(tree.remove(x), model.remove(&x), "remove({x})");
            }
            Op::Contains(x) => {
                assert_eq!(tree.contains(x), model.contains(&x), "contains({x})");
            }
            Op::Successor(x) => {
                assert_eq!(tree.successor(x), model_successor(&model, x), "successor({x})");
            }
            Op::Predecessor(x) => {
                assert_eq!(tree.predecessor(x), model_predecessor(&model, x), "predecessor({x})");
            }
            Op::ClaimFirstGe(x) => {
                let expect = model_successor(&model, x);
                assert_eq!(tree.claim_first_ge(x), expect, "claim_first_ge({x})");
                if let Some(v) = expect {
                    model.remove(&v);
                }
            }
            Op::ClaimLastLe(x) => {
                let expect = model_predecessor(&model, x);
                assert_eq!(tree.claim_last_le(x), expect, "claim_last_le({x})");
                if let Some(v) = expect {
                    model.remove(&v);
                }
            }
        }
    }
    assert_eq!(tree.count(), model.len() as u64);
    tree.check_summaries().unwrap();
}

#[test]
fn small_universe_matches_model() {
    cases("small_universe_matches_model", 64, |rng| {
        run_model(VebTree::new(200), ops(rng, 200, 400))
    });
}

#[test]
fn height_one_universes_match_model() {
    cases("height_one_universes_match_model", 64, |rng| {
        let ops = ops(rng, 3000, 300);
        // 1, 63 and 64 are one leaf word with no summary to climb; 3000
        // is the universe the deleted flat tree was checked at.
        for universe in [1u64, 63, 64, 3000] {
            let mut ops = ops.clone();
            for op in &mut ops {
                *op.arg() %= universe;
            }
            run_model(VebTree::new(universe), ops);
        }
    });
}

#[test]
fn two_level_universe_matches_model() {
    cases("two_level_universe_matches_model", 64, |rng| {
        run_model(VebTree::new(4096), ops(rng, 4096, 300))
    });
}

#[test]
fn three_level_universe_matches_model() {
    cases("three_level_universe_matches_model", 64, |rng| {
        run_model(VebTree::new(300_000), ops(rng, 300_000, 200))
    });
}

#[test]
fn contiguous_claims_are_disjoint_runs() {
    cases("contiguous_claims_are_disjoint_runs", 64, |rng| {
        let holes = draws(rng, 0, 600, 0, 8192);
        let sizes = draws(rng, 1, 60, 1, 70);
        // A full three-level universe with holes punched across word
        // boundaries: every run claimed from the back must be the highest
        // run wholly present, and handing the runs back restores the count.
        let universe = 8192u64;
        let tree = VebTree::new_full(universe);
        let mut model: BTreeSet<u64> = (0..universe).collect();
        for h in holes {
            assert_eq!(tree.claim_exact(h), model.remove(&h), "claim_exact({h})");
        }
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        for n in sizes {
            let start = tree.claim_contiguous_from_back(n);
            assert_eq!(start, model_back_run(&model, n), "claim_contiguous_from_back({n})");
            if let Some(start) = start {
                for i in start..start + n {
                    assert!(model.remove(&i), "run [{start},{}) took absent {i}", start + n);
                }
                claimed.push((start, n));
            }
        }
        assert_eq!(tree.count(), model.len() as u64);
        let before = tree.count();
        let total: u64 = claimed.iter().map(|&(_, n)| n).sum();
        for (start, n) in claimed {
            tree.insert_range(start, n);
        }
        assert_eq!(tree.count(), before + total);
        tree.check_summaries().unwrap();
    });
}
