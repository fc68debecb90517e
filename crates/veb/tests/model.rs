//! Model-based property tests: the concurrent vEB tree must agree with a
//! `BTreeSet` under any single-threaded operation sequence.

use proptest::prelude::*;
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

fn op_strategy(universe: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Remove),
        (0..universe).prop_map(Op::Contains),
        (0..universe).prop_map(Op::Successor),
        (0..universe).prop_map(Op::Predecessor),
        (0..universe).prop_map(Op::ClaimFirstGe),
        (0..universe).prop_map(Op::ClaimLastLe),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn small_universe_matches_model(ops in prop::collection::vec(op_strategy(200), 1..400)) {
        run_model(VebTree::new(200), ops);
    }

    #[test]
    fn height_one_universes_match_model(ops in prop::collection::vec(op_strategy(3000), 1..300)) {
        // 1, 63 and 64 are one leaf word with no summary to climb; 3000
        // is the universe the deleted flat tree was checked at.
        for universe in [1u64, 63, 64, 3000] {
            let mut ops = ops.clone();
            for op in &mut ops {
                *op.arg() %= universe;
            }
            run_model(VebTree::new(universe), ops);
        }
    }

    #[test]
    fn two_level_universe_matches_model(ops in prop::collection::vec(op_strategy(4096), 1..300)) {
        run_model(VebTree::new(4096), ops);
    }

    #[test]
    fn three_level_universe_matches_model(ops in prop::collection::vec(op_strategy(300_000), 1..200)) {
        run_model(VebTree::new(300_000), ops);
    }

    #[test]
    fn contiguous_claims_are_disjoint_runs(
        holes in prop::collection::vec(0u64..8192, 0..600),
        sizes in prop::collection::vec(1u64..70, 1..60),
    ) {
        // A full three-level universe with holes punched across word
        // boundaries: every run claimed from the back must be the highest
        // run wholly present, and handing the runs back restores the count.
        let universe = 8192u64;
        let tree = VebTree::new_full(universe);
        let mut model: BTreeSet<u64> = (0..universe).collect();
        for h in holes {
            prop_assert_eq!(tree.claim_exact(h), model.remove(&h), "claim_exact({})", h);
        }
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        for n in sizes {
            let start = tree.claim_contiguous_from_back(n);
            prop_assert_eq!(start, model_back_run(&model, n), "claim_contiguous_from_back({})", n);
            if let Some(start) = start {
                for i in start..start + n {
                    prop_assert!(model.remove(&i), "run [{start},{}) took absent {i}", start + n);
                }
                claimed.push((start, n));
            }
        }
        prop_assert_eq!(tree.count(), model.len() as u64);
        let before = tree.count();
        let total: u64 = claimed.iter().map(|&(_, n)| n).sum();
        for (start, n) in claimed {
            tree.insert_range(start, n);
        }
        prop_assert_eq!(tree.count(), before + total);
        tree.check_summaries().unwrap();
    }
}
