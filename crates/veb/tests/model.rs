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
    fn flat_tree_matches_model(ops in prop::collection::vec(op_strategy(3000), 1..300)) {
        run_model(VebTree::new_flat(3000), ops);
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
        sizes in prop::collection::vec(1u64..12, 1..30),
    ) {
        let universe = 2048u64;
        let tree = VebTree::new_full(universe);
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        for n in sizes {
            if let Some(start) = tree.claim_contiguous_from_back(n) {
                // Run must be in-range and previously unclaimed.
                prop_assert!(start + n <= universe);
                for &(s, m) in &claimed {
                    prop_assert!(start + n <= s || s + m <= start,
                        "runs overlap: [{start},{}) vs [{s},{})", start + n, s + m);
                }
                claimed.push((start, n));
            }
        }
        let total: u64 = claimed.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(tree.count(), universe - total);
    }
}
