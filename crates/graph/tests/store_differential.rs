//! Differential test of the edge-list store against a host oracle.
//!
//! The oracle is a `Vec<Vec<u64>>` in arrival order doing what the store
//! documents: push on insert; on delete, find the **first** match, drop
//! the oldest edge and write it into the match's slot; capacities at the
//! next power of two (at least 4) that grow when full and shrink at
//! quarter occupancy. The moved oldest edge makes list order observable,
//! so the comparison is element for element after every single op: a
//! search that returned the last match, or any match, or a resize that
//! lost the ring's order, would pass every sorted or degree-only check in
//! the workspace and fail here.

use allocators::CudaHeapSim;
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{cases, DeviceAllocator, SplitMix64, WarpCtx};
use graph::DynamicGraph;

/// Vertices in the graph; ops only ever name the first `TOUCHED`, so the
/// rest keep the null list they were born with.
const VERTICES: u32 = 8;
const TOUCHED: u32 = 6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32, u64),
    Delete(u32, u64),
}

/// The capacity (entries) the store keeps for a list it resized to hold
/// `len` edges.
fn fit(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4)
    }
}

#[derive(Default, Clone)]
struct OracleList {
    edges: Vec<u64>,
    cap: usize,
}

impl OracleList {
    fn insert(&mut self, dst: u64) {
        if self.edges.len() == self.cap {
            self.cap = fit(self.edges.len() + 1);
        }
        self.edges.push(dst);
    }

    fn delete(&mut self, dst: u64) -> bool {
        let Some(i) = self.edges.iter().position(|&e| e == dst) else { return false };
        let oldest = self.edges.remove(0);
        if i > 0 {
            self.edges[i - 1] = oldest;
        }
        if self.edges.len() <= self.cap / 4 {
            self.cap = fit(self.edges.len());
        }
        true
    }
}

/// Apply `ops` to a graph over `alloc` and to the oracle, comparing after
/// every op; then destroy the graph and check the allocator came back
/// whole. Returns the largest capacity any list reached.
fn run_against_oracle(alloc: impl DeviceAllocator, ops: &[Op]) -> usize {
    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = warp.lane(0);
    let g = DynamicGraph::new(VERTICES as usize, alloc);
    let mut oracle = vec![OracleList::default(); VERTICES as usize];
    let mut peak_cap = 0;
    for (n, &op) in ops.iter().enumerate() {
        let v = match op {
            Op::Insert(v, dst) => {
                assert!(g.insert_edge(&lane, v, dst), "op {n} {op:?}: the heap is ample");
                oracle[v as usize].insert(dst);
                v
            }
            Op::Delete(v, dst) => {
                let found = g.delete_edge(&lane, v, dst);
                assert_eq!(found, oracle[v as usize].delete(dst), "op {n} {op:?}: return value");
                v
            }
        };
        assert_eq!(g.edges(v), oracle[v as usize].edges, "op {n} {op:?}: list order");
        assert_eq!(g.degree(v) as usize, oracle[v as usize].edges.len(), "op {n} {op:?}");
        let caps: usize = oracle.iter().map(|l| l.cap).sum();
        assert_eq!(g.edge_bytes(), caps as u64 * 8, "op {n} {op:?}: capacities");
        peak_cap = peak_cap.max(oracle[v as usize].cap);
    }
    for v in 0..VERTICES {
        assert_eq!(g.edges(v), oracle[v as usize].edges, "vertex {v} at the end");
    }
    assert_eq!(g.failed_updates(), 0);
    g.destroy(&lane);
    assert_eq!(g.allocator().stats().reserved_bytes, 0, "destroy returns every list");
    if let Err(e) = g.allocator().check_invariants() {
        panic!("invariant violation after destroy:\n{e}");
    }
    peak_cap
}

fn over_both_allocators(ops: &[Op]) -> usize {
    let a = run_against_oracle(Gallatin::new(GallatinConfig::small_test(4 << 20)), ops);
    let b = run_against_oracle(CudaHeapSim::new(1 << 20), ops);
    assert_eq!(a, b);
    a
}

/// A run of ops on one vertex with destinations from a domain of `span`
/// values: narrow spans make duplicates (and deletes that hit), wide ones
/// make absent edges.
fn run(rng: &mut SplitMix64) -> Vec<Op> {
    let (v, insert, span) =
        (rng.below(TOUCHED.into()) as u32, rng.next_u64() & 1 == 1, 1 + rng.below(23));
    let op = |d: u64| if insert { Op::Insert(v, d % span) } else { Op::Delete(v, d % span) };
    (0..1 + rng.below(159)).map(|_| op(rng.below(1 << 20))).collect()
}

#[test]
fn random_runs_match_the_oracle() {
    cases("random_runs_match_the_oracle", 48, |rng| {
        let runs: Vec<Vec<Op>> = (0..1 + rng.below(23)).map(|_| run(rng)).collect();
        over_both_allocators(&runs.concat());
    });
}

/// One list up through every grow (4 → 8 → … → 256) and back down through
/// every shrink to the null list, with duplicates throughout and a miss
/// after each delete.
#[test]
fn ramp_crosses_every_grow_and_shrink_boundary() {
    let up = (0..200u64).map(|i| Op::Insert(2, i % 13));
    // Deleting value by value takes each duplicate's first occurrence in
    // turn, so the oldest edge moves into most emptied slots and the
    // survivors reorder as they go.
    let down = (0..200u64).flat_map(|i| [Op::Delete(2, i / 16), Op::Delete(2, 99)]);
    let sweep = (0..13u64).flat_map(|d| std::iter::repeat_n(Op::Delete(2, d), 17));
    let ops: Vec<Op> = up.chain(down).chain(sweep).collect();
    assert_eq!(over_both_allocators(&ops), 256);
}
