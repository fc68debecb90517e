//! Integration: the dynamic graph workload over the whole allocator
//! roster — the end-to-end pipeline the paper's §6.12 benchmark runs.

use allocators::{all_baselines, CudaHeapSim, Ouroboros, OuroborosKind};
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{launch, DeviceAllocator, DeviceConfig};
use graph::{uniform_edges, zipf_edges, DynamicGraph};
use std::sync::Arc;

const HEAP: u64 = 64 << 20;

fn roster() -> Vec<Arc<dyn DeviceAllocator>> {
    let mut v: Vec<Arc<dyn DeviceAllocator>> =
        vec![Arc::new(Gallatin::new(GallatinConfig::dense(HEAP)))];
    v.extend(all_baselines(HEAP));
    v
}

#[test]
fn graph_builds_identically_on_every_allocator() {
    let edges = uniform_edges(256, 20_000, 99);
    let mut reference: Option<Vec<u64>> = None;
    for a in roster() {
        if !a.is_managing() {
            continue;
        }
        let dyn_a: &dyn DeviceAllocator = a.as_ref();
        let g = DynamicGraph::new(256, dyn_a);
        launch(DeviceConfig::with_sms(8), edges.len() as u64, |l| {
            let (s, d) = edges[l.global_tid() as usize];
            g.insert_edge(l, s, d);
        });
        assert_eq!(g.failed_updates(), 0, "{} failed updates", a.name());
        assert_eq!(g.num_edges(), 20_000, "{}", a.name());
        // Degree sequence must be identical regardless of allocator.
        let degrees: Vec<u64> = (0..256).map(|v| g.degree(v) as u64).collect();
        match &reference {
            None => reference = Some(degrees),
            Some(r) => assert_eq!(&degrees, r, "{} degree sequence differs", a.name()),
        }
        launch(DeviceConfig::with_sms(8), 1, |l| g.destroy(l));
        assert_eq!(a.stats().reserved_bytes, 0, "{} leaked", a.name());
        if let Err(e) = a.check_invariants() {
            panic!("{}: invariant violation after graph build:\n{e}", a.name());
        }
    }
}

#[test]
fn insert_then_delete_restores_empty_graph() {
    for a in roster() {
        if !a.is_managing() {
            continue;
        }
        let dyn_a: &dyn DeviceAllocator = a.as_ref();
        let g = DynamicGraph::new(128, dyn_a);
        let edges = zipf_edges(128, 5_000, 0.8, 3);
        launch(DeviceConfig::with_sms(8), edges.len() as u64, |l| {
            let (s, d) = edges[l.global_tid() as usize];
            g.insert_edge(l, s, d);
        });
        launch(DeviceConfig::with_sms(8), edges.len() as u64, |l| {
            let (s, d) = edges[l.global_tid() as usize];
            assert!(g.delete_edge(l, s, d), "{}: edge missing on delete", a.name());
        });
        assert_eq!(g.num_edges(), 0, "{}", a.name());
        launch(DeviceConfig::with_sms(8), 1, |l| g.destroy(l));
        if let Err(e) = a.check_invariants() {
            panic!("{}: invariant violation after insert/delete cycle:\n{e}", a.name());
        }
    }
}

#[test]
fn skewed_expansion_discriminates_reserve_limited_allocators() {
    // The paper's headline failure mode: Gallatin absorbs hub growth,
    // a small-reserve Ouroboros does not.
    let gallatin = Gallatin::new(GallatinConfig::dense(HEAP));
    let ouroboros = Ouroboros::with_reserve(HEAP, OuroborosKind::Page, 1 << 20);

    let run = |a: &dyn DeviceAllocator| -> u64 {
        let g = DynamicGraph::new(512, a);
        for round in 0..6 {
            let batch = zipf_edges(512, 50_000, 1.0, 17 + round);
            launch(DeviceConfig::with_sms(8), batch.len() as u64, |l| {
                let (s, d) = batch[l.global_tid() as usize];
                g.insert_edge(l, s, d);
            });
        }
        let fails = g.failed_updates();
        launch(DeviceConfig::with_sms(8), 1, |l| g.destroy(l));
        fails
    };

    assert_eq!(run(&gallatin), 0, "Gallatin must absorb hub growth");
    assert!(run(&ouroboros) > 0, "reserve-limited allocator must eventually fail");
}

#[test]
fn graph_survives_concurrent_mixed_insert_delete() {
    let a = Gallatin::new(GallatinConfig::dense(HEAP));
    let dyn_a: &dyn DeviceAllocator = &a;
    let g = DynamicGraph::new(64, dyn_a);
    // Interleave inserts and deletes on the same vertices.
    launch(DeviceConfig::with_sms(8), 10_000, |l| {
        let tid = l.global_tid();
        let v = (tid % 64) as u32;
        g.insert_edge(l, v, tid);
        if tid % 3 == 0 {
            g.delete_edge(l, v, tid);
        }
    });
    let expect: u64 = (0..10_000u64).filter(|t| t % 3 != 0).count() as u64;
    assert_eq!(g.num_edges(), expect);
    launch(DeviceConfig::with_sms(8), 1, |l| g.destroy(l));
    assert_eq!(a.stats().reserved_bytes, 0);
    a.check_invariants().expect("invariants violated after mixed insert/delete");
}

#[test]
fn sliding_window_deletes_find_every_edge() {
    // The benchmark's stream at a test's size: unit `u` inserts batch `u`
    // and deletes batch `u - LAG`, each one concurrent launch, so every
    // delete expires an old copy while hub lists wrap their rings, grow
    // through the warm-up and shrink to nothing in the drain.
    const VERTICES: u32 = 256;
    const BATCH: usize = 1024;
    const LAG: usize = 4;
    const UNITS: usize = 24;
    let batches: Vec<_> = (0..UNITS as u64).map(|u| zipf_edges(VERTICES, BATCH, 0.8, u)).collect();
    let allocators: [Box<dyn DeviceAllocator>; 2] =
        [Box::new(Gallatin::new(GallatinConfig::dense(HEAP))), Box::new(CudaHeapSim::new(HEAP))];
    for a in allocators {
        let g = DynamicGraph::new(VERTICES as usize, a.as_ref());
        let launch_batch = |edges: &[(u32, u64)], insert: bool| {
            launch(DeviceConfig::with_sms(8), edges.len() as u64, |l| {
                let (s, d) = edges[l.global_tid() as usize];
                if insert {
                    assert!(g.insert_edge(l, s, d), "{}: insert refused", a.name());
                } else {
                    assert!(g.delete_edge(l, s, d), "{}: edge ({s}, {d}) missing", a.name());
                }
            });
        };
        let mut peak_bytes = 0;
        for u in 0..UNITS + LAG {
            if let Some(batch) = batches.get(u) {
                launch_batch(batch, true);
            }
            peak_bytes = peak_bytes.max(g.edge_bytes());
            if u >= LAG {
                launch_batch(&batches[u - LAG], false);
            }
            let live = (u + 1).min(LAG).min(UNITS + LAG - 1 - u);
            assert_eq!(g.num_edges(), (live * BATCH) as u64, "{} after unit {u}", a.name());
        }
        assert!(peak_bytes > (LAG * BATCH * 8) as u64, "{}: lists grew", a.name());
        assert_eq!(g.edge_bytes(), 0, "{}: every list shrank to the null list", a.name());
        assert_eq!(a.stats().reserved_bytes, 0, "{} leaked", a.name());
        if let Err(e) = a.check_invariants() {
            panic!("{}: invariant violation after the sliding window:\n{e}", a.name());
        }
    }
}
