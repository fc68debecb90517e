//! E12/E13 — §6.12: dynamic graph tests and expansion tests.
//!
//! The graph workload exercises each allocator through five phases —
//! initialization, single edge updates, bulk edge updates, edge deletes,
//! bulk edge deletes — plus the expansion schedule where Zipf-skewed hub
//! vertices keep doubling their edge lists until they outgrow
//! chunk-limited allocators' native size (the workload that motivates a
//! general-purpose allocator in §1).

use crate::report::{fmt_ms, Table};
use crate::HarnessConfig;
use gpu_sim::{launch, DeviceAllocator};
use graph::{expansion_rounds, uniform_edges, zipf_edges, DynamicGraph, EdgeBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Graph<'a> = DynamicGraph<&'a dyn DeviceAllocator>;

/// Apply a batch of edge insertions, one logical thread per edge.
fn apply_inserts(g: &Graph, cfg: &HarnessConfig, batch: &EdgeBatch) {
    launch(cfg.device(), batch.len() as u64, |l| {
        let (src, dst) = batch[l.global_tid() as usize];
        g.insert_edge(l, src, dst);
    });
}

/// Apply a batch of edge deletions, counting those that find no edge.
fn apply_deletes(g: &Graph, cfg: &HarnessConfig, batch: &EdgeBatch, misses: &AtomicU64) {
    launch(cfg.device(), batch.len() as u64, |l| {
        let (src, dst) = batch[l.global_tid() as usize];
        if !g.delete_edge(l, src, dst) {
            misses.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// A phase's time in ms, or `fail` (an insert was refused), or `miss` (a
/// delete missed an edge its batch's successful insert phase stored).
pub type Phase = Result<f64, &'static str>;

/// Run the five-phase graph benchmark on one allocator: init, insert, bulk
/// insert, delete and bulk delete, in table order.
pub fn graph_phases(
    alloc: &Arc<dyn DeviceAllocator>,
    cfg: &HarnessConfig,
    num_vertices: u32,
    base_edges: usize,
) -> [Phase; 5] {
    alloc.reset();
    let a: &dyn DeviceAllocator = alloc.as_ref();
    let g = DynamicGraph::new(num_vertices as usize, a);

    let phase = |body: &dyn Fn(&Graph)| -> Phase {
        let before = g.failed_updates();
        let t0 = Instant::now();
        body(&g);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (g.failed_updates() == before).then_some(ms).ok_or("fail")
    };
    let deletes = |batch: &EdgeBatch, stored: &Phase| {
        let misses = AtomicU64::new(0);
        let t = phase(&|g| apply_deletes(g, cfg, batch, &misses));
        if misses.into_inner() > 0 && stored.is_ok() {
            Err("miss")
        } else {
            t
        }
    };

    // Initialization: build the base graph from a uniform batch.
    let init_batch = uniform_edges(num_vertices, base_edges, 0xC0FFEE);
    let init = phase(&|g| apply_inserts(g, cfg, &init_batch));

    // Edge updates: skewed single-edge stream (one thread per edge).
    let upd = zipf_edges(num_vertices, base_edges / 2, 0.8, 0xBEEF);
    let insert = phase(&|g| apply_inserts(g, cfg, &upd));

    // Bulk updates: one large batch.
    let bulk = zipf_edges(num_vertices, base_edges, 0.8, 0xF00D);
    let bulk_insert = phase(&|g| apply_inserts(g, cfg, &bulk));

    // Deletes: remove the update stream, then the bulk batch.
    let delete = deletes(&upd, &insert);
    let bulk_delete = deletes(&bulk, &bulk_insert);

    // Teardown (untimed).
    launch(cfg.device(), 1, |l| g.destroy(l));
    [init, insert, bulk_insert, delete, bulk_delete]
}

/// E12: the five-phase table across the roster.
pub fn run_graph(cfg: &HarnessConfig) {
    let num_vertices = if cfg.full { 1 << 17 } else { 1 << 13 };
    let base_edges = (cfg.threads as usize).max(1 << 14);
    let mut tab = Table::new(
        format!(
            "§6.12 — dynamic graph, {num_vertices} vertices, {base_edges} base edges (ms; fail = allocation failures, miss = a delete found no edge)"
        ),
        &["allocator", "init", "insert", "bulk insert", "delete", "bulk delete"],
    );
    for name in crate::roster::roster_names() {
        let a = crate::roster::build_by_name(name, cfg.heap_bytes, cfg.num_sms)
            .expect("known roster name");
        if !a.is_managing() {
            continue; // RegEff-AW cannot run a real data structure
        }
        let phases = graph_phases(&a, cfg, num_vertices, base_edges);
        let cells = phases.map(|t| t.map_or_else(String::from, fmt_ms));
        tab.row([a.name().to_string()].into_iter().chain(cells).collect());
    }
    tab.emit(&cfg.out_dir, "graph_phases");
}

/// E13: the expansion test — repeated skewed growth rounds. Reports time
/// per round and whether the allocator survived all rounds (hub edge
/// lists exceed 8192 B quickly, stranding chunk-limited designs on their
/// capped fallback).
pub fn run_graph_expansion(cfg: &HarnessConfig) {
    let num_vertices = 1 << 10;
    let rounds = 8;
    let edges_per_round = if cfg.full { 1 << 18 } else { 1 << 16 };
    let batches = expansion_rounds(num_vertices, rounds, edges_per_round, 1.0, 0xE1);
    let roster = crate::roster::expansion_roster(cfg.heap_bytes, cfg.num_sms);

    let mut headers = vec!["allocator".to_string()];
    headers.extend((0..rounds).map(|r| format!("round {r} ms")));
    headers.push("survived".to_string());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut tab = Table::new(
        format!(
            "§6.12 — graph expansion, {num_vertices} vertices × {rounds} rounds × {edges_per_round} edges (Zipf α=1.0)"
        ),
        &hdr_refs,
    );

    for a in roster {
        if !a.is_managing() {
            continue;
        }
        a.reset();
        let dyn_a: &dyn DeviceAllocator = a.as_ref();
        let g = DynamicGraph::new(num_vertices as usize, dyn_a);
        let mut row = vec![a.name().to_string()];
        let mut survived = true;
        for batch in &batches {
            let before = g.failed_updates();
            let t0 = Instant::now();
            apply_inserts(&g, cfg, batch);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if g.failed_updates() > before {
                row.push(format!("{}*", fmt_ms(ms)));
                survived = false;
            } else {
                row.push(fmt_ms(ms));
            }
        }
        row.push(if survived { "yes".into() } else { "no".into() });
        tab.row(row);
        launch(cfg.device(), 1, |l| g.destroy(l));
    }
    tab.emit(&cfg.out_dir, "graph_expansion");
    println!("(* = round had allocation failures: hub lists outgrew the allocator)");
}
