//! Dynamic graph: the workload the paper's introduction motivates.
//!
//! A streaming, heavily skewed ("Twitter-like") graph is built edge by
//! edge on two allocators: Gallatin and Ouroboros-P (the strongest
//! chunk-limited competitor). Hub vertices keep doubling their edge
//! lists; once a list outgrows 8192 bytes, Ouroboros must serve it from
//! its capped CUDA-heap reserve — and fails when the hubs' total exceeds
//! the reserve, while Gallatin keeps going until actual heap exhaustion.
//!
//! Run with: `cargo run --release --example dynamic_graph`

use allocators::{Ouroboros, OuroborosKind};
use gallatin_repro::prelude::*;
use gpu_sim::launch;
use graph::{zipf_edges, DynamicGraph};

fn stream_graph(name: &str, alloc: &dyn DeviceAllocator) {
    let num_vertices = 4_096u32;
    let rounds = 6;
    let edges_per_round = 100_000;
    let device = DeviceConfig::default();
    let g = DynamicGraph::new(num_vertices as usize, alloc);

    println!("\n--- {name} ({} MiB heap) ---", alloc.heap_bytes() >> 20);
    for round in 0..rounds {
        let batch = zipf_edges(num_vertices, edges_per_round, 1.0, 42 + round as u64);
        let before_failures = g.failed_updates();
        let t0 = std::time::Instant::now();
        launch(device, batch.len() as u64, |l| {
            let (src, dst) = batch[l.global_tid() as usize];
            g.insert_edge(l, src, dst);
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let new_failures = g.failed_updates() - before_failures;
        let max_deg = (0..num_vertices).map(|v| g.degree(v)).max().unwrap();
        println!(
            "round {round}: {:>6.1} ms, edges={:>8}, max degree={:>7} ({} KiB list){}",
            ms,
            g.num_edges(),
            max_deg,
            (max_deg as u64 * 8) >> 10,
            if new_failures > 0 {
                format!("  <-- {new_failures} FAILED updates")
            } else {
                String::new()
            }
        );
    }
    launch(device, 1, |l| g.destroy(l));
}

fn main() {
    let heap = 256u64 << 20;
    let gallatin = Gallatin::new(GallatinConfig { heap_bytes: heap, ..Default::default() });
    stream_graph("Gallatin", &gallatin);

    // Ouroboros with the (scaled) CUDA-heap reserve the paper describes:
    // hub edge lists above 8192 B land in the reserve and exhaust it.
    let ouroboros = Ouroboros::with_reserve(heap, OuroborosKind::Page, 2 << 20);
    stream_graph("Ouroboros-P (2 MiB CUDA reserve)", &ouroboros);

    println!(
        "\nGallatin keeps hub lists in ordinary segments; the chunk-limited \
         allocator strands them on its fixed reserve — the paper's §1 motivation."
    );
}
