//! E11 — Fig 6c: memory utilization ("out of memory" test).
//!
//! Allocators get a fixed heap (2 GB in the paper) and allocate in
//! batches of 100 K **until failure or time-out** (the paper's wording —
//! some designs degrade quadratically as the heap fills); the metric is
//! the number of successful allocations as a fraction of the theoretical
//! maximum (`heap / size`). The paper's accounting footnote is
//! reproduced: the Ouroboros variants carry a CUDA-heap reserve on top
//! of the heap they report, so a second column charges that reserve
//! against them.

use super::figure::{Sweep, TIMED_OUT};
use crate::report::fmt_pct;
use crate::HarnessConfig;
use gpu_sim::{launch_warps, DevicePtr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sizes from Figure 6c (4 B to 8192 B).
pub const UTIL_SIZES: [u64; 6] = [4, 64, 256, 1024, 4096, 8192];

/// Batch size: allocations per round (paper: 100 K).
const BATCH: u64 = 100_000;

/// Per-(allocator, size) wall-clock budget before declaring a time-out.
const TIME_BUDGET: Duration = Duration::from_secs(15);

/// Allocate batches of `size` until failure or time-out; returns the
/// success count and whether the budget expired first.
fn fill_until_oom(a: &dyn gpu_sim::DeviceAllocator, cfg: &HarnessConfig, size: u64) -> (u64, bool) {
    a.reset();
    let succeeded = AtomicU64::new(0);
    let cap = a.heap_bytes() / size + BATCH; // safety stop
    let (mut total, t0) = (0, Instant::now());
    loop {
        let before = succeeded.load(Ordering::Relaxed);
        launch_warps(cfg.device(), BATCH, |warp| {
            let sizes = vec![Some(size); warp.active as usize];
            let mut out = vec![DevicePtr::NULL; warp.active as usize];
            a.warp_malloc(warp, &sizes, &mut out);
            let got = out.iter().filter(|p| !p.is_null()).count();
            succeeded.fetch_add(got as u64, Ordering::Relaxed);
        });
        total += BATCH;
        let got = succeeded.load(Ordering::Relaxed);
        // A failed request or the safety stop ends the fill; the budget
        // ends it as a time-out.
        let full = got - before < BATCH || total > cap;
        if full || t0.elapsed() > TIME_BUDGET {
            return (got, !full);
        }
    }
}

/// Run the utilization experiment.
///
/// This one touches nearly every page of each allocator's arena; the
/// sweep keeps one allocator resident at a time, which bounds resident
/// memory to a single heap.
pub fn run_utilization(cfg: &HarnessConfig) {
    // A fill needs room for one allocation: `demand` is one thread.
    let sweep = Sweep::run(
        cfg,
        &UTIL_SIZES,
        |size| (size, 1),
        |a, size| {
            let (got, timed_out) = fill_until_oom(a, cfg, size);
            a.reset();
            let util = got as f64 / (a.heap_bytes() / size) as f64;
            let cell =
                if timed_out { format!("{} {TIMED_OUT}", fmt_pct(util)) } else { fmt_pct(util) };
            // The reserve-adjusted figure: Ouroboros keeps a quarter of its
            // arena (cap 500 MB) as CUDA fallback; for others the two figures
            // coincide because the whole arena is the allocator.
            let extra = if a.name().starts_with("Ouroboros") {
                (a.heap_bytes() / 4).min(500 << 20)
            } else {
                0
            };
            (cell, fmt_pct(got as f64 / ((a.heap_bytes() + extra) / size) as f64))
        },
    );
    let heap_mib = cfg.heap_bytes >> 20;
    let title = format!("Fig 6c — utilization: allocations until OOM or time-out / theoretical max ({heap_mib} MiB heap)");
    sweep.emit(cfg, "size B", title, "fig6c_utilization", &UTIL_SIZES, |_, c| c.0.clone());
    // Utilization charged with any CUDA-heap reserve the allocator keeps
    // besides its main pool (the paper's §6.11 footnote: counting the
    // 500 MB reserve puts Ouroboros below Gallatin).
    let title = "Fig 6c (adjusted) — utilization counting the CUDA-heap reserve".to_string();
    sweep.emit(cfg, "size B", title, "fig6c_utilization_adjusted", &UTIL_SIZES, |_, c| c.1.clone());
}
