//! E2/E3 — Figure 4a/4b: single-size allocation and free performance.
//! E9 — §6.9: the warmed-up comparison.
//!
//! 1 M (configurable) threads each allocate one `size`-byte object; sizes
//! step in powers of two from 16 B to 4096 B; the median of 50 runs is
//! reported, with the allocator reset between runs.
//!
//! Allocators are constructed one at a time (`for_each_allocator`) so
//! only one heap is resident at once.

use crate::report::{counts_delta, emit_bench_json, fmt_ms, BenchRecord, Table};
use crate::roster::{for_each_allocator, roster_names};
use crate::workload::{measure, SizeSpec};
use crate::HarnessConfig;

/// Sizes from the paper's Figure 4.
pub const SINGLE_SIZES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Run the single-size experiment; prints one table per operation.
pub fn run_single(cfg: &HarnessConfig) {
    let names = roster_names();
    // grid[size_idx][alloc_idx] = (alloc cell, free cell)
    let mut grid =
        vec![vec![("n/a".to_string(), "n/a".to_string()); names.len()]; SINGLE_SIZES.len()];
    let mut records: Vec<BenchRecord> = Vec::new();

    for_each_allocator(cfg.heap_bytes, cfg.num_sms, |ai, a| {
        for (si, &size) in SINGLE_SIZES.iter().enumerate() {
            if !a.supports_size(size) || a.heap_bytes() < cfg.threads * size {
                continue;
            }
            let before = a.metrics().map(|m| m.snapshot());
            let m = measure(a, cfg.device(), cfg.threads, SizeSpec::Fixed(size), cfg.runs, false);
            if cfg.json {
                let mut rec = BenchRecord::new("single", a.name())
                    .param("size", size)
                    .param("threads", cfg.threads)
                    .param("runs", cfg.runs)
                    .ms(m.median_alloc_ms());
                if let (Some(b), Some(after)) = (&before, a.metrics().map(|m| m.snapshot())) {
                    rec.counts = counts_delta(b, &after);
                }
                records.push(rec);
            }
            let suffix = if m.corrupt > 0 {
                "!"
            } else if m.failed > 0 {
                "*"
            } else {
                ""
            };
            grid[si][ai] = (
                format!("{}{}", fmt_ms(m.median_alloc_ms()), suffix),
                format!("{}{}", fmt_ms(m.median_free_ms()), suffix),
            );
        }
    });

    if cfg.json {
        emit_bench_json(cfg, "single", &records);
    }

    let mut headers = vec!["size B"];
    headers.extend(names.iter().copied());
    let mut alloc_tab = Table::new(
        format!(
            "Fig 4a — single-size alloc, {} threads, median of {} runs (ms)",
            cfg.threads, cfg.runs
        ),
        &headers,
    );
    let mut free_tab = Table::new(
        format!(
            "Fig 4b — single-size free, {} threads, median of {} runs (ms)",
            cfg.threads, cfg.runs
        ),
        &headers,
    );
    for (si, &size) in SINGLE_SIZES.iter().enumerate() {
        let mut arow = vec![size.to_string()];
        let mut frow = vec![size.to_string()];
        for cell in grid[si].iter().take(names.len()) {
            arow.push(cell.0.clone());
            frow.push(cell.1.clone());
        }
        alloc_tab.row(arow);
        free_tab.row(frow);
    }
    alloc_tab.emit(&cfg.out_dir, "fig4a_single_alloc");
    free_tab.emit(&cfg.out_dir, "fig4b_single_free");
    println!("(* = some requests failed; ! = payload corruption detected)");
}

/// E9 — warmed-up comparison: median latency cold vs warmed, 16 B and
/// 2048 B allocations (the sizes §6.9 discusses).
pub fn run_warmup(cfg: &HarnessConfig) {
    let mut tab = Table::new(
        format!("§6.9 — warmed-up allocators, {} threads (alloc ms)", cfg.threads),
        &["allocator", "16B cold", "16B warm", "2048B cold", "2048B warm"],
    );
    for_each_allocator(cfg.heap_bytes, cfg.num_sms, |_, a| {
        let mut row = vec![a.name().to_string()];
        for size in [16u64, 2048] {
            if !a.supports_size(size) || a.heap_bytes() < cfg.threads * size {
                row.push("n/a".into());
                row.push("n/a".into());
                continue;
            }
            let cold =
                measure(a, cfg.device(), cfg.threads, SizeSpec::Fixed(size), cfg.runs, false);
            let warm = measure(a, cfg.device(), cfg.threads, SizeSpec::Fixed(size), cfg.runs, true);
            row.push(fmt_ms(cold.median_alloc_ms()));
            row.push(if warm.failed > 0 {
                // P-series style: cannot serve repeated rounds without
                // releasing memory → failures show as such.
                format!("{}*", fmt_ms(warm.median_alloc_ms()))
            } else {
                fmt_ms(warm.median_alloc_ms())
            });
        }
        tab.row(row);
    });
    tab.emit(&cfg.out_dir, "warmup");
    println!("(* = failures during warmed rounds)");
}
