//! E2/E3 — Figure 4a/4b: single-size allocation and free performance,
//! and the figures read off the same runs: E8 (§6.8 variance), E9's
//! cold columns (§6.9) and E10's Fig 6a (fragmentation).
//!
//! 1 M (configurable) threads each allocate one `size`-byte object; sizes
//! step in powers of two from 16 B to 4096 B; the median of 50 runs is
//! reported, with the allocator reset between runs. E9's warmed runs, a
//! second sweep at two sizes, are the only runs the figures add.

use super::figure::{self, Sweep, FRAG_SIZES, KERNELS, NA};
use crate::report::{emit_bench_json, fmt_ms, BenchRecord, Table};
use crate::roster::roster_names;
use crate::workload::{measure, median, variance, Measurement, SizeSpec};
use crate::HarnessConfig;

/// Sizes from the paper's Figure 4.
pub const SINGLE_SIZES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Sizes at which E8 reports variance.
pub const VARIANCE_SIZES: [u64; 4] = [16, 64, 512, 4096];

/// Sizes E9 compares cold and warmed (the two §6.9 discusses).
pub const WARMUP_SIZES: [u64; 2] = [16, 2048];

/// Run the single-size sweep; writes Fig 4a/4b, `BENCH_single.json`,
/// `variance`, `warmup` and Fig 6a.
pub fn run_single(cfg: &HarnessConfig) {
    let (threads, runs) = (cfg.threads, cfg.runs);
    let sweep = Sweep::run(
        cfg,
        &SINGLE_SIZES,
        |size| (size, threads),
        |a, size| measure(a, cfg.device(), threads, SizeSpec::Fixed(size), runs, false),
    );
    let names = roster_names();

    let mut records = Vec::new();
    for (ai, size) in (0..names.len()).flat_map(|ai| SINGLE_SIZES.map(|size| (ai, size))) {
        let Some(m) = sweep.get(size, ai) else { continue };
        let rec = BenchRecord::new("single", names[ai]).param("size", size);
        let rec = rec.param("threads", threads).param("runs", runs).ms(median(&m.alloc_ms()));
        records.push(BenchRecord { counts: m.counts(), ..rec });
    }
    emit_bench_json(cfg, "single", &records);

    sweep.emit_timed(cfg, "size B", |i, op| {
        let fig = ["4a", "4b"][i];
        let title =
            format!("Fig {fig} — single-size {op}, {threads} threads, median of {runs} runs (ms)");
        (title, format!("fig{fig}_single_{op}"))
    });

    let title = format!("§6.8 — latency variance across {runs} runs, {threads} threads (ms²)");
    let mut var_tab = figure::table(title, &["size B", "op"]);
    for size in VARIANCE_SIZES {
        for (op, ms) in KERNELS {
            let cells = sweep.row(size, |_, m| format!("{:.5}", variance(&ms(m))));
            var_tab.row([vec![size.to_string(), op.to_string()], cells].concat());
        }
    }
    var_tab.emit(&cfg.out_dir, "variance");

    // Only the warmed runs are new: the cold columns are E2's own cells.
    let warm = Sweep::run(
        cfg,
        &WARMUP_SIZES,
        |size| (size, threads),
        |a, size| measure(a, cfg.device(), threads, SizeSpec::Fixed(size), runs, true),
    );
    let mut warmup = Table::new(
        format!("§6.9 — warmed-up allocators, {threads} threads (alloc ms)"),
        &["allocator", "16B cold", "16B warm", "2048B cold", "2048B warm"],
    );
    let median_alloc = |m: &Measurement| fmt_ms(median(&m.alloc_ms()));
    for (ai, name) in names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for size in WARMUP_SIZES {
            row.extend(match (sweep.get(size, ai), warm.get(size, ai)) {
                // P-series style: an allocator that cannot serve repeated
                // rounds without releasing memory shows its failures.
                (Some(cold), Some(warm)) => {
                    let failed = warm.runs.iter().any(|r| r.failed > 0);
                    let marker = if failed { figure::SOME_FAILED } else { "" };
                    [median_alloc(cold), format!("{}{marker}", median_alloc(warm))]
                }
                _ => [NA.into(), NA.into()],
            });
        }
        warmup.row(row);
    }
    warmup.emit(&cfg.out_dir, "warmup");
    println!("(* = failures during warmed rounds)");

    let title =
        format!("Fig 6a — fragmentation, single-size (span / ideal), {threads} allocations");
    sweep.emit(cfg, "size B", title, "fig6a_frag_single", &FRAG_SIZES, |size, m| {
        figure::span(m, SizeSpec::Fixed(size), threads)
    });
}
