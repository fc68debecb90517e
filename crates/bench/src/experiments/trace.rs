//! E17 — allocation-lifecycle trace capture (`repro trace`).
//!
//! Replays the E16 block-churn workload under the deterministic
//! scheduler with a [`gpu_sim::trace::TraceSink`] installed, then emits:
//!
//! * `<out_dir>/TRACE_block_churn.json` — Chrome `trace_event` JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>);
//! * the lifecycle-ledger report (leaks, double frees, cross-warp free
//!   latency, occupancy peak) and an event-count table on stdout;
//! * with `--json`, `<out_dir>/BENCH_trace.json` carrying the event
//!   counts in the standard [`BenchRecord`] schema.
//!
//! The schedule seed comes from `GALLATIN_SCHED_SEED` (default 7), which
//! is what makes this the replay half of a failing-seed report: a test
//! failure prints `GALLATIN_SCHED_SEED=<seed>`, and
//! `GALLATIN_SCHED_SEED=<seed> repro trace` captures the exact
//! interleaving that failed as a diffable artifact.

use crate::report::{emit_bench_json, BenchRecord, Table};
use crate::HarnessConfig;
use gallatin::Gallatin;
use gpu_sim::sched::{seed_override, SCHED_SEED_ENV};
use gpu_sim::trace::{chrome_trace_json, Ledger, TraceRecord, TraceSink};
use std::path::Path;
use std::sync::Arc;

use super::{ablation, DEFAULT_SEED};

/// Run the E16 block churn under `seed` with a fresh sink installed and
/// return the captured records (shared with E19's recording half). The sink's leak check is armed, so a leak or
/// broken invariant fails [`ablation::churn_sweep`]'s audit — which
/// auto-dumps the trace — before the caller exports anything.
pub(crate) fn capture_block_churn(seed: u64) -> Vec<TraceRecord> {
    let g = Gallatin::new(ablation::block_churn_config());
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    gpu_sim::trace::with_sink(sink.clone(), || {
        ablation::churn_sweep([seed], ablation::SWEEP_SIZE_BLOCK, || &g, |_| ())
    });
    assert_eq!(sink.dropped(), 0, "sink capacity must cover the workload");
    sink.snapshot()
}

/// Run the trace capture; see the module docs.
pub fn run_trace(cfg: &HarnessConfig) {
    let seed = seed_override().unwrap_or(DEFAULT_SEED);
    println!("E17 trace: block-churn workload under {SCHED_SEED_ENV}={seed}");
    let records = capture_block_churn(seed);

    // Chrome trace artifact.
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir);
    }
    let trace_path = Path::new(&cfg.out_dir).join("TRACE_block_churn.json");
    match std::fs::write(&trace_path, chrome_trace_json(&records)) {
        Ok(()) => println!("wrote {} ({} events)", trace_path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
    }

    // Event-count table: one row per event type, in first-seen order.
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for r in &records {
        let name = r.event.name();
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut tab = Table::new(
        format!("E17 — lifecycle trace, block churn (seed {seed})"),
        &["event", "count"],
    );
    for (name, c) in &counts {
        tab.row(vec![name.to_string(), c.to_string()]);
    }
    tab.emit(&cfg.out_dir, "e17_trace");

    // Post-mortem ledger.
    let ledger = Ledger::build(&records);
    print!("{}", ledger.report());
    println!(
        "replay this capture with {SCHED_SEED_ENV}={seed} repro trace; \
         open {} in chrome://tracing or https://ui.perfetto.dev",
        trace_path.display()
    );

    if cfg.json {
        let mut rec = BenchRecord::new("trace", "Gallatin")
            .case("block-churn")
            .param("seed", seed)
            .count("events", records.len() as u64)
            .count("leaks", ledger.live.len() as u64)
            .count("double_frees", ledger.double_frees.len() as u64)
            .count("cross_warp_frees", ledger.cross_warp_frees)
            .count("peak_live_bytes", ledger.peak_live_bytes);
        for (name, n) in &counts {
            rec = rec.count(name, *n);
        }
        emit_bench_json(cfg, "trace", &[rec]);
    }
}
