//! E17 + E19 — lifecycle trace and trace-replay round trip (`repro replay`).
//!
//! Records the E16 block-churn workload under the deterministic
//! scheduler with a [`TraceSink`] installed. From that one recording it
//! first writes E17's artifacts, so a seed whose replay fails still
//! leaves its trace behind:
//!
//! * `<out_dir>/TRACE_block_churn.json` — Chrome `trace_event` JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>);
//! * the lifecycle-ledger report (leaks, double frees, cross-warp free
//!   latency, occupancy peak) on stdout, and the ledger's and every event
//!   type's counts in `e17_trace.csv` and `BENCH_trace.json`.
//!
//! Then E19 closes the loop: it reduces the recording to a
//! [`ReplayScript`], round-trips the script through the
//! `gallatin-replay-v1` text format, then re-issues it through a fresh
//! `Gallatin` **and** a `GallatinPool(2)` via the workload engine
//! ([`crate::workload::run_script`]). Equivalence is asserted on the
//! [`LedgerOutcome`] projection — malloc/free counts, leaks, anomaly
//! counts, allocated bytes — which is exactly the part of a recording
//! that must survive a schedule- and placement-changing replay
//! (latencies, peak occupancy, and event interleavings legitimately
//! differ; lifecycle totals never may). Its artifacts:
//!
//! * `<out_dir>/REPLAY_block_churn.replay` — the converted script in the
//!   text format (see `gpu_sim::replay` for the schema), re-parsed and
//!   compared before use so the artifact is proven load-bearing;
//! * a per-target table in `e19_replay.csv` and `BENCH_replay.json`.
//!   Both JSON files use the [`BenchRecord`] schema.
//!
//! The recording seed comes from `GALLATIN_SCHED_SEED` (default 7): a
//! test failure prints `GALLATIN_SCHED_SEED=<seed>`, and
//! `GALLATIN_SCHED_SEED=<seed> repro replay` captures the exact
//! interleaving that failed as a diffable artifact.

use crate::report::{emit_records, BenchRecord};
use crate::workload::{run_script, ScriptOutcome};
use crate::HarnessConfig;
use gallatin::{Gallatin, GallatinPool};
use gpu_sim::ledger::{Ledger, LedgerOutcome};
use gpu_sim::replay::ReplayScript;
use gpu_sim::sched::{seed_override, SCHED_SEED_ENV};
use gpu_sim::trace::{chrome_trace_json, TraceRecord, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig};
use std::path::Path;
use std::sync::Arc;

use super::{ablation, DEFAULT_SEED};

/// E19's columns: a target's lifecycle outcome, then its contract
/// outcome.
const COLUMNS: &str = "allocator,mallocs,frees,leaks,double_frees,unknown_frees,alloc_bytes,\
    served,denied";

/// One replay target's results.
struct TargetRun {
    name: &'static str,
    outcome: LedgerOutcome,
    script_outcome: ScriptOutcome,
}

/// Run the E16 block churn under `seed` with a fresh sink installed and
/// return the captured records. The sink's leak check is armed, so a
/// leak or broken invariant fails [`ablation::churn_sweep`]'s audit —
/// which auto-dumps the trace — before the caller exports anything.
fn capture_block_churn(seed: u64) -> Vec<TraceRecord> {
    let g = Gallatin::new(ablation::block_churn_config());
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    gpu_sim::trace::with_sink(sink.clone(), || {
        ablation::churn_sweep([seed], ablation::SWEEP_SIZE_BLOCK, || &g, |_| ())
    });
    assert_eq!(sink.dropped(), 0, "sink capacity must cover the workload");
    sink.snapshot()
}

/// Write E17's artifacts for one recording: the Chrome trace, the
/// ledger report, and the counts' table and `BENCH_trace.json`.
fn write_trace(cfg: &HarnessConfig, seed: u64, records: &[TraceRecord], ledger: &Ledger) {
    let trace_path = Path::new(&cfg.out_dir).join("TRACE_block_churn.json");
    match std::fs::write(&trace_path, chrome_trace_json(records)) {
        Ok(()) => println!("wrote {} ({} events)", trace_path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
    }

    // Event counts, most frequent first, after the ledger's own counts.
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for r in records {
        let name = r.event.name();
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut rec = BenchRecord::new("trace", "Gallatin")
        .case("block-churn")
        .param("seed", seed)
        .count("events", records.len() as u64)
        .count("leaks", ledger.live.len() as u64)
        .count("double_frees", ledger.unmatched_frees.len() as u64)
        .count("cross_warp_frees", ledger.cross_warp_frees)
        .count("peak_live_bytes", ledger.peak_live_bytes);
    for (name, n) in &counts {
        rec = rec.count(name, *n);
    }
    let columns: Vec<&str> = rec.counts.iter().map(|(k, _)| k.as_str()).collect();
    let title = format!("E17 — lifecycle trace, block churn (seed {seed})");
    emit_records(cfg, "trace", title, "e17_trace", &columns.join(","), std::slice::from_ref(&rec));
    print!("{}", ledger.report());
    println!("open {} in chrome://tracing or https://ui.perfetto.dev", trace_path.display());
}

/// Reduce a block-churn recording, whose ledger is `ledger`, to its
/// replay script.
fn script_of(records: &[TraceRecord], ledger: &Ledger) -> ReplayScript {
    // Block churn frees within the allocating warp and pairs every
    // pointer, so the reduction must be lossless — a free the converter
    // would move or drop means the recorder or converter regressed.
    assert_eq!(ledger.cross_warp_frees, 0, "block churn has no cross-warp frees");
    assert!(ledger.unmatched_frees.is_empty(), "every recorded free must replay");
    let script = ReplayScript::from_trace(records, ablation::SWEEP_SMS);
    assert_eq!(script.total_ops(), ledger.mallocs + ledger.frees, "one op per malloc and free");
    assert_eq!(script.validate(), Ok(0), "converted script must be well-formed and leak-free");
    script
}

/// Replay `script` through `a` under a sink; returns the replayed
/// lifecycle outcome plus the runner's contract outcome.
fn replay_through(
    name: &'static str,
    a: &dyn DeviceAllocator,
    seed: u64,
    script: &ReplayScript,
) -> TargetRun {
    let sink = Arc::new(TraceSink::new());
    let (script_outcome, records) = gpu_sim::trace::with_sink(sink.clone(), || {
        let out =
            run_script(a, DeviceConfig::with_sms(ablation::SWEEP_SMS).seeded(seed), script, true);
        (out, sink.snapshot())
    });
    assert_eq!(sink.dropped(), 0, "replay sink capacity must cover the workload");
    TargetRun { name, outcome: Ledger::build(&records).outcome(), script_outcome }
}

/// Run E17's capture and E19's round trip; see the module docs.
pub fn run_replay(cfg: &HarnessConfig) {
    let seed = seed_override().unwrap_or(DEFAULT_SEED);
    println!("E17/E19: record block churn under {SCHED_SEED_ENV}={seed}, replay via script engine");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir);
    }
    let records = capture_block_churn(seed);
    let ledger = Ledger::build(&records);
    write_trace(cfg, seed, &records, &ledger);
    let original = ledger.outcome();
    let script = script_of(&records, &ledger);

    // Text-format round trip: the written artifact is re-parsed and must
    // reproduce the script exactly, so the file on disk is proven to
    // carry the whole workload.
    let script_path = Path::new(&cfg.out_dir).join("REPLAY_block_churn.replay");
    let text = script.render();
    match std::fs::write(&script_path, &text) {
        Ok(()) => println!(
            "wrote {} ({} warps, {} ops)",
            script_path.display(),
            script.warps.len(),
            script.total_ops()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", script_path.display()),
    }
    let reparsed = ReplayScript::parse(&text).expect("rendered script must parse");
    assert_eq!(reparsed, script, "text round trip must be exact");

    // Replay the re-parsed script through both targets.
    let gallatin = Gallatin::new(ablation::block_churn_config());
    let pool = GallatinPool::new(2, ablation::block_churn_config());
    let runs = [
        replay_through("Gallatin", &gallatin, seed, &reparsed),
        replay_through("GallatinPool(2)", &pool, seed, &reparsed),
    ];

    for run in &runs {
        assert_eq!(
            run.outcome, original,
            "{}: replayed lifecycle outcome must equal the recording",
            run.name
        );
        assert_eq!(
            run.script_outcome.violations(),
            (0, 0, 0),
            "{}: replay must satisfy the allocation contract: {:?}",
            run.name,
            run.script_outcome
        );
        assert_eq!(run.script_outcome.denied, 0, "{}: replay must not hit OOM", run.name);
    }
    let recs: Vec<BenchRecord> = runs
        .iter()
        .map(|run| {
            BenchRecord::new("replay", run.name)
                .case("block-churn")
                .param("seed", seed)
                .count("mallocs", run.outcome.mallocs)
                .count("frees", run.outcome.frees)
                .count("leaks", run.outcome.leaks)
                .count("double_frees", run.outcome.double_frees)
                .count("unknown_frees", run.outcome.unknown_frees)
                .count("alloc_bytes", run.outcome.alloc_bytes)
                .count("served", run.script_outcome.served)
                .count("denied", run.script_outcome.denied)
        })
        .collect();
    let title = format!("E19 — trace-replay round trip, block churn (seed {seed})");
    emit_records(cfg, "replay", title, "e19_replay", COLUMNS, &recs);
    println!(
        "replayed {} ops through {} targets; lifecycle outcomes equal the recording \
         (replay any seed with {SCHED_SEED_ENV}=<seed> repro replay)",
        script.total_ops(),
        runs.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recording's lifecycle outcome and its replay script.
    fn record(seed: u64) -> (LedgerOutcome, ReplayScript) {
        let records = capture_block_churn(seed);
        let ledger = Ledger::build(&records);
        (ledger.outcome(), script_of(&records, &ledger))
    }

    /// The full E19 equivalence, as a tier-1 test: recording outcome ==
    /// replayed outcome through both a fresh Gallatin and a 2-instance
    /// pool, via the text format.
    #[test]
    fn block_churn_round_trips_through_both_targets() {
        let seed = 7;
        let (original, script) = record(seed);
        assert!(original.mallocs > 0 && original.leaks == 0);
        let reparsed = ReplayScript::parse(&script.render()).unwrap();
        assert_eq!(reparsed, script);

        let gallatin = Gallatin::new(ablation::block_churn_config());
        let pool = GallatinPool::new(2, ablation::block_churn_config());
        for run in [
            replay_through("Gallatin", &gallatin, seed, &reparsed),
            replay_through("GallatinPool(2)", &pool, seed, &reparsed),
        ] {
            assert_eq!(run.outcome, original, "{}", run.name);
            assert_eq!(run.script_outcome.violations(), (0, 0, 0), "{}", run.name);
            assert_eq!(run.script_outcome.denied, 0, "{}", run.name);
        }
    }

    /// A different schedule seed on the replay side must still reproduce
    /// the recorded lifecycle outcome — that is what makes the outcome
    /// the right equivalence class for replays.
    #[test]
    fn replay_outcome_is_schedule_independent() {
        let (original, script) = record(7);
        let g = Gallatin::new(ablation::block_churn_config());
        let a = replay_through("Gallatin", &g, 13, &script);
        assert_eq!(a.outcome, original);
    }
}
