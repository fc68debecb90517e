//! Tier-1 promotion of the E16 bench-smoke gate: regenerate the
//! deterministic atomic-op counts for the smoke seed subset and diff
//! them against the committed baseline in
//! `results/BENCH_bench_smoke.json`, inside `cargo test` instead of a
//! separate `repro bench-smoke` invocation.
//!
//! The E20 serve sweep gets the same golden comparison against
//! `results/BENCH_serve.json`, so the serving path's step and latency
//! counts are pinned here too, not only the ablation's.
//!
//! The gate is pure counting — no wall-clock thresholds — so it is
//! stable on any machine. Tracing is compiled in by default but no sink
//! is installed here, which is exactly the configuration the acceptance
//! criterion pins down: disabled tracing must add ZERO atomic ops to
//! the baseline counts.

use bench::experiments::ablation::{smoke_gate, smoke_records};
use bench::experiments::serve::run_serve;
use bench::report::{read_bench_json, render_bench_json};
use bench::HarnessConfig;
use std::path::Path;

/// Blank every `median_ms` value: the only bytes of a BENCH document
/// that may differ between two runs of a deterministic experiment.
fn mask_medians(doc: &str) -> String {
    let masked = doc.lines().map(|line| match line.split_once("\"median_ms\": ") {
        Some((indent, _)) => format!("{indent}\"median_ms\": <masked>,"),
        None => line.to_string(),
    });
    masked.collect::<Vec<_>>().join("\n")
}

#[test]
fn bench_smoke_counts_match_committed_baseline() {
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_bench_smoke.json");
    let baseline = read_bench_json(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let current = smoke_records();
    let (failures, notes) = smoke_gate(&current, &baseline);
    for note in &notes {
        eprintln!("note: {note}");
    }
    assert!(
        failures.is_empty(),
        "E16 smoke gate failed:\n  {}\n\
         If a count grew on purpose, refresh the baseline with\n  \
         cargo run --release -p bench --bin repro -- bench-smoke --json\n\
         and commit results/BENCH_bench_smoke.json. To inspect the\n\
         interleaving behind a count, capture it with\n  \
         GALLATIN_SCHED_SEED=<seed> cargo run -p bench --bin repro -- trace",
        failures.join("\n  ")
    );
    // Golden: beyond the gate's 10% tolerance on counts, the rendered
    // document — record order, param and count key order (and so every
    // `key()` string), exact counts — is the committed baseline's.
    let committed = std::fs::read_to_string(&baseline_path).expect("read above");
    assert_eq!(
        mask_medians(&render_bench_json("bench_smoke", &current)),
        mask_medians(&committed),
        "bench-smoke records drifted from results/BENCH_bench_smoke.json outside median_ms"
    );
}

/// `repro serve`, as the binary runs it, reproduces the checked-in
/// `results/BENCH_serve.json` and `e20_serve.csv` outside `median_ms`.
/// A drift here is a schedule or a count that moved on the serving path.
#[test]
fn serve_sweep_matches_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = std::env::temp_dir().join(format!("gallatin-serve-gate-{}", std::process::id()));
    let cfg = HarnessConfig { out_dir: out.to_string_lossy().into_owned(), ..Default::default() };
    assert!(run_serve(&cfg), "the serve sweep's own quota and ledger gate failed");
    // (The CSV has no `median_ms` line: masking leaves it as it is.)
    for file in ["BENCH_serve.json", "e20_serve.csv"] {
        let read = |dir: &Path| mask_medians(&std::fs::read_to_string(dir.join(file)).expect(file));
        assert_eq!(
            read(&out),
            read(&results),
            "{file} drifted from results/; if on purpose, refresh it with\n  \
             cargo run --release -p bench --bin repro -- serve --json"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
