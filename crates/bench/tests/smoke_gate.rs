//! Tier-1 promotion of the E16 bench-smoke gate: regenerate the
//! deterministic atomic-op counts for the smoke seed subset and diff
//! them against the committed baseline in
//! `results/BENCH_bench_smoke.json`, inside `cargo test` instead of a
//! separate `repro bench-smoke` invocation.
//!
//! The E20 serve sweep and E22's elastic arms get the same golden
//! comparison against `results/`, so the serving and maintenance paths'
//! counts are pinned here too, not only the ablation's.
//!
//! These experiments time nothing, so their output is a function of the
//! code and the comparison is of bytes, stable on any machine. No trace
//! sink is installed here, which is exactly the configuration the
//! acceptance criterion pins down: dormant tracing must add ZERO atomic
//! ops to the baseline counts.

use bench::experiments::ablation::{smoke_gate, smoke_records};
use bench::experiments::{run_elastic, run_serve};
use bench::report::{read_bench_json, render_bench_json};
use bench::HarnessConfig;
use std::path::Path;

/// Run `experiment` as the binary does, into a scratch directory, and
/// require each of `files` to be the checked-in `results/` copy, byte for
/// byte. A drift is a schedule or a count that moved.
fn assert_reproduces_results(name: &str, experiment: fn(&HarnessConfig) -> bool, files: [&str; 2]) {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = std::env::temp_dir().join(format!("gallatin-{name}-gate-{}", std::process::id()));
    let cfg = HarnessConfig { out_dir: out.to_string_lossy().into_owned(), ..Default::default() };
    assert!(experiment(&cfg), "repro {name}'s own gate failed");
    for file in files {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(file)).expect(file);
        assert_eq!(
            read(&out),
            read(&results),
            "{file} drifted from results/; if on purpose, refresh it with\n  \
             cargo run --release -p bench --bin repro -- {name} --json"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
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
        render_bench_json("bench_smoke", &current),
        committed,
        "bench-smoke records drifted from results/BENCH_bench_smoke.json"
    );
}

#[test]
fn serve_sweep_matches_committed_results() {
    assert_reproduces_results("serve", run_serve, ["BENCH_serve.json", "e20_serve.csv"]);
}

#[test]
fn elastic_arms_match_committed_results() {
    assert_reproduces_results("elastic", run_elastic, ["BENCH_elastic.json", "e22_elastic.csv"]);
}
