//! Tier-1 promotion of the E16 bench-smoke gate: regenerate the
//! deterministic atomic-op counts for the smoke seed subset and require
//! them to equal the committed baseline in
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

use bench::experiments::{run_bench_smoke, run_elastic, run_serve};
use bench::HarnessConfig;
use std::path::Path;

/// Run `experiment` as the binary does, from the repo root into a scratch
/// directory, and require each of `files` to be the checked-in `results/`
/// copy, byte for byte. A drift is a schedule or a count that moved.
fn assert_reproduces_results(name: &str, experiment: fn(&HarnessConfig) -> bool, files: [&str; 2]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // `bench-smoke` reads its baseline from `results/` under the working
    // directory; every test here sets the same one.
    std::env::set_current_dir(&root).expect("enter the repo root");
    let results = root.join("results");
    let out = std::env::temp_dir().join(format!("gallatin-{name}-gate-{}", std::process::id()));
    let cfg = HarnessConfig { out_dir: out.to_string_lossy().into_owned(), ..Default::default() };
    assert!(experiment(&cfg), "repro {name}'s own gate failed");
    for file in files {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(file)).expect(file);
        assert_eq!(
            read(&out),
            read(&results),
            "{file} drifted from results/; if on purpose, refresh it with\n  \
             cargo run --release -p bench --bin repro -- {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn bench_smoke_counts_match_committed_baseline() {
    let files = ["BENCH_bench_smoke.json", "e16_bench_smoke.csv"];
    assert_reproduces_results("bench-smoke", run_bench_smoke, files);
}

#[test]
fn serve_sweep_matches_committed_results() {
    assert_reproduces_results("serve", run_serve, ["BENCH_serve.json", "e20_serve.csv"]);
}

#[test]
fn elastic_arms_match_committed_results() {
    assert_reproduces_results("elastic", run_elastic, ["BENCH_elastic.json", "e22_elastic.csv"]);
}
