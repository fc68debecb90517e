//! `repro replay` writes both halves of its lane from one recording:
//! E17's Chrome trace, event table and `BENCH_trace.json`, and E19's
//! replay script, table and `BENCH_replay.json`. The trace must agree
//! with its own event count, and the script on disk must load and be
//! leak-free.

use bench::experiments::run_replay;
use bench::report::{json, parse_bench_json};
use bench::HarnessConfig;
use gpu_sim::replay::ReplayScript;

#[test]
fn replay_writes_the_trace_and_the_script_of_one_recording() {
    let out = std::env::temp_dir().join(format!("gallatin-replay-lane-{}", std::process::id()));
    let cfg = HarnessConfig { out_dir: out.to_string_lossy().into_owned(), ..Default::default() };
    run_replay(&cfg);
    let read = |file: &str| std::fs::read_to_string(out.join(file)).expect(file);
    for file in [
        "TRACE_block_churn.json",
        "e17_trace.csv",
        "BENCH_trace.json",
        "REPLAY_block_churn.replay",
        "e19_replay.csv",
        "BENCH_replay.json",
    ] {
        assert!(out.join(file).is_file(), "repro replay must write {file}");
    }

    let trace = json::parse(&read("TRACE_block_churn.json")).expect("Chrome trace parses");
    let events = trace.get("traceEvents").and_then(json::Value::as_array).expect("traceEvents");
    let bench = parse_bench_json(&read("BENCH_trace.json")).expect("BENCH_trace.json parses");
    assert_eq!(bench.len(), 1);
    assert_eq!(bench[0].get_count("events"), Some(events.len() as u64));
    assert!(!events.is_empty(), "the block churn records events");

    let script = ReplayScript::parse(&read("REPLAY_block_churn.replay")).expect("script parses");
    assert_eq!(script.validate(), Ok(0), "the recorded script is well-formed and leak-free");
    let _ = std::fs::remove_dir_all(&out);
}
