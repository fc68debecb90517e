//! Regression tests for artifact writers on fresh output directories.
//!
//! Every `repro` subcommand accepts `--out DIR` for a directory that may
//! not exist (CI passes per-job scratch paths; E19 additionally writes
//! `.replay` scripts next to the JSON). Each writer must create the
//! directory — parents included — rather than fail with `NotFound`, and
//! a written artifact must read back identically.

use bench::report::{read_bench_json, write_bench_json, BenchRecord, Table};
use bench::workload::dump_script_to;
use gpu_sim::replay::{ReplayOp, ReplayScript, WarpScript};
use std::path::PathBuf;

/// A unique, non-existent nested directory per test.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("gallatin-results-dir-{}-{tag}", std::process::id()))
        .join("deeply")
        .join("nested");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!dir.exists());
    dir
}

#[test]
fn bench_json_writer_creates_missing_nested_directories_and_round_trips() {
    let dir = fresh_dir("json");
    let rec = BenchRecord {
        experiment: "unit".to_string(),
        allocator: "Gallatin".to_string(),
        params: vec![("case".to_string(), "results-dir".to_string())],
        median_ms: 1.5,
        counts: vec![("events".to_string(), 7)],
    };
    let path = write_bench_json(dir.to_str().unwrap(), "unit", std::slice::from_ref(&rec))
        .expect("writer must create the whole directory chain");
    assert!(path.ends_with("BENCH_unit.json"));
    let back = read_bench_json(&path).expect("written JSON must parse back");
    assert_eq!(back, vec![rec]);
    let _ = std::fs::remove_dir_all(dir.ancestors().nth(2).unwrap());
}

/// The schema lint: `median_ms` is a number or `"untimed"`. Every
/// checked-in `results/BENCH_*.json` reads back, and a `null` or absent
/// median is an error naming the record, never a silent NaN.
#[test]
fn checked_in_bench_json_reads_back_and_null_or_missing_medians_are_refused() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&results).expect("results/ is checked in") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let recs = read_bench_json(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!recs.is_empty(), "{name} holds no records");
            checked += 1;
        }
    }
    assert!(checked >= 4, "results/ lost its BENCH files ({checked} found)");

    let dir = fresh_dir("lint");
    std::fs::create_dir_all(&dir).unwrap();
    let read = |records: &str| {
        let path = dir.join("BENCH_lint.json");
        let doc = format!(r#"{{"schema":"gallatin-bench-v1","records":[{records}]}}"#);
        std::fs::write(&path, doc).unwrap();
        read_bench_json(&path)
    };
    let good = read(
        r#"{"experiment":"e","allocator":"a","params":{},"median_ms":1.5,"counts":{}},
           {"experiment":"e","allocator":"a","params":{},"median_ms":"untimed","counts":{}}"#,
    )
    .expect("a number and the untimed marker are the two legal spellings");
    assert_eq!(good[0].median_ms, 1.5);
    assert!(good[1].median_ms.is_nan(), "\"untimed\" round-trips as NaN");
    for (bad, why) in [
        (r#""median_ms":null,"#, "null"),
        ("", "missing"),
        (r#""median_ms":[1],"#, "[1]"),
        (r#""median_ms":"soon","#, "soon"),
    ] {
        let err = read(&format!(
            r#"{{"experiment":"e","allocator":"a","params":{{}},"median_ms":1,"counts":{{}}}},
               {{"experiment":"e","allocator":"a","params":{{}},{bad}"counts":{{}}}}"#
        ))
        .expect_err(why);
        assert!(err.contains("record 1: median_ms"), "{why}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir.ancestors().nth(2).unwrap());
}

#[test]
fn table_csv_writer_creates_missing_nested_directories() {
    let dir = fresh_dir("csv");
    let mut tab = Table::new("unit", &["k", "v"]);
    tab.row(vec!["events".to_string(), "7".to_string()]);
    tab.emit(dir.to_str().unwrap(), "unit_table");
    let text = std::fs::read_to_string(dir.join("unit_table.csv"))
        .expect("emit must create the directory and write the CSV");
    assert_eq!(text, "k,v\nevents,7\n");
    let _ = std::fs::remove_dir_all(dir.ancestors().nth(2).unwrap());
}

#[test]
fn replay_script_dumper_creates_missing_nested_directories() {
    let dir = fresh_dir("replay");
    let script = ReplayScript {
        num_sms: 2,
        warps: vec![WarpScript {
            ops: vec![
                ReplayOp::Malloc { lane: 0, slot: 0, size: 64 },
                ReplayOp::Free { lane: 0, slot: 0 },
            ],
        }],
    };
    let path = dump_script_to(&dir, "unit", 9, &script)
        .expect("dumper must create the whole directory chain");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(ReplayScript::parse(&text), Ok(script));
    let _ = std::fs::remove_dir_all(dir.ancestors().nth(2).unwrap());
}
