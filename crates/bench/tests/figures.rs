//! The figure lane end to end at a tiny configuration: `run_single` and
//! `run_mixed` write every roster figure of E2–E5, E8, E9 and E10 into a
//! scratch directory, and each CSV must have the layout the paper's
//! figures are read from — the x label then the roster, the sweep's row
//! labels, and cells in the grid's vocabulary. `BENCH_single.json` must
//! count every run's requests, and `run_summary` must read the Fig 4
//! tables back.

use bench::experiments::figure::{CORRUPT, FAIL, FRAG_SIZES, NA, SOME_FAILED};
use bench::experiments::mixed::MIXED_UPPERS;
use bench::experiments::single::{SINGLE_SIZES, VARIANCE_SIZES};
use bench::experiments::{run_mixed, run_single, run_summary};
use bench::report::read_bench_json;
use bench::roster::roster_names;
use bench::HarnessConfig;
use std::path::{Path, PathBuf};

const THREADS: u64 = 256;
const RUNS: usize = 2;

/// Run the single and mixed sweeps once into a fresh directory.
fn figures() -> PathBuf {
    let out = std::env::temp_dir().join(format!("gallatin-figures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let cfg = HarnessConfig {
        threads: THREADS,
        runs: RUNS,
        heap_bytes: 16 << 20,
        num_sms: 8,
        out_dir: out.to_string_lossy().into_owned(),
        ..Default::default()
    };
    run_single(&cfg);
    run_mixed(&cfg);
    out
}

/// The header and rows of `<file>.csv`.
fn csv(dir: &Path, file: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let text = std::fs::read_to_string(dir.join(format!("{file}.csv"))).expect(file);
    let mut lines = text.lines().map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
    (lines.next().expect("a header"), lines.collect())
}

/// A number with at most one `*` or `!` marker, `n/a` or `fail`.
fn is_cell(cell: &str) -> bool {
    let number = cell.strip_suffix(SOME_FAILED).or(cell.strip_suffix(CORRUPT)).unwrap_or(cell);
    cell == NA || cell == FAIL || number.parse::<f64>().is_ok_and(f64::is_finite)
}

/// `labels` then the roster, one row per `rows` entry, every cell in the
/// vocabulary.
fn assert_grid(dir: &Path, file: &str, labels: &[&str], rows: &[Vec<String>]) {
    let (header, body) = csv(dir, file);
    assert_eq!(header, [labels, &roster_names()].concat(), "{file}'s header");
    let label_cols: Vec<Vec<String>> = body.iter().map(|r| r[..labels.len()].to_vec()).collect();
    assert_eq!(label_cols, rows, "{file}'s row labels");
    for row in &body {
        assert_eq!(row.len(), header.len(), "{file}: {row:?}");
        for cell in &row[labels.len()..] {
            assert!(is_cell(cell), "{file}: {cell:?} is not a grid cell");
        }
    }
}

fn labels(xs: &[u64]) -> Vec<Vec<String>> {
    xs.iter().map(|x| vec![x.to_string()]).collect()
}

#[test]
fn single_and_mixed_lay_out_every_roster_figure_and_the_summary_reads_them() {
    let dir = figures();
    assert_grid(&dir, "fig4a_single_alloc", &["size B"], &labels(&SINGLE_SIZES));
    assert_grid(&dir, "fig4b_single_free", &["size B"], &labels(&SINGLE_SIZES));
    assert_grid(&dir, "fig4c_mixed_alloc", &["upper B"], &labels(&MIXED_UPPERS));
    assert_grid(&dir, "fig4d_mixed_free", &["upper B"], &labels(&MIXED_UPPERS));
    assert_grid(&dir, "fig6a_frag_single", &["size B"], &labels(&FRAG_SIZES));
    assert_grid(&dir, "fig6b_frag_mixed", &["size B"], &labels(&FRAG_SIZES));
    let ops: Vec<Vec<String>> = VARIANCE_SIZES
        .iter()
        .flat_map(|s| ["alloc", "free"].map(|op| vec![s.to_string(), op.to_string()]))
        .collect();
    assert_grid(&dir, "variance", &["size B", "op"], &ops);

    // E9 is the one table with an allocator per row.
    let (header, body) = csv(&dir, "warmup");
    assert_eq!(header, ["allocator", "16B cold", "16B warm", "2048B cold", "2048B warm"]);
    assert_eq!(body.iter().map(|r| r[0].as_str()).collect::<Vec<_>>(), roster_names());
    assert!(body.iter().flat_map(|r| &r[1..]).all(|c| is_cell(c)), "{body:?}");

    // Every run's counts, summed over the cell's runs: each request is
    // counted once, and either freed or failed (one 16 MiB segment fails
    // some of the large ones).
    let records = read_bench_json(&dir.join("BENCH_single.json")).expect("BENCH_single.json");
    let gallatin: Vec<_> = records.iter().filter(|r| r.allocator == "Gallatin").collect();
    assert_eq!(gallatin.len(), SINGLE_SIZES.len(), "every size fits a 16 MiB Gallatin");
    for r in gallatin {
        let (size, count) = (r.get_param("size").unwrap(), |k| r.get_count(k).unwrap());
        assert_eq!(count("mallocs"), RUNS as u64 * THREADS, "mallocs at {size} B");
        assert_eq!(count("frees") + count("failed_mallocs"), count("mallocs"), "at {size} B");
    }

    run_summary(&dir.to_string_lossy());
    let (_, rows) = csv(&dir, "summary_speedups");
    let experiments: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(
        experiments,
        [
            "single-size alloc (Fig 4a)",
            "single-size free (Fig 4b)",
            "mixed-size alloc (Fig 4c)",
            "mixed-size free (Fig 4d)"
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
