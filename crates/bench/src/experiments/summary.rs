//! Results summary (paper §6.3): Gallatin's speedup over the next-best
//! allocator, computed from the CSVs the other experiments wrote.
//!
//! The paper's headline numbers are of this form — "up to 374× faster
//! than the next-best allocator on single-sized allocations"; this
//! subcommand derives the analogous ratios from our measured tables.
//! RegEff-AW is excluded from "next best", as in §6.2 (it does not
//! manage memory).

use super::figure::{CORRUPT, FAIL, KERNELS, NA, SOME_FAILED, TIMED_OUT};
use super::scaling::{self, SCALING_SIZES};
use crate::report::Table;
use std::path::Path;

/// Parse a CSV cell into milliseconds, rejecting the grid's markers
/// (n/a, fail, time-outs) and reading through a `*` or `!` suffix.
fn parse_cell(cell: &str) -> Option<f64> {
    let c = cell.trim();
    if c.is_empty() || c == NA || c == FAIL || c.contains(TIMED_OUT) {
        return None;
    }
    let c = c.trim_end_matches(SOME_FAILED).trim_end_matches(CORRUPT);
    c.parse::<f64>().ok()
}

/// One row's comparison: Gallatin vs the best competitor.
struct RowRatio {
    label: String,
    gallatin: f64,
    best_other: f64,
    best_name: String,
}

/// Read a results CSV and compute per-row Gallatin-vs-next-best ratios.
fn analyze_csv(path: &Path) -> Option<Vec<RowRatio>> {
    let content = std::fs::read_to_string(path).ok()?;
    let mut lines = content.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let gallatin_col = header.iter().position(|h| *h == "Gallatin")?;
    let mut out = Vec::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != header.len() {
            continue;
        }
        let Some(g) = parse_cell(cells[gallatin_col]) else { continue };
        let mut best: Option<(f64, &str)> = None;
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 || i == gallatin_col || header[i] == "RegEff-AW" || header[i] == "op" {
                continue;
            }
            if let Some(v) = parse_cell(cell) {
                if best.is_none_or(|(b, _)| v < b) {
                    best = Some((v, header[i]));
                }
            }
        }
        let Some((b, name)) = best else { continue };
        out.push(RowRatio {
            label: cells[0].to_string(),
            gallatin: g,
            best_other: b,
            best_name: name.to_string(),
        });
    }
    Some(out)
}

/// Every timing CSV E2–E7 write, with its row label: Fig 4's four
/// panels, then Fig 5's one per kernel and scaling size.
fn timing_csvs() -> Vec<(String, String)> {
    let fig4 = [
        ("fig4a_single_alloc", "single-size alloc (Fig 4a)"),
        ("fig4b_single_free", "single-size free (Fig 4b)"),
        ("fig4c_mixed_alloc", "mixed-size alloc (Fig 4c)"),
        ("fig4d_mixed_free", "mixed-size free (Fig 4d)"),
    ];
    let fig4 = fig4.map(|(file, label)| (file.to_string(), label.to_string()));
    let fig5 = KERNELS.into_iter().flat_map(|(op, _)| {
        SCALING_SIZES
            .map(|size| (scaling::csv_name(op, size), format!("scaling {op} {size} B (Fig 5)")))
    });
    fig4.into_iter().chain(fig5).collect()
}

/// Run the summary over every timing CSV present in `out_dir`.
pub fn run_summary(out_dir: &str) {
    let mut tab = Table::new(
        "§6.3-style summary — Gallatin vs next-best managing allocator (speedup = best_other / gallatin)",
        &["experiment", "min speedup", "max speedup", "rows won", "rows", "max vs"],
    );
    for (file, label) in timing_csvs() {
        let path = Path::new(out_dir).join(format!("{file}.csv"));
        let Some(rows) = analyze_csv(&path) else { continue };
        if rows.is_empty() {
            continue;
        }
        let ratios: Vec<f64> = rows.iter().map(|r| r.best_other / r.gallatin).collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0_f64, f64::max);
        let won = ratios.iter().filter(|&&r| r >= 1.0).count();
        let max_row = rows
            .iter()
            .zip(&ratios)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(r, _)| format!("{} @ {}", r.best_name, r.label))
            .unwrap_or_default();
        tab.row(vec![
            label,
            format!("{min:.2}x"),
            format!("{max:.2}x"),
            won.to_string(),
            rows.len().to_string(),
            max_row,
        ]);
    }
    tab.emit(out_dir, "summary_speedups");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_parsing_handles_markers() {
        assert_eq!(parse_cell("1.25"), Some(1.25));
        assert_eq!(parse_cell("1.25*"), Some(1.25));
        assert_eq!(parse_cell("0.50!"), Some(0.5));
        assert_eq!(parse_cell("n/a"), None);
        assert_eq!(parse_cell("fail"), None);
        assert_eq!(parse_cell("89.1% t/o"), None);
        assert_eq!(parse_cell(""), None);
    }

    #[test]
    fn the_summary_reads_exactly_the_timing_csvs_of_e2_to_e7() {
        let files: Vec<String> = timing_csvs().into_iter().map(|(file, _)| file).collect();
        assert_eq!(
            files,
            [
                "fig4a_single_alloc",
                "fig4b_single_free",
                "fig4c_mixed_alloc",
                "fig4d_mixed_free",
                "fig5_scaling_alloc_16b",
                "fig5_scaling_alloc_64b",
                "fig5_scaling_alloc_512b",
                "fig5_scaling_alloc_8192b",
                "fig5_scaling_free_16b",
                "fig5_scaling_free_64b",
                "fig5_scaling_free_512b",
                "fig5_scaling_free_8192b",
            ]
        );
    }

    #[test]
    fn analyze_computes_next_best() {
        let dir = std::env::temp_dir().join("gallatin-summary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "size B,Gallatin,CUDA,RegEff-AW,ScatterAlloc\n16,1.0,10.0,0.1,4.0\n32,2.0,8.0,0.1,n/a\n",
        )
        .unwrap();
        let rows = analyze_csv(&path).unwrap();
        assert_eq!(rows.len(), 2);
        // AW excluded: best other at 16 B is ScatterAlloc (4.0).
        assert_eq!(rows[0].best_other, 4.0);
        assert_eq!(rows[0].best_name, "ScatterAlloc");
        assert_eq!(rows[1].best_other, 8.0);
    }
}
