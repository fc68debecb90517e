//! `--check-repeat`: the benchmark checks its own noise against its own
//! bounds. Two sets of [`PASSES`] full passes per workload, each pass a
//! process of its own; for every end-to-end metric the two medians must
//! agree within the metric's bound, and the step-clock metrics must be
//! bit-identical between passes that share a seed.
//!
//! With `--vary-seed` pass `i` of each set runs seed + `i` — the
//! acceptance check's procedure — and the quartile spread of the ten
//! values is reported beside the medians.

use crate::cli::{child_args, run_child, Args};
use crate::json;
use crate::metrics::END_TO_END;
use crate::stats::{median_f64, quartile_spread};
use crate::workloads::WORKLOADS;

/// Passes per set.
pub const PASSES: usize = 5;

/// One pass: the value of every end-to-end metric, in catalogue order.
fn one_pass(args: &Args, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let (code, stdout) = run_child(&child_args(args, workload, seed))?;
    if code != 0 {
        return Err(format!("{workload} seed {seed}: exit status {code}"));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    let result = json::parse(line)?;
    let failed = result.get("failed").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    if failed != 0.0 {
        return Err(format!("{workload} seed {seed}: {failed} ops failed"));
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{workload}: result line lacks {name}"))
        })
        .collect()
}

/// How far `second` is from `first`, as a share of `first`. The two
/// sets run the same code, so a difference in either direction is noise
/// and is held against the bound.
fn difference(first: f64, second: f64) -> f64 {
    (second - first).abs() / first.abs().max(f64::MIN_POSITIVE)
}

/// Run the self-check; returns the process exit code (0: every metric of
/// every workload inside its bound).
pub fn check_repeat(args: &Args) -> i32 {
    let mut args = args.clone();
    args.trace = false;
    let workloads: Vec<&str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut misses = 0;
    for workload in workloads {
        // sets[set][pass][metric]
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for set in 0..2 {
            let mut passes = Vec::new();
            for pass in 0..PASSES {
                let seed = if args.vary_seed { args.seed + pass as u64 } else { args.seed };
                match one_pass(&args, workload, seed) {
                    Ok(values) => passes.push(values),
                    Err(e) => {
                        eprintln!("check-repeat: set {set} pass {pass}: {e}");
                        return 1;
                    }
                }
            }
            sets.push(passes);
        }
        println!("== {workload}");
        println!(
            "{:18} {:>16} {:>16} {:>9} {:>9} {:>7}  verdict",
            "metric", "median A", "median B", "differ by", "spread", "bound"
        );
        for (m, (name, _, _, bound)) in END_TO_END.iter().enumerate() {
            let column = |set: usize| sets[set].iter().map(|p| p[m]).collect::<Vec<f64>>();
            let (a, b) = (column(0), column(1));
            let (med_a, med_b) = (median_f64(&a), median_f64(&b));
            let worse = difference(med_a, med_b);
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = quartile_spread(&all);
            let exact = !name.starts_with("sim_") || a == b;
            let ok = worse <= *bound && exact && (*name == "setup_s" || spread <= *bound);
            if !ok {
                misses += 1;
            }
            println!(
                "{name:18} {med_a:>16.4} {med_b:>16.4} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                100.0 * worse,
                100.0 * spread,
                100.0 * bound,
                match (ok, exact) {
                    (true, _) => "ok",
                    (false, false) => "MISS (step clock differs between equal seeds)",
                    (false, true) => "MISS",
                }
            );
        }
    }
    if misses > 0 {
        eprintln!("check-repeat: {misses} metric(s) outside their bounds");
        1
    } else {
        0
    }
}
