//! `repro` — regenerate every table and figure of the Gallatin paper.
//!
//! ```text
//! repro <subcommand> [flags]
//!
//! Subcommands (see DESIGN.md §5 for the experiment index):
//!   init            E1  — §6.4 initialization overhead
//!   single          E2/E3 — Fig 4a/4b single-size alloc + free; from its runs
//!                   E8 §6.8 variance, E9 §6.9 warm-up, E10 Fig 6a fragmentation
//!   mixed           E4/E5 — Fig 4c/4d mixed-size alloc + free; E10 Fig 6b
//!   scaling         E6/E7 — Fig 5 scaling with thread count
//!   utilization     E11 — Fig 6c utilization (OOM test)
//!   graph           E12 — §6.12 dynamic graph phases
//!   expansion       E13 — §6.12 graph expansion
//!   reclaim         E24 — reclaim-protocol telemetry (attempts/aborts/bounces)
//!   ablation        E16 — deterministic atomic-count ablation (64-seed sweep,
//!                   plus E14's coalescing on/off count)
//!   bench-smoke     E16 smoke subset, gated against results/BENCH_bench_smoke.json;
//!                   exits 1 if any atomic-op count regresses past the tolerance
//!   pool            E18 — sharded-pool block churn over 1/2/4/8 instances
//!                   (per-instance atomic and spill counts, BENCH_pool.json)
//!   replay          E17/E19 — record the block churn as a lifecycle trace
//!                   (Chrome trace_event JSON + ledger report), convert it to
//!                   a gallatin-replay-v1 script, re-run it through Gallatin
//!                   and GallatinPool(2), assert lifecycle-outcome equality
//!                   (seed from GALLATIN_SCHED_SEED)
//!   serve           E20 — open-loop serving sweep: seeded arrivals (Poisson/
//!                   bursty), bounded queue, batched launches, multi-tenant
//!                   admission control; p50/p99/p999 + goodput to
//!                   BENCH_serve.json; exits 1 on any quota violation,
//!                   ledger anomaly or failed check_invariants after a cell
//!                   (seed from GALLATIN_SCHED_SEED)
//!   elastic         E22 — elastic pool: hotspot donation with lifecycle
//!                   ledger, fragmentation-attack compaction A/B, and
//!                   donation counts with/without compaction, to
//!                   BENCH_elastic.json; exits 1 if the hot home absorbs no
//!                   donated segment, the ledger shows anomalies, or a
//!                   compaction row fails to strictly beat its control
//!                   (seed from GALLATIN_SCHED_SEED)
//!   topo            E23 — multi-device topology scaling over 1/2/4/8 devices:
//!                   locality-skew traffic sweep and cross-device spill
//!                   cascade, to BENCH_topo.json; exits 1 if the affine
//!                   cells exceed 5% peer traffic or the cascade overflow is
//!                   wrong (8 skew seeds, 4 under --smoke)
//!   summary         §6.3-style speedup summary from the written CSVs
//!   all             everything above, in order; exits 1 if any gate failed
//!
//! `repro` checks counts and invariants. Wall-clock verdicts come from
//! the stand-alone benchmark (`benchmark/README.md`), nowhere else.
//!
//! Flags:
//!   --threads N     logical GPU threads (default 32768)
//!   --runs N        repetitions per measurement, median reported (default 7)
//!   --heap BYTES    heap per allocator, accepts suffix K/M/G (default 1G)
//!   --sms N         simulated streaming multiprocessors (default 128)
//!   --pool N        OS worker threads (default max(8, cores))
//!   --out DIR       CSV output directory (default results)
//!   --full          paper-scale: 1M threads, 50 runs, 2G heap, 2^20 scaling
//!   --smoke         CI smoke subset: shorter serve horizon and fewer cells,
//!                   fewer topo seeds
//! ```

use bench::experiments as exp;
use bench::HarnessConfig;

fn parse_bytes(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'G' | 'g' => (&s[..s.len() - 1], 1u64 << 30),
        'M' | 'm' => (&s[..s.len() - 1], 1u64 << 20),
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult).filter(|&b| b > 0)
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// A count that must not be 0: zero threads, runs or SMs measure nothing.
fn positive<T: std::str::FromStr + Default + PartialOrd>(s: &str) -> Option<T> {
    number(s).filter(|n| *n > T::default())
}

fn text(s: &str) -> Option<String> {
    Some(s.to_string())
}

/// The value of the flag at `args[*i]`, advancing `i` past both. A
/// missing value and one `parse` rejects are the same usage error: the
/// flag's `usage` text.
fn value<T>(
    args: &[String],
    i: &mut usize,
    usage: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let v = args.get(*i + 1).and_then(|s| parse(s)).ok_or_else(|| format!("usage: {usage}"))?;
    *i += 2;
    Ok(v)
}

/// Everything after the subcommand, into the harness configuration.
/// `Err` is a usage line for the caller to print.
fn parse_flags(args: &[String]) -> Result<HarnessConfig, String> {
    let mut cfg = HarnessConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => cfg.threads = value(args, &mut i, "--threads N", positive)?,
            "--runs" => cfg.runs = value(args, &mut i, "--runs N", positive)?,
            "--heap" => cfg.heap_bytes = value(args, &mut i, "--heap BYTES[K|M|G]", parse_bytes)?,
            "--sms" => cfg.num_sms = value(args, &mut i, "--sms N", positive)?,
            "--pool" => cfg.pool_threads = value(args, &mut i, "--pool N", number)?,
            "--out" => cfg.out_dir = value(args, &mut i, "--out DIR", text)?,
            "--full" => {
                cfg = cfg.clone().at_full_scale();
                i += 1;
            }
            "--smoke" => {
                cfg.smoke = true;
                i += 1;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(cfg)
}

/// Every subcommand but `all`, in the order `all` runs them.
const SUBCOMMANDS: [&str; 16] = [
    "init",
    "single",
    "mixed",
    "scaling",
    "utilization",
    "graph",
    "expansion",
    "reclaim",
    "ablation",
    "bench-smoke",
    "pool",
    "replay",
    "serve",
    "elastic",
    "topo",
    "summary",
];

fn usage() -> String {
    format!(
        "usage: repro <{}|all> [--threads N] [--runs N] [--heap BYTES] [--sms N] [--pool N] \
         [--out DIR] [--full] [--smoke]",
        SUBCOMMANDS.join("|")
    )
}

/// Run one subcommand. `Some(false)` is a failed gate (the harness exits
/// 1), `None` an unknown subcommand.
fn run(cmd: &str, cfg: &HarnessConfig) -> Option<bool> {
    let ungated = |experiment: fn(&HarnessConfig)| {
        experiment(cfg);
        true
    };
    Some(match cmd {
        "init" => ungated(exp::run_init),
        "single" => ungated(exp::run_single),
        "mixed" => ungated(exp::run_mixed),
        "scaling" => ungated(exp::run_scaling),
        "utilization" => ungated(exp::run_utilization),
        "graph" => ungated(exp::run_graph),
        "expansion" => ungated(exp::run_graph_expansion),
        "reclaim" => ungated(exp::run_reclaim),
        "ablation" => ungated(exp::run_ablation),
        "bench-smoke" => exp::run_bench_smoke(cfg),
        "pool" => ungated(exp::run_pool),
        "replay" => ungated(exp::run_replay),
        "serve" => exp::run_serve(cfg),
        "elastic" => exp::run_elastic(cfg),
        "topo" => exp::run_topo(cfg),
        "summary" => {
            exp::run_summary(&cfg.out_dir);
            true
        }
        // Every experiment runs even after a failed gate; the verdicts fold.
        "all" => SUBCOMMANDS.iter().fold(true, |ok, c| run(c, cfg).expect("listed") & ok),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |line: String| -> ! {
        eprintln!("{line}");
        std::process::exit(2);
    };
    let Some(cmd) = args.first() else { usage_error(usage()) };
    let cfg = parse_flags(&args[1..]).unwrap_or_else(|line| usage_error(line));
    cfg.install_pool();
    println!(
        "# gallatin-repro harness — threads={} runs={} heap={}MiB sms={} pool={}",
        cfg.threads,
        cfg.runs,
        cfg.heap_bytes >> 20,
        cfg.num_sms,
        cfg.pool_threads
    );

    let t0 = std::time::Instant::now();
    match run(cmd, &cfg) {
        None => usage_error(format!("unknown subcommand {cmd}\n{}", usage())),
        Some(false) => std::process::exit(1),
        Some(true) => {}
    }
    println!("\n# done in {:.1}s — CSVs in {}/", t0.elapsed().as_secs_f64(), cfg.out_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<HarnessConfig, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn byte_sizes_parse_with_suffixes_and_refuse_overflow() {
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("99999999999G"), None, "n * mult overflows u64");
        assert_eq!(parse_bytes("0K"), None, "a zero size is a usage error");
        assert_eq!(parse_bytes("G"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("-1K"), None);
    }

    #[test]
    fn a_flag_without_a_usable_value_is_its_usage_line() {
        assert_eq!(flags(&["--threads"]).unwrap_err(), "usage: --threads N");
        assert_eq!(flags(&["--smoke", "--threads", "many"]).unwrap_err(), "usage: --threads N");
        assert_eq!(flags(&["--heap", "99999999999G"]).unwrap_err(), "usage: --heap BYTES[K|M|G]");
        assert_eq!(flags(&["--heap", "0"]).unwrap_err(), "usage: --heap BYTES[K|M|G]");
        assert_eq!(flags(&["--sms", "0"]).unwrap_err(), "usage: --sms N");
        assert_eq!(flags(&["--threads", "0"]).unwrap_err(), "usage: --threads N");
        assert_eq!(flags(&["--runs", "0"]).unwrap_err(), "usage: --runs N");
        assert_eq!(flags(&["--out"]).unwrap_err(), "usage: --out DIR");
        assert_eq!(flags(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(flags(&["results"]).unwrap_err(), "unexpected argument results");
    }

    #[test]
    fn the_perf_lane_flags_are_unknown_flags_now() {
        let gone_flags = [
            "--samples",
            "--history",
            "--window",
            "--sha",
            "--stamp",
            "--host",
            "--seeds",
            "--json",
        ];
        for gone in gone_flags {
            assert_eq!(flags(&[gone, "3"]).unwrap_err(), format!("unknown flag {gone}"));
        }
    }

    #[test]
    fn flags_fill_the_harness_configuration() {
        let cfg = flags(&["--threads", "64", "--heap", "64M", "--smoke"]).unwrap();
        assert_eq!((cfg.threads, cfg.heap_bytes, cfg.smoke), (64, 64 << 20, true));
    }

    #[test]
    fn an_unlisted_subcommand_is_unknown_and_usage_lists_the_rest() {
        let cfg = HarnessConfig::default();
        // E8, E9 and E10 are written by `single` and `mixed`, E17 by `replay`.
        for unknown in ["perf", "--help", "", "variance", "warmup", "fragmentation", "trace"] {
            assert_eq!(run(unknown, &cfg), None);
        }
        assert!(usage().contains("|bench-smoke|") && usage().ends_with("[--smoke]"));
    }
}
