//! `repro` — regenerate every table and figure of the Gallatin paper.
//!
//! ```text
//! repro <subcommand> [flags]
//!
//! Subcommands (see DESIGN.md §5 for the experiment index):
//!   init            E1  — §6.4 initialization overhead
//!   single          E2/E3 — Fig 4a/4b single-size alloc + free
//!   mixed           E4/E5 — Fig 4c/4d mixed-size alloc + free
//!   scaling         E6/E7 — Fig 5 scaling with thread count
//!   variance        E8  — §6.8 latency variance
//!   warmup          E9  — §6.9 warmed-up allocators
//!   fragmentation   E10 — Fig 6a/6b fragmentation
//!   utilization     E11 — Fig 6c utilization (OOM test)
//!   graph           E12 — §6.12 dynamic graph phases
//!   expansion       E13 — §6.12 graph expansion
//!   reclaim         E15 — reclaim-protocol telemetry (attempts/aborts/bounces)
//!   ablation        E16 — deterministic atomic-count ablation (64-seed sweep)
//!   bench-smoke     E16 smoke subset, gated against results/BENCH_bench_smoke.json;
//!                   exits 1 if any atomic-op count regresses past the tolerance
//!   trace           E17 — allocation-lifecycle trace of the block-churn workload
//!                   (Chrome trace_event JSON; seed from GALLATIN_SCHED_SEED)
//!   pool            E18 — sharded-pool block churn over 1/2/4/8 instances
//!                   (per-instance atomic counts + spill rates, BENCH_pool.json)
//!   replay          E19 — trace-replay round trip: record the block churn,
//!                   convert to a gallatin-replay-v1 script, re-run it through
//!                   Gallatin and GallatinPool(2), assert lifecycle-outcome
//!                   equality (seed from GALLATIN_SCHED_SEED)
//!   serve           E20 — open-loop serving sweep: seeded arrivals (Poisson/
//!                   bursty), bounded queue, batched launches, multi-tenant
//!                   admission control; p50/p99/p999 + goodput to
//!                   BENCH_serve.json; exits 1 on any quota violation or
//!                   ledger anomaly (seed from GALLATIN_SCHED_SEED)
//!   elastic         E22 — elastic pool: hotspot donation with lifecycle
//!                   ledger, fragmentation-attack compaction A/B, and
//!                   donation latency with/without compaction, to
//!                   BENCH_elastic.json; exits 1 if the hot home absorbs no
//!                   donated segment, the ledger shows anomalies, or a
//!                   compaction row fails to strictly beat its control
//!                   (seed from GALLATIN_SCHED_SEED)
//!   topo            E23 — multi-device topology scaling over 1/2/4/8 devices:
//!                   locality-skew traffic sweep, cross-device spill cascade,
//!                   single-device parity vs GallatinPool, and a 2-device
//!                   serving cell, to BENCH_topo.json; exits 1 if the affine
//!                   cells exceed 5% peer traffic, the cascade overflow is
//!                   wrong, parity diverges, or the serve cell is dirty
//!                   (seed count from GALLATIN_TOPO_SEEDS, default 8)
//!   summary         §6.3-style speedup summary from the written CSVs
//!   all             everything above, in order
//!
//! Perf-trend lane (E21 — see TESTING.md "Perf lane"):
//!   perf            run the perf suite with repeated samples and append one
//!                   gallatin-perf-v1 line to <history>/perf_history.jsonl
//!   perf-gate       compare the latest history line against the rolling
//!                   same-host baseline band; exits 1 on gross regressions
//!   perf-report     render PERF_TREND.md + perf_trend.csv over the history
//!   perf-check      lint BENCH_*.json files/dirs (positional args, default
//!                   results/): median_ms must be a number or "untimed";
//!                   null/missing exits 1
//!
//! Flags:
//!   --threads N     logical GPU threads (default 32768)
//!   --runs N        repetitions per measurement, median reported (default 7)
//!   --heap BYTES    heap per allocator, accepts suffix K/M/G (default 1G)
//!   --sms N         simulated streaming multiprocessors (default 128)
//!   --pool N        OS worker threads (default max(8, cores))
//!   --out DIR       CSV output directory (default results)
//!   --json          also write machine-readable BENCH_<experiment>.json files
//!   --full          paper-scale: 1M threads, 50 runs, 2G heap, 2^20 scaling
//!   --smoke         CI smoke subset (serve): shorter horizon, fewer cells
//!
//! Perf flags (perf/perf-gate/perf-report only):
//!   --samples N     repeated suite samples per run, medians kept (default 3)
//!   --history DIR   history directory (default results/history)
//!   --window N      rolling-baseline window for perf-gate (default 10)
//!   --sha S         git SHA stamped on the appended run (default $GITHUB_SHA
//!                   or "local")
//!   --stamp S       timestamp label (default unix-<seconds>)
//!   --host S        host label; the gate only compares equal labels
//!                   (default $PERF_HOST or "local")
//!   --seeds SPEC    churn-cell schedule seeds: "0..8" or "0,3,7" (default 0..8)
//! ```

use bench::experiments as exp;
use bench::perf::PerfOptions;
use bench::HarnessConfig;

fn parse_bytes(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'G' | 'g' => (&s[..s.len() - 1], 1u64 << 30),
        'M' | 'm' => (&s[..s.len() - 1], 1u64 << 20),
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// `--seeds` accepts a half-open range (`0..8`) or a comma list (`0,3,7`).
fn parse_seeds(s: &str) -> Option<Vec<u64>> {
    if let Some((a, b)) = s.split_once("..") {
        let (a, b) = (a.parse::<u64>().ok()?, b.parse::<u64>().ok()?);
        if a >= b {
            return None;
        }
        return Some((a..b).collect());
    }
    s.split(',').map(|p| p.trim().parse::<u64>().ok()).collect()
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
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

/// Everything after the subcommand: flags into the two option structs,
/// the rest positional. `Err` is a usage line for the caller to print.
fn parse_flags(args: &[String]) -> Result<(HarnessConfig, PerfOptions, Vec<String>), String> {
    let mut cfg = HarnessConfig::default();
    let mut perf = PerfOptions::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => cfg.threads = value(args, &mut i, "--threads N", number)?,
            "--runs" => cfg.runs = value(args, &mut i, "--runs N", number)?,
            "--heap" => cfg.heap_bytes = value(args, &mut i, "--heap BYTES[K|M|G]", parse_bytes)?,
            "--sms" => cfg.num_sms = value(args, &mut i, "--sms N", number)?,
            "--pool" => cfg.pool_threads = value(args, &mut i, "--pool N", number)?,
            "--out" => cfg.out_dir = value(args, &mut i, "--out DIR", text)?,
            "--samples" => perf.samples = value(args, &mut i, "--samples N", number)?,
            "--history" => perf.history_dir = value(args, &mut i, "--history DIR", text)?,
            "--window" => perf.window = value(args, &mut i, "--window N", number)?,
            "--sha" => perf.sha = value(args, &mut i, "--sha S", text)?,
            "--stamp" => perf.stamp = value(args, &mut i, "--stamp S", text)?,
            "--host" => perf.host = value(args, &mut i, "--host S", text)?,
            "--seeds" => perf.seeds = value(args, &mut i, "--seeds A..B or A,B,C", parse_seeds)?,
            "--json" => {
                cfg.json = true;
                i += 1;
            }
            "--full" => {
                cfg = cfg.clone().at_full_scale();
                i += 1;
            }
            "--smoke" => {
                cfg.smoke = true;
                i += 1;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    Ok((cfg, perf, positional))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <init|single|mixed|scaling|variance|warmup|fragmentation|utilization|graph|expansion|reclaim|ablation|bench-smoke|trace|pool|replay|serve|elastic|topo|perf|perf-gate|perf-report|perf-check|summary|all> [--threads N] [--runs N] [--heap BYTES] [--sms N] [--pool N] [--out DIR] [--json] [--full] [--smoke] [--samples N] [--history DIR] [--window N] [--sha S] [--stamp S] [--host S] [--seeds SPEC]");
        std::process::exit(2);
    }
    let cmd = args[0].clone();
    let (cfg, perf, positional) = parse_flags(&args[1..]).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
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
    match cmd.as_str() {
        "init" => exp::run_init(&cfg),
        "single" => exp::run_single(&cfg),
        "mixed" => exp::run_mixed(&cfg),
        "scaling" => exp::run_scaling(&cfg),
        "variance" => exp::run_variance(&cfg),
        "warmup" => exp::run_warmup(&cfg),
        "fragmentation" => exp::run_fragmentation(&cfg),
        "utilization" => exp::run_utilization(&cfg),
        "graph" => exp::run_graph(&cfg),
        "expansion" => exp::run_graph_expansion(&cfg),
        "reclaim" => exp::run_reclaim(&cfg),
        "ablation" => exp::run_ablation(&cfg),
        "bench-smoke" => {
            if !exp::run_bench_smoke(&cfg) {
                std::process::exit(1);
            }
        }
        "trace" => exp::run_trace(&cfg),
        "pool" => exp::run_pool(&cfg),
        "replay" => exp::run_replay(&cfg),
        "serve" => {
            if !exp::run_serve(&cfg) {
                std::process::exit(1);
            }
        }
        "elastic" => {
            if !exp::run_elastic(&cfg) {
                std::process::exit(1);
            }
        }
        "topo" => {
            if !exp::run_topo(&cfg) {
                std::process::exit(1);
            }
        }
        "summary" => exp::run_summary(&cfg.out_dir),
        "perf" => {
            if !bench::perf::run_perf(&perf) {
                std::process::exit(1);
            }
        }
        "perf-gate" => {
            if !bench::perf::run_perf_gate(&perf) {
                std::process::exit(1);
            }
        }
        "perf-report" => {
            if !bench::perf::run_perf_report(&perf) {
                std::process::exit(1);
            }
        }
        "perf-check" => {
            let paths =
                if positional.is_empty() { vec!["results".to_string()] } else { positional };
            if !bench::perf::run_perf_check(&paths) {
                std::process::exit(1);
            }
        }
        "all" => {
            exp::run_init(&cfg);
            exp::run_single(&cfg);
            exp::run_mixed(&cfg);
            exp::run_scaling(&cfg);
            exp::run_variance(&cfg);
            exp::run_warmup(&cfg);
            exp::run_fragmentation(&cfg);
            exp::run_utilization(&cfg);
            exp::run_graph(&cfg);
            exp::run_graph_expansion(&cfg);
            exp::run_reclaim(&cfg);
            exp::run_ablation(&cfg);
            exp::run_trace(&cfg);
            exp::run_pool(&cfg);
            exp::run_replay(&cfg);
            exp::run_serve(&cfg);
            exp::run_elastic(&cfg);
            exp::run_topo(&cfg);
            exp::run_summary(&cfg.out_dir);
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    }
    println!("\n# done in {:.1}s — CSVs in {}/", t0.elapsed().as_secs_f64(), cfg.out_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<(HarnessConfig, PerfOptions, Vec<String>), String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn byte_sizes_parse_with_suffixes_and_refuse_overflow() {
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("99999999999G"), None, "n * mult overflows u64");
        assert_eq!(parse_bytes("G"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("-1K"), None);
    }

    #[test]
    fn seed_specs_parse_as_range_or_list() {
        assert_eq!(parse_seeds("0..8"), Some((0..8).collect()));
        assert_eq!(parse_seeds("0,3,7"), Some(vec![0, 3, 7]));
        assert_eq!(parse_seeds("8..0"), None, "an empty range is a usage error");
        assert_eq!(parse_seeds("0,x"), None);
    }

    #[test]
    fn a_flag_without_a_usable_value_is_its_usage_line() {
        assert_eq!(flags(&["--threads"]).unwrap_err(), "usage: --threads N");
        assert_eq!(flags(&["--json", "--threads", "many"]).unwrap_err(), "usage: --threads N");
        assert_eq!(flags(&["--heap", "99999999999G"]).unwrap_err(), "usage: --heap BYTES[K|M|G]");
        assert_eq!(flags(&["--out"]).unwrap_err(), "usage: --out DIR");
        assert_eq!(flags(&["--seeds", "8..0"]).unwrap_err(), "usage: --seeds A..B or A,B,C");
        assert_eq!(flags(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
    }

    #[test]
    fn flags_fill_both_option_structs_and_leave_the_rest_positional() {
        let (cfg, perf, positional) =
            flags(&["--threads", "64", "a.json", "--heap", "64M", "--smoke", "--seeds", "0,3,7"])
                .unwrap();
        assert_eq!((cfg.threads, cfg.heap_bytes, cfg.smoke), (64, 64 << 20, true));
        assert_eq!(perf.seeds, vec![0, 3, 7]);
        assert_eq!(positional, ["a.json"]);
    }
}
