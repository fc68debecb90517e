//! Command line, the result line and the all-workloads driver.
//!
//! ```text
//! gallatin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gallatin-benchmark [--quick] [--trace 1]        # every workload, one child each
//! gallatin-benchmark --check-repeat [--vary-seed] # two sets of five passes
//! ```

use crate::host::{peak_rss_mb, Watchdog};
use crate::json::{self, Value};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::workloads::{self, Ctx, E2e, WORKLOADS};
use std::path::PathBuf;

/// Seed of the numbers recorded in the README.
pub const CANONICAL_SEED: u64 = 20240302;
/// Length of the host pass the bounds were sized for (`run_seconds`).
pub const RUN_SECONDS: f64 = 15.0;
/// `--quick` runs every pass at this share of its length.
pub const QUICK_SCALE: f64 = 0.05;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One workload, or all of them when absent.
    pub workload: Option<&'static str>,
    /// Input seed.
    pub seed: u64,
    /// Host-pass length in nominal seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Every pass at 1/20 length.
    pub quick: bool,
    /// Run the repeatability self-check.
    pub check_repeat: bool,
    /// In the self-check, give each pass of a set its own seed.
    pub vary_seed: bool,
    /// Run one of the sizing observations' reproductions instead.
    pub repro: Option<&'static str>,
    /// Set by the supervising process on the process that measures:
    /// which try this is (see [`run_supervised`]).
    pub attempt: Option<u64>,
}

const USAGE: &str = "usage: gallatin-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--check-repeat [--vary-seed]] [--repro <name>]";

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: CANONICAL_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        check_repeat: false,
        vary_seed: false,
        repro: None,
        attempt: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|(n, _)| n == name);
                out.workload = Some(known.ok_or_else(|| format!("unknown workload {name}"))?.0);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => out.quick = true,
            "--check-repeat" => out.check_repeat = true,
            "--vary-seed" => out.vary_seed = true,
            "--repro" => {
                let name = value()?;
                let known = crate::repro::NAMES.iter().find(|n| *n == name);
                out.repro = Some(known.ok_or_else(|| {
                    format!("unknown reproduction {name}; one of {:?}", crate::repro::NAMES)
                })?);
            }
            "--attempt" => {
                out.attempt = Some(value()?.parse().map_err(|e| format!("--attempt: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

/// Where trace files and abort reports go: `out/` beside this crate's
/// manifest, inside the checkout that built it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result line's `metrics` object for an end-to-end run.
pub fn e2e_values(run: &E2e) -> Values {
    let mut v = Values::default();
    v.set("setup_s", run.setup_s);
    v.set("goodput_ops_s", run.host.goodput_ops_s());
    v.set("unit_p50_us", run.host.unit_us(0.50));
    v.set("unit_p90_us", run.host.unit_us(0.90));
    v.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    v.set("sim_steps_per_op", run.sim.steps_per_op);
    v.set("sim_p50_steps", run.sim.p50_steps as f64);
    v.set("sim_tail_steps", run.sim.tail_steps as f64);
    v
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    catalogue: &[(&str, &str)],
) -> String {
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).unwrap_or(0.0);
            (
                name.to_string(),
                json::obj(vec![("value", json::num(value)), ("unit", json::string(unit))]),
            )
        })
        .collect();
    json::write(&json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(attempted.max(1) as f64)),
        ("failed", json::num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

fn context(args: &Args, workload: &'static str, attempt: u64) -> Ctx {
    let out = out_dir();
    Ctx {
        workload,
        seed: args.seed,
        seconds: if args.quick { args.seconds * QUICK_SCALE } else { args.seconds },
        quick: args.quick,
        attempt,
        dog: Watchdog::start(Some(out.join(format!("abort-{workload}.json")))),
        out_dir: out,
        started: std::time::Instant::now(),
    }
}

fn run_one(args: &Args, workload: &'static str, attempt: u64) -> i32 {
    let ctx = context(args, workload, attempt);
    let seconds = ctx.seconds;
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "{workload}: seed {} seconds {seconds} trace {} try {attempt} \
         ({threads} hardware threads, measuring on one)",
        args.seed, args.trace as u8
    );
    let (values, catalogue, attempted, failed, violations): (_, Vec<(&str, &str)>, _, _, _) =
        if args.trace {
            let run = workloads::run_traced(&ctx);
            let catalogue = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
            (run.layers, catalogue, run.attempted, run.failed, run.violations)
        } else {
            let run = workloads::run_e2e(&ctx);
            let rates: Vec<String> = run
                .host
                .rounds
                .iter()
                .map(|s| format!("{:.3}", s.ops as f64 * 1e3 / s.ns.max(1) as f64))
                .collect();
            let ticks: Vec<String> = run.host.ticks_ms.iter().map(|t| format!("{t:.1}")).collect();
            eprintln!("round rates (Mops/s): {}", rates.join(" "));
            for (label, q) in [("p50", 0.50), ("p90", 0.90)] {
                let us: Vec<String> =
                    run.host.round_unit_us(q).iter().map(|p| format!("{p:.0}")).collect();
                eprintln!("round unit {label} (us): {}", us.join(" "));
            }
            eprintln!(
                "fastest round {:.3} Mops/s, median round {:.3} Mops/s",
                run.host.goodput_ops_s() / 1e6,
                run.host.median_goodput_ops_s() / 1e6
            );
            eprintln!("calibration ticks (ms): {}", ticks.join(" "));
            println!("{:42} {:>16} units", "host pass", run.host.unit_ns.len());
            let catalogue = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
            (e2e_values(&run), catalogue, run.attempted, run.failed, run.violations)
        };
    for (name, unit) in &catalogue {
        println!("{name:42} {:>16.4} {unit}", values.get(name).unwrap_or(0.0));
    }
    println!(
        "{:42} {attempted:>16} attempted, {failed} failed (fail_frac {:e})",
        "ops",
        failed as f64 / attempted.max(1) as f64
    );
    let line = result_line(violations.is_empty(), attempted, failed, &values, &catalogue);
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    println!("{line}");
    if violations.is_empty() {
        0
    } else {
        1
    }
}

/// Run this executable again with `args`; returns its exit status and
/// standard output. Each workload runs in a process of its own so that
/// `peak_rss_mb` is that workload's and nobody else's.
pub fn run_child(args: &[String]) -> Result<(i32, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    Ok((out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned()))
}

/// Arguments that make a child run `workload` the way `args` asks.
pub fn child_args(args: &Args, workload: &str, seed: u64) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        (args.trace as u8).to_string(),
    ];
    if args.quick {
        v.push("--quick".to_string());
    }
    v
}

/// Tries a run gets before the watchdog's verdict stands.
const ATTEMPTS: u64 = 3;

/// Measure `workload` in a child process, and again if the watchdog ends
/// it. The program has a livelock this benchmark must not fix
/// (`BlockTier::get`, see the README): a `Pool`-mode hang is a race and a
/// plain retry escapes it; a sim-pass hang replays exactly, so each try
/// draws its schedules from other seeds. Any other exit stands.
fn run_supervised(args: &Args, workload: &str) -> i32 {
    for attempt in 0..ATTEMPTS {
        let mut child = child_args(args, workload, args.seed);
        child.extend(["--attempt".to_string(), attempt.to_string()]);
        match run_child(&child) {
            Ok((crate::host::WATCHDOG_EXIT, _)) => {
                eprintln!("{workload}: try {attempt} was ended by the watchdog");
            }
            Ok((code, stdout)) => {
                print!("{stdout}");
                return code;
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                return 2;
            }
        }
    }
    crate::host::WATCHDOG_EXIT
}

fn run_all(args: &Args) -> i32 {
    let mut worst = 0;
    for (workload, _) in WORKLOADS {
        match run_child(&child_args(args, workload, args.seed)) {
            Ok((code, stdout)) => {
                println!("== {workload}");
                print!("{stdout}");
                worst = worst.max(code.abs());
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                worst = worst.max(2);
            }
        }
    }
    worst
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if args.check_repeat {
        return crate::repeat::check_repeat(&args);
    }
    if let Some(name) = args.repro {
        return crate::repro::run(name, &context(&args, name, 0));
    }
    match (args.workload, args.attempt) {
        (Some(w), Some(attempt)) => run_one(&args, w, attempt),
        (Some(w), None) => run_supervised(&args, w),
        (None, _) => run_all(&args),
    }
}
