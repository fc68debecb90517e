//! What the benchmark knows about the machine it runs on: a fixed
//! calibration loop (so a reader can tell a slow machine from a slow
//! program), the process's peak resident set, and the per-unit watchdog
//! that turns a hang into a report and a non-zero exit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Iterations of the hash loop of one full calibration tick (≈107 ms on
/// the 2-core sizing box).
pub const CALIB_FULL_ITERS: u64 = 60_000_000;
/// The short tick placed between segments of a host pass.
pub const CALIB_SHORT_ITERS: u64 = CALIB_FULL_ITERS / 8;

/// Run the fixed calibration loop — a dependent chain of `iters`
/// multiply-xorshift steps on the calling thread — and return its wall
/// time in milliseconds. The work never changes, so the time only moves
/// when the machine does.
pub fn calibration_tick_ms(iters: u64) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`) in MiB, from
/// `/proc/self/status`; `None` where that file or field is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Forget the peak resident set reached so far: `VmHWM` restarts from
/// the current resident set (Linux: `5` written to
/// `/proc/self/clear_refs`). Called after the sim pass, whose trace
/// records and ledger are the benchmark's own memory and on the small
/// workloads exceed everything the program allocates; without it
/// `peak_rss_mb` would measure the benchmark. Where the reset is not
/// available the peak simply keeps the sim pass in it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(target_os = "linux")]
mod affinity {
    // The glibc calls std has no wrapper for. `pid` 0 is the calling
    // thread; threads it spawns afterwards inherit its mask.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// Linux's `SCHED_IDLE`: runs only when nothing else wants the CPU.
    const SCHED_IDLE: i32 = 5;

    /// Give the calling thread the idle scheduling policy (lowering a
    /// thread's own policy needs no privilege).
    pub fn make_idle_policy() -> bool {
        // `struct sched_param { int sched_priority; }`
        let priority = 0i32;
        // SAFETY: `priority` is a live `sched_param`-sized value the
        // call only reads.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }

    /// Room for 1,024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    pub type Mask = [u64; WORDS];

    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `cpusetsize` bytes passed; the call writes nothing beyond it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the `cpusetsize`
        // bytes passed; the call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

/// Run `f` with the calling thread, and every thread it spawns inside
/// `f`, restricted to one CPU (the last it is allowed on, leaving the
/// first, where a shell and the kernel's housekeeping land, to everyone
/// else); the previous mask is restored afterwards, also on panic.
///
/// Every measured pass runs inside it, for two reasons.
///
/// * `ExecMode::Deterministic`: the coordinator lets exactly one thread
///   run at a time and hands the turn over through a `Mutex` + `Condvar`;
///   when the two threads of a hand-off sit on different CPUs each turn
///   pays a cross-CPU wake-up, and whether they do is the OS scheduler's
///   choice from moment to moment: sizing saw the same serving run read
///   18.8k and 20.9k ops/s unpinned and 61.5k, 62.1k, 62.2k pinned.
/// * `ExecMode::Pool`: `shim-rayon` sizes its pool from
///   `available_parallelism`, which follows the mask, so a launch runs its
///   warps one after the other on the driver thread instead of spawning
///   two workers per launch. On the 2-core box the second worker bought
///   4% on `kernel-mixed` and 3% on `graph-churn` and *cost* 35% on
///   `kernel-large` (its two workers fight over the block rings), so a
///   run sped up by a third whenever anything else took a CPU for a while
///   and slowed down otherwise: noise in both directions, which no
///   statistic of one run removes. On one CPU the rest of the machine can
///   only ever slow a unit down, which the quietest-round statistics of
///   [`crate::pass::HostPass`] are built for, and the other CPU is left
///   to whatever else the machine runs.
///
/// The CPU is also **kept awake** while `f` runs: a thread of the idle
/// scheduling policy spins on it, so it runs exactly when the CPU would
/// otherwise have gone idle and costs the measured threads nothing. In
/// deterministic mode every launch and every turn leaves the CPU idle
/// for a moment, and on a virtual machine entering and leaving idle is
/// an exit to the hypervisor: on the sizing box that was 55% of
/// `serve-diurnal`'s host time (54 k ops/s; 120 k with the CPU kept
/// awake), a property of the sandbox and not of the program. Worse, it
/// comes and goes: any other runnable thread that lands on the CPU keeps
/// it awake too, so a stray process made a round of `serve-diurnal`
/// *faster* (its median unit went from 1.77 ms to 1.03 ms in every round
/// a competitor shared). Kept awake, the CPU is in one regime whatever
/// else runs, and company can only slow a round down.
///
/// Where the mask cannot be read or set (not Linux, or a sandbox that
/// forbids it) `f` runs unpinned, and where the idle policy is refused
/// the CPU is not kept awake.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_os = "linux")]
    {
        struct Restore(affinity::Mask);
        impl Drop for Restore {
            fn drop(&mut self) {
                affinity::set(&self.0);
            }
        }
        /// Set while a spinner runs: a nested call leaves the keeping
        /// awake to the outer one.
        static AWAKE: AtomicBool = AtomicBool::new(false);
        /// The idle-policy spinner; stopped and joined on drop.
        struct KeepAwake(Option<std::thread::JoinHandle<()>>);
        impl KeepAwake {
            fn start() -> Option<Self> {
                if AWAKE.swap(true, Ordering::Relaxed) {
                    return None;
                }
                // Spawned after the mask is set, so it inherits it. At
                // any other policy it would take half the CPU: it spins
                // only once the idle policy is in force.
                let spinner = std::thread::spawn(|| {
                    if affinity::make_idle_policy() {
                        while AWAKE.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                });
                Some(KeepAwake(Some(spinner)))
            }
        }
        impl Drop for KeepAwake {
            fn drop(&mut self) {
                AWAKE.store(false, Ordering::Relaxed);
                if let Some(spinner) = self.0.take() {
                    let _ = spinner.join();
                }
            }
        }
        let saved = affinity::get();
        let last = saved.and_then(|m| {
            let word = m.iter().rposition(|&w| w != 0)?;
            let mut one = [0u64; 16];
            one[word] = 1 << (63 - m[word].leading_zeros());
            Some(one)
        });
        // Dropped in reverse order: the spinner ends before the mask is
        // restored.
        let _restore = match (saved, last) {
            (Some(saved), Some(one)) if affinity::set(&one) => Some(Restore(saved)),
            _ => None,
        };
        let _awake = _restore.as_ref().and_then(|_| KeepAwake::start());
        f()
    }
    #[cfg(not(target_os = "linux"))]
    f()
}

/// What the watchdog prints and saves when a unit overruns.
#[derive(Clone, Debug, Default)]
pub struct Progress {
    /// Workload being run.
    pub workload: String,
    /// Input seed of the run.
    pub seed: u64,
    /// Which pass the driver is in (`setup`, `host`, `sim`, ...).
    pub pass: String,
    /// Units the pass was going to run.
    pub units_planned: u64,
    /// Ops one unit performs (used to count the remainder as failed).
    pub ops_per_unit: u64,
    /// How long one unit of this pass may take.
    pub deadline: Duration,
}

/// Deadline for one unit of a host pass. Sizing saw a `Pool`-mode
/// worker spin forever inside `BlockTier::get` (see the README); 10 s is
/// thousands of median units, far beyond any slow episode of the machine.
pub const UNIT_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline for one unit of a sim pass, whose launches are 100× smaller.
pub const SIM_UNIT_DEADLINE: Duration = Duration::from_secs(3);
/// Exit status of a run the watchdog ended.
pub const WATCHDOG_EXIT: i32 = 3;

/// A per-unit deadline armed by the driver thread. The driver is parked
/// in a scope join while a launch runs, so a separate thread watches the
/// deadline; on expiry it reports, saves what was gathered and exits the
/// process with status [`WATCHDOG_EXIT`].
pub struct Watchdog {
    epoch: Instant,
    /// Deadline in ns since `epoch`; `u64::MAX` when disarmed.
    deadline_ns: AtomicU64,
    unit: AtomicU64,
    unit_deadline_ns: AtomicU64,
    stop: AtomicBool,
    progress: Mutex<Progress>,
    abort_file: Option<std::path::PathBuf>,
    /// Extra evidence to print when a unit overruns.
    on_abort: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Watchdog {
    /// Start the watching thread. `abort_file`, when given, receives the
    /// partial results on expiry.
    pub fn start(abort_file: Option<std::path::PathBuf>) -> Arc<Watchdog> {
        let dog = Arc::new(Watchdog {
            epoch: Instant::now(),
            deadline_ns: AtomicU64::new(u64::MAX),
            unit: AtomicU64::new(0),
            unit_deadline_ns: AtomicU64::new(UNIT_DEADLINE.as_nanos() as u64),
            stop: AtomicBool::new(false),
            progress: Mutex::new(Progress::default()),
            abort_file,
            on_abort: Mutex::new(None),
        });
        let watcher = Arc::clone(&dog);
        // Detached on purpose: it only ever ends the process or is left
        // behind at exit; `stop` lets tests end it.
        std::thread::spawn(move || watcher.watch());
        dog
    }

    /// Describe the pass about to run.
    pub fn enter(&self, progress: Progress) {
        self.unit_deadline_ns.store(progress.deadline.as_nanos() as u64, Ordering::Relaxed);
        *self.progress.lock().expect("watchdog progress lock") = progress;
    }

    /// Have `f` run (on the watching thread) before an overrun ends the
    /// process, to print what the hang left behind.
    pub fn on_abort(&self, f: Box<dyn Fn() + Send>) {
        *self.on_abort.lock().expect("watchdog on_abort lock") = Some(f);
    }

    /// Arm the deadline for `unit` (one relaxed store; called once per
    /// unit from the driver).
    #[inline]
    pub fn arm(&self, unit: u64) {
        self.unit.store(unit, Ordering::Relaxed);
        let now = self.epoch.elapsed().as_nanos() as u64;
        let allowed = self.unit_deadline_ns.load(Ordering::Relaxed);
        self.deadline_ns.store(now + allowed, Ordering::Relaxed);
    }

    /// No unit is running.
    pub fn disarm(&self) {
        self.deadline_ns.store(u64::MAX, Ordering::Relaxed);
    }

    /// End the watching thread (tests).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn watch(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(100));
            let now = self.epoch.elapsed().as_nanos() as u64;
            if now > self.deadline_ns.load(Ordering::Relaxed) {
                self.abort();
            }
        }
    }

    fn abort(&self) -> ! {
        let p = self.progress.lock().map(|p| p.clone()).unwrap_or_default();
        let unit = self.unit.load(Ordering::Relaxed);
        let remaining = p.units_planned.saturating_sub(unit) * p.ops_per_unit;
        let report = format!(
            "{{\"aborted\": true, \"workload\": \"{}\", \"seed\": {}, \"pass\": \"{}\", \
             \"unit\": {}, \"units_planned\": {}, \"ops_counted_failed\": {}}}",
            p.workload, p.seed, p.pass, unit, p.units_planned, remaining
        );
        eprintln!(
            "WATCHDOG: workload {} pass {} unit {} of {} (seed {}) exceeded {} s; \
             {} remaining ops count as failed",
            p.workload,
            p.pass,
            unit,
            p.units_planned,
            p.seed,
            p.deadline.as_secs(),
            remaining
        );
        if let Some(path) = &self.abort_file {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("WATCHDOG: could not write {}: {e}", path.display());
            }
        }
        eprintln!("{report}");
        if let Ok(Some(f)) = self.on_abort.lock().map(|mut f| f.take()) {
            f();
        }
        std::process::exit(WATCHDOG_EXIT);
    }
}
