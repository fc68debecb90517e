//! Kernel launches: executing N logical GPU threads as warps on CPU
//! threads.
//!
//! A launch of `n` threads is split into `ceil(n / 32)` warps. Each warp
//! is executed as a unit by one worker thread, which preserves the
//! property the allocators care about: all 32 lanes of a warp are visible
//! to each other at a collective operation, while different warps run
//! genuinely concurrently and contend on atomics. Pool mode hands warps to
//! its workers through a shared atomic cursor, so like a GPU the
//! assignment of warps to OS threads is timing-dependent and racy
//! interleavings are real; [`crate::sched`] is the reproducible
//! alternative.
//!
//! SM residency is modeled by striping warps across `num_sms` streaming
//! multiprocessors (`sm_id = warp_id % num_sms`), which is how a real grid
//! fills a GPU in the steady state and gives Gallatin's per-SM block
//! buffers the intended access pattern.

use crate::sched::{self, FaultPlan, StepProfile};
use crate::trace;
use crate::warp::{LaneCtx, WarpCtx, WARP_SIZE};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Worker-count override installed by [`set_pool_threads`]; 0 = none.
static POOL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Fix the number of workers every later [`ExecMode::Pool`] launch of
/// this process spawns; 0 goes back to following the launching thread's
/// affinity mask.
pub fn set_pool_threads(n: usize) {
    POOL_THREADS.store(n, Ordering::Relaxed);
}

// From the libc std already links.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

fn pool_threads() -> usize {
    let n = POOL_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    // The affinity mask in one syscall (`available_parallelism` re-reads
    // the cgroup files too, ≈12 µs a launch). Read at every launch, never
    // cached: callers pin and unpin the launching thread.
    #[cfg(target_os = "linux")]
    {
        // Room for 1,024 CPUs; a wider kernel mask is an error.
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable buffer of the `cpusetsize` bytes
        // passed, all the call writes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0 {
            return mask.iter().map(|w| w.count_ones() as usize).sum();
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f(i)` for every `i < len`, handing indices to [`pool_threads`]
/// scoped workers through a shared cursor; inline with one worker.
fn pool_for_each(len: u64, f: impl Fn(u64) + Sync) {
    let workers = (pool_threads() as u64).min(len).max(1);
    if workers == 1 {
        (0..len).for_each(f);
        return;
    }
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                f(i);
            });
        }
    });
}

/// How a launch's warps are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Warps run concurrently on scoped worker threads; interleavings
    /// are real races and depend on OS timing. This is the throughput
    /// mode and the default.
    Pool,
    /// Warps run serialized by the deterministic scheduler
    /// ([`crate::sched`]) as fibers on the launching thread, switching
    /// stacks only at preemption points, with the interleaving fully
    /// determined by `seed`.
    Deterministic {
        /// Schedule seed: same seed ⇒ identical interleaving.
        seed: u64,
    },
}

/// Static description of the simulated device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors. The paper's A40 has 84 SMs but
    /// describes the block-buffer sizing with a 128-SM example; 128 is the
    /// default here and everything is configurable.
    pub num_sms: u32,
    /// Warp execution mode (free-running pool vs deterministic replay).
    pub mode: ExecMode,
    /// Injected schedule fault, honored only under
    /// [`ExecMode::Deterministic`]: parks the warp making the plan's nth
    /// crossing of its preemption point (see [`sched::FaultPlan`]).
    /// Ignored in pool mode, where the OS already preempts arbitrarily.
    pub fault: Option<FaultPlan>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { num_sms: 128, mode: ExecMode::Pool, fault: None }
    }
}

impl DeviceConfig {
    /// A device with the given SM count.
    pub fn with_sms(num_sms: u32) -> Self {
        assert!(num_sms > 0, "device needs at least one SM");
        DeviceConfig { num_sms, ..Default::default() }
    }

    /// A device whose launches replay the deterministic schedule drawn
    /// from `seed` (see [`crate::sched`]). Same seed ⇒ same
    /// interleaving ⇒ identical metrics and outcome.
    pub fn deterministic(seed: u64) -> Self {
        DeviceConfig { mode: ExecMode::Deterministic { seed }, ..Default::default() }
    }

    /// This configuration with the deterministic mode enabled.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.mode = ExecMode::Deterministic { seed };
        self
    }

    /// This configuration with a schedule fault injected (deterministic
    /// mode only; the `(seed, fault)` pair replays exactly).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Launch `total_threads` logical threads as warp-collective work:
/// `kernel` is invoked once per warp and drives all of that warp's lanes.
///
/// This is the launch form used when the kernel needs warp collectives
/// (e.g. coalesced allocation); per-thread kernels can use [`launch`].
///
/// ```
/// use gpu_sim::{launch_warps, DeviceConfig};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let total = AtomicU64::new(0);
/// launch_warps(DeviceConfig::default(), 1000, |warp| {
///     total.fetch_add(warp.active as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 1000);
/// ```
pub fn launch_warps<F>(cfg: DeviceConfig, total_threads: u64, kernel: F)
where
    F: Fn(&WarpCtx) + Sync,
{
    launch_warps_counted(cfg, total_threads, kernel);
}

/// [`launch_warps`] that also reports the launch's duration in
/// *schedule steps*: under [`ExecMode::Deterministic`] this is the
/// scheduler's turn count (one per preemption-point crossing, plus one
/// per warp for its finish) — a deterministic function of
/// `(seed, kernel)` that the serving layer uses as simulated kernel
/// service time. Pool mode has no schedule clock and reports 0.
pub fn launch_warps_counted<F>(cfg: DeviceConfig, total_threads: u64, kernel: F) -> u64
where
    F: Fn(&WarpCtx) + Sync,
{
    launch_warps_profiled(cfg, total_threads, kernel).0
}

/// [`launch_warps_counted`] that also reports the steps by what ended
/// each turn (see [`sched::StepProfile`]); all zero in pool mode.
pub fn launch_warps_profiled<F>(
    cfg: DeviceConfig,
    total_threads: u64,
    kernel: F,
) -> (u64, StepProfile)
where
    F: Fn(&WarpCtx) + Sync,
{
    if total_threads == 0 {
        return (0, StepProfile::default());
    }
    let n_warps = total_threads.div_ceil(WARP_SIZE as u64);
    let run_warp = |warp_id: u64| {
        let base_tid = warp_id * WARP_SIZE as u64;
        let active = (total_threads - base_tid).min(WARP_SIZE as u64) as u32;
        let warp =
            WarpCtx { warp_id, sm_id: (warp_id % cfg.num_sms as u64) as u32, base_tid, active };
        trace::in_warp(warp.sm_id, warp.warp_id, || kernel(&warp));
    };
    match cfg.mode {
        ExecMode::Pool => {
            // A pool worker has thread-locals of its own, so the launching
            // thread's trace sink (if any) is installed around each warp; a
            // deterministic launch never leaves the thread that holds it.
            let sink = trace::current_sink();
            pool_for_each(n_warps, |warp_id| match &sink {
                Some(sink) => trace::with_sink(sink.clone(), || run_warp(warp_id)),
                None => run_warp(warp_id),
            });
            (0, StepProfile::default())
        }
        ExecMode::Deterministic { seed } => sched::run_profiled(seed, n_warps, cfg.fault, run_warp),
    }
}

/// Launch `total_threads` logical threads with a per-thread kernel.
///
/// Lanes of a warp run sequentially inside one pool task (as if fully
/// divergent), warps run concurrently. Use [`launch_warps`] when the
/// kernel wants warp collectives.
pub fn launch<F>(cfg: DeviceConfig, total_threads: u64, kernel: F)
where
    F: Fn(&LaneCtx) + Sync,
{
    launch_warps(cfg, total_threads, |warp| {
        for lane in warp.lanes() {
            kernel(&warp.lane(lane));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Serialises the tests that touch the worker-count rule's process
    /// state (the override; the affinity test asserts on its absence).
    static POOL_RULE: Mutex<()> = Mutex::new(());

    /// The OS thread each warp of a 64-warp pool launch ran on.
    fn pool_launch_thread_ids() -> Vec<ThreadId> {
        let ids = Mutex::new(Vec::new());
        launch_warps(DeviceConfig::default(), 64 * 32, |_| {
            ids.lock().unwrap().push(std::thread::current().id());
        });
        ids.into_inner().unwrap()
    }

    /// With no override installed, `pool_threads` reads the calling test
    /// thread's own mask (affinity is per thread).
    #[test]
    #[cfg(target_os = "linux")]
    fn pool_follows_the_calling_threads_affinity_mask() {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let _rule = POOL_RULE.lock().unwrap_or_else(|e| e.into_inner());
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes.
        assert_eq!(unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) }, 0);
        let cpus: usize = allowed.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(pool_threads(), cpus);
        if cpus < 2 {
            return; // nothing to narrow from
        }
        let caller = std::thread::current().id();

        let word = allowed.iter().position(|&w| w != 0).unwrap();
        let mut one = [0u64; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        // SAFETY: `one` is a live buffer of `bytes` bytes the call only reads.
        assert_eq!(unsafe { sched_setaffinity(0, bytes, one.as_ptr()) }, 0);
        let narrowed = (pool_threads(), pool_launch_thread_ids());
        // SAFETY: as above, for `allowed`. Restored before any assert.
        assert_eq!(unsafe { sched_setaffinity(0, bytes, allowed.as_ptr()) }, 0);
        assert_eq!(narrowed.0, 1);
        assert!(narrowed.1.iter().all(|&id| id == caller), "one CPU: every warp on the caller");

        // The mask is read again at this launch: workers come back, and
        // with more than one of them no warp runs on the launching thread.
        assert_eq!(pool_threads(), cpus);
        let ids = pool_launch_thread_ids();
        assert_eq!(ids.len(), 64);
        assert!(ids.iter().all(|&id| id != caller), "restored mask: the warps run on workers");
    }

    #[test]
    fn set_pool_threads_overrides_the_mask_until_cleared() {
        let _rule = POOL_RULE.lock().unwrap_or_else(|e| e.into_inner());
        let masked = pool_threads();
        set_pool_threads(3);
        let (installed, ids) = (pool_threads(), pool_launch_thread_ids());
        set_pool_threads(0);
        assert_eq!(installed, 3);
        assert_eq!(ids.len(), 64);
        assert!(!ids.contains(&std::thread::current().id()), "three workers: none is the caller");
        let distinct: std::collections::HashSet<ThreadId> = ids.into_iter().collect();
        assert!(distinct.len() <= 3, "{} distinct workers", distinct.len());
        assert_eq!(pool_threads(), masked, "0 restores the mask rule");
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let n = 100_000u64;
        let sum = AtomicU64::new(0);
        launch(DeviceConfig::default(), n, |t| {
            sum.fetch_add(t.global_tid() + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    fn launch_zero_threads_is_noop() {
        launch(DeviceConfig::default(), 0, |_| panic!("should not run"));
    }

    #[test]
    fn tail_warp_is_partial() {
        let counted = AtomicU64::new(0);
        launch_warps(DeviceConfig::default(), 70, |w| {
            if w.warp_id == 2 {
                assert_eq!(w.active, 6);
            } else {
                assert_eq!(w.active, 32);
            }
            counted.fetch_add(w.active as u64, Ordering::Relaxed);
        });
        assert_eq!(counted.load(Ordering::Relaxed), 70);
    }

    #[test]
    fn sm_ids_stripe_across_device() {
        let cfg = DeviceConfig::with_sms(4);
        launch_warps(cfg, 32 * 8, |w| {
            assert_eq!(w.sm_id, (w.warp_id % 4) as u32);
        });
    }

    #[test]
    fn counted_launch_reports_schedule_steps() {
        use crate::sched::{preempt_point, PreemptPoint};
        // 2 warps, each crossing one preemption point: 2 × (1 yield +
        // 1 finishing grant) = 4 steps, identical across replays.
        let cfg = DeviceConfig::with_sms(2).seeded(11);
        let run = || {
            launch_warps_counted(cfg, 64, |_| {
                preempt_point(PreemptPoint::Rmw);
            })
        };
        assert_eq!(run(), 4);
        assert_eq!(run(), 4, "same seed replays the same schedule length");
        // Pool mode has no schedule clock.
        assert_eq!(launch_warps_counted(DeviceConfig::default(), 64, |_| {}), 0);
    }

    #[test]
    fn warps_execute_concurrently_and_contend() {
        // Not a strict concurrency proof, just exercises the parallel path
        // with enough warps to occupy the pool.
        let ctr = AtomicU64::new(0);
        launch_warps(DeviceConfig::default(), 32 * 1024, |_| {
            ctr.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ctr.load(Ordering::Relaxed), 1024);
    }
}
