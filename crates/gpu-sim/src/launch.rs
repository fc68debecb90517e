//! Kernel launches: executing N logical GPU threads as warps on a CPU
//! thread pool.
//!
//! A launch of `n` threads is split into `ceil(n / 32)` warps. Each warp
//! is executed as a unit by one pool worker (rayon's work-stealing pool),
//! which preserves the property the allocators care about: all 32 lanes of
//! a warp are visible to each other at a collective operation, while
//! different warps run genuinely concurrently and contend on atomics.
//!
//! SM residency is modeled by striping warps across `num_sms` streaming
//! multiprocessors (`sm_id = warp_id % num_sms`), which is how a real grid
//! fills a GPU in the steady state and gives Gallatin's per-SM block
//! buffers the intended access pattern.

use crate::sched::{self, FaultPlan};
use crate::trace;
use crate::warp::{LaneCtx, WarpCtx, WARP_SIZE};
use rayon::prelude::*;

/// How a launch's warps are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Warps run concurrently on the work-stealing CPU thread pool;
    /// interleavings are real races and depend on OS timing. This is
    /// the throughput mode and the default.
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
    if total_threads == 0 {
        return 0;
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
            (0..n_warps).into_par_iter().for_each(|warp_id| match &sink {
                Some(sink) => trace::with_sink(sink.clone(), || run_warp(warp_id)),
                None => run_warp(warp_id),
            });
            0
        }
        ExecMode::Deterministic { seed } => {
            sched::run_tasks_faulted(seed, n_warps, cfg.fault, run_warp)
        }
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
