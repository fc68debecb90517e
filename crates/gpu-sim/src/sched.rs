//! Deterministic warp scheduling: replayable interleavings for
//! concurrency testing.
//!
//! The pool mode in [`mod@crate::launch`] runs warps on a work-stealing
//! thread pool, so racy interleavings depend on OS timing and cannot be
//! reproduced. This module provides the alternative execution engine
//! behind `ExecMode::Deterministic`: all warps of a launch run under one
//! coordinator that serializes execution and context-switches only at
//! *preemption points* — each atomic RMW / CAS / lock acquisition
//! (observed at the existing [`crate::Metrics`] counting sites), each
//! warp collective, each volatile (`ldcv`) load, and each spin-wait
//! iteration. Which warp runs after each preemption point is drawn from
//! a seeded PRNG, so a launch with `DeviceConfig::deterministic(seed)`
//! replays the *exact same* interleaving for the same seed, and a seed
//! sweep ([`explore_schedules`]) turns "hope the pool races" into an
//! enumerable, one-line-reproducible search over schedules.
//!
//! # How preemption points are observed
//!
//! Instrumented call sites (in `metrics.rs`, `warp.rs`, `mem.rs`, and
//! spin loops in the allocators) call [`preempt_point`], which forwards
//! to the [`SimHooks`] installed for the current thread. Pool mode
//! installs no hooks, making the call a cheap no-op — both modes share
//! one instrumented code path. Deterministic mode installs hooks that
//! hand the warp's turn back to the coordinator.
//!
//! # Liveness contract
//!
//! Serialized execution means a warp that blocks *outside* a preemption
//! point (e.g. on a mutex held by a parked warp) deadlocks the
//! coordinator. The workspace's rule: no instrumented site may sit
//! inside a critical section, and every unbounded spin-wait loop must
//! call [`spin_hint`] (the lock-based baselines count their lock
//! acquisition *before* acquiring, and hold no lock across any hook).

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

/// Environment variable read by [`seed_override`]: when set,
/// [`explore_schedules`] collapses to exactly that one seed — the
/// reproduction workflow for a failure reported by a previous sweep.
pub const SCHED_SEED_ENV: &str = "GALLATIN_SCHED_SEED";

/// Kind of preemption point being crossed (see [`preempt_point`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreemptPoint {
    /// An atomic read-modify-write on shared metadata.
    Rmw,
    /// A compare-and-swap attempt.
    Cas,
    /// A lock acquisition (lock-based baselines).
    Lock,
    /// A warp collective (ballot / coalesced-group formation).
    Collective,
    /// A volatile load that bypasses caches (`ldcv`).
    VolatileLoad,
    /// One iteration of a spin-wait loop.
    Spin,
    /// A block-ring pop between its ticket CAS win and the cell recycle:
    /// the popped block is claimed but the popper has not yet moved on.
    /// Parking a warp here (see [`FaultPlan`]) makes it a *straggler*
    /// holding a block across whatever the other warps do — the exact
    /// hazard window of the segment-reclamation protocol.
    RingPop,
    /// A block-ring push between its ticket CAS win and the cell publish:
    /// the ticket is taken but the block is not yet observably home.
    RingPush,
}

/// Execution hooks crossed at every preemption point.
///
/// Both launch modes drive the same instrumented call sites; they differ
/// only in the hooks installed: pool mode installs none (free-running),
/// deterministic mode installs a yield to the coordinator. Tests can
/// install custom hooks (e.g. counters) via [`with_hooks`].
pub trait SimHooks: Send + Sync {
    /// Called at each preemption point crossed by the current thread.
    fn preempt(&self, point: PreemptPoint);
}

thread_local! {
    static CURRENT_HOOKS: RefCell<Option<Arc<dyn SimHooks>>> = const { RefCell::new(None) };
    static CURRENT_SEED: RefCell<Option<u64>> = const { RefCell::new(None) };
}

/// The schedule seed of the deterministic run the current thread is part
/// of, if any. Set for the duration of every task spawned by
/// [`run_tasks`]; `None` on pool-mode and host threads. Diagnostic
/// timeouts (e.g. the segment-drain bound in `gallatin-core`) include it
/// so a stall report is immediately reproducible with
/// `GALLATIN_SCHED_SEED=<seed>`.
pub fn current_sched_seed() -> Option<u64> {
    CURRENT_SEED.with(|c| *c.borrow())
}

/// Install `seed` as the current thread's schedule seed for the duration
/// of `f` (restoring the previous value afterwards, also on panic).
fn with_seed<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SEED.with(|c| *c.borrow_mut() = self.0);
        }
    }
    let prev = CURRENT_SEED.with(|c| c.borrow_mut().replace(seed));
    let _restore = Restore(prev);
    f()
}

/// Install `hooks` as the current thread's [`SimHooks`] for the duration
/// of `f` (restoring the previous hooks afterwards, also on panic).
pub fn with_hooks<R>(hooks: Arc<dyn SimHooks>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn SimHooks>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_HOOKS.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT_HOOKS.with(|c| c.borrow_mut().replace(hooks));
    let _restore = Restore(prev);
    f()
}

/// Cross a preemption point: forwards to the installed [`SimHooks`], or
/// does nothing when none are installed (pool mode's free-running path).
#[inline]
pub fn preempt_point(point: PreemptPoint) {
    CURRENT_HOOKS.with(|c| {
        // Clone out of the RefCell so re-entrant hooks cannot alias the
        // borrow; the Arc clone is the slow path (hooks installed) only.
        let hooks = c.borrow().clone();
        if let Some(h) = hooks {
            h.preempt(point);
        }
    });
}

/// Preemption point for spin-wait loops. Under the deterministic
/// scheduler a bare `std::hint::spin_loop()` would monopolize the one
/// running turn forever (the peer that must make progress is parked);
/// spin loops call this instead/in addition, which yields the turn.
#[inline]
pub fn spin_hint() {
    preempt_point(PreemptPoint::Spin);
    std::hint::spin_loop();
}

/// SplitMix64: small, seedable, and good enough mixing for schedule
/// choice. Kept private to the scheduler so the stream only advances on
/// scheduling decisions (one draw per preemption).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TurnState {
    /// Waiting for the coordinator to hand over the turn.
    Parked,
    /// Owns the turn and is executing.
    Running,
    /// Gave the turn back at a preemption point.
    Yielded,
    /// Task function returned; the thread is done.
    Finished,
}

/// One task's turn-taking gate. The coordinator and the task thread
/// hand a single logical token back and forth through `state`.
/// `last_point` records which preemption point the task yielded at, so
/// the coordinator's fault injector can recognize its trigger window.
struct Gate {
    state: Mutex<(TurnState, Option<PreemptPoint>)>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate { state: Mutex::new((TurnState::Parked, None)), cv: Condvar::new() }
    }

    /// Coordinator side: grant the turn and block until the task yields
    /// it back (or finishes). Returns `(finished, yield_point)`.
    fn grant_turn(&self) -> (bool, Option<PreemptPoint>) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(matches!(st.0, TurnState::Parked | TurnState::Yielded));
        st.0 = TurnState::Running;
        self.cv.notify_all();
        while st.0 == TurnState::Running {
            st = self.cv.wait(st).unwrap();
        }
        (st.0 == TurnState::Finished, st.1)
    }

    /// Task side: give the turn back and block until granted again.
    fn yield_turn(&self, point: PreemptPoint) {
        let mut st = self.state.lock().unwrap();
        *st = (TurnState::Yielded, Some(point));
        self.cv.notify_all();
        while st.0 != TurnState::Running {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Task side: block until the coordinator grants the first turn.
    fn await_first_turn(&self) {
        let mut st = self.state.lock().unwrap();
        while st.0 != TurnState::Running {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Task side: mark the task finished and wake the coordinator.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = TurnState::Finished;
        self.cv.notify_all();
    }
}

/// The deterministic-mode [`SimHooks`]: every preemption point yields
/// the turn back to the coordinator.
struct YieldHooks {
    gate: Arc<Gate>,
}

impl SimHooks for YieldHooks {
    fn preempt(&self, point: PreemptPoint) {
        self.gate.yield_turn(point);
    }
}

/// A targeted schedule fault for [`run_tasks_faulted`]: the `nth` time
/// any task yields at `point` (1-based, counted across all tasks), that
/// task is *parked* — withheld from scheduling — for the next
/// `park_turns` turn grants, forcing every other warp to run through the
/// window the victim is frozen in.
///
/// This is how `explore_schedules` drives the reclamation races
/// deterministically: park a warp at [`PreemptPoint::RingPop`] and it
/// becomes a straggler holding a popped block across a whole
/// reclaim + reformat cycle; park one at [`PreemptPoint::RingPush`] and
/// its block is in the not-yet-observably-home limbo the ring's
/// occupancy accounting must not count.
///
/// The injector never deadlocks the run: if the victim becomes the only
/// runnable task, it is released early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The preemption point whose crossings trigger the fault.
    pub point: PreemptPoint,
    /// Which crossing of `point` (1-based, across all tasks) parks its
    /// task.
    pub nth: u64,
    /// How many turn grants the victim sits out.
    pub park_turns: u64,
}

impl FaultPlan {
    /// Park the task making the `nth` crossing of `point` for
    /// `park_turns` turns.
    pub fn park(point: PreemptPoint, nth: u64, park_turns: u64) -> Self {
        assert!(nth >= 1, "crossings are counted from 1");
        FaultPlan { point, nth, park_turns }
    }
}

/// Run `n_tasks` tasks to completion under the deterministic
/// coordinator. `task(i)` is invoked once per task index, on its own OS
/// thread, with yield-to-coordinator hooks installed; exactly one task
/// executes at any instant, and the successor after each preemption
/// point is drawn from a PRNG seeded with `seed`.
///
/// Panics in tasks propagate: the coordinator releases every remaining
/// task (so their threads exit their scope) and re-raises the first
/// panic, which keeps `std::thread::scope` from aborting the process.
///
/// Returns the schedule length: the number of turn grants the
/// coordinator issued. This is the run's duration in *schedule steps* —
/// a deterministic function of `(seed, workload)`, one step per
/// preemption-point crossing (plus one final grant per task) — and is
/// what the serving layer uses as simulated service time.
pub fn run_tasks<F>(seed: u64, n_tasks: u64, task: F) -> u64
where
    F: Fn(u64) + Sync,
{
    run_tasks_faulted(seed, n_tasks, None, task)
}

/// [`run_tasks`] with an optional injected schedule fault: when `fault`
/// is `Some`, the task making the plan's `nth` crossing of its
/// preemption point is parked for `park_turns` turn grants (see
/// [`FaultPlan`]). Scheduling stays fully deterministic — the fault is
/// part of the schedule, so the same `(seed, fault)` pair replays the
/// identical interleaving. Returns the schedule length in turn grants
/// (see [`run_tasks`]).
pub fn run_tasks_faulted<F>(seed: u64, n_tasks: u64, fault: Option<FaultPlan>, task: F) -> u64
where
    F: Fn(u64) + Sync,
{
    if n_tasks == 0 {
        return 0;
    }
    let gates: Vec<Arc<Gate>> = (0..n_tasks).map(|_| Arc::new(Gate::new())).collect();
    let mut rng = SplitMix64::new(seed);
    let task = &task;

    std::thread::scope(|scope| {
        for (i, gate) in gates.iter().enumerate() {
            let gate = Arc::clone(gate);
            scope.spawn(move || {
                gate.await_first_turn();
                let hooks: Arc<dyn SimHooks> = Arc::new(YieldHooks { gate: Arc::clone(&gate) });
                // Catch panics so the gate still reports Finished and the
                // coordinator can unwind cleanly instead of deadlocking.
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    with_seed(seed, || with_hooks(hooks, || task(i as u64)))
                }));
                gate.finish();
                if let Err(payload) = result {
                    std::panic::resume_unwind(payload);
                }
            });
        }

        // Runnable task list; swap-remove keeps selection O(1) and the
        // evolution of this list is itself deterministic. At most one
        // task is parked by the fault injector at a time; it rejoins
        // after `park_turns` grants (or immediately if it is the only
        // unfinished task left, preserving liveness).
        let mut runnable: Vec<usize> = (0..n_tasks as usize).collect();
        let mut crossings = 0u64;
        let mut fault_armed = fault.is_some();
        let mut parked: Option<(usize, u64)> = None;
        let mut steps = 0u64;
        while !runnable.is_empty() || parked.is_some() {
            if runnable.is_empty() {
                // Only the victim is left: release it or the run hangs.
                let (idx, _) = parked.take().expect("loop invariant");
                runnable.push(idx);
            }
            let pick = (rng.next() % runnable.len() as u64) as usize;
            let idx = runnable[pick];
            let (finished, point) = gates[idx].grant_turn();
            steps += 1;
            if let Some((victim, ref mut remaining)) = parked {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    runnable.push(victim);
                    parked = None;
                }
            }
            if finished {
                runnable.swap_remove(pick);
                continue;
            }
            if fault_armed {
                let plan = fault.expect("armed implies a plan");
                if point == Some(plan.point) {
                    crossings += 1;
                    if crossings == plan.nth && plan.park_turns > 0 {
                        fault_armed = false;
                        runnable.swap_remove(pick);
                        parked = Some((idx, plan.park_turns));
                    }
                }
            }
        }
        steps
    })
}

/// Outcome of an [`explore_schedules`] sweep that found a failure.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// The first seed whose schedule failed.
    pub seed: u64,
    /// The panic message of the failing run.
    pub message: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule with seed {} failed (reproduce with {}={}; capture a trace of the \
             failing schedule with {}={} repro trace): {}",
            self.seed, SCHED_SEED_ENV, self.seed, SCHED_SEED_ENV, self.seed, self.message
        )
    }
}

/// The seed [`SCHED_SEED_ENV`] pins, if set: the workspace's one read of
/// the variable, so every replay surface (schedule sweeps and the
/// `repro` experiments) accepts and rejects the same spellings. Panics
/// on anything but a `u64` — a typo must not silently run the default.
pub fn seed_override() -> Option<u64> {
    parse_seed(std::env::var(SCHED_SEED_ENV).ok().as_deref())
}

fn parse_seed(raw: Option<&str>) -> Option<u64> {
    let s = raw?;
    Some(s.trim().parse().unwrap_or_else(|_| panic!("{SCHED_SEED_ENV} must be a u64, got {s:?}")))
}

/// Sweep deterministic schedules: run `scenario(seed)` for every seed,
/// stopping at and reporting the first failing seed. `scenario` is
/// expected to build fresh state and launch with
/// `DeviceConfig::deterministic(seed)` (or otherwise key its schedule on
/// the seed) so each iteration explores a different interleaving.
///
/// If the [`SCHED_SEED_ENV`] environment variable is set, only that seed
/// runs — the one-line reproduction workflow:
///
/// ```text
/// GALLATIN_SCHED_SEED=42 cargo test -p gallatin reclaim
/// ```
///
/// Returns the number of seeds that ran clean, or the first failure.
pub fn explore_schedules<I, F>(seeds: I, scenario: F) -> Result<u64, ScheduleFailure>
where
    I: IntoIterator<Item = u64>,
    F: Fn(u64),
{
    let seeds: Vec<u64> = match seed_override() {
        Some(s) => vec![s],
        None => seeds.into_iter().collect(),
    };
    let mut ran = 0u64;
    for seed in seeds {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| scenario(seed)));
        match outcome {
            Ok(()) => ran += 1,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                return Err(ScheduleFailure { seed, message });
            }
        }
    }
    Ok(ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_tasks_run_to_completion() {
        let hits = AtomicU64::new(0);
        run_tasks(1, 8, |i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
            preempt_point(PreemptPoint::Rmw);
            hits.fetch_add(1 << (i + 8), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0xFFFF);
    }

    #[test]
    fn same_seed_same_interleaving() {
        // Record the observable order of critical-section entries; two
        // runs with one seed must match exactly, a different seed is
        // allowed (and with 16 tasks, essentially certain) to differ.
        fn trace(seed: u64) -> Vec<u64> {
            let order = Mutex::new(Vec::new());
            run_tasks(seed, 16, |i| {
                for step in 0..4u64 {
                    order.lock().unwrap().push(i * 10 + step);
                    preempt_point(PreemptPoint::Cas);
                }
            });
            order.into_inner().unwrap()
        }
        let a = trace(7);
        let b = trace(7);
        let c = trace(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds should explore different schedules");
    }

    #[test]
    fn serialized_execution_has_no_overlap() {
        // With deterministic scheduling exactly one task runs at a time:
        // a non-atomic read-modify-write on a shared cell, with a yield
        // in the middle, must still never lose an update *between*
        // preemption points (the turn is exclusive).
        let cell = Mutex::new(0u64);
        run_tasks(3, 8, |_| {
            for _ in 0..10 {
                let v = *cell.lock().unwrap();
                // No preemption between read and write: the turn covers
                // this whole section.
                *cell.lock().unwrap() = v + 1;
                preempt_point(PreemptPoint::Rmw);
            }
        });
        assert_eq!(*cell.lock().unwrap(), 80);
    }

    #[test]
    fn spin_hint_yields_instead_of_monopolizing() {
        // Task 0 spins until task 1 stores a flag; without the yield in
        // spin_hint this would deadlock the coordinator.
        let flag = AtomicU64::new(0);
        run_tasks(11, 2, |i| {
            if i == 0 {
                while flag.load(Ordering::Acquire) == 0 {
                    spin_hint();
                }
            } else {
                flag.store(1, Ordering::Release);
            }
        });
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn schedule_length_counts_turn_grants_deterministically() {
        // Each task yields 3 times then finishes on its 4th grant, so
        // the schedule length is exact — and replays per seed.
        let body = |_i: u64| {
            for _ in 0..3 {
                preempt_point(PreemptPoint::Rmw);
            }
        };
        let steps = run_tasks(9, 4, body);
        assert_eq!(steps, 4 * (3 + 1));
        assert_eq!(run_tasks(9, 4, body), steps, "same seed, same schedule length");
        assert_eq!(run_tasks(0, 0, body), 0, "empty launch takes no steps");
    }

    #[test]
    fn task_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_tasks(5, 4, |i| {
                preempt_point(PreemptPoint::Rmw);
                assert!(i != 2, "task 2 fails");
            });
        });
        assert!(result.is_err(), "panic in a task must propagate to the launch");
    }

    #[test]
    fn explore_reports_first_failing_seed() {
        let result = explore_schedules(0..100, |seed| {
            assert!(seed < 42, "boom at {seed}");
        });
        let failure = result.unwrap_err();
        assert_eq!(failure.seed, 42);
        assert!(failure.message.contains("boom at 42"));
        assert!(failure.to_string().contains("GALLATIN_SCHED_SEED=42"));

        assert_eq!(explore_schedules(0..10, |_| {}).unwrap(), 10);
    }

    #[test]
    fn seed_override_parser_accepts_u64_and_names_the_variable_on_garbage() {
        assert_eq!(parse_seed(None), None);
        assert_eq!(parse_seed(Some(" 42 ")), Some(42));
        let err = std::panic::catch_unwind(|| parse_seed(Some("banana"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("GALLATIN_SCHED_SEED must be a u64"), "{msg}");
        assert!(msg.contains("banana"), "{msg}");
    }

    #[test]
    fn custom_hooks_observe_preemption_points() {
        struct Counter(AtomicU64);
        impl SimHooks for Counter {
            fn preempt(&self, _p: PreemptPoint) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hooks = Arc::new(Counter(AtomicU64::new(0)));
        with_hooks(hooks.clone(), || {
            preempt_point(PreemptPoint::Rmw);
            preempt_point(PreemptPoint::Collective);
        });
        // Outside with_hooks the call is a no-op again.
        preempt_point(PreemptPoint::Rmw);
        assert_eq!(hooks.0.load(Ordering::Relaxed), 2);
    }
}
