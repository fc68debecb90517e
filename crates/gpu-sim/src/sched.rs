//! Deterministic warp scheduling: replayable interleavings for
//! concurrency testing.
//!
//! The pool mode in [`mod@crate::launch`] runs warps on free-running
//! worker threads, so racy interleavings depend on OS timing and cannot be
//! reproduced. This module provides the alternative execution engine
//! behind `ExecMode::Deterministic`: the warps of a launch pass one
//! *baton* among themselves, so exactly one executes at any instant, and
//! the baton changes hands only at *preemption points* — each atomic
//! RMW / CAS / lock acquisition (observed at the existing
//! [`crate::Metrics`] counting sites), each warp collective, each
//! volatile (`ldcv`) load, and each spin-wait iteration. Which warp runs
//! after each preemption point is drawn from a seeded PRNG, so a launch
//! with `DeviceConfig::deterministic(seed)` replays the *exact same*
//! interleaving for the same seed, and a seed sweep
//! ([`explore_schedules`]) turns "hope the pool races" into an
//! enumerable, one-line-reproducible search over schedules.
//!
//! # How preemption points are observed
//!
//! Instrumented call sites (in `metrics.rs`, `warp.rs`, `mem.rs`, and
//! spin loops in the allocators) call [`preempt_point`], which ends the
//! warp's turn in the deterministic run the current thread is hosting.
//! Pool mode hosts none, making the call one thread-local pointer test —
//! both modes share one instrumented code path.
//!
//! # The engine: one baton, one thread, a stack per warp
//!
//! Everything that decides a schedule — the PRNG, the runnable list, the
//! fault injector's bookkeeping, the step counter — lives in one
//! `Chooser`, owned by whoever holds the baton. A warp whose turn ends
//! (it yielded or finished) accounts the step and draws its successor
//! itself. If it drew itself it keeps running; otherwise it switches
//! *stacks*, not threads. Every warp of a launch is a fiber
//! (`crate::fiber`) on the launching thread: warp 0 on that thread's own
//! stack, the others on 256 KiB stacks (resident only where touched;
//! overrunning one is a SIGSEGV on its guard page, without std's
//! stack-overflow message) from a per-thread pool that only grows. A
//! hand-off moves six registers, a stack pointer and the warp-locals
//! (`trace::WarpLocals`): tens of nanoseconds, pinned or not. A one-warp
//! launch touches no stack but its own; nested launches (the inner run
//! lives on the outer warp's stack) and concurrent launchers (one run per
//! OS thread) work because a run never leaves its thread.
//!
//! # Liveness contract
//!
//! The baton moves only at preemption points and the warps of a launch
//! share one OS thread, so a warp that blocks *outside* one blocks the
//! thread, and with it every warp that could unblock it: waiting for a
//! `std::sync::Mutex` another warp holds across a yield is a
//! self-deadlock, not a wait. The workspace's rule: no instrumented site
//! may sit inside a critical section, and every unbounded spin-wait loop
//! must call [`spin_hint`] (the lock-based baselines count their lock
//! acquisition *before* acquiring, and hold no lock across any hook).

use crate::fiber::Fiber;
use crate::trace::{self, WarpLocals};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

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

impl PreemptPoint {
    /// Every kind, in [`StepProfile`] slot order.
    pub const ALL: [PreemptPoint; 7] = {
        use PreemptPoint::*;
        [Rmw, Cas, Lock, VolatileLoad, Spin, RingPop, RingPush]
    };
}

/// A run's turns by what ended them: slot `kind as usize` counts yields at
/// that [`PreemptPoint`], the last slot ([`FINISH`]) tasks finishing. The
/// slots sum to the run's step count.
pub type StepProfile = [u64; PreemptPoint::ALL.len() + 1];

/// The [`StepProfile`] slot of a task's finishing turn.
pub const FINISH: usize = PreemptPoint::ALL.len();

thread_local! {
    /// The deterministic run this thread is hosting; null = free-running.
    /// A `const` thread-local with no destructor is a plain TLS load (no
    /// lazy registration), which is all a free-running [`preempt_point`]
    /// costs.
    static CURRENT_RUN: Cell<*const Run> = const { Cell::new(std::ptr::null()) };
}

/// The schedule seed of the deterministic run the current thread is
/// hosting, if any. Set for the duration of [`run_tasks`]; `None` on
/// pool-mode and host threads. Diagnostic
/// timeouts (e.g. the segment-drain bound in `gallatin-core`) include it
/// so a stall report is immediately reproducible with
/// `GALLATIN_SCHED_SEED=<seed>`.
pub fn current_sched_seed() -> Option<u64> {
    let run = CURRENT_RUN.get();
    // SAFETY: as in `preempt_point`, a non-null pointer is the run this
    // thread hosts, borrowed for as long as it is installed.
    (!run.is_null()).then(|| unsafe { (*run).seed })
}

/// Install `run` as the run the current thread hosts for the duration
/// of `f` (restoring the previous one afterwards, also on panic).
fn with_run<R>(run: &Run, f: impl FnOnce() -> R) -> R {
    struct Restore(*const Run);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_RUN.set(self.0);
        }
    }
    let _restore = Restore(CURRENT_RUN.replace(run));
    f()
}

/// Cross a preemption point: ends the current warp's turn in the run this
/// thread hosts, or does nothing when it hosts none (pool mode's
/// free-running path).
#[inline]
pub fn preempt_point(point: PreemptPoint) {
    let run = CURRENT_RUN.get();
    if !run.is_null() {
        // SAFETY: `with_run` sets the pointer only while it borrows the
        // `Run`, on the thread that owns it, and restores it before the
        // borrow ends.
        unsafe { (*run).pass_baton(Some(point)) };
    }
}

/// Preemption point for spin-wait loops. Under the deterministic
/// scheduler a bare `std::hint::spin_loop()` would monopolize the one
/// running turn forever (the peer that must make progress is switched
/// out); spin loops call this instead/in addition, which yields the turn.
#[inline]
pub fn spin_hint() {
    preempt_point(PreemptPoint::Spin);
    std::hint::spin_loop();
}

/// SplitMix64, the workspace's one seedable stream (schedules, workload
/// generators, property tests). Each instance is its own stream: the
/// scheduler's advances only on scheduling decisions (one per preemption).
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Advance the stream one step and return its next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` by multiply-shift (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform draw from `[0, 1)` with 53 random mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run the property `name` on `n` cases: case `i` draws from the stream
/// seeded with FNV-1a(`name`) + `i`, so re-running a test replays it. A
/// failing case panics naming the property, the case and its seed.
pub fn cases(name: &str, n: u64, mut case: impl FnMut(&mut SplitMix64)) {
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv);
    for i in 0..n {
        let seed = base.wrapping_add(i);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut SplitMix64::new(seed)))) {
            let message = panic_message(&*payload);
            panic!("property {name} failed on case {i} of {n} (seed {seed}): {message}");
        }
    }
}

/// The text of a panic payload: its `&str` or `String`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
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

/// Everything that decides a run's schedule, owned by whoever holds the
/// baton: the PRNG, the runnable list and the running task's position in
/// it, the fault injector's state, the step counter. The draw sequence
/// is a pure function of `(seed, fault)` and of what the tasks report to
/// [`Chooser::turn_over`].
struct Chooser {
    rng: SplitMix64,
    /// Swap-remove keeps selection O(1), and the evolution of this list
    /// is itself deterministic.
    runnable: Vec<usize>,
    pick: usize,
    /// The fault still to fire; `None` once it has (or was never set).
    fault: Option<FaultPlan>,
    crossings: u64,
    /// The task the fault parked and the turns it still sits out. It
    /// rejoins `runnable` after `park_turns` turns, or at once if it is
    /// the only unfinished task left, which preserves liveness.
    parked: Option<(usize, u64)>,
    steps: u64,
    profile: StepProfile,
}

impl Chooser {
    fn new(seed: u64, n_tasks: usize, fault: Option<FaultPlan>) -> Self {
        let (rng, runnable) = (SplitMix64::new(seed), (0..n_tasks).collect());
        let (steps, profile) = (0, StepProfile::default());
        Chooser { rng, runnable, pick: 0, fault, crossings: 0, parked: None, steps, profile }
    }

    /// Draw the task that runs next: one PRNG draw per turn, also when
    /// only one task can run. `None` when every task has finished.
    fn draw(&mut self) -> Option<usize> {
        if self.runnable.is_empty() {
            // Only the victim is left: release it or the run hangs.
            let (victim, _) = self.parked.take()?;
            self.runnable.push(victim);
        }
        self.pick = (self.rng.next_u64() % self.runnable.len() as u64) as usize;
        Some(self.runnable[self.pick])
    }

    /// The running task's turn is over: it yielded at `yielded_at`, or
    /// finished (`None`). Accounts the step, advances the fault injector
    /// and draws the next task to run — possibly the same one again.
    fn turn_over(&mut self, yielded_at: Option<PreemptPoint>) -> Option<usize> {
        self.steps += 1;
        self.profile[yielded_at.map_or(FINISH, |point| point as usize)] += 1;
        if let Some((victim, remaining)) = &mut self.parked {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                self.runnable.push(*victim);
                self.parked = None;
            }
        }
        if yielded_at.is_none() {
            self.runnable.swap_remove(self.pick);
        } else if let Some(plan) = self.fault.filter(|plan| Some(plan.point) == yielded_at) {
            self.crossings += 1;
            if self.crossings == plan.nth && plan.park_turns > 0 {
                self.fault = None;
                self.parked = Some((self.runnable.swap_remove(self.pick), plan.park_turns));
            }
        }
        self.draw()
    }
}

/// One run's state: on the launcher's frame, in [`run_tasks_faulted`],
/// for exactly the run's duration, and touched by no other thread.
struct Run {
    /// The seed the chooser was drawn from, for diagnostics.
    seed: u64,
    chooser: RefCell<Chooser>,
    /// The task that holds the baton: the one executing.
    current: Cell<usize>,
    /// Each task's stack and where it is switched out: the launcher's own
    /// for task 0, a pooled one for the others.
    fibers: Vec<Fiber>,
    first_panic: RefCell<Option<Box<dyn Any + Send>>>,
}

impl Run {
    /// Run the current task's body on the current stack, then pass the
    /// baton on for good. A panicking task counts as finished, so the
    /// rest of the run completes. Returns only on the launcher's stack,
    /// once the run is over.
    fn host(&self, body: &dyn Fn(u64)) {
        let index = self.current.get() as u64;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index))) {
            self.first_panic.borrow_mut().get_or_insert(payload);
        }
        self.pass_baton(None);
    }

    /// The current task ends its turn: draw the successor and switch to
    /// it — to the launcher, where every run ends, if the run is over.
    fn pass_baton(&self, yielded_at: Option<PreemptPoint>) {
        let next = self.chooser.borrow_mut().turn_over(yielded_at);
        self.switch_to(next.unwrap_or(0));
    }

    /// Hand the baton to task `next`; returns when it comes back. Drawing
    /// oneself costs nothing.
    fn switch_to(&self, next: usize) {
        let me = self.current.replace(next);
        if next != me {
            // Warp-locals travel with the stack, beside the registers.
            let locals = trace::warp_locals();
            // SAFETY: this runs on task `me`'s stack (`current` said so).
            // `next` is not running — only `me` is — and was booted before
            // the run's first switch or switched out right here; it has
            // not finished, because the chooser draws no finished task and
            // the launcher's stack, once task 0 is done, is resumed only
            // to end the run. What it goes on to touch is this `Run` and
            // the task body, which outlive the run.
            unsafe { self.fibers[me].switch(&self.fibers[next]) };
            trace::set_warp_locals(locals);
        }
    }
}

/// What a pooled fiber boots with: its run, the run's task body and the
/// launcher's warp-locals, which every task starts from.
struct Launch<'a>(&'a Run, &'a dyn Fn(u64), WarpLocals);

/// A pooled fiber's whole life: host the task it was first switched to as.
///
/// # Safety
/// `launch` must point to a [`Launch`] that outlives the fiber's run.
unsafe extern "C" fn fiber_main(launch: *mut u8) {
    // SAFETY: `run_tasks_faulted` boots fibers with a pointer to its
    // `Launch`, which it keeps until no fiber will run again.
    let Launch(run, body, locals) = unsafe { &*launch.cast::<Launch>() };
    trace::set_warp_locals(*locals);
    // Catches the task's panic, and does not return: its last hand-off
    // is final, because a finished fiber is never resumed.
    run.host(body);
}

/// Run `n_tasks` tasks to completion under the deterministic scheduler.
/// `task(i)` is invoked once per task index, all on the calling thread —
/// task 0 on its own stack, the others as fibers on pooled stacks — with
/// the run installed as the thread's own; exactly one task executes at any
/// instant, and the successor after each preemption point is drawn from
/// a PRNG seeded with `seed`.
///
/// Panics in tasks propagate: a panicking task counts as finished, the
/// remaining tasks run to completion, and the first panic (in schedule
/// order) is then re-raised, payload intact, on the calling thread.
///
/// Returns the schedule length: the number of turns the run took. This
/// is the run's duration in *schedule steps* — a deterministic function
/// of `(seed, workload)`, one step per preemption-point crossing (plus
/// one per task, for its finish) — and is what the serving layer uses as
/// simulated service time.
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
/// identical interleaving. Returns the schedule length in turns (see
/// [`run_tasks`]).
pub fn run_tasks_faulted<F>(seed: u64, n_tasks: u64, fault: Option<FaultPlan>, task: F) -> u64
where
    F: Fn(u64) + Sync,
{
    run_profiled(seed, n_tasks, fault, task).0
}

/// [`run_tasks_faulted`] that also returns the run's [`StepProfile`].
pub(crate) fn run_profiled<F>(
    seed: u64,
    n_tasks: u64,
    fault: Option<FaultPlan>,
    task: F,
) -> (u64, StepProfile)
where
    F: Fn(u64) + Sync,
{
    if n_tasks == 0 {
        return (0, StepProfile::default());
    }
    let n = n_tasks as usize;
    let mut chooser = Chooser::new(seed, n, fault);
    let first = chooser.draw().expect("a non-empty run has a first task");
    let run = Run {
        seed,
        chooser: RefCell::new(chooser),
        current: Cell::new(0),
        fibers: (0..n).map(|i| Fiber::new(i > 0)).collect(),
        first_panic: RefCell::new(None),
    };
    let launch = Launch(&run, &task, trace::warp_locals());
    for fiber in &run.fibers[1..] {
        fiber.boot(fiber_main, std::ptr::from_ref(&launch).cast_mut().cast());
    }
    with_run(&run, || {
        // Back here when task 0 is first drawn, and `host` returns when
        // the run is over: every fiber is switched out for good, so
        // dropping `run` may hand their stacks to the next launch.
        run.switch_to(first);
        run.host(&task);
    });
    if let Some(payload) = run.first_panic.take() {
        resume_unwind(payload);
    }
    let Chooser { steps, profile, .. } = run.chooser.into_inner();
    (steps, profile)
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
             failing schedule with {}={} repro replay): {}",
            self.seed, SCHED_SEED_ENV, self.seed, SCHED_SEED_ENV, self.seed, self.message
        )
    }
}

/// The seed [`SCHED_SEED_ENV`] pins, if set: the workspace's one read of
/// the variable, so every replay surface (schedule sweeps and the
/// `repro` experiments) accepts and rejects the same spellings. Panics
/// on anything but a `u64` — a typo must not silently run the default.
pub fn seed_override() -> Option<u64> {
    parse_u64(SCHED_SEED_ENV, std::env::var(SCHED_SEED_ENV).ok().as_deref())
}

/// A test sweep's seed count: the `u64` in `var` if set, else `default`.
/// Parsed and rejected exactly as [`seed_override`] is.
pub fn seed_count(var: &str, default: u64) -> u64 {
    parse_u64(var, std::env::var(var).ok().as_deref()).unwrap_or(default)
}

fn parse_u64(var: &str, raw: Option<&str>) -> Option<u64> {
    let s = raw?;
    Some(s.trim().parse().unwrap_or_else(|_| panic!("{var} must be a u64, got {s:?}")))
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
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| scenario(seed))) {
            return Err(ScheduleFailure { seed, message: panic_message(&*payload) });
        }
        ran += 1;
    }
    Ok(ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

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
    fn one_seed_gives_one_stream() {
        let (mut a, mut b) = (SplitMix64::new(42), SplitMix64::new(42));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert_eq!(rng.below(1), 0);
            assert!(rng.below(10) < 10);
            assert!(rng.below(u64::MAX) < u64::MAX);
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
    }

    /// Case `i` runs on FNV-1a(name) + `i`: the third case of `doomed`
    /// fails, and the message carries what replays it.
    #[test]
    #[should_panic(
        expected = "property doomed failed on case 2 of 4 (seed 12021885832621497847): \
                    forced at 2"
    )]
    fn a_failing_case_names_property_case_and_seed() {
        let mut i = 0;
        cases("doomed", 4, |_| {
            assert!(i < 2, "forced at {i}");
            i += 1;
        });
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
        // spin_hint task 0 would keep the baton forever.
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

    /// Every turn lands in exactly one slot: the kind it yielded at, or
    /// the finish — parked turns and a task's own re-draws included.
    #[test]
    fn the_step_profile_sums_to_the_step_count() {
        let body = |i: u64| {
            for point in PreemptPoint::ALL.into_iter().skip(i as usize % 3) {
                preempt_point(point);
            }
            (0..i).for_each(|_| spin_hint());
        };
        let fault = Some(FaultPlan::park(PreemptPoint::Cas, 2, 5));
        let (steps, profile) = run_profiled(5, 4, fault, body);
        assert_eq!(profile, [2, 3, 4, 4, 4 + 6, 4, 4, 4]);
        assert_eq!(profile.iter().sum::<u64>(), steps);
        assert_eq!(steps, run_tasks_faulted(5, 4, fault, body), "profiling changes no turn");
    }

    #[test]
    fn task_panic_propagates() {
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(5, 4, |i| {
                preempt_point(PreemptPoint::Rmw);
                assert!(i != 2, "task 2 fails");
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic in a task must propagate to the launch");
        assert_eq!(finished.load(Ordering::Relaxed), 3, "the other tasks run to completion");
    }

    #[test]
    fn explore_reports_task_panic_message() {
        // The failing seed's report carries the task's own assertion
        // text, whichever stack (the launcher's or a pooled one) it ran on.
        for failing in 0..4u64 {
            let failure = explore_schedules(0..4, |seed| {
                run_tasks(seed, 4, |i| {
                    preempt_point(PreemptPoint::Rmw);
                    assert!(i != failing, "task {i} fails");
                });
            })
            .unwrap_err();
            assert_eq!(failure.seed, 0);
            assert_eq!(failure.message, format!("task {failing} fails"));
            assert!(failure.to_string().contains("GALLATIN_SCHED_SEED=0"));
        }
    }

    /// The coordinator loop this engine replaced, kept as the reference
    /// `Chooser` is checked against. Granting a turn is reading the
    /// task's next scripted action: a yield point, or `None` = it
    /// finishes. Returns the pick sequence and the step count.
    fn coordinator_reference(
        seed: u64,
        scripts: &[Vec<PreemptPoint>],
        fault: Option<FaultPlan>,
    ) -> (Vec<usize>, u64) {
        let mut cursor = vec![0usize; scripts.len()];
        let mut picks = Vec::new();
        let mut rng = SplitMix64::new(seed);
        let mut runnable: Vec<usize> = (0..scripts.len()).collect();
        let mut crossings = 0u64;
        let mut fault_armed = fault.is_some();
        let mut parked: Option<(usize, u64)> = None;
        let mut steps = 0u64;
        while !runnable.is_empty() || parked.is_some() {
            if runnable.is_empty() {
                let (idx, _) = parked.take().expect("loop invariant");
                runnable.push(idx);
            }
            let pick = (rng.next_u64() % runnable.len() as u64) as usize;
            let idx = runnable[pick];
            picks.push(idx);
            let point = scripts[idx].get(cursor[idx]).copied();
            cursor[idx] += 1;
            steps += 1;
            if let Some((victim, ref mut remaining)) = parked {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    runnable.push(victim);
                    parked = None;
                }
            }
            if point.is_none() {
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
        (picks, steps)
    }

    #[test]
    fn chooser_replays_the_coordinator_loop_on_random_scripts() {
        const POINTS: [PreemptPoint; 4] =
            [PreemptPoint::Rmw, PreemptPoint::Cas, PreemptPoint::Spin, PreemptPoint::RingPop];
        let mut gen = SplitMix64::new(0xC0FFEE);
        let mut below = |n: u64| gen.next_u64() % n;
        let (mut faults_fired, mut early_releases) = (0, 0);
        for case in 0..1000u64 {
            let scripts: Vec<Vec<PreemptPoint>> = (0..below(7))
                .map(|_| (0..below(6)).map(|_| POINTS[below(4) as usize]).collect())
                .collect();
            // Every other case injects a fault; `park_turns` 0 (a plan
            // that never fires) and parks longer than the run included.
            let fault = (case % 2 == 1)
                .then(|| FaultPlan::park(POINTS[below(4) as usize], 1 + below(8), below(40)));

            let mut cursor = vec![0usize; scripts.len()];
            let mut picks = Vec::new();
            let mut chooser = Chooser::new(case, scripts.len(), fault);
            let mut next = chooser.draw();
            while let Some(idx) = next {
                picks.push(idx);
                let point = scripts[idx].get(cursor[idx]).copied();
                cursor[idx] += 1;
                let (parked, armed) = (chooser.parked, chooser.fault.is_some());
                next = chooser.turn_over(point);
                let fired = armed && chooser.fault.is_none();
                let owed_turns = fired || parked.is_some_and(|(_, turns)| turns > 1);
                faults_fired += u64::from(fired);
                early_releases += u64::from(owed_turns && chooser.parked.is_none());
            }
            let reference = coordinator_reference(case, &scripts, fault);
            assert_eq!((picks, chooser.steps), reference, "case {case}: {scripts:?} {fault:?}");
            assert_eq!(reference.1, scripts.iter().map(|s| s.len() as u64 + 1).sum::<u64>());
        }
        assert!(faults_fired > 100 && early_releases > 20, "{faults_fired} {early_releases}");
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
        assert_eq!(parse_u64(SCHED_SEED_ENV, None), None);
        assert_eq!(parse_u64(SCHED_SEED_ENV, Some(" 42 ")), Some(42));
        let err =
            std::panic::catch_unwind(|| parse_u64(SCHED_SEED_ENV, Some("banana"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("GALLATIN_SCHED_SEED must be a u64"), "{msg}");
        assert!(msg.contains("banana"), "{msg}");
    }
}
