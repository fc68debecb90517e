//! The deterministic engine seen from outside: schedules pinned as
//! literals captured from the coordinator-based engine two engines ago
//! (one OS thread per task, two `Condvar` hand-offs per step), plus the
//! shapes of use the per-thread stack pool must survive — nested and
//! concurrent launches.

use gpu_sim::sched::{preempt_point, run_tasks, run_tasks_faulted, spin_hint};
use gpu_sim::{FaultPlan, PreemptPoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `n` tasks, each recording `task * 10 + k` before its `k`-th of
/// `yields` CAS yields: the recorded order is the interleaving.
fn interleaving(seed: u64, n: u64, yields: u64, fault: Option<FaultPlan>) -> (Vec<u64>, u64) {
    let order = Mutex::new(Vec::new());
    let steps = run_tasks_faulted(seed, n, fault, |i| {
        for k in 0..yields {
            order.lock().unwrap().push(i * 10 + k);
            preempt_point(PreemptPoint::Cas);
        }
    });
    (order.into_inner().unwrap(), steps)
}

/// Task 0 spins until the other tasks (task `i` yields `i` times) are
/// done, so the step count depends on the schedule, not just the shape.
fn spin_steps(seed: u64, n: u64) -> u64 {
    let done = AtomicU64::new(0);
    run_tasks(seed, n, |i| {
        if i == 0 {
            while done.load(Ordering::Acquire) < n - 1 {
                spin_hint();
            }
        } else {
            for _ in 0..i {
                preempt_point(PreemptPoint::Rmw);
            }
            done.fetch_add(1, Ordering::Release);
        }
    })
}

/// `spin_steps(100 + k, 4)` for `k` in `0..8`.
const SPIN_GOLDEN: [u64; 8] = [24, 12, 20, 14, 11, 12, 12, 19];

#[test]
fn schedules_match_the_literals_captured_from_the_coordinator_engine() {
    let (order, steps) = interleaving(7, 16, 4, None);
    #[rustfmt::skip]
    assert_eq!(order, [
        70, 120, 20, 110, 100, 10, 60, 140, 11, 90, 111, 121, 141, 0, 61, 80,
        150, 71, 50, 81, 151, 130, 131, 152, 1, 91, 101, 153, 72, 132, 82, 122,
        83, 21, 12, 112, 2, 51, 73, 113, 13, 92, 3, 123, 22, 62, 40, 63,
        23, 30, 102, 133, 103, 41, 142, 93, 143, 31, 52, 53, 42, 32, 43, 33,
    ]);
    assert_eq!(steps, 80);

    // The third CAS crossing parks its task (task 2, after `20`) for
    // five turns; unfaulted, the same seed runs 30 0 20 31 21 10 …
    let plan = FaultPlan::park(PreemptPoint::Cas, 3, 5);
    let (order, steps) = interleaving(7, 4, 4, Some(plan));
    assert_eq!(order, [30, 0, 20, 1, 10, 2, 11, 3, 12, 13, 21, 22, 23, 31, 32, 33]);
    assert_eq!(steps, 20);

    // Early release: task 0 is parked at its second crossing for far
    // longer than the run lasts, becomes the last unfinished task, and
    // is let go instead of hanging the run.
    let plan = FaultPlan::park(PreemptPoint::Cas, 2, 1000);
    let (order, steps) = interleaving(7, 3, 3, Some(plan));
    assert_eq!(order, [0, 1, 20, 10, 21, 11, 22, 12, 2]);
    assert_eq!(steps, 12);

    for (k, golden) in SPIN_GOLDEN.into_iter().enumerate() {
        assert_eq!(spin_steps(100 + k as u64, 4), golden, "spin scenario, seed {}", 100 + k);
    }
}

#[test]
fn a_launch_inside_a_task_completes() {
    // The inner launcher is an outer task's stack, and the outer run's
    // stacks are checked out: the nested checkout must grow the pool.
    let inner_steps = Mutex::new(Vec::new());
    let outer = run_tasks(3, 4, |i| {
        preempt_point(PreemptPoint::Rmw);
        let steps = run_tasks(10 + i, 4, |_| preempt_point(PreemptPoint::Cas));
        inner_steps.lock().unwrap().push(steps);
        // The outer baton still works after the inner run.
        preempt_point(PreemptPoint::Rmw);
    });
    assert_eq!(outer, 4 * 3);
    assert_eq!(inner_steps.into_inner().unwrap(), [8; 4]);
}

#[test]
fn concurrent_launches_each_replay_their_own_schedule() {
    // What `cargo test`'s parallel test threads do all day: launches
    // from several host threads at once, each a run on its own thread.
    std::thread::scope(|s| {
        for (k, golden) in SPIN_GOLDEN.into_iter().enumerate() {
            s.spawn(move || {
                for round in 0..200 {
                    assert_eq!(spin_steps(100 + k as u64, 4), golden, "thread {k}, round {round}");
                }
            });
        }
    });
}
