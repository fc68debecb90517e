//! A deterministic launch runs on the thread that made it and on no
//! other. One test, in a file (so a process) of its own: no neighbouring
//! test starts or ends a thread while this one counts them.

use gpu_sim::sched::{preempt_point, run_tasks};
use gpu_sim::PreemptPoint;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

fn two_thousand_launches_of_four_warps() {
    let (launcher, before) = (std::thread::current().id(), os_threads());
    for seed in 0..2000 {
        let steps = run_tasks(seed, 4, |_| {
            assert_eq!(std::thread::current().id(), launcher);
            preempt_point(PreemptPoint::Rmw);
            assert_eq!(std::thread::current().id(), launcher, "resumed on another thread");
        });
        assert_eq!(steps, 8);
    }
    assert_eq!(os_threads(), before, "a launch left a thread behind");
}

#[test]
fn every_warp_runs_on_the_launching_thread_and_no_thread_is_spawned() {
    two_thousand_launches_of_four_warps();
    // A launcher that has no stacks pooled yet, and unmaps them on exit.
    std::thread::spawn(two_thousand_launches_of_four_warps).join().unwrap();
}
