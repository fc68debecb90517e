//! Deterministic launches reuse their worker threads. One test, in a
//! file (so a process) of its own: no neighbouring test shares the
//! process-wide worker set.

use gpu_sim::sched::{preempt_point, run_tasks};
use gpu_sim::PreemptPoint;
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn two_thousand_launches_of_four_warps_run_on_four_threads() {
    let threads = Mutex::new(HashSet::new());
    for seed in 0..2000 {
        let steps = run_tasks(seed, 4, |_| {
            threads.lock().unwrap().insert(std::thread::current().id());
            preempt_point(PreemptPoint::Rmw);
        });
        assert_eq!(steps, 8);
    }
    let threads = threads.into_inner().unwrap();
    assert!(threads.contains(&std::thread::current().id()), "the launcher hosts a task");
    assert!(threads.len() <= 4, "launcher + three workers, saw {} threads", threads.len());
}
