//! What running every warp of a deterministic launch as a fiber on the
//! launching thread must get right, and a naive stack switch does not:
//! thread-locals that are really warp-locals, the ABI's stack alignment,
//! unwinding and backtraces that stay inside one fiber, deep frames, and
//! an overrun that faults instead of scribbling.

use gpu_sim::sched::{preempt_point, run_tasks, spin_hint};
use gpu_sim::PreemptPoint;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

#[test]
fn every_record_carries_its_own_warps_stamp_and_scope() {
    use gpu_sim::trace::{self, TraceEvent, TraceSink, DEVICE, INSTANCE};
    use gpu_sim::{launch_warps, DeviceConfig};
    use std::sync::Arc;

    let sink = Arc::new(TraceSink::new());
    // `size` tells an emission inside a warp's own scopes from one outside.
    let emit = |ptr, scoped| trace::emit(|| TraceEvent::Free { ptr, size: scoped as u64 });
    trace::with_sink(sink.clone(), || {
        trace::with_level(DEVICE, 7, || {
            for seed in 0..16 {
                launch_warps(DeviceConfig::with_sms(3).seeded(seed), 4 * 32, |w| {
                    // A warp starts in its launcher's scope, not in that
                    // of whichever warp was switched away from.
                    emit(w.warp_id, false);
                    // Both scopes are open across both yields, so every
                    // switch leaves one warp's scope for another's.
                    trace::with_level(DEVICE, 10 + w.warp_id as u32, || {
                        trace::with_level(INSTANCE, 1 + w.warp_id as u32, || {
                            preempt_point(PreemptPoint::Rmw);
                            emit(w.warp_id, true);
                            preempt_point(PreemptPoint::Cas);
                            emit(w.warp_id, true);
                        })
                    })
                });
                // The launcher is stamped and scoped as it was, wherever
                // the run's last switch came from.
                emit(u64::MAX, false);
                assert_eq!(trace::current_level(DEVICE), 7);
                assert_eq!(trace::current_level(INSTANCE), 0);
                assert!(Arc::ptr_eq(&trace::current_sink().expect("still installed"), &sink));
            }
        })
    });
    let records = sink.snapshot();
    assert_eq!(records.len(), 16 * (4 * 3 + 1));
    for r in records {
        let TraceEvent::Free { ptr: warp, size: scoped } = r.event else { panic!("{r:?}") };
        let stamp = (r.sm, r.warp, r.device, r.instance);
        if warp == u64::MAX {
            assert_eq!(stamp, (0, 0, 7, 0), "the launcher's own emission");
        } else if scoped == 0 {
            assert_eq!(stamp, ((warp % 3) as u32, warp, 7, 0), "{r:?}");
        } else {
            assert_eq!(stamp, ((warp % 3) as u32, warp, 10 + warp as u32, 1 + warp as u32));
        }
    }
}

/// An address on the current stack.
#[inline(never)]
fn stack_address() -> usize {
    let probe = 0u8;
    black_box(&probe) as *const u8 as usize
}

#[test]
fn a_task_panics_with_others_suspended_and_the_stacks_are_reused() {
    #[repr(align(16))]
    struct Aligned([u8; 16]);

    let (suspended, finished) = (AtomicU64::new(0), AtomicU64::new(0));
    let (go, stacks) = (AtomicBool::new(false), Mutex::new(Vec::new()));
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_tasks(5, 4, |i| {
            stacks.lock().unwrap().push(stack_address());
            if i != 2 {
                suspended.fetch_add(1, Ordering::Relaxed);
                while !go.load(Ordering::Relaxed) {
                    spin_hint();
                }
                finished.fetch_add(1, Ordering::Relaxed);
                return;
            }
            while suspended.load(Ordering::Relaxed) < 3 {
                spin_hint();
            }
            // Three tasks are switched out mid-yield. A stack entered one
            // word off the ABI's alignment faults in here: formatting and
            // the panic machinery use aligned SSE stores.
            let aligned = black_box(Aligned([7; 16]));
            assert_eq!(&aligned as *const Aligned as usize % 16, 0);
            let text = format!("{:.3} {:?}", black_box(2.0f64).sqrt(), aligned.0);
            // The walk must end at the fiber's boot frame, not run off
            // the top of the stack.
            let walk = std::backtrace::Backtrace::force_capture().to_string();
            go.store(true, Ordering::Relaxed);
            panic!("task {i} of 4: {text}, walked: {}", !walk.is_empty());
        })
    }));
    let payload = died.expect_err("the task's panic reaches the launcher");
    let text = payload.downcast_ref::<String>().expect("a formatted payload");
    let sevens = format!("{:?}", [7u8; 16]);
    assert_eq!(text, &format!("task 2 of 4: 1.414 {sevens}, walked: true"));
    assert_eq!(finished.load(Ordering::Relaxed), 3, "the other tasks run to completion");

    // The next launch on this thread runs on the same four stacks.
    let first = stacks.into_inner().unwrap();
    let steps = run_tasks(6, 4, |_| {
        let here = stack_address();
        assert!(first.iter().any(|&there| here.abs_diff(there) < 16 << 10), "a fresh stack");
        preempt_point(PreemptPoint::Rmw);
    });
    assert_eq!(steps, 8);
}

/// Recurse until `want` bytes of stack lie between `base` and here, yield
/// there, and return the depth reached.
#[inline(never)]
fn dive(base: usize, want: usize) -> usize {
    let pad = black_box([0u8; 256]);
    let depth = base - stack_address();
    if depth >= want {
        preempt_point(PreemptPoint::Rmw);
        return depth + pad[0] as usize;
    }
    black_box(dive(base, want))
}

#[test]
fn half_a_stack_of_frames_completes() {
    let deepest = AtomicU64::new(0);
    let steps = run_tasks(3, 4, |_| {
        let depth = dive(stack_address(), 128 << 10);
        deepest.fetch_max(depth as u64, Ordering::Relaxed);
    });
    assert_eq!(steps, 8);
    assert!(deepest.load(Ordering::Relaxed) >= 128 << 10);
}

/// Set for the child process of the test below.
const OVERRUN_ENV: &str = "GPU_SIM_TEST_OVERRUN_A_FIBER_STACK";

#[test]
fn overrunning_a_fiber_stack_is_a_segfault_on_its_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    if std::env::var_os(OVERRUN_ENV).is_some() {
        // The child: task 1, on a pooled stack, needs more than it has.
        run_tasks(1, 2, |i| {
            if i == 1 {
                dive(stack_address(), 64 << 20);
            }
        });
        unreachable!("a 256 KiB stack held 64 MiB of frames");
    }
    let me = std::env::current_exe().expect("the test binary");
    let child = std::process::Command::new(me)
        .args(["--exact", "overrunning_a_fiber_stack_is_a_segfault_on_its_guard_page"])
        .env(OVERRUN_ENV, "1")
        .output()
        .expect("re-run the test binary");
    const SIGSEGV: i32 = 11;
    assert_eq!(child.status.signal(), Some(SIGSEGV), "{child:?}");
}
