//! Allocation-lifecycle tracing, end to end against the real allocator:
//! determinism under a fixed schedule seed, event coverage, ledger
//! pairing, and the leak-at-teardown negative test (ISSUE 4 acceptance
//! criteria).

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::ledger::Ledger;
use gpu_sim::trace::{self, TraceEvent, TraceSink};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::Arc;

const HEAP: u64 = 1 << 20;
const WARPS: u64 = 8;
const ROUNDS: usize = 3;

/// Seeded churn workload: every warp mallocs a mixed-size batch, stamps
/// and verifies it, then frees it, for a few rounds, under the
/// deterministic scheduler.
fn churn(g: &Gallatin, seed: u64) {
    launch_warps(DeviceConfig::with_sms(4).seeded(seed), WARPS * 32, |warp| {
        let n = warp.active as usize;
        let sizes: Vec<Option<u64>> =
            (0..n).map(|l| Some(16u64 << ((warp.base_tid as usize + l) % 4))).collect();
        let mut out = vec![DevicePtr::NULL; n];
        for _ in 0..ROUNDS {
            g.warp_malloc(warp, &sizes, &mut out);
            for p in &out {
                assert!(!p.is_null(), "tiny churn heap must not exhaust");
            }
            g.warp_free(warp, &out);
        }
    });
}

/// Run the churn workload under a fresh allocator and sink; return the
/// Chrome-trace export of the captured records.
fn run_traced(seed: u64) -> String {
    let g = Gallatin::new(GallatinConfig::small_test(HEAP));
    let sink = Arc::new(TraceSink::new());
    trace::with_sink(sink.clone(), || churn(&g, seed));
    assert_eq!(sink.dropped(), 0, "capacity must cover the whole workload");
    trace::chrome_trace_json(&sink.snapshot())
}

#[test]
fn same_seed_produces_byte_identical_trace() {
    let a = run_traced(7);
    let b = run_traced(7);
    assert_eq!(a, b, "fixed GALLATIN_SCHED_SEED must replay to an identical trace");
    let c = run_traced(8);
    assert_ne!(a, c, "different seeds must explore different interleavings");
}

#[test]
fn trace_covers_the_allocator_event_vocabulary_and_balances() {
    let g = Gallatin::new(GallatinConfig::small_test(HEAP));
    let sink = Arc::new(TraceSink::new());
    trace::with_sink(sink.clone(), || churn(&g, 3));
    let records = sink.snapshot();
    let has = |name: &str| records.iter().any(|r| r.event.name() == name);
    for name in [
        "malloc",
        "free",
        "segment_grab",
        "segment_reformat",
        "ring_pop",
        "claim_cas",
        "coalesce_group",
        "buffer_install",
    ] {
        assert!(has(name), "workload never emitted a {name} event");
    }
    // Every malloc carries a lane; warp-protocol events do not.
    let m = records.iter().find(|r| matches!(r.event, TraceEvent::Malloc { .. })).unwrap();
    assert_ne!(m.lane, trace::LANE_NONE);
    // Clean run: the ledger pairs everything.
    let ledger = Ledger::build(&records);
    assert_eq!(ledger.mallocs, WARPS * 32 * ROUNDS as u64);
    assert_eq!(ledger.frees, ledger.mallocs);
    assert!(ledger.live.is_empty(), "leaks in a balanced workload: {:?}", ledger.live);
    assert!(ledger.unmatched_frees.is_empty());
    assert!(ledger.peak_live_bytes > 0);
    assert!(ledger.size_mismatches.is_empty(), "every free returns its malloc's bytes");
    g.check_invariants().expect("allocator healthy after churn");
}

#[test]
fn planted_leak_is_pinpointed_and_dumps_a_trace() {
    let dir = std::env::temp_dir().join(format!("gallatin_trace_leak_{}", std::process::id()));
    // Env mutation is safe here: Rust runs tests of one binary in threads,
    // but this is the only test in the binary touching this variable's
    // value before reading it back in the same scope.
    std::env::set_var(trace::TRACE_DIR_ENV, &dir);

    let g = Gallatin::new(GallatinConfig::small_test(HEAP));
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let err = trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(2).seeded(11), 64, |warp| {
            let n = warp.active as usize;
            let sizes = vec![Some(32u64); n];
            let mut out = vec![DevicePtr::NULL; n];
            g.warp_malloc(warp, &sizes, &mut out);
            // Plant the leak: warp 1 lane 5 keeps its allocation.
            if warp.warp_id == 1 {
                out[5] = DevicePtr::NULL;
            }
            g.warp_free(warp, &out);
        });
        let ledger = Ledger::build(&sink.snapshot());
        assert_eq!(ledger.live.len(), 1, "exactly the planted leak");
        let TraceEvent::Malloc { ptr: leaked, .. } = ledger.live[0].event else { unreachable!() };
        let err = g.check_invariants().expect_err("leak check must fire");
        assert!(
            err.contains(&format!("leak: ptr {leaked}")),
            "report must pinpoint the planted pointer: {err}"
        );
        err
    });
    // Provenance: the report names the planting warp and lane.
    assert!(err.contains("warp 1 lane 5"), "report must carry provenance: {err}");
    // The failure auto-dumped a replayable artifact into $GALLATIN_TRACE_DIR.
    assert!(err.contains("trace auto-dumped to"), "missing dump notice: {err}");
    let dump = dir.join("trace_invariant_failure_seed_none.json");
    let body = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("dump {} unreadable: {e}", dump.display()));
    assert!(body.contains("\"traceEvents\""));
    assert!(body.contains("\"name\": \"malloc\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_teardown_passes_the_armed_leak_check() {
    let g = Gallatin::new(GallatinConfig::small_test(HEAP));
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    trace::with_sink(sink, || {
        churn(&g, 5);
        g.check_invariants().expect("balanced workload must pass the armed leak check");
    });
}
