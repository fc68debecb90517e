//! The invariant report names the *device* of a lifecycle anomaly.
//!
//! The ledger pairs by `(device, instance, ptr)`: devices with arenas of
//! their own hand out the same offsets, so a leak on device 1 is
//! indistinguishable from a clean allocation on device 0 unless the
//! report carries the device. A binary of its own because the failing
//! check auto-dumps a trace into `$GALLATIN_TRACE_DIR`, which only a
//! single-test process may set.

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::ledger::Ledger;
use gpu_sim::trace::{self, TraceEvent, TraceSink};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::Arc;

#[test]
fn a_leak_on_device_1_is_reported_with_its_device() {
    let dir = std::env::temp_dir().join(format!("gallatin_ledger_device_{}", std::process::id()));
    std::env::set_var(trace::TRACE_DIR_ENV, &dir);

    // Two devices, each a heap with an arena of its own, scoped the way a
    // router scopes the calls it routes: SM d's warp runs on device d.
    // (Front-first probes, so both place at the same offsets whatever the SM.)
    let cfg =
        GallatinConfig { randomize_probe_starts: false, ..GallatinConfig::small_test(1 << 20) };
    let devices = [0, 1].map(|_| Gallatin::new(cfg));
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let err = trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(2).seeded(7), 64, |warp| {
            let g = &devices[warp.sm_id as usize];
            trace::with_level(trace::DEVICE, warp.sm_id, || {
                let sizes = vec![Some(32u64); warp.active as usize];
                let mut out = vec![DevicePtr::NULL; sizes.len()];
                g.warp_malloc(warp, &sizes, &mut out);
                // Both devices serve the same offsets; only device 1's
                // warp keeps lane 5's.
                if warp.sm_id == 1 {
                    out[5] = DevicePtr::NULL;
                }
                g.warp_free(warp, &out);
            });
        });
        let records = sink.snapshot();
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.live.len(), 1, "exactly the planted leak");
        let leak = ledger.live[0];
        assert_eq!((leak.device, leak.instance), (1, 0));
        let TraceEvent::Malloc { ptr: leaked, .. } = leak.event else { unreachable!() };
        let twin_on_device_0 = records.iter().any(|r| {
            r.device == 0 && matches!(r.event, TraceEvent::Malloc { ptr, .. } if ptr == leaked)
        });
        assert!(twin_on_device_0, "device 0 must have served the same (instance, ptr)");
        devices[1].check_invariants().expect_err("leak check must fire")
    });
    assert!(err.contains("device 1"), "the report must name the leaking device: {err}");
    let line = err.lines().find(|l| l.starts_with("leak: ")).expect("a leak line");
    assert!(line.contains("lane 5 device 1)"), "the leak line must name its device: {line}");
    assert_eq!(err.matches("leak: ").count(), 1, "device 0's twin was freed: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
