//! E24 — reclaim-protocol telemetry: segment churn under varying heap
//! pressure, surfacing the reclamation counters the hardened protocol
//! exports (reclaim attempts/aborts, straggler bounces, drain spins).
//!
//! The paper's safety argument (§5, Algorithm 2) is about windows that
//! close: a reclaim that aborts at the quiesce-check, a popped block
//! bounced home by the `ldcv` staleness re-check, a format drain waiting
//! out a straggler. None of those events are visible in throughput
//! numbers — a protocol that silently corrupts is often *faster* — so
//! this experiment reports how often each guarded transition actually
//! fired under block-pipeline churn, with the heap squeezed to different
//! segment counts. Expect aborts and bounces to *rise* as the segment
//! count shrinks: fewer segments means every warp's free is more likely
//! to race another warp's pop on the same ring.

use crate::report::{fmt_pct, Table};
use crate::HarnessConfig;
use gpu_sim::{launch_warps, DeviceAllocator};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap sizes under test, in segments (16 MiB each under the default
/// configuration). Smaller = more churn per segment.
const SEGMENT_COUNTS: [u64; 3] = [4, 8, 16];

/// Warps driving the churn (scalar block-path requests).
const CHURN_THREADS: u64 = 128 * 32;

/// Malloc/free round trips per warp. High on purpose: the guarded
/// windows (pop racing a reclaim publish) are nanoseconds wide in pool
/// mode, so observing them at all takes volume.
const ROUNDS: u64 = 256;

/// Run the reclaim-telemetry experiment.
pub fn run_reclaim(cfg: &HarnessConfig) {
    let mut tab = Table::new(
        "E24 — reclaim-protocol telemetry under block-pipeline churn",
        &[
            "segments",
            "mallocs",
            "failed",
            "reclaim attempts",
            "aborts",
            "abort %",
            "straggler bounces",
            "drain spins",
        ],
    );
    for &nsegs in &SEGMENT_COUNTS {
        let g = crate::roster::gallatin(nsegs * (16 << 20), cfg.num_sms);
        let seg_bytes = g.geometry().segment_bytes;
        let failed = AtomicU64::new(0);
        launch_warps(cfg.device(), CHURN_THREADS, |warp| {
            let l = warp.lane(0);
            for round in 0..ROUNDS {
                // Alternate between two block classes so segments are
                // reclaimed *and* reformatted, not just recycled in
                // place.
                let size = (seg_bytes / 16) << ((warp.warp_id + round) & 1);
                let p = g.malloc(&l, size);
                if p.is_null() {
                    failed.fetch_add(1, Ordering::Relaxed);
                } else {
                    g.free(&l, p);
                }
            }
        });
        // Telemetry is only meaningful over a heap the churn left
        // consistent.
        g.check_invariants().expect("invariants violated during reclaim churn");
        assert_eq!(g.stats().reserved_bytes, 0, "leak during reclaim churn");
        let m = g.metrics().expect("gallatin keeps metrics").snapshot();
        let abort_pct = if m.reclaim_attempts == 0 {
            "n/a".to_string()
        } else {
            fmt_pct(m.reclaim_aborts as f64 / m.reclaim_attempts as f64)
        };
        tab.row(vec![
            nsegs.to_string(),
            m.mallocs.to_string(),
            failed.load(Ordering::Relaxed).to_string(),
            m.reclaim_attempts.to_string(),
            m.reclaim_aborts.to_string(),
            abort_pct,
            m.straggler_bounces.to_string(),
            m.drain_spins.to_string(),
        ]);
    }
    tab.emit(&cfg.out_dir, "e15_reclaim_telemetry");
}
