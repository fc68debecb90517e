//! Property: a well-formed workload script survives the full
//! record/replay loop unchanged — script → run (traced) → lifecycle
//! records → [`ReplayScript::from_trace`] → the *same* script.
//!
//! The fixpoint holds only inside the representable subset, which the
//! generator is careful to stay in (each constraint mirrors a documented
//! lossy edge of the trace format):
//!
//! * **sizes are exact size classes** — trace `Malloc` events carry the
//!   class-rounded size, so an off-class request would round-trip to its
//!   class, not itself;
//! * **every op uses lane 0** — scalar mallocs and frees are recorded
//!   without a lane (`LANE_NONE`), which the converter canonicalizes to
//!   0 (per-lane attribution exists only on the warp-collective slice
//!   path);
//! * **slots are allocated in per-warp malloc order** — the converter
//!   numbers slots by malloc appearance order;
//! * **scalar mode** — collective batching may reorder ops within a
//!   batch, scalar mode preserves strict per-warp op order;
//! * **every warp mallocs at least once and the heap never runs out** —
//!   a denied request records nothing and a silent warp records no
//!   script entry at all.

use bench::workload::run_script;
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::ledger::Ledger;
use gpu_sim::replay::{ReplayOp, ReplayScript, WarpScript};
use gpu_sim::trace::TraceSink;
use gpu_sim::{cases, DeviceConfig, SplitMix64};
use std::sync::Arc;

/// Exact slice classes under `small_test` geometry: recorded sizes equal
/// requested sizes for these and only these small requests.
const CLASSES: [u64; 5] = [16, 32, 64, 128, 256];

const NUM_SMS: u32 = 4;
const HEAP: u64 = 8 << 20;

/// One generator step: allocate a class, then maybe free one existing
/// allocation chosen by `pick`.
type Step = (u8, bool, u8);

/// `1..24` steps: a class in `0..5`, a coin from `0..2`, a pick in `0..255`.
fn steps(rng: &mut SplitMix64) -> Vec<Step> {
    let step = |rng: &mut SplitMix64| (rng.below(5) as u8, rng.below(2) == 1, rng.below(255) as u8);
    (0..1 + rng.below(23)).map(|_| step(rng)).collect()
}

/// Build a representable script from generator steps: slots numbered in
/// malloc order, every op on lane 0, frees targeting a live slot,
/// everything freed at the end so the script is leak-free by
/// construction.
fn build_script(per_warp: &[Vec<Step>]) -> ReplayScript {
    let warps = per_warp
        .iter()
        .map(|steps| {
            let mut ops = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            for (next_slot, &(class, do_free, pick)) in (0u32..).zip(steps) {
                let size = CLASSES[class as usize % CLASSES.len()];
                ops.push(ReplayOp::Malloc { lane: 0, slot: next_slot, size });
                live.push(next_slot);
                if do_free && !live.is_empty() {
                    let slot = live.swap_remove(pick as usize % live.len());
                    ops.push(ReplayOp::Free { lane: 0, slot });
                }
            }
            for slot in live {
                ops.push(ReplayOp::Free { lane: 0, slot });
            }
            WarpScript { ops }
        })
        .collect();
    ReplayScript { num_sms: NUM_SMS, warps }
}

#[test]
fn script_is_a_fixpoint_of_record_then_convert() {
    cases("script_is_a_fixpoint_of_record_then_convert", 16, |rng| {
        let per_warp: Vec<Vec<Step>> = (0..1 + rng.below(4)).map(|_| steps(rng)).collect();
        let script = build_script(&per_warp);
        assert_eq!(script.validate(), Ok(0), "generator must produce leak-free scripts");

        let g = Gallatin::new(GallatinConfig::small_test(HEAP));
        let sink = Arc::new(TraceSink::new());
        let (outcome, records) = gpu_sim::trace::with_sink(sink.clone(), || {
            let out = run_script(
                &g,
                DeviceConfig::with_sms(NUM_SMS).seeded(7),
                &script,
                false, // scalar: strict per-warp op order
            );
            (out, sink.snapshot())
        });
        assert_eq!(sink.dropped(), 0, "sink must capture the whole run");
        assert_eq!(outcome.denied, 0, "workload is far below heap capacity");
        assert_eq!(outcome.violations(), (0, 0, 0), "{:?}", outcome);

        let ledger = Ledger::build(&records);
        assert_eq!(ledger.cross_warp_frees, 0, "scripts free within the warp");
        assert!(ledger.unmatched_frees.is_empty(), "every free pairs with its malloc");
        assert_eq!(ledger.mallocs + ledger.frees, script.total_ops());
        let rebuilt = ReplayScript::from_trace(&records, NUM_SMS);
        assert_eq!(&rebuilt, &script, "record→convert must be the identity");

        // And once inside the representable subset, the text format is a
        // fixpoint too.
        let reparsed = ReplayScript::parse(&rebuilt.render());
        assert_eq!(reparsed, Ok(script), "render→parse must also be the identity");
    });
}
