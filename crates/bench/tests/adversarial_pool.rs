//! Pool-mode integration for the adversarial workload suite: the
//! skewed-hotspot generator must actually produce the spill pressure it
//! advertises, and real pool runs over the shared arena must keep
//! global pointers disjoint across instances — the segment routing
//! table is the single source of truth for who owns an address — with a
//! clean per-`(instance, ptr)` lifecycle ledger.

use bench::workload::{run_script, SkewedHotspot, WorkloadSource};
use gallatin::{GallatinConfig, GallatinPool};
use gpu_sim::ledger::Ledger;
use gpu_sim::trace::{TraceEvent, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig};
use std::collections::HashMap;
use std::sync::Arc;

const NUM_SMS: u32 = 4;

/// Per-instance heap small enough that the hot SM's block-tier traffic
/// (256–1024 B across flipping classes) overruns its home instance,
/// while the cold SMs' 16 B trickle never does.
const TIGHT_HEAP: u64 = 128 << 10; // 2 small_test segments per instance

#[test]
fn skewed_hotspot_spills_only_from_the_hot_home() {
    let seed = 11;
    let h = SkewedHotspot::standard(NUM_SMS);
    let hot = h.hot_sm(seed) as usize;
    let script = h.script(seed);
    let pool = GallatinPool::new(NUM_SMS as usize, GallatinConfig::small_test(TIGHT_HEAP));
    let out = run_script(&pool, DeviceConfig::with_sms(NUM_SMS).seeded(seed), &script, true);
    assert_eq!(out.violations(), (0, 0, 0), "{out:?}");
    assert!(out.served > 0, "{out:?}");
    pool.check_invariants().expect("pool healthy after hotspot");

    // The generator's whole point: the hot SM's home instance saturates
    // and walks to siblings; the cold homes never need to.
    assert!(
        pool.spill_count(hot) > 0,
        "hot home {hot} must overflow under seed {seed} (spills {:?})",
        (0..NUM_SMS as usize).map(|i| pool.spill_count(i)).collect::<Vec<_>>()
    );
    for i in (0..NUM_SMS as usize).filter(|&i| i != hot) {
        assert_eq!(
            pool.spill_count(i),
            0,
            "cold home {i} only sips 16 B slices and must never spill"
        );
    }
}

#[test]
fn pool_replay_keeps_global_pointers_disjoint_across_instances() {
    // Instances share one arena and one memory table: every pointer is a
    // global device offset inside its serving instance's owned segments.
    // A multi-instance run must therefore never hand the same ptr value
    // to two instances concurrently — the segment routing table is what
    // makes cross-SM frees land — and the ledger's per-(instance, ptr)
    // pairing must come up clean.
    let seed = 3;
    let script = SkewedHotspot::standard(NUM_SMS).script(seed);
    let pool = GallatinPool::new(NUM_SMS as usize, GallatinConfig::small_test(TIGHT_HEAP));
    let sink = Arc::new(TraceSink::new());
    let (out, records) = gpu_sim::trace::with_sink(sink.clone(), || {
        let out = run_script(&pool, DeviceConfig::with_sms(NUM_SMS).seeded(seed), &script, true);
        (out, sink.snapshot())
    });
    assert_eq!(sink.dropped(), 0);
    assert_eq!(out.violations(), (0, 0, 0), "{out:?}");

    // Count which instances allocated each recorded ptr value.
    let mut by_ptr: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut instances_seen: Vec<u32> = Vec::new();
    for r in &records {
        if let TraceEvent::Malloc { ptr, .. } = r.event {
            let owners = by_ptr.entry(ptr).or_default();
            if !owners.contains(&r.instance) {
                owners.push(r.instance);
            }
            if !instances_seen.contains(&r.instance) {
                instances_seen.push(r.instance);
            }
        }
    }
    assert!(instances_seen.len() > 1, "the hotspot run must exercise several instances");
    for (ptr, owners) in &by_ptr {
        assert_eq!(
            owners.len(),
            1,
            "global ptr {ptr:#x} was served by several instances at once: {owners:?}"
        );
    }

    let ledger = Ledger::build(&records);
    let outcome = ledger.outcome();
    assert_eq!(outcome.leaks, 0, "{}", ledger.report());
    assert_eq!(outcome.double_frees, 0, "{}", ledger.report());
    assert_eq!(outcome.unknown_frees, 0, "{}", ledger.report());
    assert_eq!(outcome.mallocs, out.served);
    assert_eq!(outcome.frees, out.served, "leak-free script frees everything it was served");
}
