//! E22 — elastic pool: donation under skew, compaction, shrink
//! (`repro elastic`).
//!
//! Three deterministic arms over the elastic `GallatinPool` machinery:
//!
//! 1. **Donation under a skewed-SM hotspot.** The E19 `SkewedHotspot`
//!    script saturates one home instance while the cold homes idle; a
//!    host rebalance pass then donates one quiescent-free segment from
//!    every cold home to the hot one, and the same script replays against the grown pool so
//!    the spill counters show the absorbed capacity. The whole arm runs
//!    under a [`TraceSink`] and the lifecycle [`Ledger`] must come up
//!    with zero anomalies — donations re-home address ranges mid-story,
//!    so this is the test that per-`(instance, ptr)` pairing survives
//!    re-homing.
//! 2. **Compaction A/B.** The E10 fragmentation-attack shape (fill,
//!    then free all but every 16th block) strands sparse segments that
//!    two-phase reclaim cannot touch — one straggler pins 64 KiB. Arm A
//!    counts reclaimable whole segments as-is; arm B runs
//!    [`gallatin::Gallatin::compact`] first. The verdict requires arm B
//!    to reclaim **strictly more** segments, with every migrated
//!    payload verified byte-for-byte via stamps.
//! 3. **Donation after fragmentation.** The same attack on a 2-instance
//!    pool, then `donate(frag_home, sibling, ..)` with and without a
//!    prior compaction pass: the with-compaction row must donate
//!    strictly more segments. This is the end-to-end story — compaction
//!    exists so that donation and
//!    [`gallatin::GallatinPool::shrink_instance`] have whole segments to
//!    move. The with-compaction row then finishes
//!    the maintenance cycle: the sibling shrinks the donated segments
//!    back to the pool free list and the origin re-adopts them, and
//!    `returned` must equal `adopted`.
//!
//! Every count is an exact function of the seed (deterministic
//! scheduler, host-side maintenance), so the numbers land in
//! `BENCH_elastic.json` as bit-stable gates.

use crate::report::{emit_records, BenchRecord};
use crate::workload::{run_script, SkewedHotspot, WorkloadSource};
use crate::HarnessConfig;
use gallatin::{Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::ledger::Ledger;
use gpu_sim::trace::{TraceEvent, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::sync::Arc;

/// SMs in the hotspot arm — one per pool instance, so `home()` maps the
/// hot SM straight onto its own instance.
const NUM_SMS: u32 = 4;

/// Schedule seed for the hotspot arm. Seed 11 is the adversarial
/// suite's pinned hot-home-spills seed (`adversarial_pool.rs`); any
/// seed works for the donation verdict, this one also demonstrates
/// spill relief. Override with `GALLATIN_SCHED_SEED`.
const DONATION_SEED: u64 = 11;

/// Per-instance heap of the hotspot arm: small enough that the hot
/// home overflows (2 segments of block-tier headroom per instance).
const TIGHT_HEAP: u64 = 128 << 10;

/// Heap for the fragmentation arms: 16 segments of 64 KiB, 64 one-KiB
/// blocks per segment.
const FRAG_HEAP: u64 = 1 << 20;

/// Blocks allocated by the attack — fills 8 of the 16 segments.
const FRAG_BLOCKS: usize = 512;

/// The attack keeps every 16th block: 32 stragglers, 4 per segment,
/// 1/16 occupancy — every touched segment is sparse but pinned.
const FRAG_KEEP: usize = 16;

/// Victim threshold handed to `compact`: migrate out of segments at or
/// below quarter occupancy (the stragglers sit at 1/16).
const COMPACT_OCCUPANCY: f64 = 0.25;

/// Outcome of the hotspot donation arm.
struct DonationArm {
    hot: usize,
    donated: u64,
    donate_events: u64,
    spills_before: u64,
    spills_after: u64,
    served: u64,
    ledger_anomalies: u64,
}

/// Run the skewed-hotspot script, rebalance cold → hot, replay.
fn donation_arm(seed: u64) -> DonationArm {
    let h = SkewedHotspot::standard(NUM_SMS);
    // `home()` is `sm_id % instances`: with one SM per instance the hot
    // SM's home instance has the hot SM's index.
    let hot = h.hot_sm(seed) as usize;
    let script = h.script(seed);
    let pool = GallatinPool::new(NUM_SMS as usize, GallatinConfig::small_test(TIGHT_HEAP));
    let sink = Arc::new(TraceSink::new());
    let (arm, records) = gpu_sim::trace::with_sink(sink.clone(), || {
        let out = run_script(&pool, DeviceConfig::with_sms(NUM_SMS).seeded(seed), &script, true);
        assert_eq!(out.violations(), (0, 0, 0), "hotspot run must be clean: {out:?}");
        let spills_before = pool.spill_count(hot);

        // Rebalance: each cold home hands one quiescent-free segment to
        // the hot one. The script is leak-free, so after the run every
        // cold segment is drained — but a drained segment can still be
        // pinned by a cached wavefront block, so the maintenance pass
        // trims before it donates (both are host-side quiescent points).
        let mut donated = 0;
        for i in (0..NUM_SMS as usize).filter(|&i| i != hot) {
            pool.instance(i).trim();
            donated += pool.donate(i, hot, 1).expect("drained cold homes donate cleanly");
        }

        // Replay the identical script against the grown hot home.
        let out2 = run_script(&pool, DeviceConfig::with_sms(NUM_SMS).seeded(seed), &script, true);
        assert_eq!(out2.violations(), (0, 0, 0), "replay must be clean: {out2:?}");
        let arm = DonationArm {
            hot,
            donated,
            donate_events: 0,
            spills_before,
            spills_after: pool.spill_count(hot) - spills_before,
            served: out.served + out2.served,
            ledger_anomalies: 0,
        };
        (arm, sink.snapshot())
    });
    assert_eq!(sink.dropped(), 0, "trace sink must keep the whole story");
    pool.check_invariants().expect("pool healthy after donation arm");
    assert_eq!(pool.stats().donated_segments, arm.donated);

    let ledger = Ledger::build(&records);
    let o = ledger.outcome();
    let donate_events =
        records.iter().filter(|r| matches!(r.event, TraceEvent::SegmentDonate { .. })).count()
            as u64;
    DonationArm {
        donate_events,
        ledger_anomalies: o.leaks + o.double_frees + o.unknown_frees + o.size_mismatches,
        ..arm
    }
}

/// Phases 1–2 of the fragmentation attack, host-driven and exact: fill
/// 8 segments with 1 KiB blocks through the ordinary malloc path (SM 0,
/// so on a pool the frag home is instance 0), then free all but every
/// 16th. Stamps each survivor `0xE22_0000 + its live index` and returns
/// the live `(ptr, size)` set, ordered by live index.
fn fragment_attack<A: DeviceAllocator>(a: &A) -> Vec<(DevicePtr, u64)> {
    let w = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let l = w.lane(0);
    let held: Vec<DevicePtr> = (0..FRAG_BLOCKS).map(|_| a.malloc(&l, 1024)).collect();
    assert!(held.iter().all(|p| !p.is_null()), "the attack fits in half the heap");
    let mut live = Vec::new();
    for (i, &p) in held.iter().enumerate() {
        if i % FRAG_KEEP == 0 {
            a.memory().write_stamp(p, 0xE22_0000 + live.len() as u64);
            live.push((p, 1024u64));
        } else {
            a.free(&l, p);
        }
    }
    live
}

/// Apply compaction's relocations to the live set and verify every
/// migrated payload byte-for-byte via its stamp.
fn apply_relocations(
    mem: &gpu_sim::DeviceMemory,
    live: &mut [(DevicePtr, u64)],
    relos: &[gallatin::Relocation],
) {
    for r in relos {
        let slot = live.iter_mut().find(|(p, _)| *p == r.old).expect("relocation of a live ptr");
        assert_eq!(r.size, slot.1, "relocation preserves the requested size");
        slot.0 = r.new;
    }
    for (i, &(p, _)) in live.iter().enumerate() {
        assert_eq!(mem.read_stamp(p), 0xE22_0000 + i as u64, "payload preserved");
    }
}

/// Outcome of one compaction A/B arm.
struct FragArm {
    reclaimable: u64,
    relocations: u64,
    live: u64,
}

/// The attack on a standalone allocator; with `compacted` the stragglers
/// are migrated before counting reclaimable whole segments.
fn frag_arm(compacted: bool) -> FragArm {
    let g = Gallatin::new(GallatinConfig::small_test(FRAG_HEAP));
    let mut live = fragment_attack(&g);
    let relos = if compacted { g.compact(&live, COMPACT_OCCUPANCY) } else { Vec::new() };
    g.trim();
    apply_relocations(g.memory(), &mut live, &relos);
    let arm = FragArm {
        reclaimable: g.free_segments(),
        relocations: relos.len() as u64,
        live: live.len() as u64,
    };
    // Teardown must drain completely either way.
    let w = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    for &(p, _) in &live {
        g.free(&w.lane(0), p);
    }
    assert_eq!(g.stats().reserved_bytes, 0, "attack teardown leaked");
    g.check_invariants().expect("clean after frag arm");
    arm
}

/// E22's columns: the case and its compaction arm, then the segment and
/// spill counts of every arm.
const COLUMNS: &str = "case,compaction,donated,reclaimable_segments,relocations,returned,\
    adopted,spills_before,spills_after";

/// One `BENCH_elastic.json` row.
fn row(case: &str) -> BenchRecord {
    BenchRecord::new("elastic", "GallatinPool").case(case)
}

/// Segments a `donate-after-frag` row moved to the sibling.
fn donated(row: &BenchRecord) -> u64 {
    row.get_count("donated").expect("donate-after-frag rows count donations")
}

/// The attack on a 2-instance pool: fragment instance 0, optionally
/// compact, then donate every whole free segment to the sibling. The
/// compacted arm then finishes the maintenance cycle —
/// the sibling shrinks what it was given back to the pool free list and
/// the origin re-adopts it — so the round trip is two exact counts.
fn donate_after_frag(compacted: bool) -> BenchRecord {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(FRAG_HEAP));
    let mut live = fragment_attack(&pool);
    let relos = if compacted { pool.compact(&live, COMPACT_OCCUPANCY) } else { Vec::new() };
    apply_relocations(pool.memory(), &mut live, &relos);
    let donated = pool.donate(0, 1, 16).expect("whole free segments donate");
    let mut rec = row("donate-after-frag")
        .param("compaction", if compacted { "on" } else { "off" })
        .count("donated", donated)
        .count("relocations", relos.len() as u64);
    if compacted {
        let returned = pool.shrink_instance(1, donated);
        let adopted = pool.grow(0, returned);
        assert_eq!(returned, adopted, "every returned segment is re-adopted at the origin");
        rec = rec.count("returned", returned).count("adopted", adopted);
    }
    // The stragglers still free correctly across the re-homed map.
    let w = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    for &(p, _) in &live {
        pool.free(&w.lane(0), p);
    }
    assert_eq!(pool.stats().reserved_bytes, 0, "pool attack teardown leaked");
    pool.check_invariants().expect("clean after donate-after-frag");
    rec
}

/// Run E22 and emit table, CSV and `BENCH_elastic.json`. Returns `false`
/// (and the harness exits 1) if any verdict fails: the hot home must
/// absorb at least one donated segment with a clean ledger, and both
/// compaction rows must strictly beat their no-compaction controls.
pub fn run_elastic(cfg: &HarnessConfig) -> bool {
    let seed = gpu_sim::sched::seed_override().unwrap_or(DONATION_SEED);

    let d = donation_arm(seed);
    let (frag_off, frag_on) = (frag_arm(false), frag_arm(true));
    let (don_off, don_on) = (donate_after_frag(false), donate_after_frag(true));

    let (donated_on, donated_off) = (donated(&don_on), donated(&don_off));
    let frag_rec = |label: &str, arm: &FragArm| {
        row("frag-reclaim")
            .param("compaction", label)
            .count("reclaimable_segments", arm.reclaimable)
            .count("relocations", arm.relocations)
            .count("live", arm.live)
    };
    let recs = vec![
        row("donation")
            .param("seed", seed)
            .param("hot", d.hot)
            .count("donated", d.donated)
            .count("donate_events", d.donate_events)
            .count("spills_before", d.spills_before)
            .count("spills_after", d.spills_after)
            .count("served", d.served)
            .count("ledger_anomalies", d.ledger_anomalies),
        frag_rec("off", &frag_off),
        frag_rec("on", &frag_on),
        don_off,
        don_on,
    ];

    let title = "E22 — elastic pool: donation, compaction, shrink";
    let mut ok = emit_records(cfg, "elastic", title, "e22_elastic", COLUMNS, &recs);
    let mut verdict = |name: &str, pass: bool| {
        println!("  [{}] {name}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    verdict(
        &format!("hot home {} absorbed {} donated segment(s) under the hotspot", d.hot, d.donated),
        d.donated >= 1,
    );
    verdict(
        &format!(
            "lifecycle ledger clean across donation + replay ({} anomalies)",
            d.ledger_anomalies
        ),
        d.ledger_anomalies == 0,
    );
    verdict(
        &format!(
            "compaction reclaims strictly more segments ({} > {})",
            frag_on.reclaimable, frag_off.reclaimable
        ),
        frag_on.reclaimable > frag_off.reclaimable,
    );
    verdict(
        &format!("compaction donates strictly more segments ({donated_on} > {donated_off})"),
        donated_on > donated_off,
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donation_arm_absorbs_cold_segments_with_clean_ledger() {
        let d = donation_arm(DONATION_SEED);
        assert_eq!(d.donated, NUM_SMS as u64 - 1, "every cold home donates one segment");
        assert_eq!(d.donate_events, d.donated, "each donation is traced");
        assert_eq!(d.ledger_anomalies, 0, "re-homed addresses keep a clean lifecycle ledger");
        assert!(d.spills_before > 0, "seed {DONATION_SEED} must pressure the hot home");
        assert!(
            d.spills_after <= d.spills_before,
            "a grown hot home cannot spill more ({} vs {})",
            d.spills_after,
            d.spills_before
        );
    }

    #[test]
    fn compaction_strictly_beats_trim_only() {
        let (off, on) = (frag_arm(false), frag_arm(true));
        assert_eq!(off.relocations, 0);
        assert!(on.relocations > 0, "the attack leaves stragglers to migrate");
        assert!(
            on.reclaimable > off.reclaimable,
            "compaction must unlock segments trim cannot ({} vs {})",
            on.reclaimable,
            off.reclaimable
        );
        // The attack's exact geometry: 8 untouched segments reclaimable
        // without compaction; all 32 stragglers fit in one segment after.
        assert_eq!(off.reclaimable, 8);
        assert_eq!(on.reclaimable, 15);
    }

    #[test]
    fn donation_after_compaction_moves_strictly_more() {
        let (off, on) = (donate_after_frag(false), donate_after_frag(true));
        assert_eq!(donated(&off), 8, "without compaction only the untouched segments donate");
        assert_eq!(donated(&on), 15, "with compaction all but the straggler segment donates");
        assert_eq!(off.get_count("returned"), None, "only the compacted arm runs the round trip");
    }

    #[test]
    fn maintenance_round_trip_counts_replay_exactly() {
        let (a, b) = (donate_after_frag(true), donate_after_frag(true));
        assert_eq!(a.counts, b.counts, "the maintenance cycle must be count-deterministic");
        assert!(a.get_count("relocations").unwrap() > 0);
        assert!(a.get_count("returned").unwrap() > 0, "the sibling shrinks what it was given");
        assert_eq!(a.get_count("returned"), a.get_count("adopted"), "the shuttle round-trips");
    }
}
