//! Property-based contract tests over every baseline allocator: for any
//! operation sequence, live allocations are disjoint and in-bounds, and
//! frees recycle. The same model the Gallatin crate is held to
//! (`tests/allocator_model.rs` at the workspace root).

use allocators::all_baselines;
use gpu_sim::{cases, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, SplitMix64, WarpCtx};

const HEAP: u64 = 8 << 20;

#[derive(Clone, Debug)]
enum Op {
    Malloc(u8),
    Free(u16),
}

/// `1..200` ops, each a malloc from the menu or a free of a live index.
fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    let op = |rng: &mut SplitMix64| match rng.below(2) {
        0 => Op::Malloc(rng.below(10) as u8),
        _ => Op::Free(rng.below(512) as u16),
    };
    (0..1 + rng.below(199)).map(|_| op(rng)).collect()
}

/// Sizes spanning each allocator's native range (≤ 8192 B so every
/// baseline can serve natively).
fn menu(idx: u8) -> u64 {
    [1u64, 8, 16, 33, 100, 256, 1000, 4096, 7000, 8192][idx as usize]
}

fn run_contract(name_filter: fn(&str) -> bool, ops: &[Op]) {
    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = warp.lane(0);
    for a in all_baselines(HEAP) {
        if !a.is_managing() || !name_filter(a.name()) {
            continue;
        }
        // live: ptr -> (requested size, stamp)
        let mut live: Vec<(DevicePtr, u64, u64)> = Vec::new();
        let mut stamp = 0u64;
        for op in ops {
            match op {
                Op::Malloc(i) => {
                    let size = menu(*i);
                    if !a.supports_size(size) {
                        continue;
                    }
                    let p = a.malloc(&lane, size);
                    if p.is_null() {
                        continue;
                    }
                    assert!(p.0 + size <= a.heap_bytes(), "{}: allocation out of bounds", a.name());
                    stamp += 1;
                    a.memory().write_stamp(p, stamp);
                    live.push((p, size, stamp));
                }
                Op::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, _, _) = live.swap_remove((*i as usize) % live.len());
                    a.free(&lane, p);
                }
            }
            // Every live stamp must be intact: clobbering means two live
            // allocations overlap.
            for &(p, _, s) in &live {
                assert_eq!(a.memory().read_stamp(p), s, "{}: stamp clobbered (overlap)", a.name());
            }
        }
        for (p, _, _) in live {
            a.free(&lane, p);
        }
        assert_eq!(a.stats().reserved_bytes, 0, "{}: leak", a.name());
    }
}

#[test]
fn cuda_heap_contract() {
    cases("cuda_heap_contract", 24, |rng| run_contract(|n| n == "CUDA", &ops(rng)));
}

#[test]
fn ouroboros_contract() {
    cases("ouroboros_contract", 24, |rng| run_contract(|n| n.starts_with("Ouroboros"), &ops(rng)));
}

#[test]
fn reg_eff_contract() {
    cases("reg_eff_contract", 24, |rng| run_contract(|n| n.starts_with("RegEff"), &ops(rng)));
}

#[test]
fn scatter_xmalloc_contract() {
    cases("scatter_xmalloc_contract", 24, |rng| {
        run_contract(|n| n == "ScatterAlloc" || n == "XMalloc", &ops(rng))
    });
}

// ---------------------------------------------------------------------------
// Concurrent contract: the same malloc/stamp/verify/free discipline run by
// many warps at once, under both execution modes. The deterministic runs use
// a small fixed seed set; a failing seed reproduces with
// `GALLATIN_SCHED_SEED=<seed>` (see TESTING.md).
// ---------------------------------------------------------------------------

const CONCURRENT_THREADS: u64 = 256;
const ROUNDS: u64 = 4;
const SEEDS: [u64; 3] = [1, 7, 42];

/// Run the concurrent contract kernel on `a` under `cfg`: every lane does
/// [`ROUNDS`] iterations of warp-coalesced malloc → stamp → verify → free,
/// sizes drawn deterministically from the menu (filtered through
/// `supports_size` so chunk-limited baselines skip what they cannot serve).
/// Afterwards the allocator must report zero reserved bytes and pass its
/// own invariant check.
fn run_concurrent_contract(a: &dyn DeviceAllocator, cfg: DeviceConfig) {
    launch_warps(cfg, CONCURRENT_THREADS, |warp| {
        let n = warp.active as usize;
        let mut ptrs = vec![DevicePtr::NULL; n];
        for round in 0..ROUNDS {
            // Per-(warp, lane, round) size choice is a pure function, so a
            // replayed schedule re-issues the identical request sequence.
            let sizes: Vec<Option<u64>> = (0..n)
                .map(|lane| {
                    let idx = (warp.warp_id * 31 + lane as u64 * 7 + round * 13) % 10;
                    let size = menu(idx as u8);
                    a.supports_size(size).then_some(size)
                })
                .collect();
            a.warp_malloc(warp, &sizes, &mut ptrs);
            let stamp_of = |lane: usize| (round << 32) | (warp.base_tid + lane as u64 + 1);
            for (lane, p) in ptrs.iter().enumerate() {
                if !p.is_null() {
                    a.memory().write_stamp(*p, stamp_of(lane));
                }
            }
            // Every stamp must survive until the free: a clobber means two
            // live allocations overlap.
            for (lane, p) in ptrs.iter().enumerate() {
                if !p.is_null() {
                    assert_eq!(
                        a.memory().read_stamp(*p),
                        stamp_of(lane),
                        "{}: stamp clobbered (overlap)",
                        a.name()
                    );
                }
            }
            a.warp_free(warp, &ptrs);
        }
    });
    assert_eq!(a.stats().reserved_bytes, 0, "{}: leak after concurrent contract", a.name());
    if let Err(e) = a.check_invariants() {
        panic!("{}: invariant violation after concurrent contract:\n{e}", a.name());
    }
}

/// Every baseline survives the concurrent contract under the free-running
/// pool.
#[test]
fn concurrent_contract_pool_mode() {
    for a in all_baselines(HEAP) {
        if !a.is_managing() {
            continue;
        }
        run_concurrent_contract(a.as_ref(), DeviceConfig::with_sms(4));
    }
}

/// Every baseline survives the concurrent contract under the deterministic
/// scheduler for each seed in the fixed set, resetting between seeds so
/// each schedule starts from a pristine heap.
#[test]
fn concurrent_contract_deterministic_seeds() {
    for a in all_baselines(HEAP) {
        if !a.is_managing() {
            continue;
        }
        for seed in SEEDS {
            run_concurrent_contract(a.as_ref(), DeviceConfig::with_sms(4).seeded(seed));
            a.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Differential sweep: the same seeded workload through every allocator
// family — the five baselines plus Gallatin itself — with every outcome
// reduced to a ledger. Allocators may legitimately differ in *policy*
// (which requests they deny), but never in *contract*: the violation
// counters must be zero for every family, which also makes them pairwise
// equal. A failing seed replays with `GALLATIN_SCHED_SEED=<seed>`, and
// `GALLATIN_SCHED_SEED=<seed> repro replay` captures Gallatin's side of
// the schedule as a Chrome trace (see TESTING.md).
// ---------------------------------------------------------------------------

use gallatin::{DevicePool, Gallatin, GallatinConfig, GallatinPool};
use std::sync::atomic::{AtomicU64, Ordering};

const DIFF_THREADS: u64 = 128;
const DIFF_ROUNDS: u64 = 3;
const DIFF_SEEDS: u64 = 16;

/// All allocator families under test, freshly constructed.
fn families(heap: u64) -> Vec<std::sync::Arc<dyn DeviceAllocator>> {
    let mut v: Vec<std::sync::Arc<dyn DeviceAllocator>> =
        all_baselines(heap).into_iter().filter(|a| a.is_managing()).collect();
    v.push(std::sync::Arc::new(Gallatin::new(GallatinConfig::small_test(heap))));
    // The sharded pool over the same total heap: two instances of half
    // the budget each, so its ledger is directly comparable to the
    // single-instance families.
    v.push(std::sync::Arc::new(GallatinPool::new(2, GallatinConfig::small_test(heap / 2))));
    // The hierarchical device pool over the same total heap: two
    // one-instance devices of half the budget each, so cross-device
    // routing and the interconnect layer face the same workload ledger.
    v.push(std::sync::Arc::new(DevicePool::new(2, 1, GallatinConfig::small_test(heap / 2))));
    v
}

/// Run the shared seeded workload on `a` and reduce it to a ledger: a
/// few rounds of warp-coalesced malloc → stamp → verify → free with
/// sizes drawn per (seed, warp, lane, round) from the menu. Violations
/// are *counted*, not asserted, so differing families produce
/// comparable ledgers instead of differently-located panics.
fn outcome_ledger(a: &dyn DeviceAllocator, seed: u64) -> ScriptOutcome {
    let attempted = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let denied = AtomicU64::new(0);
    let overlaps = AtomicU64::new(0);
    let oob = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4).seeded(seed), DIFF_THREADS, |warp| {
        let n = warp.active as usize;
        let mut ptrs = vec![DevicePtr::NULL; n];
        for round in 0..DIFF_ROUNDS {
            let sizes: Vec<Option<u64>> = (0..n)
                .map(|lane| {
                    let idx = (seed * 17 + warp.warp_id * 31 + lane as u64 * 7 + round * 13) % 10;
                    let size = menu(idx as u8);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    if a.supports_size(size) {
                        Some(size)
                    } else {
                        denied.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                })
                .collect();
            a.warp_malloc(warp, &sizes, &mut ptrs);
            let stamp_of = |lane: usize| (round << 32) | (warp.base_tid + lane as u64 + 1);
            for lane in 0..n {
                match (sizes[lane], ptrs[lane]) {
                    (Some(size), p) if !p.is_null() => {
                        served.fetch_add(1, Ordering::Relaxed);
                        if p.0 + size > a.heap_bytes() {
                            oob.fetch_add(1, Ordering::Relaxed);
                        } else {
                            a.memory().write_stamp(p, stamp_of(lane));
                        }
                    }
                    (Some(_), _) => {
                        denied.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            for lane in 0..n {
                let p = ptrs[lane];
                if !p.is_null()
                    && p.0 + sizes[lane].unwrap_or(0) <= a.heap_bytes()
                    && a.memory().read_stamp(p) != stamp_of(lane)
                {
                    overlaps.fetch_add(1, Ordering::Relaxed);
                }
            }
            a.warp_free(warp, &ptrs);
        }
    });
    ScriptOutcome {
        attempted: attempted.into_inner(),
        served: served.into_inner(),
        denied: denied.into_inner(),
        overlaps: overlaps.into_inner(),
        oob: oob.into_inner(),
        leaked_bytes: a.stats().reserved_bytes,
    }
}

/// The 16-seed differential matrix: every family runs every seed, every
/// ledger balances, and the violation projection is zero everywhere —
/// checked both directly and as an explicit pairwise diff so a future
/// nonzero names the diverging pair of families.
#[test]
fn differential_sweep_contract_projection_agrees_across_families() {
    for seed in 0..DIFF_SEEDS {
        let fams = families(HEAP);
        let mut ledgers: Vec<(String, ScriptOutcome)> = Vec::new();
        for a in &fams {
            let led = outcome_ledger(a.as_ref(), seed);
            assert_eq!(
                led.attempted,
                led.served + led.denied,
                "{} seed {seed}: ledger does not balance: {led:?}",
                a.name()
            );
            assert!(led.served > 0, "{} seed {seed}: workload never got served", a.name());
            ledgers.push((a.name().to_string(), led));
        }
        for (name, led) in &ledgers {
            assert_eq!(
                led.violations(),
                (0, 0, 0),
                "{name} violated the contract on seed {seed} \
                 (overlaps, oob, leaked_bytes) — replay with GALLATIN_SCHED_SEED={seed}"
            );
        }
        for pair in ledgers.windows(2) {
            assert_eq!(
                pair[0].1.violations(),
                pair[1].1.violations(),
                "families {} and {} diverge on seed {seed}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial scenario sweep: the workload-engine generators (fragmentation
// attack, size-class flipper, skewed-SM hotspot, OOM-pressure ramp — see
// `bench::workload::adversarial`) run through every family over the same
// seed range as the differential sweep. Policy may differ (denial counts
// under OOM pressure legitimately vary per family); the contract projection
// must be zero everywhere. A failing (scenario, seed) pair dumps its exact
// script as a `gallatin-replay-v1` artifact (GALLATIN_REPLAY_DIR, default
// target/replay) for upload next to the lifecycle traces.
// ---------------------------------------------------------------------------

use bench::workload::{all_scenarios, dump_script, run_script, ScriptOutcome};

/// Device width for the adversarial sweep, matching the differential
/// sweep so hotspot skew and pool home-routing line up.
const ADV_SMS: u32 = 4;

/// The adversarial seed count: `GALLATIN_ADV_SEEDS` overrides it (CI smoke
/// uses a small value; the default matches the differential sweep's 16).
fn adv_seeds() -> u64 {
    gpu_sim::sched::seed_count("GALLATIN_ADV_SEEDS", DIFF_SEEDS)
}

/// Every adversarial scenario × seed × family: ledgers balance, some
/// requests are served, the violation projection is zero, and therefore
/// pairwise equal across families. Failures ship the generated script.
#[test]
fn adversarial_scenarios_hold_across_all_families() {
    let seeds = adv_seeds();
    for scenario in all_scenarios(HEAP, ADV_SMS) {
        for seed in 0..seeds {
            let script = scenario.script(seed);
            script.validate().unwrap_or_else(|e| {
                panic!("{} seed {seed}: generator produced a bad script: {e}", scenario.name())
            });
            let mut ledgers = Vec::new();
            for a in families(HEAP) {
                let out = run_script(
                    a.as_ref(),
                    DeviceConfig::with_sms(ADV_SMS).seeded(seed),
                    &script,
                    true,
                );
                if out.attempted != out.served + out.denied
                    || out.served == 0
                    || out.violations() != (0, 0, 0)
                {
                    let dumped = dump_script(scenario.name(), seed, &script)
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<dump failed>".to_string());
                    panic!(
                        "{} broke scenario {} on seed {seed}: {out:?}\n\
                         script dumped to {dumped} — replay with GALLATIN_SCHED_SEED={seed}",
                        a.name(),
                        scenario.name()
                    );
                }
                ledgers.push((a.name().to_string(), out));
            }
            for pair in ledgers.windows(2) {
                assert_eq!(
                    pair[0].1.violations(),
                    pair[1].1.violations(),
                    "families {} and {} diverge on scenario {} seed {seed}",
                    pair[0].0,
                    pair[1].0,
                    scenario.name()
                );
            }
        }
    }
}

/// Same scenario, same seed, fresh allocator ⇒ identical outcome: the
/// adversarial sweep is deterministic evidence, like the differential one.
#[test]
fn adversarial_outcomes_replay_per_seed() {
    for scenario in all_scenarios(HEAP, ADV_SMS) {
        let script = scenario.script(3);
        let a = Gallatin::new(GallatinConfig::small_test(HEAP));
        let device = DeviceConfig::with_sms(ADV_SMS).seeded(3);
        let first = run_script(&a, device, &script, true);
        a.reset();
        let second = run_script(&a, device, &script, true);
        assert_eq!(first, second, "{}: seed 3 must replay identically", scenario.name());
    }
}

// ---------------------------------------------------------------------------
// Elastic interleaving: arbitrary donate/shrink/grow/compact maintenance
// interleaved between the pool's workload launches must be *contract-
// invisible* — the violation projection stays (0, 0, 0) and therefore
// pairwise equal with every family running the plain workload. Donation
// re-homes only quiescent free segments, shrink/grow move capacity through
// the pool free list, and compaction migrates a pinned live set whose
// payload stamps must survive every relocation.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum MaintOp {
    /// Donate up to `max` free segments from `from` to the other instance.
    Donate { from: usize, max: u64 },
    /// Park up to `max` of instance `at`'s free segments on the pool list.
    Shrink { at: usize, max: u64 },
    /// Adopt up to `max` parked segments into instance `at`.
    Grow { at: usize, max: u64 },
    /// Compact the pinned live set (migrate out of sparse segments).
    Compact,
}

fn maint_op(rng: &mut SplitMix64) -> MaintOp {
    match rng.below(4) {
        0 => MaintOp::Donate { from: rng.below(2) as usize, max: 1 + rng.below(3) },
        1 => MaintOp::Shrink { at: rng.below(2) as usize, max: 1 + rng.below(3) },
        2 => MaintOp::Grow { at: rng.below(2) as usize, max: 1 + rng.below(3) },
        _ => MaintOp::Compact,
    }
}

/// The differential workload on a two-instance pool, split into one
/// launch per round with a slice of the maintenance schedule applied
/// between launches. A pinned set of stamped allocations (one per small
/// class) lives across the whole run so compaction has real payloads to
/// migrate; relocations rewrite the pinned pointers and the stamps must
/// still read back at the end. Reduced to the same [`ScriptOutcome`] as
/// the plain families.
fn pool_ledger_with_maintenance(seed: u64, ops: &[MaintOp]) -> ScriptOutcome {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(HEAP / 2));
    let host = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = host.lane(0);
    let mut pinned: Vec<(DevicePtr, u64, u64)> = Vec::new();
    for (k, size) in [16u64, 33, 100, 256, 1000].into_iter().enumerate() {
        let p = pool.malloc(&lane, size);
        if !p.is_null() {
            let stamp = 0xE1A5_7100 + k as u64;
            pool.memory().write_stamp(p, stamp);
            pinned.push((p, size, stamp));
        }
    }
    let attempted = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let denied = AtomicU64::new(0);
    let overlaps = AtomicU64::new(0);
    let oob = AtomicU64::new(0);
    for round in 0..DIFF_ROUNDS {
        launch_warps(DeviceConfig::with_sms(4).seeded(seed ^ (round << 8)), DIFF_THREADS, |warp| {
            let n = warp.active as usize;
            let mut ptrs = vec![DevicePtr::NULL; n];
            let sizes: Vec<Option<u64>> = (0..n)
                .map(|l| {
                    let idx = (seed * 17 + warp.warp_id * 31 + l as u64 * 7 + round * 13) % 10;
                    let size = menu(idx as u8);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    if pool.supports_size(size) {
                        Some(size)
                    } else {
                        denied.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                })
                .collect();
            pool.warp_malloc(warp, &sizes, &mut ptrs);
            let stamp_of = |l: usize| (round << 32) | (warp.base_tid + l as u64 + 1);
            for l in 0..n {
                match (sizes[l], ptrs[l]) {
                    (Some(size), p) if !p.is_null() => {
                        served.fetch_add(1, Ordering::Relaxed);
                        if p.0 + size > pool.heap_bytes() {
                            oob.fetch_add(1, Ordering::Relaxed);
                        } else {
                            pool.memory().write_stamp(p, stamp_of(l));
                        }
                    }
                    (Some(_), _) => {
                        denied.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            for (l, &p) in ptrs.iter().enumerate().take(n) {
                if !p.is_null() && pool.memory().read_stamp(p) != stamp_of(l) {
                    overlaps.fetch_add(1, Ordering::Relaxed);
                }
            }
            pool.warp_free(warp, &ptrs);
        });
        // This round's slice of the maintenance schedule (round-robin so
        // every op lands between two different launches).
        for op in ops.iter().skip(round as usize).step_by(DIFF_ROUNDS as usize) {
            match *op {
                MaintOp::Donate { from, max } => {
                    if let Err(e) = pool.donate(from, 1 - from, max) {
                        panic!("donation bounced without planted corruption: {e}");
                    }
                }
                MaintOp::Shrink { at, max } => {
                    pool.shrink_instance(at, max);
                }
                MaintOp::Grow { at, max } => {
                    pool.grow(at, max);
                }
                MaintOp::Compact => {
                    let live: Vec<(DevicePtr, u64)> =
                        pinned.iter().map(|&(p, s, _)| (p, s)).collect();
                    for r in pool.compact(&live, 0.9) {
                        if let Some(e) = pinned.iter_mut().find(|e| e.0 == r.old) {
                            e.0 = r.new;
                        }
                    }
                }
            }
        }
        if let Err(e) = pool.check_invariants() {
            panic!("invariants violated after round {round} maintenance (seed {seed}):\n{e}");
        }
    }
    for &(p, _, s) in &pinned {
        if pool.memory().read_stamp(p) != s {
            overlaps.fetch_add(1, Ordering::Relaxed);
        }
    }
    for &(p, _, _) in &pinned {
        pool.free(&lane, p);
    }
    ScriptOutcome {
        attempted: attempted.into_inner(),
        served: served.into_inner(),
        denied: denied.into_inner(),
        overlaps: overlaps.into_inner(),
        oob: oob.into_inner(),
        leaked_bytes: pool.stats().reserved_bytes,
    }
}

/// Any interleaving of donate/shrink/grow/compact with the shared
/// workload keeps the violation projection zero — and thus pairwise
/// equal with every family of the differential sweep running the
/// plain workload on the same seed.
#[test]
fn elastic_maintenance_is_contract_invisible() {
    cases("elastic_maintenance_is_contract_invisible", 16, |rng| {
        let seed = rng.below(4);
        let ops: Vec<MaintOp> = (0..1 + rng.below(9)).map(|_| maint_op(rng)).collect();
        let maint = pool_ledger_with_maintenance(seed, &ops);
        assert_eq!(
            maint.attempted,
            maint.served + maint.denied,
            "maintenance ledger does not balance: {:?} under {:?}",
            maint,
            ops
        );
        assert!(maint.served > 0, "workload never got served under {:?}", ops);
        assert_eq!(
            maint.violations(),
            (0, 0, 0),
            "maintenance interleaving broke the contract: {:?} under {:?}",
            maint,
            ops
        );
        for a in families(HEAP) {
            let led = outcome_ledger(a.as_ref(), seed);
            assert_eq!(
                led.violations(),
                maint.violations(),
                "family {} diverges from the maintained pool on seed {}",
                a.name(),
                seed
            );
        }
    });
}

/// Same seed, same family, fresh heap ⇒ the *entire* ledger replays
/// identically — the differential sweep is deterministic evidence, not a
/// flaky sample.
#[test]
fn differential_sweep_ledgers_replay_per_seed() {
    for a in families(HEAP) {
        let first = outcome_ledger(a.as_ref(), 0);
        a.reset();
        let second = outcome_ledger(a.as_ref(), 0);
        assert_eq!(
            first,
            second,
            "{}: seed 0 must replay to an identical ledger (GALLATIN_SCHED_SEED=0)",
            a.name()
        );
    }
}
