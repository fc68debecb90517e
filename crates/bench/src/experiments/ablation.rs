//! E16 — deterministic atomic-count ablation for the contention diet
//! (randomized probe starts + batched slice claims), and the
//! `bench-smoke` CI gate built on it.
//!
//! Wall-clock on shared CI runners is noise, but under the
//! deterministic scheduler ([`gpu_sim::ExecMode::Deterministic`]) the
//! interleaving — and therefore every atomic-op counter — is an exact
//! function of the seed. This experiment measures two things the paper's
//! §4.3 contention argument predicts:
//!
//! 1. **Coalesced-group cost** — a 32-lane same-class malloc group costs
//!    O(1) shared-metadata atomics, not O(lanes): a handful on a cold
//!    heap (segment claim, block-tree insert, ring pop, slice claim) and
//!    exactly **one** batched slice-claim CAS once a block is cached.
//! 2. **Probe-start sweep** — a fixed multi-seed churn workload run with
//!    `randomize_probe_starts` on vs off, at two sizes. 16 B exercises
//!    the slice hot path (buffered blocks absorb almost all traffic, so
//!    counts must not get *worse*); 1 KiB drives the block pipeline —
//!    every malloc pops a block and segments cycle constantly — which is
//!    exactly where §4.3 predicts hashed probe starts pay off: SMs stop
//!    hammering bit 0 of the same trees and the CAS-attempt total drops
//!    severalfold.
//!
//! 3. **Coalescing on / off** (E14's count witness) — the same 16 B
//!    request from every lane of every warp, issued as one collective
//!    `warp_malloc` and again lane by lane: the shared-metadata atomics a
//!    malloc costs with and without the warp's one leader claim.
//!
//! All workload constants are fixed (never scaled by [`HarnessConfig`])
//! so the emitted counts are bit-identical across hosts; that is what
//! lets `bench-smoke` require them to equal a checked-in baseline byte
//! for byte.

use crate::report::{emit_records, parse_bench_json, render_bench_json, BenchRecord};
use crate::HarnessConfig;
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx, WARP_SIZE};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schedule seed for the single-warp group-cost part (any seed gives the
/// same counts — one warp has nothing to interleave with).
const GROUP_SEED: u64 = 7;

/// Seeds swept in the contention part: full run covers `0..64`, the CI
/// smoke subset `0..8` (a strict prefix, so smoke counts are a
/// deterministic fraction of the full run's).
const SWEEP_SEEDS_FULL: u64 = 64;
pub(crate) const SWEEP_SEEDS_SMOKE: u64 = 8;

/// Churn shape: warps × rounds of coalesced same-class groups. 32 warps
/// across 8 SMs over a 16-segment heap is enough for probes to collide
/// when everyone starts at bit 0.
pub(crate) const SWEEP_WARPS: u64 = 32;
pub(crate) const SWEEP_ROUNDS: u64 = 4;
pub(crate) const SWEEP_SMS: u32 = 8;
const SWEEP_HEAP: u64 = 1 << 20; // 16 × 64 KiB segments (small_test geometry)

/// Sweep sizes: the slice hot path and the block-pipeline churn case.
const SWEEP_SIZE_SLICE: u64 = 16;
pub(crate) const SWEEP_SIZE_BLOCK: u64 = 1024;

/// Heap for the block-churn sweep: the 1 KiB case pins one whole block
/// per in-flight request (32 warps × 32 lanes = 1 MiB peak), so it gets
/// twice the headroom of the slice case.
const SWEEP_HEAP_BLOCK: u64 = 2 << 20; // 32 × 64 KiB segments

/// The churn allocator configuration at `size`: hashed probe starts on
/// the small_test geometry, with the block-churn headroom above the
/// slice classes.
pub(crate) fn sweep_config(size: u64) -> GallatinConfig {
    let heap = if size > 256 { SWEEP_HEAP_BLOCK } else { SWEEP_HEAP };
    GallatinConfig { randomize_probe_starts: true, ..GallatinConfig::small_test(heap) }
}

/// The block-churn allocator configuration (per instance, when the E18
/// pool experiment shards it; E17's trace capture and E19's recording
/// replay exactly this setup).
pub(crate) fn block_churn_config() -> GallatinConfig {
    sweep_config(SWEEP_SIZE_BLOCK)
}

/// One deterministic churn launch: `SWEEP_WARPS` warps ×
/// `SWEEP_ROUNDS` rounds of coalesced same-size malloc/free at `size`,
/// under schedule `seed`. The sweep's unit of work, also replayed by
/// E17's trace capture and sharded by E18's pool scaling, so traced and
/// pooled counts line up with gated ones.
fn churn_once<A: DeviceAllocator + ?Sized>(g: &A, seed: u64, size: u64) {
    let device = DeviceConfig::with_sms(SWEEP_SMS).seeded(seed);
    launch_warps(device, SWEEP_WARPS * 32, |warp| {
        let sizes = vec![Some(size); warp.active as usize];
        let mut out = vec![DevicePtr::NULL; warp.active as usize];
        for _ in 0..SWEEP_ROUNDS {
            g.warp_malloc(warp, &sizes, &mut out);
            assert!(
                out.iter().all(|p| !p.is_null()),
                "sweep heap must never run out (capacity ≫ working set)"
            );
            g.warp_free(warp, &out);
        }
    });
}

/// The harness's one seeded churn loop (E16 sweeps, E18 pool widths,
/// E23 parity): per seed, a fresh allocator from `make`, one
/// [`churn_once`] at `size`, then the audit — invariants hold and
/// nothing leaked — before the quiescent allocator goes to `read`,
/// which accumulates whatever counters its experiment reports.
pub(crate) fn churn_sweep<A: DeviceAllocator>(
    seeds: impl IntoIterator<Item = u64>,
    size: u64,
    make: impl Fn() -> A,
    mut read: impl FnMut(&A),
) {
    for seed in seeds {
        let a = make();
        churn_once(&a, seed, size);
        a.check_invariants().expect("invariants after churn sweep");
        assert_eq!(a.stats().reserved_bytes, 0, "churn sweep leaked");
        read(&a);
    }
}

/// Append the three gated churn counters, in baseline order.
pub(crate) fn churn_counts(rec: BenchRecord, m: &MetricsSnapshot) -> BenchRecord {
    rec.count("cas_attempts", m.cas_attempts)
        .count("cas_failures", m.cas_failures)
        .count("atomic_rmw", m.atomic_rmw)
}

/// Part 1: shared-metadata atomics for one coalesced 32-lane group, on a
/// cold heap and again once the SM's block buffer is warm. Returns
/// `(fresh, steady)` where each is `atomic_rmw + cas_attempts` deltas.
fn group_cost() -> (u64, u64) {
    let g = Gallatin::new(sweep_config(SWEEP_SIZE_SLICE));
    let device = DeviceConfig::with_sms(SWEEP_SMS).seeded(GROUP_SEED);
    let fresh = AtomicU64::new(0);
    let steady = AtomicU64::new(0);
    launch_warps(device, 32, |warp| {
        let sizes = vec![Some(16u64); 32];
        let mut out = vec![DevicePtr::NULL; 32];
        let spent = |m: &gpu_sim::Metrics| {
            let s = m.snapshot();
            s.atomic_rmw + s.cas_attempts
        };
        let m = g.metrics().expect("gallatin keeps metrics");
        let before = spent(m);
        g.warp_malloc(warp, &sizes, &mut out);
        fresh.store(spent(m) - before, Ordering::Relaxed);
        assert!(out.iter().all(|p| !p.is_null()), "cold group must be served");
        // The block now sits in the SM's buffer with spare capacity
        // (32 of 64 slices taken); a second, 16-lane group (the other
        // lanes sit out with `None`) must collapse to the single
        // batched claim.
        let mut sizes2 = vec![Some(16u64); 16];
        sizes2.resize(32, None);
        let mut out2 = vec![DevicePtr::NULL; 32];
        let before = spent(m);
        g.warp_malloc(warp, &sizes2, &mut out2);
        steady.store(spent(m) - before, Ordering::Relaxed);
        assert!(out2[..16].iter().all(|p| !p.is_null()), "warm group must be served");
        g.warp_free(warp, &out);
        g.warp_free(warp, &out2);
    });
    g.check_invariants().expect("invariants after group-cost probe");
    (fresh.load(Ordering::Relaxed), steady.load(Ordering::Relaxed))
}

/// Part 2: the fixed churn workload over `seeds` deterministic
/// schedules, with probe-start randomization on or off — [`churn_sweep`]
/// over one [`Gallatin`] per seed, summing its metrics.
fn sweep(randomize: bool, seeds: u64, size: u64) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    let make = || {
        let mut cfg = sweep_config(size);
        cfg.randomize_probe_starts = randomize;
        Gallatin::new(cfg)
    };
    churn_sweep(0..seeds, size, make, |g| {
        total += g.metrics().expect("gallatin keeps metrics").snapshot();
    });
    total
}

/// Part 3: every lane of `SWEEP_WARPS` warps mallocs and frees 16 B once,
/// through the warp-collective entry points and again lane by lane, each
/// on a fresh allocator under one schedule. Returns `(mallocs, coalesced,
/// scalar)`, the latter two in `atomic_rmw + cas_attempts`.
fn coalescing_cost() -> (u64, u64, u64) {
    fn spent(kernel: impl Fn(&Gallatin, &WarpCtx) + Sync) -> (u64, u64) {
        let g = Gallatin::new(sweep_config(SWEEP_SIZE_SLICE));
        let device = DeviceConfig::with_sms(SWEEP_SMS).seeded(GROUP_SEED);
        launch_warps(device, SWEEP_WARPS * 32, |warp| kernel(&g, warp));
        g.check_invariants().expect("invariants after the coalescing probe");
        let m = g.metrics().expect("gallatin keeps metrics").snapshot();
        assert_eq!(m.failed_mallocs, 0, "the probe's working set fits the heap");
        (m.mallocs, m.atomic_rmw + m.cas_attempts)
    }
    let (mallocs, coalesced) = spent(|g, warp| {
        let n = warp.active as usize;
        let mut out = [DevicePtr::NULL; WARP_SIZE];
        g.warp_malloc(warp, &[Some(SWEEP_SIZE_SLICE); WARP_SIZE][..n], &mut out[..n]);
        g.warp_free(warp, &out[..n]);
    });
    let (scalar_mallocs, scalar) = spent(|g, warp| {
        let mut out = [DevicePtr::NULL; WARP_SIZE];
        for lane in warp.lanes() {
            out[lane] = g.malloc(&warp.lane(lane), SWEEP_SIZE_SLICE);
        }
        for lane in warp.lanes() {
            g.free(&warp.lane(lane), out[lane]);
        }
    });
    assert_eq!(mallocs, scalar_mallocs, "both arms issue the same requests");
    (mallocs, coalesced, scalar)
}

/// Build the full record set at the given sweep width.
fn records(experiment: &str, seeds: u64) -> Vec<BenchRecord> {
    let (fresh, steady) = group_cost();
    assert_eq!(steady, 1, "steady-state coalesced group must cost exactly one atomic");
    let mut out = vec![BenchRecord::new(experiment, "Gallatin")
        .case("group-cost")
        .param("lanes", 32)
        .count("fresh_group_atomics", fresh)
        .count("steady_group_atomics", steady)];
    for size in [SWEEP_SIZE_SLICE, SWEEP_SIZE_BLOCK] {
        for (label, randomize) in [("on", true), ("off", false)] {
            let rec = BenchRecord::new(experiment, "Gallatin")
                .case("sweep")
                .param("size", size)
                .param("randomize_probe_starts", label)
                .param("seeds", seeds);
            out.push(churn_counts(rec, &sweep(randomize, seeds, size)));
        }
    }
    out
}

/// E16's columns: every case's params, then every count a case carries.
const COLUMNS: &str = "allocator,case,size,randomize_probe_starts,seeds,instances,lanes,\
    cas_attempts,cas_failures,atomic_rmw,spills,fresh_group_atomics,steady_group_atomics,\
    mallocs,coalesced_atomics,scalar_atomics";

/// Print E16's table and write `e16_<experiment>.csv` and its JSON.
fn emit(cfg: &HarnessConfig, experiment: &str, recs: &[BenchRecord]) -> bool {
    let title = format!("E16 — deterministic atomic-count ablation ({experiment})");
    emit_records(cfg, experiment, title, &format!("e16_{experiment}"), COLUMNS, recs)
}

/// Run the full ablation (64-seed sweep) and emit table + CSV + JSON.
pub fn run_ablation(cfg: &HarnessConfig) {
    let mut recs = records("ablation", SWEEP_SEEDS_FULL);
    let (mallocs, coalesced, scalar) = coalescing_cost();
    recs.push(
        BenchRecord::new("ablation", "Gallatin")
            .case("coalescing")
            .param("size", SWEEP_SIZE_SLICE)
            .count("mallocs", mallocs)
            .count("coalesced_atomics", coalesced)
            .count("scalar_atomics", scalar),
    );
    emit(cfg, "ablation", &recs);
    let find = |rand: &str, k: &str| {
        recs.iter()
            .find(|r| {
                r.get_param("size") == Some("1024")
                    && r.get_param("randomize_probe_starts") == Some(rand)
            })
            .and_then(|r| r.get_count(k))
            .unwrap_or(0)
    };
    println!(
        "randomized probe starts (1 KiB block churn): cas attempts {} → {}, rmw {} → {} (off → on)",
        find("off", "cas_attempts"),
        find("on", "cas_attempts"),
        find("off", "atomic_rmw"),
        find("on", "atomic_rmw"),
    );
    println!(
        "warp coalescing (16 B, {mallocs} mallocs): {:.3} atomics per malloc collective, {:.3} \
         lane by lane ({:.1}x)",
        coalesced as f64 / mallocs as f64,
        scalar as f64 / mallocs as f64,
        scalar as f64 / coalesced as f64,
    );
}

/// `Ok` when `current` renders to the committed document `committed`
/// byte for byte; otherwise `Err` naming the `key()` of the first record
/// that renders differently, or that only one side has.
pub fn smoke_verdict(current: &[BenchRecord], committed: &str) -> Result<(), String> {
    if render_bench_json("bench_smoke", current) == committed {
        return Ok(());
    }
    let baseline = parse_bench_json(committed)?;
    let render =
        |r: Option<&BenchRecord>| r.map(|r| render_bench_json("", std::slice::from_ref(r)));
    let differs = |i: &usize| render(current.get(*i)) != render(baseline.get(*i));
    Err(match (0..current.len().max(baseline.len())).find(differs) {
        Some(i) => format!("record {} differs", current.get(i).or(baseline.get(i)).unwrap().key()),
        None => "the document differs outside its records".to_string(),
    })
}

/// Run the CI smoke subset and gate it against the checked-in baseline.
///
/// Reads `results/BENCH_bench_smoke.json` (committed to the repo) before
/// writing the current counts to `<out_dir>/BENCH_bench_smoke.json`, then
/// fails — returns `false` — unless the two are equal byte for byte and
/// the current file was written.
/// Refreshing the baseline is just running `repro bench-smoke` with the
/// default `--out results` and committing the rewritten file (see
/// EXPERIMENTS.md).
pub fn run_bench_smoke(cfg: &HarnessConfig) -> bool {
    let baseline = std::fs::read_to_string(Path::new("results").join("BENCH_bench_smoke.json"));
    // The smoke subset: the 8-seed prefix of the full sweep, plus the
    // 2-instance pool churn from E18.
    let mut recs = records("bench_smoke", SWEEP_SEEDS_SMOKE);
    recs.push(super::pool::smoke_record());
    let written = emit(cfg, "bench_smoke", &recs);
    match baseline.map_err(|e| e.to_string()).and_then(|b| smoke_verdict(&recs, &b)) {
        Ok(()) => {
            println!("bench-smoke: every count equals results/BENCH_bench_smoke.json");
            written
        }
        Err(e) => {
            eprintln!(
                "bench-smoke: {e} from results/BENCH_bench_smoke.json; if on purpose, run \
                 `repro bench-smoke` from the repo root and commit the rewritten file"
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_raised_by_one_fails_the_gate_naming_its_record() {
        let rec = |case: &str| BenchRecord::new("bench_smoke", "Gallatin").case(case).count("n", 5);
        let recs = [rec("a"), rec("b"), rec("c")];
        let committed = render_bench_json("bench_smoke", &recs);
        assert_eq!(smoke_verdict(&recs, &committed), Ok(()));
        let mut raised = recs.clone();
        raised[1].counts[0].1 += 1;
        let err = smoke_verdict(&recs, &render_bench_json("bench_smoke", &raised)).unwrap_err();
        assert_eq!(err, "record Gallatin[case=b] differs");
    }

    #[test]
    fn group_cost_is_o1_and_deterministic() {
        let (fresh, steady) = group_cost();
        assert!(fresh <= 6, "cold 32-lane group cost {fresh} atomics");
        assert_eq!(steady, 1, "warm group must be the single batched claim");
        assert_eq!((fresh, steady), group_cost(), "counts must replay exactly");
    }

    #[test]
    fn coalescing_cuts_atomics_per_malloc_and_replays_exactly() {
        let (mallocs, coalesced, scalar) = coalescing_cost();
        assert_eq!(mallocs, SWEEP_WARPS * 32);
        assert!(coalesced < scalar, "coalesced={coalesced} scalar={scalar}");
        assert_eq!((mallocs, coalesced, scalar), coalescing_cost(), "counts must replay exactly");
    }

    #[test]
    fn randomization_does_not_increase_slice_cas_traffic() {
        let on = sweep(true, 4, SWEEP_SIZE_SLICE);
        let off = sweep(false, 4, SWEEP_SIZE_SLICE);
        assert!(
            on.cas_attempts <= off.cas_attempts,
            "randomized probes must not add CAS traffic: on={} off={}",
            on.cas_attempts,
            off.cas_attempts
        );
        // Deterministic: a second run of the same sweep is bit-identical.
        assert_eq!(on, sweep(true, 4, SWEEP_SIZE_SLICE));
    }

    #[test]
    fn randomization_cuts_block_churn_cas_traffic() {
        // Block-pipeline churn: every malloc pops a block, so the tree
        // probes dominate — the case §4.3's randomization targets. The
        // drop is severalfold; assert a conservative strict reduction.
        let on = sweep(true, 4, SWEEP_SIZE_BLOCK);
        let off = sweep(false, 4, SWEEP_SIZE_BLOCK);
        assert!(
            on.cas_attempts < off.cas_attempts,
            "hashed probe starts must reduce block-churn CAS attempts: on={} off={}",
            on.cas_attempts,
            off.cas_attempts
        );
    }
}
