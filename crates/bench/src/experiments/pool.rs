//! E18 — sharded-pool scaling (`repro pool`).
//!
//! Runs the E16 block-churn workload through a [`GallatinPool`] of 1, 2,
//! 4, and 8 instances — each instance carrying the same per-instance
//! configuration as the single-allocator churn, so the 1-instance column
//! is directly comparable to E16 — and emits `BENCH_pool.json` with
//! **per-instance** atomic-op and spill counts. Under the
//! deterministic scheduler the counts are exact functions of the seed,
//! so sharding effects (atomics spread across instance-private metadata,
//! zero cross-instance traffic while every home has capacity) show up as
//! bit-stable numbers rather than wall-clock noise.
//!
//! A second, deterministic **pressure** case drains one instance with
//! segment-sized claims from a single SM and keeps allocating, forcing
//! the overflow walk: its spill count is exact (every claim past the
//! home instance's 16th spills to the sibling) and regression-tested
//! below.

use crate::report::{emit_records, BenchRecord};
use crate::HarnessConfig;
use gallatin::{GallatinConfig, GallatinPool};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};

use super::ablation::{
    block_churn_config, churn_counts, churn_sweep, SWEEP_ROUNDS, SWEEP_SEEDS_SMOKE,
    SWEEP_SIZE_BLOCK, SWEEP_WARPS,
};

/// Pool widths swept by `repro pool`.
const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Schedule seed for the pressure case (any seed reproduces the same
/// spill count — one warp, one SM, nothing to interleave with).
const PRESSURE_SEED: u64 = 3;

/// Segment-sized claims issued by the pressure case: the home instance
/// holds 16 small_test segments, so the remaining claims all spill.
const PRESSURE_CLAIMS: u64 = 24;

/// E18's columns; a spill rate is `spills / requests`.
const COLUMNS: &str = "case,instances,instance,cas_attempts,cas_failures,atomic_rmw,spills,\
    requests";

/// One pool instance's totals across a seed sweep: its metrics and the
/// spills charged to it as a home.
type InstanceCounts = (MetricsSnapshot, u64);

/// Run the block churn over `seeds` deterministic schedules on a fresh
/// allocator from `make` per seed, reading the `n`-instance pool inside
/// it through `pool_of` (the identity for a [`GallatinPool`]; the parity
/// test below reaches through a one-device `DevicePool`). Returns
/// per-instance totals.
fn churn_pool<A: DeviceAllocator>(
    n: usize,
    seeds: u64,
    make: impl Fn() -> A,
    pool_of: impl Fn(&A) -> &GallatinPool,
) -> Vec<InstanceCounts> {
    let mut per = vec![InstanceCounts::default(); n];
    churn_sweep(0..seeds, SWEEP_SIZE_BLOCK, make, |a| {
        let pool = pool_of(a);
        for (i, (m, spills)) in per.iter_mut().enumerate() {
            *m += pool.instance(i).metrics().expect("gallatin keeps metrics").snapshot();
            *spills += pool.spill_count(i);
        }
    });
    per
}

/// The deterministic pressure case: one SM drains its home instance with
/// segment-sized claims, forcing the overflow walk onto the sibling.
/// Returns `(spills charged to the home, claims issued)`.
fn pressure() -> (u64, u64) {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(1 << 20));
    launch_warps(DeviceConfig::with_sms(1).seeded(PRESSURE_SEED), 32, |warp| {
        let lane = warp.lane(0);
        let seg = pool.instance(0).geometry().segment_bytes;
        let held: Vec<DevicePtr> = (0..PRESSURE_CLAIMS).map(|_| pool.malloc(&lane, seg)).collect();
        assert!(held.iter().all(|p| !p.is_null()), "sibling must absorb the pressure");
        for p in held {
            pool.free(&lane, p);
        }
    });
    pool.check_invariants().expect("invariants after pressure case");
    (pool.spill_count(0), PRESSURE_CLAIMS)
}

/// Records for one pool width: the aggregate row, and one row per
/// instance (the per-instance counts are the experiment's deliverable).
fn width_records(experiment: &str, n: usize, seeds: u64) -> (BenchRecord, Vec<BenchRecord>) {
    let per = churn_pool(n, seeds, || GallatinPool::new(n, block_churn_config()), |p| p);
    let base = BenchRecord::new(experiment, "GallatinPool").case("pool-churn");
    let mut total = InstanceCounts::default();
    for (m, spills) in &per {
        total.0 += *m;
        total.1 += spills;
    }
    let aggregate =
        base.clone().param("instances", n).param("size", SWEEP_SIZE_BLOCK).param("seeds", seeds);
    let aggregate = churn_counts(aggregate, &total.0).count("spills", total.1);
    let rows = per.iter().enumerate().map(|(i, (m, spills))| {
        let rec = base
            .clone()
            .param("instances", n)
            .param("instance", i)
            .param("size", SWEEP_SIZE_BLOCK)
            .param("seeds", seeds);
        churn_counts(rec, m).count("spills", *spills)
    });
    (aggregate, rows.collect())
}

/// The smoke-gate slice of E18: the 2-instance aggregate row at the
/// smoke seed width, one of the `bench-smoke` records, so a pool-path
/// count regression fails the same gate as the single-instance sweeps.
pub fn smoke_record() -> BenchRecord {
    width_records("bench_smoke", 2, SWEEP_SEEDS_SMOKE).0
}

/// Run the E18 sweep and emit table, CSV and `BENCH_pool.json`.
pub fn run_pool(cfg: &HarnessConfig) {
    let seeds = SWEEP_SEEDS_SMOKE;
    let mut recs = Vec::new();
    for n in POOL_WIDTHS {
        let (aggregate, rows) = width_records("pool", n, seeds);
        // Only the aggregate row carries the spill-rate denominator:
        // the allocation requests one churn sweep issues.
        recs.push(aggregate.count("requests", seeds * SWEEP_WARPS * 32 * SWEEP_ROUNDS));
        recs.extend(rows);
    }
    let (spills, claims) = pressure();
    recs.push(
        BenchRecord::new("pool", "GallatinPool")
            .case("pressure")
            .param("instances", 2)
            .param("seed", PRESSURE_SEED)
            .count("spills", spills)
            .count("requests", claims),
    );

    let title = "E18 — sharded pool: block churn across instance counts";
    emit_records(cfg, "pool", title, "e18_pool", COLUMNS, &recs);
    println!(
        "pressure case: {spills} of {claims} segment claims spilled to the sibling \
         (home capacity 16 segments)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallatin::DevicePool;

    #[test]
    fn pool_churn_counts_replay_and_never_spill_with_headroom() {
        let run = || churn_pool(2, 2, || GallatinPool::new(2, block_churn_config()), |p| p);
        let a = run();
        assert_eq!(a, run(), "pool churn must replay exactly");
        assert_eq!(
            a.iter().map(|(_, spills)| spills).sum::<u64>(),
            0,
            "every home instance has capacity for this workload"
        );
        // Both instances see traffic: 8 SMs split evenly over 2 homes.
        assert!(a.iter().all(|(m, _)| m.atomic_rmw > 0), "every instance must serve its SMs");
    }

    /// The topology layer adds host-side accounting only, never a
    /// scheduler preemption point: `DevicePool(1, 2)` reproduces
    /// `GallatinPool(2)`'s per-instance churn counts bit-identically.
    #[test]
    fn single_device_parity_holds_on_the_churn() {
        let seeds = 4;
        let flat = churn_pool(2, seeds, || GallatinPool::new(2, block_churn_config()), |p| p);
        let one =
            churn_pool(2, seeds, || DevicePool::new(1, 2, block_churn_config()), |t| t.pool(0));
        assert_eq!(flat, one, "DevicePool(1,2) churn diverged from GallatinPool(2)");
        assert!(
            flat.iter().all(|(m, _)| m.cas_attempts > 0),
            "the churn must actually exercise CAS paths"
        );
    }

    #[test]
    fn pressure_case_spills_exactly_the_overflow() {
        let (spills, claims) = pressure();
        assert_eq!(spills, claims - 16, "every claim past the home's 16 segments spills");
        assert_eq!(pressure().0, spills, "the pressure spill count is deterministic");
    }
}
