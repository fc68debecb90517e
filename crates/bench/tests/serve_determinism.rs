//! Serving-layer guarantees (ISSUE PR7 satellite 3):
//!
//! 1. **Determinism** — the same `(GALLATIN_SCHED_SEED, arrival seed)`
//!    pair produces byte-identical outcomes, including the full latency
//!    histogram, across independent runs and for both backend families.
//! 2. **Admission safety** — under randomized arrival mixes, no tenant's
//!    committed bytes ever exceed its quota while enforcement is on.

use bench::serve::{run_serve_engine, ArrivalConfig, ArrivalShape, ServeConfig, TenantSpec};
use gallatin::{Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::cases;

fn tenants(quota_a: u64, quota_b: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "svc-a".into(),
            weight: 3,
            quota_bytes: quota_a,
            size_min: 16,
            size_max: 4096,
            mean_lifetime_steps: 96,
        },
        TenantSpec {
            name: "svc-b".into(),
            weight: 1,
            quota_bytes: quota_b,
            size_min: 64,
            size_max: 1024,
            mean_lifetime_steps: 24,
        },
    ]
}

fn serve_cfg(shape: ArrivalShape, arrival_seed: u64, sched_seed: u64, rate: u64) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalConfig {
            shape,
            seed: arrival_seed,
            rate_per_kstep: rate,
            horizon_steps: 8_000,
        },
        tenants: tenants(1 << 21, 1 << 20),
        sched_seed,
        batch_width: 32,
        queue_capacity: 128,
        launch_overhead_steps: 8,
        max_request_bytes: u64::MAX,
        enforce_quotas: true,
        num_sms: 8,
        ledger_check: true,
    }
}

/// Same seeds ⇒ identical outcome, down to every histogram bucket, on a
/// fresh allocator per run (what two invocations of `repro serve` do).
#[test]
fn same_seeds_replay_byte_identical_histograms() {
    for shape in [ArrivalShape::Poisson, ArrivalShape::Bursty] {
        let cfg = serve_cfg(shape, 0xFEED, 7, 120);
        let a = run_serve_engine(&cfg, &Gallatin::new(GallatinConfig::small_test(1 << 22)));
        let b = run_serve_engine(&cfg, &Gallatin::new(GallatinConfig::small_test(1 << 22)));
        assert_eq!(a, b, "whole outcome must replay ({})", shape.label());
        // The histogram comparison the BENCH_serve.json gate relies on,
        // stated byte-for-byte.
        assert_eq!(
            format!("{:?}", a.latency.hist),
            format!("{:?}", b.latency.hist),
            "latency histograms must be byte-identical"
        );
        assert!(a.served > 0 && a.clean());
    }
}

/// The pool backend replays too, and a different schedule seed really
/// changes the run (the clock is schedule-driven, not a constant) — at
/// width 64 and rate 960, where a launch's lanes fill several warps: a
/// batch's frees and mallocs share lanes, and since block lanes share a
/// ring ticket, a launch of one warp gives every seed one latency.
#[test]
fn pool_backend_replays_and_seed_matters() {
    let cfg = ServeConfig { batch_width: 64, ..serve_cfg(ArrivalShape::Poisson, 0xBEEF, 11, 960) };
    let mk = || GallatinPool::new(2, GallatinConfig::small_test(1 << 22));
    let a = run_serve_engine(&cfg, &mk());
    let mallocs_per_batch = a.admitted as f64 / a.batches as f64;
    assert!(mallocs_per_batch > 32.0, "{mallocs_per_batch} mallocs a batch fit one warp");
    let b = run_serve_engine(&cfg, &mk());
    assert_eq!(a, b, "pool outcome must replay");
    let other = ServeConfig { sched_seed: 12, ..cfg };
    let c = run_serve_engine(&other, &mk());
    assert_ne!(a.latency, c.latency, "schedule seed must actually drive service time");
}

/// Admission control invariant: whatever the arrival mix, no
/// tenant's committed bytes ever exceed its quota.
#[test]
fn no_tenant_ever_exceeds_quota() {
    cases("no_tenant_ever_exceeds_quota", 24, |rng| {
        let (arrival_seed, sched_seed, rate) =
            (rng.next_u64(), rng.next_u64(), 20 + rng.below(220));
        let quota_a = (4 << 10) + rng.below((1 << 21) - (4 << 10));
        let quota_b = (1 << 10) + rng.below((1 << 20) - (1 << 10));
        let shape_ix = rng.below(3) as usize;
        let shape = [ArrivalShape::Poisson, ArrivalShape::Bursty, ArrivalShape::Diurnal][shape_ix];
        let mut cfg = serve_cfg(shape, arrival_seed, sched_seed, rate);
        cfg.arrivals.horizon_steps = 3_000;
        cfg.tenants = tenants(quota_a, quota_b);
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 22));
        let out = run_serve_engine(&cfg, &alloc);
        assert_eq!(out.quota_violations, 0);
        for t in &out.tenants {
            assert!(
                t.peak_live_bytes <= t.quota_bytes,
                "{} peaked at {} over quota {}",
                t.name,
                t.peak_live_bytes,
                t.quota_bytes
            );
        }
        // The run must also stay lifecycle-clean: every served
        // allocation freed, no double frees, no size mismatches.
        assert_eq!(out.ledger.leaks, 0);
        assert_eq!(out.ledger.double_frees, 0);
        assert_eq!(out.ledger.unknown_frees, 0);
        assert_eq!(out.ledger.size_mismatches, 0);
    });
}
