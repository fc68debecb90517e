//! E20 — serving-mode sweeps: open-loop arrivals, batched launches,
//! tail latency and goodput (`repro serve`).
//!
//! Three questions the closed-loop experiments (E1–E17) cannot answer:
//!
//! 1. **Load → tail latency.** Sweeping offered load across the same
//!    arrival shapes shows p50 staying flat while p99/p999 blow up as
//!    the queue saturates, and goodput collapsing past the knee — the
//!    classic open-loop signature.
//! 2. **Batch width → p999.** Wider batches amortize launch overhead
//!    (more goodput per launch) but delay early requests and lengthen
//!    each launch, trading p999 for throughput.
//! 3. **Fairness.** An aggressive tenant floods the system; with quota
//!    admission its overcommit is rejected at the door and the
//!    well-behaved victim's p99 stays bounded, without admission the
//!    victim queues behind the flood.
//!
//! Everything runs on the deterministic scheduler: latencies are in
//! schedule steps and replay byte-identically from
//! `GALLATIN_SCHED_SEED` (see the `serve_determinism` test); nothing is
//! timed on the wall clock.
//!
//! `--smoke` shrinks the sweep to one gating subset per backend. Either
//! way the run returns `false` (exit 1 in `repro`) on any quota
//! violation or ledger anomaly, or when a backend's `check_invariants`
//! fails after a cell.

use super::DEFAULT_SEED;
use crate::report::{emit_records, BenchRecord};
use crate::serve::{
    run_serve_engine, run_serve_engine_sampled, ArrivalConfig, ArrivalShape, Rejection,
    ServeConfig, ServeOutcome, TenantSpec,
};
use crate::HarnessConfig;
use gallatin::{DevicePool, Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::sched::{seed_override, SCHED_SEED_ENV};
use gpu_sim::DeviceAllocator;
use std::sync::Arc;

/// Arrival-seed offset: keeps the arrival stream independent of the
/// schedule stream even though both replay from one env knob.
const ARRIVAL_SEED_XOR: u64 = 0x5EED_A221;

/// Offered loads swept (requests per 1000 steps). The top load sits
/// past the saturation knee at the default batch width.
const LOADS: [u64; 3] = [30, 90, 270];

/// Passes per cell outside `--smoke` (which runs one): the sweep's
/// counts, not a wall-clock figure, so `--runs` does not set them.
const PASSES: usize = 3;

/// Batch widths swept at the middle load.
const BATCH_WIDTHS: [usize; 3] = [16, 64, 256];

/// Per-instance heap for the serving backends; small_test geometry
/// keeps runs fast while still exercising all three tiers.
const SERVE_HEAP: u64 = 1 << 22;

/// The two serving backends: flagship Gallatin and a 2-instance pool
/// (ISSUE: "Gallatin and GallatinPool(2+)").
fn backends() -> Vec<(String, Arc<dyn DeviceAllocator>, u64)> {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(SERVE_HEAP));
    let pool_stride = pool.stride();
    vec![
        (
            "Gallatin".to_string(),
            Arc::new(Gallatin::new(GallatinConfig::small_test(SERVE_HEAP))) as Arc<_>,
            u64::MAX,
        ),
        ("GallatinPool(2)".to_string(), Arc::new(pool) as Arc<_>, pool_stride),
    ]
}

/// Every *remaining* roster family plus the hierarchical topology pool,
/// each of which rides through one serving matrix cell (scenario
/// "roster"). The two flagship backends already run the full load
/// sweep, so they are filtered out here.
fn roster_backends() -> Vec<(String, Arc<dyn DeviceAllocator>, u64)> {
    let mut v: Vec<(String, Arc<dyn DeviceAllocator>, u64)> =
        crate::roster::quick_roster(2 * SERVE_HEAP, 16)
            .into_iter()
            .filter(|a| a.name() != "Gallatin")
            .map(|a| (a.name().to_string(), a, u64::MAX))
            .collect();
    let dp = DevicePool::new(2, 1, GallatinConfig::small_test(SERVE_HEAP));
    let stride = dp.stride();
    v.push(("DevicePool(2x1)".to_string(), Arc::new(dp) as Arc<_>, stride));
    v
}

/// The standard two-tenant mix: a heavy service and a light one.
fn standard_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "svc-a".into(),
            weight: 3,
            quota_bytes: 1 << 21,
            size_min: 16,
            size_max: 4096,
            mean_lifetime_steps: 96,
        },
        TenantSpec {
            name: "svc-b".into(),
            weight: 1,
            quota_bytes: 1 << 20,
            size_min: 64,
            size_max: 1024,
            mean_lifetime_steps: 24,
        },
    ]
}

/// The fairness mix: `victim` issues modest requests; `aggressor`
/// floods with large long-lived ones. Its quota is what the throttled
/// arm enforces.
fn fairness_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "victim".into(),
            weight: 1,
            quota_bytes: 1 << 20,
            size_min: 64,
            size_max: 512,
            mean_lifetime_steps: 32,
        },
        TenantSpec {
            name: "aggressor".into(),
            weight: 6,
            quota_bytes: 64 << 10,
            size_min: 2048,
            size_max: 4096,
            mean_lifetime_steps: 2048,
        },
    ]
}

/// Base config for one sweep cell.
#[allow(clippy::too_many_arguments)]
fn cell_config(
    shape: ArrivalShape,
    rate: u64,
    batch_width: usize,
    horizon: u64,
    seed: u64,
    max_request: u64,
    tenants: Vec<TenantSpec>,
    num_sms: u32,
) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalConfig {
            shape,
            seed: seed ^ ARRIVAL_SEED_XOR,
            rate_per_kstep: rate,
            horizon_steps: horizon,
        },
        tenants,
        sched_seed: seed,
        batch_width,
        queue_capacity: 4 * batch_width.max(64),
        launch_overhead_steps: 8,
        max_request_bytes: max_request,
        enforce_quotas: true,
        num_sms,
        ledger_check: true,
    }
}

/// Run one cell `passes` times on `alloc`; returns the last pass's
/// outcome. The engine drains after every pass, but the allocator keeps
/// its formatted segments and cached blocks, so a later pass (and a later
/// cell on the same backend) starts warm: the outcomes are a deterministic
/// function of the whole sweep, not equal pass to pass.
fn run_passes(cfg: &ServeConfig, alloc: &dyn DeviceAllocator, passes: usize) -> ServeOutcome {
    (0..passes).map(|_| run_serve_engine(cfg, alloc)).last().expect("at least one pass")
}

/// Reduce one outcome to the BENCH counts map. The full latency
/// histogram rides along (`hist_bNN`) so the determinism test can pin
/// the distribution, not just its percentiles.
fn counts_of(out: &ServeOutcome) -> Vec<(String, u64)> {
    let mut counts = vec![
        ("offered".into(), out.offered),
        ("admitted".into(), out.admitted),
        ("served".into(), out.served),
        ("served_bytes".into(), out.served_bytes),
        ("batches".into(), out.batches),
        ("sched_steps".into(), out.sched_steps),
        ("end_step".into(), out.end_step),
        ("p50_steps".into(), out.latency.p50),
        ("p99_steps".into(), out.latency.p99),
        ("p999_steps".into(), out.latency.p999),
        ("max_steps".into(), out.latency.max),
        ("goodput_bytes_per_kstep".into(), out.goodput_bytes_per_kstep()),
        ("quota_violations".into(), out.quota_violations),
        ("ledger_leaks".into(), out.ledger.leaks),
        ("ledger_double_frees".into(), out.ledger.double_frees),
        ("ledger_unknown_frees".into(), out.ledger.unknown_frees),
        ("ledger_size_mismatches".into(), out.ledger.size_mismatches),
    ];
    for (t, why) in out.tenants.iter().flat_map(|t| Rejection::ALL.iter().map(move |&w| (t, w))) {
        counts.push((format!("{}_{}", t.name, why.label()), t.rejected[why as usize]));
    }
    for t in &out.tenants {
        counts.push((format!("{}_peak_live_bytes", t.name), t.peak_live_bytes));
        counts.push((format!("{}_p99_steps", t.name), t.latency.p99));
    }
    for (b, &n) in out.latency.hist.iter().enumerate() {
        if n > 0 {
            counts.push((format!("hist_b{b:02}"), n));
        }
    }
    counts
}

/// Build the BENCH record for one cell.
fn record_of(
    allocator: &str,
    cfg: &ServeConfig,
    out: &ServeOutcome,
    scenario: &str,
) -> BenchRecord {
    let mut rec = BenchRecord::new("serve", allocator)
        .param("scenario", scenario)
        .param("shape", cfg.arrivals.shape.label())
        .param("rate_per_kstep", cfg.arrivals.rate_per_kstep)
        .param("batch_width", cfg.batch_width)
        .param("horizon_steps", cfg.arrivals.horizon_steps)
        .param("admission", if cfg.enforce_quotas { "on" } else { "off" })
        .param("seed", cfg.sched_seed);
    rec.counts = counts_of(out);
    rec
}

/// E20's columns: a cell's params, then its served share, latency
/// percentiles and goodput.
const COLUMNS: &str = "allocator,scenario,shape,rate_per_kstep,batch_width,admission,served,\
    offered,p50_steps,p99_steps,p999_steps,goodput_bytes_per_kstep";

/// Step cadence of the fragmentation timeline (one sample per 500
/// simulated steps — fine enough to see the saw-tooth of batched
/// serve/drain, coarse enough to keep the CSV small).
const FRAG_SAMPLE_STEPS: u64 = 500;

/// One fragmentation-timeline row: the reservation and headroom at the
/// root of `alloc`'s stats tree.
fn frag_row(name: &str, step: u64, alloc: &dyn DeviceAllocator) -> String {
    let s = alloc.stats();
    format!("{name},{step},{},{}", s.reserved_bytes, s.headroom_bytes())
}

/// Fragmentation-over-time sampling: drive the two pool backends
/// through the middle-load Poisson cell with the engine's cadence hook
/// and write one [`frag_row`] per `(allocator, step)` to
/// `<out_dir>/e20_frag_timeline.csv`, all on the deterministic step
/// clock so the whole timeline replays byte-identically. Returns the
/// clean flag of both runs.
fn frag_timeline(cfg: &HarnessConfig, seed: u64, horizon: u64) -> bool {
    let mut rows = vec!["allocator,step,reserved_bytes,headroom_bytes".to_string()];
    let mut clean = true;
    let pool = GallatinPool::new(2, GallatinConfig::small_test(SERVE_HEAP));
    let dp = DevicePool::new(2, 1, GallatinConfig::small_test(SERVE_HEAP));
    let pools: [(&str, &dyn DeviceAllocator, u64); 2] =
        [("GallatinPool(2)", &pool, pool.stride()), ("DevicePool(2x1)", &dp, dp.stride())];
    for (name, alloc, stride) in pools {
        let tenants = standard_tenants();
        let c =
            cell_config(ArrivalShape::Poisson, LOADS[1], 64, horizon, seed, stride, tenants, 16);
        let out = run_serve_engine_sampled(&c, alloc, FRAG_SAMPLE_STEPS, &mut |step| {
            rows.push(frag_row(name, step, alloc));
        });
        clean &= out.clean();
    }

    let path = std::path::Path::new(&cfg.out_dir).join("e20_frag_timeline.csv");
    match std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, rows.join("\n") + "\n"))
    {
        Ok(()) => println!("wrote {} ({} samples)", path.display(), rows.len() - 1),
        Err(e) => {
            eprintln!("error: could not write e20_frag_timeline.csv: {e}");
            clean = false;
        }
    }
    clean
}

/// E20 entry point (`repro serve`). Returns `false` — exit 1 — when
/// the smoke gate trips: any quota violation or ledger anomaly, or a
/// backend whose `check_invariants` fails after a cell.
pub fn run_serve(cfg: &HarnessConfig) -> bool {
    let seed = seed_override().unwrap_or(DEFAULT_SEED);
    let smoke = cfg.smoke;
    let horizon: u64 = if smoke { 6_000 } else { 20_000 };
    let passes = if smoke { 1 } else { PASSES };
    let loads: &[u64] = if smoke { &LOADS[..2] } else { &LOADS };
    let shapes: &[ArrivalShape] = if smoke {
        &[ArrivalShape::Poisson]
    } else {
        &[ArrivalShape::Poisson, ArrivalShape::Bursty]
    };
    println!(
        "E20 serve: open-loop serving sweep, {SCHED_SEED_ENV}={seed}{}",
        if smoke { " (smoke subset)" } else { "" }
    );

    let mut records = Vec::new();
    let mut clean = true;
    let mut run_cell =
        |name: &str, alloc: &dyn DeviceAllocator, scenario: &str, cfg_cell: &ServeConfig| {
            let out = run_passes(cfg_cell, alloc, passes);
            records.push(record_of(name, cfg_cell, &out, scenario));
            let sound = alloc.check_invariants().map_err(|e| eprintln!("{name} {scenario}: {e}"));
            (out, sound.is_ok())
        };

    // Load × shape sweep, both backends.
    for (name, alloc, max_req) in backends() {
        for &shape in shapes {
            for &rate in loads {
                let c = cell_config(
                    shape,
                    rate,
                    64,
                    horizon,
                    seed,
                    max_req,
                    standard_tenants(),
                    cfg.num_sms.min(16),
                );
                let (out, sound) = run_cell(&name, alloc.as_ref(), "load", &c);
                clean &= sound && out.clean();
            }
        }
    }

    // Roster widening: every remaining allocator family plus the
    // multi-device pool through one Poisson matrix cell. The quota and
    // queue machinery is backend-agnostic, so the same clean() gate
    // applies; families without lifecycle tracing simply contribute an
    // empty ledger.
    for (name, alloc, max_req) in roster_backends() {
        let c = cell_config(
            ArrivalShape::Poisson,
            LOADS[1],
            64,
            horizon,
            seed,
            max_req,
            standard_tenants(),
            cfg.num_sms.min(16),
        );
        let (out, sound) = run_cell(&name, alloc.as_ref(), "roster", &c);
        clean &= sound && out.clean();
    }

    // Batch-width sweep past the saturation knee (bursty top load),
    // flagship backend only — width only matters once a backlog forms.
    if !smoke {
        let (name, alloc, max_req) = backends().swap_remove(0);
        for &bw in &BATCH_WIDTHS {
            let c = cell_config(
                ArrivalShape::Bursty,
                LOADS[2],
                bw,
                horizon,
                seed,
                max_req,
                standard_tenants(),
                cfg.num_sms.min(16),
            );
            let (out, sound) = run_cell(&name, alloc.as_ref(), "batch-width", &c);
            clean &= sound && out.clean();
        }
    }

    // Fairness: aggressive tenant vs victim, admission on vs off.
    let mut victim_p99 = [0u64; 2]; // [throttled, unthrottled]
    for (i, enforce) in [true, false].into_iter().enumerate() {
        let (name, alloc, max_req) = backends().swap_remove(0);
        let mut c = cell_config(
            ArrivalShape::Bursty,
            if smoke { 90 } else { 180 },
            64,
            horizon,
            seed,
            max_req,
            fairness_tenants(),
            cfg.num_sms.min(16),
        );
        c.enforce_quotas = enforce;
        let (out, sound) = run_cell(&name, alloc.as_ref(), "fairness", &c);
        clean &= sound;
        let victim = out.tenants.iter().find(|t| t.name == "victim").expect("victim tenant");
        victim_p99[i] = victim.latency.p99;
        if enforce {
            clean &= out.clean();
        } else {
            // The unthrottled arm overcommits by design — quota
            // violations are its *result*, so only the allocator
            // lifecycle audit gates here.
            clean &= out.lifecycle_clean();
        }
    }

    clean &= frag_timeline(cfg, seed, horizon);

    println!(
        "fairness: victim p99 {} steps with admission control, {} without{}",
        victim_p99[0],
        victim_p99[1],
        if victim_p99[0] < victim_p99[1] { " — admission bounds the victim's tail" } else { "" }
    );
    let title = format!("E20 — serving sweep, horizon {horizon} steps, latencies in sched steps");
    clean &= emit_records(cfg, "serve", title, "e20_serve", COLUMNS, &records);
    if !clean {
        eprintln!(
            "serve gate FAILED: quota violation, ledger anomaly or broken invariant (see above)"
        );
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpCtx;

    #[test]
    fn frag_row_reads_the_roots_reservation_and_headroom() {
        let lane = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 }.lane(0);
        let cfg = GallatinConfig::small_test(1 << 20); // 16 segments per instance
        let seg = cfg.geometry().segment_bytes;
        let (pool, dp) = (GallatinPool::new(2, cfg), DevicePool::new(2, 2, cfg));
        // SM 0 overflows its home instance (17 claims) or its home device
        // (33 claims): the row sums every instance, not SM 0's home.
        for (alloc, claims) in [(&pool as &dyn DeviceAllocator, 17), (&dp, 33)] {
            (0..claims).for_each(|_| assert!(!alloc.malloc(&lane, seg).is_null()));
        }
        assert_eq!(pool.shrink_instance(1, 2), 2);
        assert_eq!(frag_row("p", 5, &pool), format!("p,5,{},{}", 17 * seg, 15 * seg));
        assert_eq!(frag_row("d", 5, &dp), format!("d,5,{},{}", 33 * seg, 31 * seg));
    }
}
