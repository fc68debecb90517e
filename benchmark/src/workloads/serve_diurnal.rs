//! `serve-diurnal`: the only deterministic-mode host pass.
//! `bench::serve::run_serve_engine_sampled` over a 2×3 `DevicePool`,
//! E20's standard two tenants with quotas enforced, sinusoidal days of
//! arrivals at a mean of [`RATE`] requests per kstep — open loop on the
//! virtual clock, so request latency is counted from each request's due
//! step and is exact. The host pass serves the same day over and over
//! (one engine run per day on the same pool): a day is a round, and
//! every round does the same work. Host time here is launch spawn plus the
//! coordinator's `Mutex`/`Condvar` hand-off: `gpu-sim::sched` and
//! `shim-rayon` do most of the work and the allocator little.
//!
//! A unit is one [`CADENCE`]-step window reported by the engine's
//! sampling hook; an op is one request's malloc or its free.

use super::kernels::Target;
use super::{after_setups, Traced, SIM_SCHED_SEED};
use super::{audit_sink, check_audit, set_counter_layers, sum_metrics, Ctx, E2e, Sim, SinkAudit};
use crate::control::BumpControl;
use crate::host::{calibration_tick_ms, CALIB_FULL_ITERS, CALIB_SHORT_ITERS};
use crate::layers;
use crate::metrics::Values;
use crate::pass::{rounds_for, HostPass, SEGMENTS};
use crate::span::{Name, Probe, Recorder, TierRule};
use crate::stats::percentile;
use bench::serve::{
    arrival, run_serve_engine_sampled, ArrivalConfig, ArrivalShape, Rejection, ServeConfig,
    ServeOutcome, TenantBook, TenantSpec,
};
use bench::workload::runner::run_batch;
use gallatin::{DevicePool, GallatinConfig};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::Arc;
use std::time::Instant;

/// Mean offered load, requests per 1000 steps: the middle of the
/// [`LADDER`], at roughly ⅔ of the knee.
const RATE: u64 = 180;
/// Rates of the traced run's latency ladder.
const LADDER: [u64; 3] = [90, 180, 270];
/// A request latency limit for `max_rate_ok`: p99 within this many steps
/// and nothing refused.
const P99_LIMIT_STEPS: u64 = 256;
/// Steps per unit.
const CADENCE: u64 = 250;
/// Host-pass horizon per nominal second, steps, sized on one CPU of the
/// 2-core box.
const STEPS_PER_SECOND: f64 = 320_000.0;
/// Horizon of the warm-up run inside set-up.
const WARMUP_STEPS: u64 = 100_000;
/// Horizon of the sim pass and of each ladder run.
const SIM_STEPS: u64 = 480_000;
const NUM_SMS: u32 = 12;
const BATCH_WIDTH: usize = 64;

fn pool() -> DevicePool {
    DevicePool::new(2, 3, GallatinConfig::small_test(4 << 20))
}

/// E20's standard two-tenant mix: a heavy service and a light one.
fn tenants() -> Vec<TenantSpec> {
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

/// The serving configuration: only the arrival seed comes from `--seed`.
fn config(ctx: &Ctx, rate: u64, horizon: u64, max_request: u64) -> ServeConfig {
    let seed = ctx.seed;
    ServeConfig {
        arrivals: ArrivalConfig {
            shape: ArrivalShape::Diurnal,
            seed,
            rate_per_kstep: rate,
            horizon_steps: horizon,
        },
        tenants: tenants(),
        sched_seed: ctx.sched_seed(),
        batch_width: BATCH_WIDTH,
        queue_capacity: 4 * BATCH_WIDTH,
        launch_overhead_steps: 8,
        max_request_bytes: max_request,
        enforce_quotas: true,
        num_sms: NUM_SMS,
        ledger_check: false,
    }
}

fn sim_steps(ctx: &Ctx) -> u64 {
    if ctx.quick {
        SIM_STEPS / super::QUICK_SIM_DIVISOR
    } else {
        SIM_STEPS
    }
}

/// Days of a host pass of `seconds` nominal seconds, and the horizon of
/// one day in steps. A day is a round of the pass (see [`rounds_for`]).
fn days_for(seconds: f64) -> (usize, u64) {
    let windows =
        ((STEPS_PER_SECOND * seconds / CADENCE as f64).round() as usize).max(4 * SEGMENTS);
    let days = rounds_for(windows);
    (days, (windows / days) as u64 * CADENCE)
}

/// The outcome of each day of a timed run.
struct Days(Vec<ServeOutcome>);

impl Days {
    fn sum(&self, f: impl Fn(&ServeOutcome) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }

    fn offered(&self) -> u64 {
        self.sum(|o| o.offered)
    }

    fn served(&self) -> u64 {
        self.sum(|o| o.served)
    }

    fn batches(&self) -> u64 {
        self.sum(|o| o.batches)
    }

    fn sched_steps(&self) -> u64 {
        self.sum(|o| o.sched_steps)
    }

    fn rejected(&self, why: Rejection) -> f64 {
        self.0.iter().map(|o| rejected(o, why)).sum()
    }

    /// Output checks of every day; returns the ops that failed.
    fn check(&self, label: &str, alloc: &dyn DeviceAllocator, violations: &mut Vec<String>) -> u64 {
        self.0
            .iter()
            .enumerate()
            .map(|(d, o)| check_outcome(&format!("{label} day {d}"), o, alloc, violations))
            .sum()
    }
}

/// `days` engine runs of `cfg` (one day each, the same arrivals every
/// day) on `alloc`, every cadence window timed as a unit and every day
/// a round. A short calibration tick runs before the first day of each
/// segment, between engine runs. `on_unit` sees each window open (traced
/// runs record spans).
fn timed_run(
    ctx: &Ctx,
    label: &str,
    cfg: &ServeConfig,
    days: usize,
    alloc: &dyn DeviceAllocator,
    mut on_unit: impl FnMut(u32),
) -> (HostPass, Days) {
    let windows = (cfg.arrivals.horizon_steps / CADENCE) as usize;
    ctx.enter(label, (days * windows) as u64, 2 * RATE * CADENCE / 1000);
    let mut pass = HostPass::default();
    let mut outcomes = Vec::with_capacity(days);
    for day in 0..days {
        if day % (days / SEGMENTS).max(1) == 0 {
            pass.ticks_ms.push(calibration_tick_ms(CALIB_SHORT_ITERS));
        }
        // Host time at each window boundary the hook reports.
        let mut boundary_ns: Vec<u64> = Vec::with_capacity(windows + 1);
        let epoch = Instant::now();
        let out = run_serve_engine_sampled(cfg, alloc, CADENCE, &mut |step| {
            let w = (step / CADENCE) as usize;
            if w > windows {
                return; // the drain after the horizon is not a unit
            }
            boundary_ns.push(epoch.elapsed().as_nanos() as u64);
            let unit = day * windows + w;
            ctx.dog.arm(unit as u64);
            on_unit(unit as u32);
        });
        ctx.dog.disarm();
        pass.unit_ns.extend(boundary_ns.windows(2).map(|b| b[1] - b[0]));
        pass.end_round(2 * out.offered);
        outcomes.push(out);
    }
    pass.ticks_ms.push(calibration_tick_ms(CALIB_SHORT_ITERS));
    (pass, Days(outcomes))
}

/// Output checks of one engine run; returns the ops that failed.
fn check_outcome(
    label: &str,
    out: &ServeOutcome,
    alloc: &dyn DeviceAllocator,
    violations: &mut Vec<String>,
) -> u64 {
    if out.quota_violations > 0 {
        violations.push(format!("{label}: {} quota violations", out.quota_violations));
    }
    if out.latency.count != out.served {
        violations
            .push(format!("{label}: {} latencies for {} served", out.latency.count, out.served));
    }
    let reserved = alloc.stats().reserved_bytes;
    if reserved != 0 {
        violations.push(format!("{label}: {reserved} bytes still reserved after the drain"));
    }
    if let Err(e) = alloc.check_invariants() {
        violations.push(format!("{label}: check_invariants: {e}"));
    }
    // A refused request fails both of its ops.
    2 * (out.offered - out.served)
}

/// Everything `setup_s` covers: the pool, its pre-fault, and a warm-up
/// serving run that leaves it drained.
fn set_up(ctx: &Ctx) -> (DevicePool, f64) {
    let t0 = Instant::now();
    let pool = pool();
    pool.memory().zero_range(0, pool.memory().len());
    let warm = config(ctx, RATE, WARMUP_STEPS, pool.stride());
    ctx.enter("setup", WARMUP_STEPS / CADENCE, 0);
    run_serve_engine_sampled(&warm, &pool, CADENCE, &mut |step| ctx.dog.arm(step / CADENCE));
    ctx.dog.disarm();
    (pool, t0.elapsed().as_secs_f64())
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> E2e {
    let mut violations = Vec::new();
    // The sim pass first (see `kernels::e2e`).
    let (sim, _, _, audit) = sim_run(ctx, RATE, sim_steps(ctx), &mut violations);
    check_audit(&audit, &mut violations);
    let (setup_s, (host, attempted, failed)) = after_setups(
        ctx,
        || set_up(ctx),
        |pool| {
            let (days, horizon) = days_for(ctx.seconds);
            let cfg = config(ctx, RATE, horizon, pool.stride());
            let (host, out) = timed_run(ctx, "host", &cfg, days, &pool, |_| {});
            let failed = out.check("host", &pool, &mut violations);
            (host, 2 * out.offered(), failed)
        },
    );
    E2e { setup_s, host, sim, attempted, failed, violations }
}

/// One sim run at `rate` on a fresh pool with a trace sink installed:
/// the step-clock numbers, the outcome, the instances' counters and the
/// sink's audit (the lifecycle ledger the engine's own `ledger_check`
/// would build, built here so the events can be counted too).
fn sim_run(
    ctx: &Ctx,
    rate: u64,
    steps: u64,
    violations: &mut Vec<String>,
) -> (Sim, ServeOutcome, MetricsSnapshot, SinkAudit) {
    let pool = pool();
    let cfg = config(ctx, rate, steps, pool.stride());
    let sink = Arc::new(TraceSink::new());
    ctx.enter("sim", steps / CADENCE, 2 * rate * CADENCE / 1000);
    let out = trace::with_sink(Arc::clone(&sink), || {
        run_serve_engine_sampled(&cfg, &pool, CADENCE, &mut |step| ctx.dog.arm(step / CADENCE))
    });
    ctx.dog.disarm();
    // At the sizing rate every request is served; the ladder's top rate
    // is allowed to refuse.
    let refused = check_outcome(&format!("sim r{rate}"), &out, &pool, violations);
    if rate <= RATE && refused > 0 {
        violations.push(format!("sim r{rate}: {} requests refused", refused / 2));
    }
    let audit = audit_sink(&sink);
    let mut metrics = sum_metrics(pool.instances().iter().filter_map(|g| g.metrics()));
    let topo = pool.topology_metrics();
    metrics.local_accesses += topo.local_accesses;
    metrics.peer_accesses += topo.peer_accesses;
    let sim = Sim {
        steps_per_op: out.sched_steps as f64 / (2 * out.served).max(1) as f64,
        p50_steps: out.latency.p50,
        tail_steps: out.latency.p99,
    };
    (sim, out, metrics, audit)
}

fn rejected(out: &ServeOutcome, why: Rejection) -> f64 {
    out.tenants.iter().map(|t| t.rejected[why as usize]).sum::<u64>() as f64
}

/// Median host time of one `run_batch` of a full-width batch: 64
/// mallocs, then the next call frees them and allocates 64 more.
fn run_batch_p50_us(pool: &DevicePool) -> f64 {
    let sizes: Vec<u64> = (0..BATCH_WIDTH as u64).map(|i| 16 << (i % 8)).collect();
    let device = DeviceConfig::with_sms(NUM_SMS);
    let mut live: Vec<DevicePtr> = Vec::new();
    let ns: Vec<u64> = (0..200u64)
        .map(|i| {
            let t0 = Instant::now();
            let r = run_batch(pool, device.seeded(SIM_SCHED_SEED + i), &sizes, &live);
            let dt = t0.elapsed().as_nanos() as u64;
            live = r.ptrs.into_iter().filter(|p| !p.is_null()).collect();
            dt
        })
        .collect();
    run_batch(pool, device.seeded(SIM_SCHED_SEED), &[], &live);
    percentile(&ns, 0.5) as f64 / 1e3
}

/// Nanoseconds per `TenantBook::try_admit` + `refund` pair.
fn admit_ns() -> f64 {
    let mut book = TenantBook::new(tenants(), true);
    let pairs = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..pairs {
        let t = (i & 1) as usize;
        if book.try_admit(t, 64 + (i & 63)).is_ok() {
            book.refund(t, 64 + (i & 63));
        }
    }
    std::hint::black_box(book.live(0));
    t0.elapsed().as_nanos() as f64 / pairs as f64
}

/// The traced run.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut layers = Values::default();
    let mut violations = Vec::new();
    layers.set("host.calib_ms_before", calibration_tick_ms(CALIB_FULL_ITERS));
    // The sim runs first (see `kernels::e2e`). The ladder: latency at
    // three fixed rates, and the highest that meets the limit with
    // nothing refused.
    let mut max_ok = 0;
    for rate in LADDER {
        let (_, o, metrics, audit) = sim_run(ctx, rate, sim_steps(ctx), &mut violations);
        check_audit(&audit, &mut violations);
        layers.set(&format!("bench.serve.p99_steps_r{rate}"), o.latency.p99 as f64);
        if o.latency.p99 <= P99_LIMIT_STEPS && o.served == o.offered {
            max_ok = max_ok.max(rate);
        }
        if rate == RATE {
            set_counter_layers(&mut layers, &metrics, &audit);
        }
    }
    layers.set("bench.serve.max_rate_ok", max_ok as f64);

    let (days, horizon) = days_for(ctx.seconds / 4.0);
    let (pool, _) = set_up(ctx);
    let cfg = config(ctx, RATE, horizon, pool.stride());

    // Plain: the reference.
    let (plain, out) = timed_run(ctx, "plain", &cfg, days, &pool, |_| {});
    let mut failed = out.check("plain", &pool, &mut violations);
    let mut attempted = 2 * out.offered();
    let busy_us = plain.busy_ns() as f64 / 1e3;
    layers.set("gpusim.launch.count", out.batches() as f64);
    layers.set("gpusim.sched.steps", out.sched_steps() as f64);
    layers.set("gpusim.sched.us_per_step", busy_us / out.sched_steps().max(1) as f64);
    layers.set("host.disturbed_segments", plain.disturbed_segments() as f64);
    layers.set("bench.serve.batches", out.batches() as f64);
    layers.set("bench.serve.mean_batch_width", out.served() as f64 / out.batches().max(1) as f64);
    layers.set("bench.serve.host_us_per_batch", busy_us / out.batches().max(1) as f64);
    layers.set("bench.serve.rejected_quota", out.rejected(Rejection::QuotaExceeded));
    layers.set("bench.serve.rejected_queue_full", out.rejected(Rejection::QueueFull));
    layers.set("bench.serve.exhausted", out.rejected(Rejection::Exhausted));
    layers.set(
        "bench.serve.goodput_bytes_per_kstep",
        out.sum(|o| o.goodput_bytes_per_kstep()) as f64 / days as f64,
    );
    super::kernels::set_routing_layers(&mut layers, &pool);
    let inst = pool.instances();
    let total = pool.heap_bytes() / inst[0].geometry().segment_bytes;
    let free: u64 = inst.iter().map(|g| g.free_segments()).sum();
    layers.set("core.segment.free_frac_end", free as f64 / total as f64);

    // Spans: a unit per window from the hook, allocator calls through
    // the probe. In deterministic mode a call's span includes the time
    // the warp sat parked at a preemption point, so the spans feed the
    // trace file and the per-call figures; the shares come from the
    // control run below.
    {
        let rec = Recorder::new();
        let rule = TierRule::of(pool.instances()[0].geometry(), pool.memory().len() as u64);
        let probe = Probe::new(&pool, &rec, rule);
        // The hook opens a unit at each window boundary; the window
        // before it ends there.
        let mut open: Option<(u32, u32, u64)> = None;
        let close = |open: &mut Option<(u32, u32, u64)>| {
            if let Some((id, unit, start_ns)) = open.take() {
                rec.end_unit(id, unit, start_ns);
            }
        };
        let (spanned, o) = timed_run(ctx, "spans", &cfg, days, &probe, |w| {
            close(&mut open);
            open = Some((rec.begin_unit(w), w, rec.now()));
        });
        close(&mut open);
        failed += o.check("spans", &probe, &mut violations);
        attempted += 2 * o.offered();
        let r = rec.reduce();
        for (tier, malloc, free) in [
            ("slice", Name::SliceMalloc, Name::SliceFree),
            ("block", Name::BlockMalloc, Name::BlockFree),
            ("segment", Name::SegmentMalloc, Name::SegmentFree),
        ] {
            layers
                .set(&format!("core.{tier}.ops"), (r.get(malloc).lanes + r.get(free).lanes) as f64);
        }
        layers.set(
            "trace.bench_overhead_frac",
            1.0 - spanned.goodput_ops_s() / plain.goodput_ops_s(),
        );
        super::kernels::write_trace(ctx, &r, &mut violations);
    }

    // The program's TraceSink installed.
    {
        let sink = Arc::new(TraceSink::with_capacity(1 << 12));
        let (sunk, o) = trace::with_sink(Arc::clone(&sink), || {
            timed_run(ctx, "sink", &cfg, days, &pool, |_| {})
        });
        failed += o.check("sink", &pool, &mut violations);
        attempted += 2 * o.offered();
        let events = sink.len() as u64 + sink.dropped();
        layers.set("gpusim.trace.events_per_op", events as f64 / (2 * o.served()).max(1) as f64);
        layers
            .set("gpusim.trace.overhead_frac", 1.0 - sunk.goodput_ops_s() / plain.goodput_ops_s());
    }

    // The floor: the same arrivals through the control allocator, whose
    // schedule has fewer steps (no bookkeeping to interleave).
    let control = BumpControl::new(64 << 20, 1 << 20, 256, 1 << 10);
    control.prefault();
    let (floor, fo) = timed_run(ctx, "floor", &cfg, days, &control, |_| {});
    failed += fo.check("floor", &control, &mut violations);
    let floor_us = floor.busy_ns() as f64 / 1e3;
    layers.set("gpusim.sched.floor_us_per_step", floor_us / fo.sched_steps().max(1) as f64);
    layers.set("floor.goodput_ops_s", floor.goodput_ops_s());
    layers.set("floor.share_frac", plain.goodput_ops_s() / floor.goodput_ops_s());

    // Shares of unit time. A launch costs what an empty kernel of the
    // mean batch's warp count costs; the control run, which has nothing
    // else in it, prices one turn hand-off; what the real run takes
    // beyond its own launches and hand-offs is the allocator.
    let mean_ops_per_batch = 2.0 * out.served() as f64 / out.batches().max(1) as f64;
    let warps = (mean_ops_per_batch / 32.0).ceil().max(1.0) as u64;
    let device = DeviceConfig::with_sms(NUM_SMS).seeded(SIM_SCHED_SEED);
    let empty_us = layers::empty_launch_p50_us(device, warps * 32, 400);
    layers.set("gpusim.launch.empty_p50_us", empty_us);
    let handoff_us =
        (floor_us - fo.batches() as f64 * empty_us).max(0.0) / fo.sched_steps().max(1) as f64;
    let launch_share = (out.batches() as f64 * empty_us / busy_us).min(1.0);
    let sched_share = (out.sched_steps() as f64 * handoff_us / busy_us).min(1.0 - launch_share);
    layers.set("gpusim.launch.share_frac", launch_share);
    layers.set("gpusim.sched.share_frac", sched_share);
    layers.set("core.busy_frac", 1.0 - launch_share - sched_share);

    // bench::serve and bench::workload on their own.
    let t0 = Instant::now();
    std::hint::black_box(arrival::generate(&cfg.arrivals, &cfg.tenants).len());
    layers.set("bench.serve.arrival_gen_us", t0.elapsed().as_nanos() as f64 / 1e3);
    layers.set("bench.serve.admit_ns", admit_ns());
    layers.set("bench.workload.run_batch_us_p50", run_batch_p50_us(&pool));
    if let Err(e) = pool.check_invariants() {
        violations.push(format!("run_batch probe: check_invariants: {e}"));
    }

    layers::veb_probe(&mut layers, total);
    pool.route_probe(&mut layers);
    layers.set("host.calib_ms_after", calibration_tick_ms(CALIB_FULL_ITERS));
    Traced { layers, attempted, failed, violations, launch_shape: (device, warps * 32) }
}
