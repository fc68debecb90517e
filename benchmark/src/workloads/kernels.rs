//! `kernel-mixed`, `kernel-large` and `topo-hotspot`: the shared churn
//! kernel ([`crate::churn`]) over three allocator configurations.

use super::{after_setups, Traced};
use super::{audit_sink, check_audit, set_counter_layers, sum_metrics, Ctx, E2e, Sim, SinkAudit};
use crate::churn::{Churn, ChurnInputs, Phase, SplitMix64};
use crate::control::BumpControl;
use crate::layers;
use crate::metrics::Values;
use crate::pass::{run_units, HostPass, SEGMENTS};
use crate::span::{Name, Probe, Recorder, Reduced, TierRule};
use crate::stats::percentile;
use gallatin::{DevicePool, Gallatin, GallatinConfig};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Input size tables generated per run and cycled.
const TABLES: usize = 16;

/// Pool and device-pool routing counters (zero for a lone Gallatin).
#[derive(Clone, Copy, Debug, Default)]
pub struct Routing {
    /// In-device spills: home instance denied, a sibling served.
    pub spills: u64,
    /// Requests no instance could ever serve.
    pub oversize_denials: u64,
    /// Cross-device spills: home device denied, a peer served.
    pub cross_spills: u64,
}

/// An allocator the churn workloads can run against and look inside,
/// through its public introspection only.
pub trait Target: DeviceAllocator + Sized {
    /// The Gallatin instances behind it.
    fn instances(&self) -> Vec<&Gallatin>;
    /// Routing counters since construction.
    fn routing(&self) -> Routing {
        Routing::default()
    }
    /// Counters of the routing layer itself (peer/local accesses).
    fn topology_metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
    /// Measure what each routing level adds to a malloc (nothing to
    /// measure on a lone Gallatin).
    fn route_probe(&self, _layers: &mut Values) {}
}

impl Target for Gallatin {
    fn instances(&self) -> Vec<&Gallatin> {
        vec![self]
    }
}

impl Target for DevicePool {
    fn instances(&self) -> Vec<&Gallatin> {
        (0..self.devices() as usize)
            .flat_map(|d| (0..self.width()).map(move |i| self.pool(d).instance(i)))
            .collect()
    }

    fn routing(&self) -> Routing {
        let t = self.topo_stats();
        Routing {
            spills: t.in_device_spills,
            oversize_denials: t.devices.iter().map(|p| p.oversize_denials).sum(),
            cross_spills: t.cross_spills,
        }
    }

    fn topology_metrics(&self) -> MetricsSnapshot {
        self.metrics().map(|m| m.snapshot()).unwrap_or_default()
    }

    fn route_probe(&self, layers: &mut Values) {
        layers::route_probe(layers, self);
    }
}

/// One churn workload: its allocator, geometry, sizes and lengths.
pub struct Spec<A> {
    /// Threads per launch in the host pass.
    pub threads: usize,
    /// Live tables.
    pub ring: usize,
    /// Streaming multiprocessors warps are striped over.
    pub num_sms: u32,
    /// Host-pass units per nominal second (sized on one CPU of the 2-core
    /// box; a constant, so the unit count is a fixed function of
    /// `--seconds`).
    pub units_per_second: f64,
    /// Units run inside set-up so the live set and the per-SM block
    /// buffers are steady before timing starts.
    pub warmup_units: usize,
    /// Threads per launch in the sim pass.
    pub sim_threads: usize,
    /// Launches in the sim pass.
    pub sim_launches: usize,
    /// Live tables in the sim pass.
    pub sim_ring: usize,
    /// A fresh allocator.
    pub build: fn() -> A,
    /// Touch every page the workload can write, so no first-touch fault
    /// lands in the timed region.
    pub prefault: fn(&A),
    /// Request size of lane `tid` (0: the lane issues nothing).
    pub draw: fn(&mut SplitMix64, usize) -> u32,
    /// The control allocator sized for this workload.
    pub floor: fn() -> BumpControl,
}

const MIB: u64 = 1 << 20;

fn mixed_config() -> GallatinConfig {
    GallatinConfig { num_sms: 16, ..GallatinConfig::dense(512 * MIB) }
}

/// `kernel-mixed`: 16–2048 B, log-uniform and not powers of two (so
/// class rounding shows), on `dense(512 MiB)`. No request reaches the
/// 4096 B class, whose block is a whole segment.
pub fn mixed() -> Spec<Gallatin> {
    Spec {
        threads: 16_384,
        ring: 4,
        num_sms: 16,
        units_per_second: 560.0,
        warmup_units: 64,
        sim_threads: 512,
        sim_launches: 768,
        sim_ring: 4,
        build: || Gallatin::new(mixed_config()),
        prefault: |a| a.memory().zero_range(0, a.memory().len()),
        draw: |rng, _| rng.log_uniform(16, 2048) as u32,
        floor: || BumpControl::new(128 * MIB, 4096, 4096, 4096),
    }
}

fn large_config() -> GallatinConfig {
    GallatinConfig { num_sms: 16, ..GallatinConfig::dense(4096 * MIB) }
}

/// `kernel-large`: 15/16 of requests in (32 KiB, 64 KiB] — whole 64 KiB
/// blocks — and 1/16 in (1 MiB, 4 MiB], claimed from the back as 2–4
/// contiguous segments, over 4,096 one-MiB segments. Nothing in
/// (512 KiB, 1 MiB], whose block is a whole segment.
pub fn large() -> Spec<Gallatin> {
    Spec {
        threads: 4096,
        ring: 2,
        num_sms: 16,
        units_per_second: 1100.0,
        warmup_units: 128,
        sim_threads: 128,
        sim_launches: 512,
        sim_ring: 2,
        build: || Gallatin::new(large_config()),
        // The workload writes one stamp at the start of each
        // allocation, and every allocation starts on a 64 KiB boundary.
        prefault: |a| {
            for off in (0..a.memory().len() as u64).step_by(64 << 10) {
                a.memory().store_u64(off, 0);
            }
        },
        draw: |rng, _| {
            if rng.next_u64() % 16 == 0 {
                rng.uniform(MIB + 1, 4 * MIB) as u32
            } else {
                rng.uniform((32 << 10) + 1, 64 << 10) as u32
            }
        },
        floor: || BumpControl::new(4096 * MIB, 4 * MIB, 4096, 64 << 10),
    }
}

/// Devices × instances of the `topo-hotspot` pool. 2×3 because device
/// and instance affinity are both `sm % n`: 2×2 leaves half the
/// instances without a home SM.
const HOT_DEVICES: u32 = 2;
const HOT_WIDTH: usize = 3;
const HOT_SMS: u32 = 12;
/// Lanes a warp on a cold SM issues (a hot SM's warp issues all 32).
const COLD_LANES: usize = 4;

fn hotspot_config() -> GallatinConfig {
    // A fine geometry: at 1 MiB segments an 8-class mix pins one segment
    // per class and a small partition fails instead of spilling.
    GallatinConfig {
        heap_bytes: 3840 << 10, // 15 segments per instance
        segment_bytes: 256 << 10,
        min_slice: 16,
        max_slice: 2048,
        slices_per_block: 64,
        num_sms: HOT_SMS,
        ..GallatinConfig::dense(MIB)
    }
}

/// `topo-hotspot`: the `kernel-mixed` sizes on a 2×3 device pool, SMs 0
/// and 6 (both homed on device 0, instance 0) issuing all 32 lanes and
/// the rest 2, the per-instance heap sized so the hot home overflows
/// while the topology keeps room.
pub fn hotspot() -> Spec<DevicePool> {
    Spec {
        threads: 16_384,
        ring: 4,
        num_sms: HOT_SMS,
        units_per_second: 700.0,
        warmup_units: 256,
        // Launches of 2,048 threads hung the program's `BlockTier::get`
        // on 5 of 12 seeds under the deterministic scheduler (see the
        // README); 1,024-thread launches ran 60 of 60 clean. The deeper
        // ring makes them overflow the hot home all the same.
        sim_threads: 1024,
        sim_launches: 384,
        sim_ring: 16,
        build: || DevicePool::new(HOT_DEVICES, HOT_WIDTH, hotspot_config()),
        prefault: |a| a.memory().zero_range(0, a.memory().len()),
        draw: |rng, tid| {
            let size = rng.log_uniform(16, 2048) as u32;
            let sm = (tid / 32) as u32 % HOT_SMS;
            let hot = sm == 0 || sm == 6;
            if hot || tid % 32 < COLD_LANES {
                size
            } else {
                0
            }
        },
        floor: || BumpControl::new(64 * MIB, 4096, 4096, 4096),
    }
}

fn units_for(seconds: f64, per_second: f64) -> usize {
    ((per_second * seconds).round() as usize).max(SEGMENTS)
}

/// Output checks after a pass has drained: counters, a drained heap and
/// the allocator's own invariants.
fn check_drained<A: DeviceAllocator>(
    pass: &str,
    alloc: &A,
    churn: &Churn<A>,
    violations: &mut Vec<String>,
) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let mismatched = churn.counters.stamp_mismatch.load(Relaxed);
    if mismatched > 0 {
        violations.push(format!("{pass}: {mismatched} stamps did not read back as written"));
    }
    let reserved = alloc.stats().reserved_bytes;
    if reserved != 0 {
        violations.push(format!("{pass}: {reserved} bytes still reserved after the drain"));
    }
    if let Err(e) = alloc.check_invariants() {
        violations.push(format!("{pass}: check_invariants: {e}"));
    }
    mismatched + churn.counters.malloc_failed.load(Relaxed)
}

/// Build, pre-fault, generate inputs, warm up: everything `setup_s`
/// covers. Returns the pieces and the time they took.
fn set_up<A: Target>(spec: &Spec<A>, ctx: &Ctx) -> (A, ChurnInputs, f64) {
    let t0 = Instant::now();
    let alloc = (spec.build)();
    (spec.prefault)(&alloc);
    let inputs = ChurnInputs::generate(ctx.seed, spec.threads, TABLES, spec.draw);
    {
        let device = DeviceConfig::with_sms(spec.num_sms);
        let mut churn = Churn::new(&alloc, &inputs, spec.ring);
        ctx.enter("setup", spec.warmup_units as u64, 0);
        for u in 0..spec.warmup_units as u64 {
            ctx.dog.arm(u);
            churn.run_unit(device, u, Phase::Churn, None);
        }
        churn.drain(device, spec.warmup_units as u64);
        ctx.dog.disarm();
    }
    (alloc, inputs, t0.elapsed().as_secs_f64())
}

/// One host pass of `units` units on a warm allocator: fill the ring,
/// time the units, drain, check. Returns the pass and the ops that
/// failed.
#[allow(clippy::too_many_arguments)]
fn host_pass<A: DeviceAllocator>(
    label: &str,
    ctx: &Ctx,
    alloc: &A,
    inputs: &ChurnInputs,
    ring: usize,
    device: DeviceConfig,
    units: usize,
    rec: Option<&Recorder>,
    violations: &mut Vec<String>,
) -> (HostPass, u64, u64) {
    let mut churn = Churn::new(alloc, inputs, ring);
    let fill = ring as u64;
    ctx.enter(label, units as u64, 2 * inputs.active(0));
    for u in 0..fill {
        ctx.dog.arm(u);
        churn.run_unit(device, u, Phase::Churn, None);
    }
    let pass = run_units(&ctx.dog, units, |i| {
        let u = fill + i as u64;
        let ops = churn.ops_of_unit(u, Phase::Churn);
        match rec {
            None => {
                churn.run_unit(device, u, Phase::Churn, None);
            }
            Some(rec) => {
                let id = rec.begin_unit(u as u32);
                let start_ns = rec.now();
                churn.run_unit(device, u, Phase::Churn, Some((rec, id)));
                rec.end_unit(id, u as u32, start_ns);
            }
        }
        ops
    });
    ctx.dog.arm(units as u64);
    churn.drain(device, fill + units as u64);
    ctx.dog.disarm();
    let retries = churn.counters.null_retries.load(std::sync::atomic::Ordering::Relaxed);
    let failed = check_drained(label, alloc, &churn, violations);
    (pass, failed, retries)
}

/// The end-to-end run: the sim pass, the set-ups, the host pass on the
/// last.
pub fn e2e<A: Target>(spec: &Spec<A>, ctx: &Ctx) -> E2e {
    let units = units_for(ctx.seconds, spec.units_per_second);
    let device = DeviceConfig::with_sms(spec.num_sms);
    let mut violations = Vec::new();
    // The sim pass first: if its schedule hangs the program, the run is
    // retried before the long passes have been paid for.
    let (sim, _, audit) = sim_pass(spec, ctx, &mut violations);
    check_audit(&audit, &mut violations);
    let (setup_s, (host, failed, _)) = after_setups(
        ctx,
        || {
            let (alloc, inputs, secs) = set_up(spec, ctx);
            ((alloc, inputs), secs)
        },
        |(alloc, inputs)| {
            host_pass("host", ctx, &alloc, &inputs, spec.ring, device, units, None, &mut violations)
        },
    );
    let attempted = host.ops();
    E2e { setup_s, host, sim, attempted, failed, violations }
}

/// The sim pass: `sim_launches` launches of `sim_threads` threads — a
/// prefix of the host pass's inputs — on a fresh allocator under the
/// deterministic scheduler with a fixed seed per launch, a trace sink
/// installed. Returns the step-clock numbers, the allocator's counters
/// and the sink's audit.
pub fn sim_pass<A: Target>(
    spec: &Spec<A>,
    ctx: &Ctx,
    violations: &mut Vec<String>,
) -> (Sim, MetricsSnapshot, SinkAudit) {
    let full = ChurnInputs::generate(ctx.seed, spec.threads, TABLES, spec.draw);
    let inputs = full.prefix(spec.sim_threads);
    let launches = if ctx.quick {
        spec.sim_launches / super::QUICK_SIM_DIVISOR as usize
    } else {
        spec.sim_launches
    };
    let alloc = (spec.build)();
    // A sink the caller installed (the hang reproduction does, to show
    // the event stream) is used as it is.
    let sink = trace::current_sink().unwrap_or_else(|| Arc::new(TraceSink::new()));
    let base = DeviceConfig::with_sms(spec.num_sms);
    let (mut steps, mut ops) = (0u64, 0u64);
    let mut latencies = Vec::with_capacity(launches);
    let run = || {
        let mut churn = Churn::new(&alloc, &inputs, spec.sim_ring);
        ctx.enter("sim", launches as u64, 2 * inputs.active(0));
        for u in 0..launches as u64 {
            ctx.dog.arm(u);
            ops += churn.ops_of_unit(u, Phase::Churn);
            let s = churn.run_unit(base.seeded(ctx.sched_seed() + u), u, Phase::Churn, None);
            steps += s;
            latencies.push(s);
        }
        let end = launches as u64;
        for u in end..end + spec.sim_ring as u64 {
            ctx.dog.arm(u);
            churn.run_unit(base.seeded(ctx.sched_seed() + u), u, Phase::Drain, None);
        }
        ctx.dog.disarm();
        let failed = check_drained("sim", &alloc, &churn, violations);
        if failed > 0 {
            violations.push(format!("sim: {failed} ops failed"));
        }
    };
    crate::host::on_one_cpu(|| trace::with_sink(Arc::clone(&sink), run));
    let audit = audit_sink(&sink);
    let mut metrics = sum_metrics(alloc.instances().iter().filter_map(|g| g.metrics()));
    let topo = alloc.topology_metrics();
    metrics.local_accesses += topo.local_accesses;
    metrics.peer_accesses += topo.peer_accesses;
    let sim = Sim {
        steps_per_op: steps as f64 / ops.max(1) as f64,
        p50_steps: percentile(&latencies, 0.50),
        tail_steps: percentile(&latencies, 0.95),
    };
    (sim, metrics, audit)
}

/// Share of unit time per layer, from a span pass. Warps of a launch
/// run in parallel, so the part of a launch its warps cover is divided
/// among the warp-level names in proportion to their self times; what
/// they do not cover is the launch's own time (spawn and join).
pub struct Shares {
    /// `gpusim.launch`: launch self time.
    pub launch: f64,
    /// `core.*`: inside the allocator under test.
    pub core: f64,
    /// `gpusim.mem`: stamp writes.
    pub stamp: f64,
    /// The benchmark's verification (stamp read-back and compare).
    pub verify: f64,
    /// The benchmark's kernel glue, input reads and per-unit bookkeeping.
    pub other: f64,
}

/// Reduce a span pass to layer shares of the total unit time.
pub fn shares(r: &Reduced) -> Shares {
    let unit_ns = r.get(Name::Unit).dur_ns.max(1) as f64;
    let launch_dur = r.get(Name::Launch).dur_ns as f64;
    let launch_self = r.get(Name::Launch).self_ns as f64;
    let covered = launch_dur - launch_self;
    let warp_level = |n: Name| !matches!(n, Name::Unit | Name::Launch);
    let total_self = r.self_sum(warp_level).max(1) as f64;
    let part = |pick: &dyn Fn(Name) -> bool| {
        covered * r.self_sum(|n| warp_level(n) && pick(n)) as f64 / total_self / unit_ns
    };
    let core = part(&|n| n.is_core());
    let stamp = part(&|n| n == Name::Stamp);
    let verify = part(&|n| n == Name::Verify);
    let launch = launch_self / unit_ns;
    Shares { launch, core, stamp, verify, other: 1.0 - launch - core - stamp - verify }
}

/// Set the per-layer metrics a span pass yields.
pub fn set_span_layers(layers: &mut Values, r: &Reduced) {
    let s = shares(r);
    layers.set("gpusim.launch.share_frac", s.launch);
    layers.set("core.busy_frac", s.core);
    layers.set("gpusim.mem.stamp_busy_frac", s.stamp);
    layers.set("bench.verify_frac", s.verify);
    layers.set("bench.other_frac", s.other);
    for (tier, malloc, free) in [
        ("slice", Name::SliceMalloc, Name::SliceFree),
        ("block", Name::BlockMalloc, Name::BlockFree),
        ("segment", Name::SegmentMalloc, Name::SegmentFree),
    ] {
        let (m, f) = (r.get(malloc), r.get(free));
        layers.set(&format!("core.{tier}.ops"), (m.lanes + f.lanes) as f64);
        layers.set(&format!("core.{tier}.malloc_ns_p50"), m.per_request.percentile(0.5) as f64);
        layers.set(&format!("core.{tier}.free_ns_p50"), f.per_request.percentile(0.5) as f64);
    }
    layers.set(
        "core.slice.malloc_ns_p90",
        r.get(Name::SliceMalloc).per_request.percentile(0.9) as f64,
    );
}

/// Set the pool and device-pool routing metrics from the counters `alloc`
/// has kept since construction.
pub fn set_routing_layers<A: Target>(layers: &mut Values, alloc: &A) {
    let routing = alloc.routing();
    let mallocs = sum_metrics(alloc.instances().iter().filter_map(|g| g.metrics())).mallocs.max(1);
    layers.set("core.pool.spills", routing.spills as f64);
    layers.set("core.pool.spill_frac", routing.spills as f64 / mallocs as f64);
    layers.set("core.pool.oversize_denials", routing.oversize_denials as f64);
    layers.set("core.device_pool.cross_spills", routing.cross_spills as f64);
    layers.set("core.device_pool.cross_spill_frac", routing.cross_spills as f64 / mallocs as f64);
}

/// Write the raw spans of a traced pass to `out/trace-<workload>.json`.
pub fn write_trace(ctx: &Ctx, r: &Reduced, violations: &mut Vec<String>) {
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    let written = std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, crate::span::chrome_trace(&r.raw)));
    if let Err(e) = written {
        violations.push(format!("could not write {}: {e}", path.display()));
    }
}

/// The traced run: a plain pass at quarter length, the same through the
/// span probe, through an installed `TraceSink`, and through the control
/// allocator; then the sim pass's counters and the layer probes.
pub fn traced<A: Target>(spec: &Spec<A>, ctx: &Ctx) -> Traced {
    let units = units_for(ctx.seconds / 4.0, spec.units_per_second);
    let device = DeviceConfig::with_sms(spec.num_sms);
    let mut layers = Values::default();
    let mut violations = Vec::new();
    let calib_before = crate::host::calibration_tick_ms(crate::host::CALIB_FULL_ITERS);
    // The sim pass first, as in `e2e`.
    let (_, metrics, audit) = sim_pass(spec, ctx, &mut violations);
    check_audit(&audit, &mut violations);
    set_counter_layers(&mut layers, &metrics, &audit);

    let (alloc, inputs, _) = set_up(spec, ctx);
    let pass = |label: &str, units: usize, rec: Option<&Recorder>, v: &mut Vec<String>| {
        host_pass(label, ctx, &alloc, &inputs, spec.ring, device, units, rec, v)
    };

    // Plain: the reference the other passes are compared with.
    let (plain, mut failed, retries) = pass("plain", units, None, &mut violations);
    let mut attempted = plain.ops();
    layers.set("gpusim.launch.count", plain.unit_ns.len() as f64);
    layers.set("core.null_retries", retries as f64);
    layers.set("host.disturbed_segments", plain.disturbed_segments() as f64);

    // Occupancy at a checkpoint with the ring live: rebuild it, look,
    // drain.
    {
        let mut churn = Churn::new(&alloc, &inputs, spec.ring);
        for u in 0..spec.ring as u64 {
            churn.run_unit(device, u, Phase::Churn, None);
        }
        let inst = alloc.instances();
        let seg_bytes = inst[0].geometry().segment_bytes;
        let total = alloc.heap_bytes() / seg_bytes;
        let free: u64 = inst.iter().map(|g| g.free_segments()).sum();
        let live: u64 = (0..spec.ring).map(|k| inputs.bytes(k % TABLES)).sum();
        layers.set("core.segment.free_frac_end", free as f64 / total as f64);
        layers.set(
            "core.segment.footprint_per_live",
            ((total - free) * seg_bytes) as f64 / live.max(1) as f64,
        );
        churn.drain(device, spec.ring as u64);
    }
    set_routing_layers(&mut layers, &alloc);

    // Spans from the benchmark's kernel, allocator calls through the probe.
    {
        let rec = Recorder::new();
        let rule = TierRule::of(alloc.instances()[0].geometry(), alloc.memory().len() as u64);
        let probe = Probe::new(&alloc, &rec, rule);
        let (spanned, f, _) = host_pass(
            "spans",
            ctx,
            &probe,
            &inputs,
            spec.ring,
            device,
            units,
            Some(&rec),
            &mut violations,
        );
        failed += f;
        attempted += spanned.ops();
        let reduced = rec.reduce();
        set_span_layers(&mut layers, &reduced);
        layers.set(
            "trace.bench_overhead_frac",
            1.0 - spanned.goodput_ops_s() / plain.goodput_ops_s(),
        );
        write_trace(ctx, &reduced, &mut violations);
    }

    // The program's own TraceSink installed: what item 5's ≤5% budget
    // is about. A small sink: once full it counts drops under the same
    // lock, so the cost per event stays what recording costs.
    {
        let sink = Arc::new(TraceSink::with_capacity(1 << 12));
        let (sunk, f, _) = trace::with_sink(Arc::clone(&sink), || {
            pass("sink", (units / 4).max(SEGMENTS), None, &mut violations)
        });
        failed += f;
        attempted += sunk.ops();
        let events = sink.len() as u64 + sink.dropped();
        layers.set("gpusim.trace.events_per_op", events as f64 / sunk.ops().max(1) as f64);
        layers
            .set("gpusim.trace.overhead_frac", 1.0 - sunk.goodput_ops_s() / plain.goodput_ops_s());
    }
    drop(alloc);

    // The floor: the same kernel through the control allocator.
    {
        let control = (spec.floor)();
        control.prefault();
        let (floor, f, _) = host_pass(
            "floor",
            ctx,
            &control,
            &inputs,
            spec.ring,
            device,
            units,
            None,
            &mut violations,
        );
        failed += f;
        layers.set("floor.goodput_ops_s", floor.goodput_ops_s());
        layers.set("floor.share_frac", plain.goodput_ops_s() / floor.goodput_ops_s());
    }

    layers.set(
        "gpusim.launch.empty_p50_us",
        layers::empty_launch_p50_us(device, spec.threads as u64, 200),
    );
    let fresh = (spec.build)();
    layers::veb_probe(
        &mut layers,
        fresh.heap_bytes() / fresh.instances()[0].geometry().segment_bytes,
    );
    fresh.route_probe(&mut layers);
    layers.set("host.calib_ms_before", calib_before);
    layers.set(
        "host.calib_ms_after",
        crate::host::calibration_tick_ms(crate::host::CALIB_FULL_ITERS),
    );
    Traced { layers, attempted, failed, violations, launch_shape: (device, spec.threads as u64) }
}
