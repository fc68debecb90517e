//! `graph-churn`: the application-level number (paper §6.12).
//! `graph::DynamicGraph` over one Gallatin, 2¹⁵ vertices; a unit is one
//! 16,384-edge `zipf_edges(α = 0.8)` insert launch plus the delete
//! launch of the batch inserted [`LAG`] units earlier. Scalar
//! `malloc`/`free` from divergent lanes, grow-by-reallocation and hub
//! contention; warp coalescing is bypassed. One edge insert or delete is
//! one op.

use super::{after_setups, Traced};
use super::{audit_sink, check_audit, set_counter_layers, sum_metrics, Ctx, E2e, Sim, SinkAudit};
use crate::churn::{back_off, NULL_RETRIES};
use crate::control::BumpControl;
use crate::layers;
use crate::metrics::Values;
use crate::pass::{run_units, HostPass, SEGMENTS};
use crate::span::{Name, Probe, Recorder, TierRule, WarpSpans};
use crate::stats::percentile;
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{launch_warps_counted, DeviceAllocator, DeviceConfig, WarpCtx};
use graph::{zipf_edges, DynamicGraph, EdgeBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const VERTICES: u32 = 1 << 15;
/// Edges per batch: one launch inserts or deletes one batch.
const BATCH: usize = 16_384;
/// A batch is deleted this many units after it was inserted.
const LAG: usize = 8;
/// Batches generated in set-up and cycled; more than `LAG`, so a batch
/// is gone before it is inserted again.
const BATCHES: usize = 64;
const ALPHA: f64 = 0.8;
const NUM_SMS: u32 = 16;
/// Host-pass units per nominal second, sized on one CPU of the 2-core box.
const UNITS_PER_SECOND: f64 = 230.0;
const WARMUP_UNITS: usize = 24;

/// Sim pass: single-warp launches. `graph/src/store.rs` spins on
/// `std::hint::spin_loop()` while holding the vertex lock across
/// `malloc`, which the deterministic coordinator cannot interleave, so
/// two warps of one launch can deadlock it; one warp cannot.
const SIM_BATCH: usize = 32;
const SIM_UNITS: usize = 2048;
const SIM_LAG: usize = 64;

fn config() -> GallatinConfig {
    GallatinConfig { num_sms: NUM_SMS, ..GallatinConfig::dense(256 << 20) }
}

fn batches(seed: u64) -> Vec<EdgeBatch> {
    (0..BATCHES as u64)
        .map(|j| zipf_edges(VERTICES, BATCH, ALPHA, seed.wrapping_mul(BATCHES as u64) + j))
        .collect()
}

/// Failures a pass observed (all zero on a healthy run).
#[derive(Default)]
struct Counters {
    /// Inserts still refused after the retry policy.
    insert_failed: AtomicU64,
    /// Deletes that did not find the edge they were to remove.
    delete_missed: AtomicU64,
    /// Insert re-issues made by the retry policy.
    retries: AtomicU64,
}

/// One launch over `edges`: every lane inserts (or deletes) its edge.
/// Returns the launch's duration in schedule steps.
fn edge_launch<A: DeviceAllocator>(
    graph: &DynamicGraph<A>,
    device: DeviceConfig,
    edges: &[(u32, u64)],
    insert: bool,
    counters: &Counters,
    trace: Option<(&Recorder, u32, u32)>,
) -> u64 {
    let launch = trace.map(|(rec, ..)| rec.begin_launch());
    let steps = launch_warps_counted(device, edges.len() as u64, |warp: &WarpCtx| {
        let mut spans = trace
            .zip(launch)
            .map(|((rec, unit, _), (id, _))| WarpSpans::begin(rec, unit, id, warp));
        let body = || {
            for lane in warp.lanes() {
                let ctx = warp.lane(lane);
                let (src, dst) = edges[ctx.global_tid() as usize];
                if !insert {
                    if !graph.delete_edge(&ctx, src, dst) {
                        counters.delete_missed.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                // A refused insert is a NULL malloc: same retry policy
                // as the kernel workloads.
                let mut ok = graph.insert_edge(&ctx, src, dst);
                for retry in 0..NULL_RETRIES {
                    if ok {
                        break;
                    }
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    back_off(retry);
                    ok = graph.insert_edge(&ctx, src, dst);
                }
                if !ok {
                    counters.insert_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        match spans.as_mut() {
            Some(s) => {
                let name = if insert { Name::GraphInsert } else { Name::GraphDelete };
                s.leaf(name, warp.active, body)
            }
            None => body(),
        }
        if let Some(s) = spans {
            s.finish();
        }
    });
    if let Some(((rec, unit, unit_id), launch)) = trace.zip(launch) {
        rec.end_launch(launch, unit_id, unit);
    }
    steps
}

/// The insert-then-lagged-delete stream over a graph.
struct Stream<'a, A: DeviceAllocator> {
    graph: &'a DynamicGraph<A>,
    /// `batch(u)` is inserted at unit `u` and deleted at `u + lag`.
    batches: Vec<&'a [(u32, u64)]>,
    lag: usize,
    counters: Counters,
}

impl<'a, A: DeviceAllocator> Stream<'a, A> {
    fn new(graph: &'a DynamicGraph<A>, batches: Vec<&'a [(u32, u64)]>, lag: usize) -> Self {
        assert!(batches.len() > lag, "a batch must be deleted before it is inserted again");
        Stream { graph, batches, lag, counters: Counters::default() }
    }

    fn batch(&self, u: usize) -> &'a [(u32, u64)] {
        self.batches[u % self.batches.len()]
    }

    fn ops_of_unit(&self, u: usize) -> u64 {
        let deletes = if u >= self.lag { self.batch(u - self.lag).len() } else { 0 };
        (self.batch(u).len() + deletes) as u64
    }

    /// Unit `u`: insert batch `u`, delete batch `u − lag`. Returns steps.
    fn run_unit(
        &self,
        device: impl Fn(u64) -> DeviceConfig,
        u: usize,
        rec: Option<&Recorder>,
    ) -> u64 {
        let unit = rec.map(|rec| (rec.begin_unit(u as u32), rec.now()));
        let trace = rec.zip(unit).map(|(rec, (id, _))| (rec, u as u32, id));
        let launch = |edges, insert, nth: u64| {
            let c = &self.counters;
            edge_launch(self.graph, device(2 * u as u64 + nth), edges, insert, c, trace)
        };
        let mut steps = launch(self.batch(u), true, 0);
        if u >= self.lag {
            steps += launch(self.batch(u - self.lag), false, 1);
        }
        if let Some((rec, (id, start_ns))) = rec.zip(unit) {
            rec.end_unit(id, u as u32, start_ns);
        }
        steps
    }

    /// Delete the batches still live after unit `last` ran.
    fn drain(&self, device: impl Fn(u64) -> DeviceConfig, last: usize) {
        for u in (last + 1).saturating_sub(self.lag)..=last {
            edge_launch(self.graph, device(u as u64), self.batch(u), false, &self.counters, None);
        }
    }

    /// Output checks once drained; returns the ops that failed.
    fn check_drained(&self, pass: &str, violations: &mut Vec<String>) -> u64 {
        let missed = self.counters.delete_missed.load(Ordering::Relaxed);
        if missed > 0 {
            violations.push(format!("{pass}: {missed} deletes did not find their edge"));
        }
        let edges = self.graph.num_edges();
        if edges != 0 {
            violations.push(format!("{pass}: {edges} edges left after every batch was deleted"));
        }
        let alloc = self.graph.allocator();
        let reserved = alloc.stats().reserved_bytes;
        if reserved != 0 {
            violations.push(format!("{pass}: {reserved} bytes still reserved after the drain"));
        }
        if let Err(e) = alloc.check_invariants() {
            violations.push(format!("{pass}: check_invariants: {e}"));
        }
        missed + self.counters.insert_failed.load(Ordering::Relaxed)
    }
}

fn units_for(seconds: f64) -> usize {
    ((UNITS_PER_SECOND * seconds).round() as usize).max(SEGMENTS)
}

fn pool_device(_: u64) -> DeviceConfig {
    DeviceConfig::with_sms(NUM_SMS)
}

/// Everything `setup_s` covers: allocator, pre-fault, batches, a graph
/// and warm-up units that leave it empty again.
fn set_up(ctx: &Ctx) -> (DynamicGraph<Gallatin>, Vec<EdgeBatch>, f64) {
    let t0 = Instant::now();
    let alloc = Gallatin::new(config());
    alloc.memory().zero_range(0, alloc.memory().len());
    let batches = batches(ctx.seed);
    let graph = DynamicGraph::new(VERTICES as usize, alloc);
    {
        let stream = Stream::new(&graph, batches.iter().map(|b| &b[..]).collect(), LAG);
        ctx.enter("setup", WARMUP_UNITS as u64, 0);
        for u in 0..WARMUP_UNITS {
            ctx.dog.arm(u as u64);
            stream.run_unit(pool_device, u, None);
        }
        stream.drain(pool_device, WARMUP_UNITS - 1);
        ctx.dog.disarm();
    }
    (graph, batches, t0.elapsed().as_secs_f64())
}

/// One host pass over a warm, empty graph: fill `LAG` batches, time the
/// units, drain, check.
fn host_pass<A: DeviceAllocator>(
    label: &str,
    ctx: &Ctx,
    graph: &DynamicGraph<A>,
    batches: &[EdgeBatch],
    units: usize,
    rec: Option<&Recorder>,
    violations: &mut Vec<String>,
) -> (HostPass, u64, u64) {
    let stream = Stream::new(graph, batches.iter().map(|b| &b[..]).collect(), LAG);
    ctx.enter(label, units as u64, 2 * BATCH as u64);
    for u in 0..LAG {
        ctx.dog.arm(u as u64);
        stream.run_unit(pool_device, u, None);
    }
    let pass = run_units(&ctx.dog, units, |i| {
        stream.run_unit(pool_device, LAG + i, rec);
        stream.ops_of_unit(LAG + i)
    });
    let live = graph.num_edges();
    if live != (LAG * BATCH) as u64 {
        violations.push(format!("{label}: {live} live edges, expected {}", LAG * BATCH));
    }
    ctx.dog.arm(units as u64);
    stream.drain(pool_device, LAG + units - 1);
    ctx.dog.disarm();
    let failed = stream.check_drained(label, violations);
    (pass, failed, stream.counters.retries.load(Ordering::Relaxed))
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> E2e {
    let units = units_for(ctx.seconds);
    let mut violations = Vec::new();
    // The sim pass first (see `kernels::e2e`).
    let (sim, _, audit) = sim_pass(ctx, &mut violations);
    check_audit(&audit, &mut violations);
    let (setup_s, (host, failed, _)) = after_setups(
        ctx,
        || {
            let (graph, batches, secs) = set_up(ctx);
            ((graph, batches), secs)
        },
        |(graph, batches)| host_pass("host", ctx, &graph, &batches, units, None, &mut violations),
    );
    let attempted = host.ops();
    E2e { setup_s, host, sim, attempted, failed, violations }
}

/// The sim pass: a prefix of the same edges in 32-edge batches, one
/// single-warp insert launch and one delete launch per unit.
pub fn sim_pass(ctx: &Ctx, violations: &mut Vec<String>) -> (Sim, MetricsSnapshot, SinkAudit) {
    let units = if ctx.quick { SIM_UNITS / super::QUICK_SIM_DIVISOR as usize } else { SIM_UNITS };
    let full = batches(ctx.seed);
    let edges: Vec<(u32, u64)> = full.iter().flatten().copied().take(units * SIM_BATCH).collect();
    let graph = DynamicGraph::new(VERTICES as usize, Gallatin::new(config()));
    let sink = Arc::new(TraceSink::new());
    let device = |n: u64| DeviceConfig::with_sms(NUM_SMS).seeded(ctx.sched_seed() + n);
    let (mut steps, mut ops) = (0u64, 0u64);
    let mut latencies = Vec::with_capacity(units);
    let run = || {
        // Every mini-batch is its own entry, so none is ever re-inserted.
        let stream = Stream::new(&graph, edges.chunks(SIM_BATCH).collect(), SIM_LAG);
        ctx.enter("sim", units as u64, 2 * SIM_BATCH as u64);
        for u in 0..units {
            ctx.dog.arm(u as u64);
            let s = stream.run_unit(device, u, None);
            ops += stream.ops_of_unit(u);
            steps += s;
            latencies.push(s);
        }
        stream.drain(device, units - 1);
        ctx.dog.disarm();
        let failed = stream.check_drained("sim", violations);
        if failed > 0 {
            violations.push(format!("sim: {failed} ops failed"));
        }
    };
    crate::host::on_one_cpu(|| trace::with_sink(Arc::clone(&sink), run));
    let audit = audit_sink(&sink);
    let metrics = sum_metrics(graph.allocator().metrics());
    let sim = Sim {
        steps_per_op: steps as f64 / ops.max(1) as f64,
        p50_steps: percentile(&latencies, 0.50),
        tail_steps: percentile(&latencies, 0.95),
    };
    (sim, metrics, audit)
}

/// The traced run: plain, spans, sink and floor passes at quarter
/// length, the sim pass's counters and the layer probes.
pub fn traced(ctx: &Ctx) -> Traced {
    let units = units_for(ctx.seconds / 4.0);
    let mut layers = Values::default();
    let mut violations = Vec::new();
    let calib_before = crate::host::calibration_tick_ms(crate::host::CALIB_FULL_ITERS);
    // The sim pass first, as in `e2e`.
    let (_, metrics, audit) = sim_pass(ctx, &mut violations);
    check_audit(&audit, &mut violations);
    set_counter_layers(&mut layers, &metrics, &audit);
    let (graph, batches, _) = set_up(ctx);

    let (plain, mut failed, retries) =
        host_pass("plain", ctx, &graph, &batches, units, None, &mut violations);
    let mut attempted = plain.ops();
    layers.set("gpusim.launch.count", 2.0 * plain.unit_ns.len() as f64);
    layers.set("core.null_retries", retries as f64);
    layers.set("host.disturbed_segments", plain.disturbed_segments() as f64);

    // Occupancy with `LAG` batches live.
    {
        let stream = Stream::new(&graph, batches.iter().map(|b| &b[..]).collect(), LAG);
        for u in 0..LAG {
            stream.run_unit(pool_device, u, None);
        }
        let g = graph.allocator();
        let geo = g.geometry();
        let used = (geo.num_segments - g.free_segments()) * geo.segment_bytes;
        layers
            .set("core.segment.free_frac_end", g.free_segments() as f64 / geo.num_segments as f64);
        layers
            .set("core.segment.footprint_per_live", used as f64 / graph.edge_bytes().max(1) as f64);
        layers.set(
            "graph.edge_bytes_per_reserved",
            graph.edge_bytes() as f64 / g.stats().reserved_bytes.max(1) as f64,
        );
        stream.drain(pool_device, LAG - 1);
    }
    layers.set("graph.failed_updates", graph.failed_updates() as f64);

    // Spans: the graph over the probe over the same kind of allocator.
    {
        let rec = Recorder::new();
        let inner = Gallatin::new(config());
        inner.memory().zero_range(0, inner.memory().len());
        let rule = TierRule::of(inner.geometry(), inner.memory().len() as u64);
        let probed = DynamicGraph::new(VERTICES as usize, Probe::new(inner, &rec, rule));
        let (spanned, f, _) =
            host_pass("spans", ctx, &probed, &batches, units, Some(&rec), &mut violations);
        failed += f;
        attempted += spanned.ops();
        let r = rec.reduce();
        super::kernels::set_span_layers(&mut layers, &r);
        layers.set(
            "graph.insert_ns_p50",
            r.get(Name::GraphInsert).per_request.percentile(0.5) as f64,
        );
        layers.set(
            "graph.delete_ns_p50",
            r.get(Name::GraphDelete).per_request.percentile(0.5) as f64,
        );
        let mallocs: u64 = [Name::SliceMalloc, Name::BlockMalloc, Name::SegmentMalloc]
            .iter()
            .map(|n| r.get(*n).lanes)
            .sum();
        let updates = r.get(Name::GraphInsert).lanes + r.get(Name::GraphDelete).lanes;
        layers.set("graph.mallocs_per_update", mallocs as f64 / updates.max(1) as f64);
        layers.set(
            "trace.bench_overhead_frac",
            1.0 - spanned.goodput_ops_s() / plain.goodput_ops_s(),
        );
        super::kernels::write_trace(ctx, &r, &mut violations);
    }

    // The program's TraceSink installed over a shorter pass.
    {
        let sink = Arc::new(TraceSink::with_capacity(1 << 12));
        let short = (units / 4).max(SEGMENTS);
        let (sunk, f, _) = trace::with_sink(Arc::clone(&sink), || {
            host_pass("sink", ctx, &graph, &batches, short, None, &mut violations)
        });
        failed += f;
        attempted += sunk.ops();
        let events = sink.len() as u64 + sink.dropped();
        layers.set("gpusim.trace.events_per_op", events as f64 / sunk.ops().max(1) as f64);
        layers
            .set("gpusim.trace.overhead_frac", 1.0 - sunk.goodput_ops_s() / plain.goodput_ops_s());
    }
    drop(graph);

    // The floor: the graph over the control allocator. It never reuses
    // memory and a cold vertex's list can live for the whole pass, so
    // the window must outlast everything the pass allocates.
    {
        let window = 4u64 << 30;
        let floor_graph =
            DynamicGraph::new(VERTICES as usize, BumpControl::new(window, 1 << 20, 4096, 4096));
        let (floor, f, _) =
            host_pass("floor", ctx, &floor_graph, &batches, units, None, &mut violations);
        failed += f;
        if floor_graph.allocator().bumped_bytes() >= window {
            violations.push("floor: the control allocator's window wrapped".to_string());
        }
        layers.set("floor.goodput_ops_s", floor.goodput_ops_s());
        layers.set("floor.share_frac", plain.goodput_ops_s() / floor.goodput_ops_s());
    }

    layers.set(
        "gpusim.launch.empty_p50_us",
        layers::empty_launch_p50_us(DeviceConfig::with_sms(NUM_SMS), BATCH as u64, 200),
    );
    layers::veb_probe(&mut layers, config().geometry().num_segments);
    layers.set("host.calib_ms_before", calib_before);
    layers.set(
        "host.calib_ms_after",
        crate::host::calibration_tick_ms(crate::host::CALIB_FULL_ITERS),
    );
    let launch_shape = (DeviceConfig::with_sms(NUM_SMS), BATCH as u64);
    Traced { layers, attempted, failed, violations, launch_shape }
}

/// `--repro graph-spinlock`: the sim pass with two-warp launches.
/// `graph/src/store.rs` takes the vertex lock with a bare
/// `std::hint::spin_loop()` loop and holds it across `malloc`; the
/// deterministic coordinator parks the holder at `malloc`'s first
/// preemption point, grants the turn to a warp that wants the same
/// vertex, and that warp spins without ever reaching a preemption point
/// that would hand the turn back. The watchdog ends the run.
pub fn repro_spinlock(ctx: &Ctx) -> i32 {
    let edges: Vec<(u32, u64)> = batches(ctx.seed).into_iter().flatten().collect();
    let graph = DynamicGraph::new(VERTICES as usize, Gallatin::new(config()));
    let device = |n: u64| DeviceConfig::with_sms(NUM_SMS).seeded(ctx.sched_seed() + n);
    crate::host::on_one_cpu(|| {
        let stream = Stream::new(&graph, edges.chunks(2 * SIM_BATCH).collect(), SIM_LAG);
        ctx.enter("sim (two warps per launch)", SIM_UNITS as u64, 4 * SIM_BATCH as u64);
        for u in 0..SIM_UNITS {
            ctx.dog.arm(u as u64);
            stream.run_unit(device, u, None);
            if u % 64 == 0 {
                eprintln!("unit {u} done");
            }
        }
        ctx.dog.disarm();
    });
    println!("no deadlock in {SIM_UNITS} units with seed {}", ctx.seed);
    0
}
