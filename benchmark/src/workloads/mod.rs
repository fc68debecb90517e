//! The five workloads. Each has a host pass (the timed region), a sim
//! pass (a fixed short prefix of the same inputs under the deterministic
//! scheduler, whose step counts repeat exactly) and a traced run that
//! attributes the time to layers.

pub mod graph_churn;
pub mod kernels;
pub mod serve_diurnal;

use crate::host::{on_one_cpu, Progress, Watchdog, SIM_UNIT_DEADLINE, UNIT_DEADLINE};
use crate::metrics::Values;
use crate::pass::HostPass;
use gpu_sim::ledger::Ledger;
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{TraceEvent, TraceSink};
use gpu_sim::DeviceConfig;
use std::path::PathBuf;
use std::sync::Arc;

/// `(name, why)` of each workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "kernel-mixed",
        "Pool mode, 16-2048 B mixed sizes on one Gallatin: slice tier, warp coalescing and \
         per-SM block buffers do the work; segment tier and routing do none",
    ),
    (
        "kernel-large",
        "Pool mode, 32-64 KiB blocks and 1-4 MiB multi-segment requests over a 4096-segment \
         heap: block tier, rings and the vEB segment tree do the work; the slice tier none",
    ),
    (
        "topo-hotspot",
        "Pool mode, 2x3 DevicePool with two hot SMs overflowing their home instance: pool \
         routing, in-device spill and cross-device cascade are on the hot path",
    ),
    (
        "graph-churn",
        "Pool mode, DynamicGraph zipf edge inserts and deletes: scalar malloc/free from \
         divergent lanes and grow-by-reallocation, coalescing bypassed",
    ),
    (
        "serve-diurnal",
        "Deterministic mode, open-loop two-tenant serving on a 2x3 DevicePool: launch spawn \
         and scheduler hand-off do the work, the allocator little",
    ),
];

/// What every pass of a run shares.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed: changes generated inputs only, never a configuration.
    pub seed: u64,
    /// Length of the host pass in nominal seconds; unit counts are a
    /// fixed function of it.
    pub seconds: f64,
    /// `--quick`: the sim pass and the set-ups shrink too.
    pub quick: bool,
    /// Which try of this run this is (0 unless the watchdog ended an
    /// earlier one): a later try draws its sim-pass schedules from other
    /// seeds, so a schedule that hangs the program is not replayed.
    pub attempt: u64,
    /// The per-unit deadline.
    pub dog: Arc<Watchdog>,
    /// `benchmark/out`, where trace files go.
    pub out_dir: PathBuf,
    /// When the run began, for the pass log on stderr.
    pub started: std::time::Instant,
}

impl Ctx {
    /// Tell the watchdog (and the reader of stderr) which pass is about
    /// to run.
    pub fn enter(&self, pass: &str, units: u64, ops_per_unit: u64) {
        self.log(&format!("{pass}: {units} units"));
        self.dog.enter(Progress {
            workload: self.workload.to_string(),
            seed: self.seed,
            pass: pass.to_string(),
            units_planned: units,
            ops_per_unit,
            deadline: if pass.starts_with("sim") { SIM_UNIT_DEADLINE } else { UNIT_DEADLINE },
        });
    }

    /// One line of the pass log on stderr: time since the run began, the
    /// process's peak resident set so far, and `what`.
    pub fn log(&self, what: &str) {
        eprintln!(
            "[{:8.3}s, peak rss {:6.1} MiB] {what}",
            self.started.elapsed().as_secs_f64(),
            crate::host::peak_rss_mb().unwrap_or(0.0)
        );
    }

    /// Base seed of the deterministic scheduler for this try's sim pass.
    pub fn sched_seed(&self) -> u64 {
        SIM_SCHED_SEED + self.attempt * 1_000_003
    }
}

/// `--quick` runs a sim pass at this fraction of its length.
pub const QUICK_SIM_DIVISOR: u64 = 16;

/// Setups timed per run; `setup_s` is the quietest of them.
pub const SETUPS: usize = 5;

/// Called once the sim pass is over: forget its peak resident set, set up
/// [`SETUPS`] times (once under `--quick`), keeping only the last
/// set-up's state, and run `host` on it. `set_up` returns the state and
/// the seconds it took; the result is the smallest of those and what
/// `host` returned. Earlier set-ups are dropped before the next begins,
/// so each pays the same first-touch costs.
///
/// The smallest, not the median: a set-up is as long as a round of the
/// host pass and, like a round, runs on one CPU, where the rest of the
/// machine can only lengthen it (see [`crate::stats::quietest`]). With a
/// process sharing the CPU a third of the time the median of five
/// set-ups of `kernel-large` read 0.36 s for 0.22 s; work a later change
/// moves into set-up lengthens all five.
pub fn after_setups<S, R>(
    ctx: &Ctx,
    mut set_up: impl FnMut() -> (S, f64),
    host: impl FnOnce(S) -> R,
) -> (f64, R) {
    let reps = if ctx.quick { 1 } else { SETUPS };
    ctx.log("sim pass done");
    crate::host::reset_peak_rss();
    ctx.log(&format!("peak rss reset; {reps} set-up(s)"));
    let mut secs = Vec::with_capacity(reps);
    for _ in 1..reps {
        secs.push(set_up().1);
    }
    let (state, last) = set_up();
    secs.push(last);
    (crate::stats::quietest(secs), host(state))
}

/// Seed of the deterministic scheduler in every sim pass (see
/// [`Ctx::sched_seed`]). `--seed` changes inputs only.
pub const SIM_SCHED_SEED: u64 = 0x51D_5EED;

/// The three step-clock numbers of a sim pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// Turn grants ÷ ops.
    pub steps_per_op: f64,
    /// Median simulated latency, steps.
    pub p50_steps: u64,
    /// Tail simulated latency, steps: the highest percentile with at
    /// least ten samples beyond it (p95 of 256 launches; p99 of the
    /// serving run's requests).
    pub tail_steps: u64,
}

/// What an end-to-end run measured.
pub struct E2e {
    /// Quietest of [`SETUPS`] set-ups, seconds.
    pub setup_s: f64,
    /// The timed region.
    pub host: HostPass,
    /// The step-clock numbers.
    pub sim: Sim,
    /// Ops attempted in the host pass.
    pub attempted: u64,
    /// Ops still failed after the retry policy, plus ops unverified.
    pub failed: u64,
    /// Output checks that did not hold (empty on a correct run).
    pub violations: Vec<String>,
}

/// What a traced run measured.
pub struct Traced {
    /// Per-layer metric values (names from `metrics::PER_LAYER`).
    pub layers: Values,
    /// Ops attempted over the traced passes.
    pub attempted: u64,
    /// Ops failed over the traced passes.
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Device and thread count of the workload's launches, for the one
    /// probe that runs outside the pin (see [`run_traced`]).
    pub launch_shape: (DeviceConfig, u64),
}

/// Run the end-to-end measurement of `ctx.workload`, every pass of it on
/// one CPU (see [`on_one_cpu`]).
pub fn run_e2e(ctx: &Ctx) -> E2e {
    on_one_cpu(|| match ctx.workload {
        "kernel-mixed" => kernels::e2e(&kernels::mixed(), ctx),
        "kernel-large" => kernels::e2e(&kernels::large(), ctx),
        "topo-hotspot" => kernels::e2e(&kernels::hotspot(), ctx),
        "graph-churn" => graph_churn::e2e(ctx),
        "serve-diurnal" => serve_diurnal::e2e(ctx),
        other => unreachable!("workload {other} was validated by the CLI"),
    })
}

/// Run the traced, per-layer measurement of `ctx.workload` on one CPU
/// like the end-to-end run; then, with every CPU allowed again, time the
/// empty launch once more. In `Pool` mode that second figure is what
/// `shim-rayon` pays to spawn and join a worker per CPU on every launch,
/// a cost the pinned passes never meet.
pub fn run_traced(ctx: &Ctx) -> Traced {
    let mut run = on_one_cpu(|| match ctx.workload {
        "kernel-mixed" => kernels::traced(&kernels::mixed(), ctx),
        "kernel-large" => kernels::traced(&kernels::large(), ctx),
        "topo-hotspot" => kernels::traced(&kernels::hotspot(), ctx),
        "graph-churn" => graph_churn::traced(ctx),
        "serve-diurnal" => serve_diurnal::traced(ctx),
        other => unreachable!("workload {other} was validated by the CLI"),
    });
    let (device, threads) = run.launch_shape;
    run.layers.set(
        "gpusim.launch.empty_unpinned_p50_us",
        crate::layers::empty_launch_p50_us(device, threads, 200),
    );
    run
}

/// Sum of instance metrics.
pub fn sum_metrics<'a>(parts: impl IntoIterator<Item = &'a gpu_sim::Metrics>) -> MetricsSnapshot {
    let mut t = MetricsSnapshot::default();
    for m in parts {
        let s = m.snapshot();
        t.atomic_rmw += s.atomic_rmw;
        t.cas_attempts += s.cas_attempts;
        t.cas_failures += s.cas_failures;
        t.lock_acquires += s.lock_acquires;
        t.coalesced_requests += s.coalesced_requests;
        t.mallocs += s.mallocs;
        t.frees += s.frees;
        t.failed_mallocs += s.failed_mallocs;
        t.reclaim_attempts += s.reclaim_attempts;
        t.reclaim_aborts += s.reclaim_aborts;
        t.drain_spins += s.drain_spins;
        t.straggler_bounces += s.straggler_bounces;
        t.local_accesses += s.local_accesses;
        t.peer_accesses += s.peer_accesses;
    }
    t
}

/// Counts of the program's typed trace events over a sim pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCounts {
    /// All events.
    pub total: u64,
    /// `CoalesceGroup` events and the lanes they served.
    pub groups: u64,
    /// Lanes served by those groups.
    pub group_lanes: u64,
    /// CAS attempts summed over `ClaimCas` events.
    pub claim_cas_attempts: u64,
    /// `RingPop` / `RingPush` / `BufferReplace` events.
    pub ring_pops: u64,
    /// See `ring_pops`.
    pub ring_pushes: u64,
    /// See `ring_pops`.
    pub buffer_replaces: u64,
    /// `SegmentGrab` / `SegmentReformat` / `SegmentReclaim` events.
    pub grabs: u64,
    /// See `grabs`.
    pub reformats: u64,
    /// See `grabs`.
    pub reclaims: u64,
}

/// What the sink installed over a sim pass saw: typed event counts and
/// the lifecycle ledger's verdict.
pub struct SinkAudit {
    /// Event counts by type.
    pub events: EventCounts,
    /// Leaks + double frees + unknown frees + size mismatches.
    pub anomalies: u64,
    /// Events the sink dropped to its capacity bound.
    pub dropped: u64,
}

/// Count the sink's events and audit its ledger.
pub fn audit_sink(sink: &TraceSink) -> SinkAudit {
    let records = sink.snapshot();
    let mut e = EventCounts { total: records.len() as u64, ..Default::default() };
    for r in &records {
        match r.event {
            TraceEvent::CoalesceGroup { lanes, .. } => {
                e.groups += 1;
                e.group_lanes += lanes as u64;
            }
            TraceEvent::ClaimCas { attempts, .. } => e.claim_cas_attempts += attempts as u64,
            TraceEvent::RingPop { .. } => e.ring_pops += 1,
            TraceEvent::RingPush { .. } => e.ring_pushes += 1,
            TraceEvent::BufferReplace { .. } => e.buffer_replaces += 1,
            TraceEvent::SegmentGrab { .. } => e.grabs += 1,
            TraceEvent::SegmentReformat { .. } => e.reformats += 1,
            TraceEvent::SegmentReclaim { .. } => e.reclaims += 1,
            _ => {}
        }
    }
    let o = Ledger::build(&records).outcome();
    SinkAudit {
        events: e,
        anomalies: o.leaks + o.double_frees + o.unknown_frees + o.size_mismatches,
        dropped: sink.dropped(),
    }
}

/// Record the violations a sink audit implies.
pub fn check_audit(audit: &SinkAudit, violations: &mut Vec<String>) {
    if audit.anomalies > 0 {
        violations.push(format!("sim pass: ledger reports {} anomalies", audit.anomalies));
    }
    if audit.dropped > 0 {
        violations.push(format!("sim pass: trace sink dropped {} events", audit.dropped));
    }
}

/// Set the per-layer metrics that come from `Metrics` counters and the
/// sink's typed events, both exact in the sim pass.
pub fn set_counter_layers(layers: &mut Values, m: &MetricsSnapshot, audit: &SinkAudit) {
    let ops = (m.mallocs + m.frees).max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.set("gpusim.metrics.atomic_rmw_per_op", m.atomic_rmw as f64 / ops);
    layers.set("gpusim.metrics.cas_attempts_per_op", m.cas_attempts as f64 / ops);
    layers.set("gpusim.metrics.cas_fail_frac", ratio(m.cas_failures, m.cas_attempts));
    layers.set("gpusim.metrics.coalesced_per_malloc", ratio(m.coalesced_requests, m.mallocs));
    layers.set("gpusim.metrics.reclaim_attempts", m.reclaim_attempts as f64);
    layers.set("gpusim.metrics.reclaim_abort_frac", ratio(m.reclaim_aborts, m.reclaim_attempts));
    layers.set("gpusim.metrics.drain_spins", m.drain_spins as f64);
    layers.set("gpusim.metrics.straggler_bounces", m.straggler_bounces as f64);
    layers.set("gpusim.metrics.peer_share", m.peer_share());
    let e = &audit.events;
    layers.set("gpusim.ledger.anomalies", audit.anomalies as f64);
    layers.set("core.slice.group_width_mean", ratio(e.group_lanes, e.groups));
    layers.set("core.slice.claim_cas_per_group", ratio(e.claim_cas_attempts, e.groups));
    layers.set("core.block.ring_pops", e.ring_pops as f64);
    layers.set("core.block.ring_pushes", e.ring_pushes as f64);
    layers.set("core.block.buffer_replaces", e.buffer_replaces as f64);
    layers.set("core.segment.grabs", e.grabs as f64);
    layers.set("core.segment.reformats", e.reformats as f64);
    layers.set("core.segment.reclaims", e.reclaims as f64);
}
