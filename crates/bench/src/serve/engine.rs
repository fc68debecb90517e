//! The serving engine: an open-loop, step-clocked request loop over any
//! [`DeviceAllocator`].
//!
//! Time is the deterministic scheduler's step clock, never wall clock:
//! arrivals are stamped in steps ([`super::arrival`]), each batched
//! kernel launch reports its schedule-step duration
//! ([`gpu_sim::launch_warps_counted`]), and a request's latency is
//! `completion_step − arrival_step` — queueing delay plus service time,
//! both in simulated steps. The whole run is therefore a pure function
//! of `(ServeConfig)` and replays byte-identically.
//!
//! The loop models how a host-side serving layer actually drives a
//! device allocator: requests accumulate in a bounded queue while a
//! kernel is in flight, then the next launch fuses up to `batch_width`
//! queued mallocs and every due free into one grid, lane by lane: lane
//! `i` frees the `i`-th due free, then mallocs the `i`-th request
//! ([`runner::run_batch`]), so up to 32 of each make one warp. Wider
//! batches amortize launch overhead (higher goodput) but make early
//! requests wait for the batch to fill and lengthen each launch (worse
//! p999) — the trade E20 sweeps.

use super::arrival::{self, ArrivalConfig};
use super::tenant::{Rejection, TenantBook, TenantSpec, N_REJECTIONS};
use crate::workload::runner;
use gpu_sim::ledger::{Ledger, LedgerOutcome};
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig, SplitMix64};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Full configuration of one serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Open-loop arrival schedule.
    pub arrivals: ArrivalConfig,
    /// Tenant roster (weights, quotas, size bands, lifetimes).
    pub tenants: Vec<TenantSpec>,
    /// Base schedule seed; each batch launch derives its own seed from
    /// this chain, so the whole run replays from one value.
    pub sched_seed: u64,
    /// Max queued mallocs fused into one launch.
    pub batch_width: usize,
    /// Bound on the request queue; beyond it arrivals are rejected
    /// with [`Rejection::QueueFull`].
    pub queue_capacity: usize,
    /// Fixed per-launch overhead in steps, modeling the host-side cost
    /// of a kernel launch (clamped to ≥ 1 so the clock always moves).
    pub launch_overhead_steps: u64,
    /// Largest request the backend can serve; larger arrivals are
    /// rejected up front with [`Rejection::Oversize`]. `u64::MAX`
    /// disables the check.
    pub max_request_bytes: u64,
    /// Whether admission control enforces tenant quotas. Off, quotas
    /// are still *witnessed* (see [`ServeOutcome::quota_violations`]) —
    /// the unthrottled arm of the fairness experiment.
    pub enforce_quotas: bool,
    /// Simulated SMs for the launches.
    pub num_sms: u32,
    /// Audit the run with a [`TraceSink`] + [`Ledger`] and report
    /// anomaly counts in the outcome (requires the allocator to emit
    /// lifecycle trace events).
    pub ledger_check: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrivals: ArrivalConfig {
                shape: arrival::ArrivalShape::Poisson,
                seed: 0xA11A,
                rate_per_kstep: 40,
                horizon_steps: 20_000,
            },
            tenants: Vec::new(),
            sched_seed: 7,
            batch_width: 64,
            queue_capacity: 256,
            launch_overhead_steps: 8,
            max_request_bytes: u64::MAX,
            enforce_quotas: true,
            num_sms: 16,
            ledger_check: true,
        }
    }
}

/// Exact latency distribution of one run, in schedule steps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples (served requests).
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed latency.
    pub max: u64,
    /// Log₂ histogram: bucket `b` counts latencies in `[2^(b−1), 2^b)`
    /// (bucket 0 counts zero-step latencies; bucket 31 is open-ended).
    pub hist: [u64; 32],
}

impl LatencyStats {
    /// Reduce raw samples (sorted in place) to exact nearest-rank
    /// percentiles plus the histogram.
    pub fn from_samples(samples: &mut [u64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let mut hist = [0u64; 32];
        for &s in samples.iter() {
            let b = if s == 0 { 0 } else { (64 - s.leading_zeros() as usize).min(31) };
            hist[b] += 1;
        }
        LatencyStats {
            count: n as u64,
            p50: rank(0.50),
            p99: rank(0.99),
            p999: rank(0.999),
            max: samples[n - 1],
            hist,
        }
    }
}

/// Per-tenant view of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Tenant name (from its [`TenantSpec`]).
    pub name: String,
    /// Requests this tenant offered.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests that completed with a pointer.
    pub served: u64,
    /// Bytes served.
    pub served_bytes: u64,
    /// Rejection counts, indexed by [`Rejection`] discriminant.
    pub rejected: [u64; N_REJECTIONS],
    /// High-water mark of committed bytes.
    pub peak_live_bytes: u64,
    /// The quota admission enforced (or witnessed) against.
    pub quota_bytes: u64,
    /// This tenant's latency distribution.
    pub latency: LatencyStats,
}

/// Everything observable about one serving run. Integer-only and
/// `PartialEq`, so the determinism test compares whole outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Requests generated by the arrival schedule.
    pub offered: u64,
    /// Bytes across all offered requests.
    pub offered_bytes: u64,
    /// Requests admitted past quota/queue/size checks.
    pub admitted: u64,
    /// Requests that completed with a pointer.
    pub served: u64,
    /// Bytes served.
    pub served_bytes: u64,
    /// Kernel launches issued.
    pub batches: u64,
    /// Total schedule steps across all launches (service time).
    pub sched_steps: u64,
    /// Step-clock value when the last free drained.
    pub end_step: u64,
    /// Run-wide latency distribution.
    pub latency: LatencyStats,
    /// Per-tenant breakdown, in roster order.
    pub tenants: Vec<TenantOutcome>,
    /// Times a tenant's committed bytes exceeded its quota (0 under
    /// enforcement; the unthrottled fairness arm counts overruns here).
    pub quota_violations: u64,
    /// The trace ledger's audit of the run (all zeros when
    /// [`ServeConfig::ledger_check`] is off).
    pub ledger: LedgerOutcome,
    /// Trace events dropped to the sink capacity bound (0 means the
    /// ledger audit saw the complete run).
    pub trace_dropped: u64,
}

impl ServeOutcome {
    /// Served bytes per 1000 schedule steps — the run's goodput on the
    /// simulated clock.
    pub fn goodput_bytes_per_kstep(&self) -> u64 {
        (self.served_bytes as u128 * 1000 / self.end_step.max(1) as u128) as u64
    }

    /// The smoke-gate predicate: no quota overruns and a clean
    /// [`Self::lifecycle_clean`] audit.
    pub fn clean(&self) -> bool {
        self.quota_violations == 0 && self.lifecycle_clean()
    }

    /// The allocator lifecycle audit alone: no leak, double free,
    /// unknown free or size mismatch, over a complete trace.
    pub fn lifecycle_clean(&self) -> bool {
        let l = &self.ledger;
        l.leaks + l.double_frees + l.unknown_frees + l.size_mismatches + self.trace_dropped == 0
    }
}

/// A served allocation waiting for its free, keyed by due step in the
/// drain heap.
type DueFree = Reverse<(u64, u64, usize, u64)>; // (due_step, ptr, tenant, size)

/// Run the open-loop serving schedule against `alloc` and reduce it to
/// a [`ServeOutcome`]. The allocator is not reset — callers own its
/// lifecycle — but every served allocation is freed before return (the
/// engine drains), so a clean run leaves the heap empty.
pub fn run_serve_engine(cfg: &ServeConfig, alloc: &dyn DeviceAllocator) -> ServeOutcome {
    run_serve_engine_sampled(cfg, alloc, 0, &mut |_| {})
}

/// [`run_serve_engine`] with a fragmentation-timeline hook: every time
/// the step clock crosses a multiple of `sample_every`, `sampler` is
/// called once with that multiple, at the next batch boundary (the only
/// points where the host observes the device — a mid-kernel probe
/// would not exist on real hardware either). The sampler also fires at
/// step 0, before any batch, capturing the pristine-heap baseline.
/// `sample_every == 0` disables sampling. The sampler runs inside the
/// ledger's trace scope but must not allocate from `alloc`; reading
/// host-side stats (`stats()`, metrics) is the intended use.
pub fn run_serve_engine_sampled(
    cfg: &ServeConfig,
    alloc: &dyn DeviceAllocator,
    sample_every: u64,
    sampler: &mut dyn FnMut(u64),
) -> ServeOutcome {
    let sample = (sample_every > 0).then_some((sample_every, sampler));
    if cfg.ledger_check {
        let sink = Arc::new(TraceSink::new());
        let mut out = trace::with_sink(sink.clone(), move || drive(cfg, alloc, sample));
        out.ledger = Ledger::build(&sink.snapshot()).outcome();
        out.trace_dropped = sink.dropped();
        out
    } else {
        drive(cfg, alloc, sample)
    }
}

/// The engine loop proper (ledger audit is layered on by
/// [`run_serve_engine`]).
fn drive(
    cfg: &ServeConfig,
    alloc: &dyn DeviceAllocator,
    mut sample: Option<(u64, &mut dyn FnMut(u64))>,
) -> ServeOutcome {
    let arrivals = arrival::generate(&cfg.arrivals, &cfg.tenants);
    let mut book = TenantBook::new(cfg.tenants.clone(), cfg.enforce_quotas);
    let n_tenants = cfg.tenants.len();
    let overhead = cfg.launch_overhead_steps.max(1);
    let base_device = DeviceConfig::with_sms(cfg.num_sms);
    // One independent schedule seed per batch.
    let mut batch_seeds = SplitMix64::new(cfg.sched_seed);

    let mut now = 0u64; // the step clock
    let mut next_arrival = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new(); // indices into `arrivals`
    let mut due_frees: BinaryHeap<DueFree> = BinaryHeap::new();

    let mut offered = 0u64;
    let mut offered_bytes = 0u64;
    let mut admitted = vec![0u64; n_tenants];
    let mut served = vec![0u64; n_tenants];
    let mut served_bytes = vec![0u64; n_tenants];
    let mut t_offered = vec![0u64; n_tenants];
    let mut latencies: Vec<u64> = Vec::new();
    let mut t_latencies: Vec<Vec<u64>> = vec![Vec::new(); n_tenants];
    let mut batches = 0u64;
    let mut sched_steps = 0u64;
    // Per-batch scratch, hoisted: the host pays per launch.
    let (mut sizes, mut free_ptrs, mut results) = (Vec::new(), Vec::new(), Vec::new());

    // Cadence bookkeeping for the fragmentation timeline; fires once
    // per crossed multiple, however far one batch jumps the clock.
    let mut next_sample = 0u64;
    macro_rules! drain_samples {
        () => {
            if let Some((every, f)) = sample.as_mut() {
                while next_sample <= now {
                    f(next_sample);
                    next_sample += *every;
                }
            }
        };
    }
    drain_samples!(); // the step-0 pristine-heap baseline

    loop {
        // Ingest every arrival whose stamp has passed. This happens at
        // batch boundaries — requests landing mid-flight wait exactly
        // as they would while a real kernel occupies the device.
        while next_arrival < arrivals.len() && arrivals[next_arrival].step <= now {
            let idx = next_arrival;
            next_arrival += 1;
            let a = &arrivals[idx];
            offered += 1;
            offered_bytes += a.size;
            t_offered[a.tenant] += 1;
            if a.size > cfg.max_request_bytes {
                book.reject(a.tenant, Rejection::Oversize);
            } else if queue.len() >= cfg.queue_capacity {
                book.reject(a.tenant, Rejection::QueueFull);
            } else if book.try_admit(a.tenant, a.size).is_ok() {
                admitted[a.tenant] += 1;
                queue.push_back(idx);
            }
        }

        // Compose the batch: every due free plus up to batch_width
        // queued mallocs (which stay queued until their launch returns).
        free_ptrs.clear();
        while let Some(&Reverse((due, ptr, tenant, size))) = due_frees.peek() {
            if due > now {
                break;
            }
            due_frees.pop();
            book.on_free(tenant, size);
            free_ptrs.push(gpu_sim::DevicePtr(ptr));
        }
        let take = queue.len().min(cfg.batch_width);

        if free_ptrs.is_empty() && take == 0 {
            // Idle: jump the clock to the next event, or finish.
            let next_a = arrivals.get(next_arrival).map(|a| a.step);
            let next_f = due_frees.peek().map(|Reverse((due, ..))| *due);
            match (next_a, next_f) {
                (None, None) => break,
                (a, f) => {
                    now = now.max(a.unwrap_or(u64::MAX).min(f.unwrap_or(u64::MAX)));
                }
            }
            drain_samples!();
            continue;
        }

        batches += 1;
        sizes.clear();
        sizes.extend(queue.iter().take(take).map(|&i| arrivals[i].size));
        let device = base_device.seeded(batch_seeds.next_u64());
        let steps = runner::run_batch_into(alloc, device, &sizes, &free_ptrs, &mut results);
        sched_steps += steps;
        let completion = now + overhead + steps;

        for (idx, ptr) in queue.drain(..take).zip(results.iter_mut()) {
            let (a, ptr) = (&arrivals[idx], gpu_sim::DevicePtr(*ptr.get_mut()));
            if ptr.is_null() {
                book.refund(a.tenant, a.size);
                book.reject(a.tenant, Rejection::Exhausted);
            } else {
                served[a.tenant] += 1;
                served_bytes[a.tenant] += a.size;
                let latency = completion - a.step;
                latencies.push(latency);
                t_latencies[a.tenant].push(latency);
                due_frees.push(Reverse((completion + a.lifetime, ptr.0, a.tenant, a.size)));
            }
        }
        now = completion;
        drain_samples!();
    }

    let tenants = (0..n_tenants)
        .map(|t| TenantOutcome {
            name: cfg.tenants[t].name.clone(),
            offered: t_offered[t],
            admitted: admitted[t],
            served: served[t],
            served_bytes: served_bytes[t],
            rejected: std::array::from_fn(|k| book.rejected(t, Rejection::ALL[k])),
            peak_live_bytes: book.peak(t),
            quota_bytes: cfg.tenants[t].quota_bytes,
            latency: LatencyStats::from_samples(&mut t_latencies[t]),
        })
        .collect();

    ServeOutcome {
        offered,
        offered_bytes,
        admitted: admitted.iter().sum(),
        served: served.iter().sum(),
        served_bytes: served_bytes.iter().sum(),
        batches,
        sched_steps,
        end_step: now,
        latency: LatencyStats::from_samples(&mut latencies),
        tenants,
        quota_violations: book.quota_violations(),
        ledger: LedgerOutcome::default(),
        trace_dropped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallatin::{Gallatin, GallatinConfig};

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            arrivals: ArrivalConfig {
                shape: arrival::ArrivalShape::Poisson,
                seed: 5,
                rate_per_kstep: 60,
                horizon_steps: 6_000,
            },
            tenants: vec![
                TenantSpec {
                    name: "svc-a".into(),
                    weight: 3,
                    quota_bytes: 1 << 22,
                    size_min: 16,
                    size_max: 2048,
                    mean_lifetime_steps: 64,
                },
                TenantSpec {
                    name: "svc-b".into(),
                    weight: 1,
                    quota_bytes: 1 << 20,
                    size_min: 64,
                    size_max: 512,
                    mean_lifetime_steps: 16,
                },
            ],
            sched_seed: 7,
            batch_width: 32,
            queue_capacity: 128,
            launch_overhead_steps: 4,
            max_request_bytes: u64::MAX,
            enforce_quotas: true,
            num_sms: 4,
            ledger_check: true,
        }
    }

    #[test]
    fn serving_run_drains_and_audits_clean() {
        let cfg = small_cfg();
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 22));
        let out = run_serve_engine(&cfg, &alloc);
        assert!(out.offered > 100, "arrival schedule should produce load");
        assert!(out.served > 0);
        assert!(out.served <= out.admitted && out.admitted <= out.offered);
        assert!(out.clean(), "leaks/anomalies: {out:?}");
        assert_eq!(alloc.stats().reserved_bytes, 0, "engine must drain every allocation");
        assert_eq!(out.latency.count, out.served);
        assert_eq!(out.latency.hist.iter().sum::<u64>(), out.served);
        assert!(out.latency.p50 <= out.latency.p99 && out.latency.p99 <= out.latency.p999);
        assert!(out.end_step >= cfg.arrivals.horizon_steps / 2);
    }

    #[test]
    fn sampler_fires_on_cadence_and_never_perturbs_the_run() {
        let cfg = small_cfg();
        // Fresh allocator per run: a warm heap changes per-batch step
        // counts, which would mask whether sampling itself perturbs.
        let baseline = run_serve_engine(&cfg, &Gallatin::new(GallatinConfig::small_test(1 << 22)));
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 22));
        let mut stamps = Vec::new();
        let sampled = run_serve_engine_sampled(&cfg, &alloc, 500, &mut |step| stamps.push(step));
        assert_eq!(sampled, baseline, "sampling is observation only");
        // Exactly the multiples of the cadence up to the end of the run,
        // starting from the step-0 baseline row.
        let expected: Vec<u64> =
            (0..).map(|i| i * 500).take_while(|&s| s <= sampled.end_step).collect();
        assert_eq!(stamps, expected);
        assert!(stamps.len() > 5, "the horizon should span many cadence windows");
    }

    #[test]
    fn latency_stats_exact_percentiles() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let s = LatencyStats::from_samples(&mut samples);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 990);
        assert_eq!(s.p999, 999);
        assert_eq!(s.max, 1000);
        assert_eq!(s.count, 1000);
        assert_eq!(LatencyStats::from_samples(&mut []), LatencyStats::default());
    }

    #[test]
    fn tight_quota_is_never_exceeded() {
        let mut cfg = small_cfg();
        cfg.tenants[0].quota_bytes = 1 << 10;
        cfg.tenants[1].quota_bytes = 512;
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 22));
        let out = run_serve_engine(&cfg, &alloc);
        assert_eq!(out.quota_violations, 0);
        for t in &out.tenants {
            assert!(
                t.peak_live_bytes <= t.quota_bytes,
                "{}: peak {} > quota {}",
                t.name,
                t.peak_live_bytes,
                t.quota_bytes
            );
        }
        let quota_rejects: u64 = out.tenants.iter().map(|t| t.rejected[0]).sum();
        assert!(quota_rejects > 0, "tight quotas should actually reject");
        assert!(out.clean());
    }

    #[test]
    fn oversize_requests_are_rejected_up_front() {
        let mut cfg = small_cfg();
        cfg.max_request_bytes = 256;
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 22));
        let out = run_serve_engine(&cfg, &alloc);
        let oversize: u64 = out.tenants.iter().map(|t| t.rejected[2]).sum();
        assert!(oversize > 0, "size bands exceed 256 B, some must be rejected");
        assert!(out.clean());
    }
}
