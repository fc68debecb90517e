//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

/// `(name, unit, better, bound)` of each end-to-end metric. The first
/// five are on the host clock; the three `sim_*` are on the
/// deterministic scheduler's step clock and repeat bit-for-bit for a
/// given seed.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("goodput_ops_s", "ops/s", "higher", 0.25),
    ("unit_p50_us", "us", "lower", 0.25),
    ("unit_p90_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_steps_per_op", "steps/op", "lower", 0.05),
    ("sim_p50_steps", "steps", "lower", 0.08),
    ("sim_tail_steps", "steps", "lower", 0.20),
];

/// `(name, unit, better)` of each per-layer metric, printed by the
/// traced run. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // gpu-sim: launch machinery
    ("gpusim.launch.count", "count", "lower"),
    ("gpusim.launch.empty_p50_us", "us", "lower"),
    ("gpusim.launch.empty_unpinned_p50_us", "us", "lower"),
    ("gpusim.launch.share_frac", "frac", "lower"),
    // gpu-sim: deterministic coordinator (serve-diurnal only)
    ("gpusim.sched.steps", "count", "lower"),
    ("gpusim.sched.us_per_step", "us", "lower"),
    ("gpusim.sched.floor_us_per_step", "us", "lower"),
    ("gpusim.sched.share_frac", "frac", "lower"),
    // gpu-sim: memory, trace, ledger
    ("gpusim.mem.stamp_busy_frac", "frac", "lower"),
    ("gpusim.trace.overhead_frac", "frac", "lower"),
    ("gpusim.trace.events_per_op", "1/op", "lower"),
    ("gpusim.ledger.anomalies", "count", "lower"),
    // gpu-sim: Metrics counters, exact in the sim pass
    ("gpusim.metrics.atomic_rmw_per_op", "1/op", "lower"),
    ("gpusim.metrics.cas_attempts_per_op", "1/op", "lower"),
    ("gpusim.metrics.cas_fail_frac", "frac", "lower"),
    ("gpusim.metrics.coalesced_per_malloc", "frac", "higher"),
    ("gpusim.metrics.reclaim_attempts", "count", "lower"),
    ("gpusim.metrics.reclaim_abort_frac", "frac", "lower"),
    ("gpusim.metrics.drain_spins", "count", "lower"),
    ("gpusim.metrics.straggler_bounces", "count", "lower"),
    ("gpusim.metrics.peer_share", "frac", "lower"),
    // veb: 1 M-op probe at the workload's segment-tree universe
    ("veb.insert_ns", "ns", "lower"),
    ("veb.remove_ns", "ns", "lower"),
    ("veb.claim_exact_ns", "ns", "lower"),
    ("veb.find_first_ns", "ns", "lower"),
    ("veb.claim_contig_ns", "ns", "lower"),
    // core: slice tier
    ("core.slice.ops", "count", "higher"),
    ("core.slice.malloc_ns_p50", "ns", "lower"),
    ("core.slice.malloc_ns_p90", "ns", "lower"),
    ("core.slice.free_ns_p50", "ns", "lower"),
    ("core.slice.group_width_mean", "count", "higher"),
    ("core.slice.claim_cas_per_group", "count", "lower"),
    // core: block tier
    ("core.block.ops", "count", "higher"),
    ("core.block.malloc_ns_p50", "ns", "lower"),
    ("core.block.free_ns_p50", "ns", "lower"),
    ("core.block.ring_pops", "count", "lower"),
    ("core.block.ring_pushes", "count", "lower"),
    ("core.block.buffer_replaces", "count", "lower"),
    // core: segment tier
    ("core.segment.ops", "count", "higher"),
    ("core.segment.malloc_ns_p50", "ns", "lower"),
    ("core.segment.free_ns_p50", "ns", "lower"),
    ("core.segment.grabs", "count", "lower"),
    ("core.segment.reformats", "count", "lower"),
    ("core.segment.reclaims", "count", "lower"),
    ("core.segment.free_frac_end", "frac", "higher"),
    ("core.segment.footprint_per_live", "frac", "lower"),
    // core: the allocator as a whole, and the floor under it
    ("core.busy_frac", "frac", "lower"),
    ("core.null_retries", "count", "lower"),
    ("floor.goodput_ops_s", "ops/s", "higher"),
    ("floor.share_frac", "frac", "lower"),
    // core: pool and device-pool routing
    ("core.pool.spills", "count", "lower"),
    ("core.pool.spill_frac", "frac", "lower"),
    ("core.pool.oversize_denials", "count", "lower"),
    ("core.pool.route_overhead_ns", "ns", "lower"),
    ("core.device_pool.cross_spills", "count", "lower"),
    ("core.device_pool.cross_spill_frac", "frac", "lower"),
    ("core.device_pool.route_overhead_ns", "ns", "lower"),
    // graph
    ("graph.insert_ns_p50", "ns", "lower"),
    ("graph.delete_ns_p50", "ns", "lower"),
    ("graph.mallocs_per_update", "1/op", "lower"),
    ("graph.failed_updates", "count", "lower"),
    ("graph.edge_bytes_per_reserved", "frac", "higher"),
    // bench::serve and bench::workload
    ("bench.serve.arrival_gen_us", "us", "lower"),
    ("bench.serve.admit_ns", "ns", "lower"),
    ("bench.serve.batches", "count", "lower"),
    ("bench.serve.mean_batch_width", "count", "higher"),
    ("bench.serve.host_us_per_batch", "us", "lower"),
    ("bench.serve.rejected_quota", "count", "lower"),
    ("bench.serve.rejected_queue_full", "count", "lower"),
    ("bench.serve.exhausted", "count", "lower"),
    ("bench.serve.goodput_bytes_per_kstep", "B/kstep", "higher"),
    ("bench.serve.p99_steps_r90", "steps", "lower"),
    ("bench.serve.p99_steps_r180", "steps", "lower"),
    ("bench.serve.p99_steps_r270", "steps", "lower"),
    ("bench.serve.max_rate_ok", "req/kstep", "higher"),
    ("bench.workload.run_batch_us_p50", "us", "lower"),
    // the benchmark's own share of a unit, and its tracing overhead
    ("bench.verify_frac", "frac", "lower"),
    ("bench.other_frac", "frac", "lower"),
    ("trace.bench_overhead_frac", "frac", "lower"),
    // the machine, not the program
    ("host.calib_ms_before", "ms", "lower"),
    ("host.calib_ms_after", "ms", "lower"),
    ("host.disturbed_segments", "count", "lower"),
];

/// Named values of one run, filled in as the passes finish.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    /// Set `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}
