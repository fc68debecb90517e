//! Host-side serving layer over the device allocators (experiment E20).
//!
//! The paper evaluates Gallatin with closed-loop kernels: every thread
//! allocates, the kernel ends, throughput is the measure. A memory
//! manager embedded in a real service sees a different regime — requests
//! arrive on their own clock, get batched into kernel launches, and the
//! interesting numbers are tail latency and goodput as offered load
//! approaches the allocator's capacity. This module adds that serving
//! harness on top of the existing warp-collective machinery:
//!
//! * [`arrival`] — seeded open-loop arrival schedules (Poisson, bursty,
//!   diurnal), step-stamped on the simulated clock;
//! * [`tenant`] — multi-tenant byte quotas, admission control, typed
//!   rejections;
//! * [`engine`] — the bounded-queue batching loop that turns queued
//!   requests into launches via [`crate::workload::runner::run_batch`],
//!   each lane a due free's `warp_free` then a request's `warp_malloc`,
//!   and reduces the run to p50/p99/p999 latency and goodput.
//!
//! Determinism: a run is a pure function of its [`engine::ServeConfig`].
//! Arrivals replay from the arrival seed, every launch replays from a
//! seed chained off `sched_seed`, and service time is the deterministic
//! scheduler's step count — so two runs produce byte-identical latency
//! histograms, which the `serve_determinism` integration test pins.

pub mod arrival;
pub mod engine;
pub mod tenant;

pub use arrival::{Arrival, ArrivalConfig, ArrivalShape};
pub use engine::{
    run_serve_engine, run_serve_engine_sampled, LatencyStats, ServeConfig, ServeOutcome,
    TenantOutcome,
};
pub use tenant::{Rejection, TenantBook, TenantSpec, N_REJECTIONS};
