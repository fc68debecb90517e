//! Workload engine: sources, scripts, runners, and the timing protocol.
//!
//! Two layers live here:
//!
//! * [`mod@measure`] — the survey timing protocol (allocate → validate →
//!   free kernels, median-of-N). A [`Measurement`] keeps every run, so
//!   one sweep of E2/E4 also yields E8's variance, E9's cold cells and
//!   E10's first-run span, and each run carries its own counter deltas;
//! * the **script engine** — a [`WorkloadSource`] yields per-warp
//!   allocation scripts ([`gpu_sim::ReplayScript`]) that [`run_script`]
//!   re-issues against any [`gpu_sim::DeviceAllocator`] with the full
//!   stamp/verify/free contract discipline, reducing every run to a
//!   [`ScriptOutcome`] that can be diffed across allocator families.
//!
//! The sources are the [`adversarial`] generators (see TESTING.md
//! "Workload sources"): hostile shapes — fragmentation attack,
//! size-class flipper, skewed-SM hotspot, OOM-pressure ramp — that the
//! differential sweep in `crates/allocators/tests/contract.rs` runs
//! across all eight allocator families. E19 replays a recorded trace
//! through [`gpu_sim::ReplayScript::from_trace`] directly.

pub mod adversarial;
pub mod measure;
pub mod runner;
pub mod source;

pub use adversarial::{
    all_scenarios, FragmentationAttack, OomPressureRamp, SizeClassFlipper, SkewedHotspot,
};
pub use measure::{measure, median, run_alloc_free, variance, Measurement, RunResult, SizeSpec};
pub use runner::{
    dump_script, dump_script_to, replay_dump_dir, run_script, ScriptOutcome, REPLAY_DIR_ENV,
};
pub use source::WorkloadSource;
