//! # gpu-sim: a SIMT execution substrate on the CPU
//!
//! The Gallatin paper (PPoPP 2024) describes a *device-side* GPU memory
//! manager: CUDA kernels call `malloc`/`free` from inside device code, and
//! the allocator's performance comes from how it structures atomic
//! operations on shared memory under massive parallelism.
//!
//! No GPU is available to this reproduction, so this crate provides the
//! substrate everything else runs on: a faithful *model* of the pieces of
//! the CUDA execution and memory system that the paper's algorithms
//! actually interact with:
//!
//! * [`mem::DeviceMemory`] — one contiguous "device DRAM" arena. Device
//!   pointers ([`mem::DevicePtr`]) are byte offsets into an arena, exactly
//!   as Gallatin treats pointers (§5 of the paper derives the segment id
//!   by dividing the pointer offset by the segment size).
//! * [`warp::WarpCtx`] — a warp of 32 lanes executed as a unit, and
//!   [`warp::LaneMask`], the cooperative-groups vocabulary `gallatin`'s
//!   collective calls are written in: a ballot is a 32-bit lane mask, its
//!   leader the lowest set lane, a lane's rank its place in the walk.
//! * [`mod@launch`] — grid launches: N logical threads are split into warps
//!   and executed by scoped CPU worker threads. Streaming
//!   multiprocessor (SM) ids are assigned to warps so per-SM structures
//!   (Gallatin's block buffers) behave as on hardware.
//! * [`alloc_api::DeviceAllocator`] — the common malloc/free interface all
//!   allocators (Gallatin and the baselines) implement, including the
//!   warp-collective entry points that make coalescing expressible.
//! * [`metrics`] — cheap relaxed counters (atomic instructions issued, CAS
//!   retries, …) used by the ablation benchmarks.
//! * [`sched`] — deterministic scheduling: launches run serialized with
//!   seeded context switches at every atomic/collective, so concurrency
//!   bugs replay from a one-line seed instead of depending on OS timing.
//!
//! ## What the simulation preserves, and what it does not
//!
//! CPU atomics (`fetch_add`, `compare_exchange`, …) have the same
//! semantics as the GPU atomics the paper uses and the same qualitative
//! cost model: contended atomic RMWs on a single cache line serialize.
//! Everything the paper's evaluation measures — throughput collapse under
//! contention, the 32× reduction from warp coalescing, lock-free retry
//! storms — is therefore visible here with the same *shape*, though not
//! the same absolute magnitude as an A40.
//!
//! What is *not* modeled: SIMT divergence penalties, memory-coalescing of
//! loads/stores, occupancy limits. None of the paper's experiments
//! measure those directly.

#![warn(missing_docs)]

pub mod alloc_api;
mod fiber;
pub mod launch;
pub mod ledger;
pub mod mem;
pub mod metrics;
pub mod replay;
pub mod sched;
mod sys;
pub mod topo;
pub mod trace;
pub mod warp;

pub use alloc_api::{AllocStats, DeviceAllocator};
pub use launch::{
    launch, launch_warps, launch_warps_counted, launch_warps_profiled, DeviceConfig, ExecMode,
};
pub use mem::{DeviceMemory, DevicePtr};
pub use metrics::{Metrics, Striped};
pub use replay::{ReplayOp, ReplayScript, WarpScript};
pub use sched::{
    cases, current_sched_seed, explore_schedules, preempt_point, spin_hint, FaultPlan,
    PreemptPoint, ScheduleFailure, SplitMix64,
};
pub use topo::Topology;
pub use trace::{TraceEvent, TraceRecord, TraceSink};
pub use warp::{LaneCtx, LaneMask, WarpCtx, WARP_SIZE};
