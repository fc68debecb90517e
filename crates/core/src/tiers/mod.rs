//! The three allocation tiers, decomposed (paper §4).
//!
//! Gallatin's design is three pipelines layered over one memory table:
//!
//! * [`segment::SegmentTier`] — the segment tree: claim free segments
//!   from the front (to format for a class) or back (large
//!   allocations), the two-phase reclaim protocol, and `trim`
//!   (Algorithm 1, §4.1);
//! * [`block::BlockTier`] — per-class block trees plus the per-SM block
//!   buffers: pop blocks from formatted segments' rings, push them
//!   home, keep the wavefront cached (Algorithm 2, §4.2);
//! * [`slice::SliceTier`] — generation-tagged claim words and the
//!   coalesced group claim: one batched RMW serves a whole same-class
//!   warp group (Algorithm 3, §4.3).
//!
//! Each tier owns its slice of the cross-structure invariant check and
//! its own metrics/trace emissions. The tiers are deliberately *not*
//! self-contained objects: the protocols cross tiers by design (a block
//! free may reclaim a segment; a slice claim may pull a fresh block,
//! which may pull a fresh segment), so methods take the sibling tier as
//! an explicit argument — the call graph stays visible in the
//! signatures instead of hiding behind shared mutable state. Shared
//! read-only facilities (geometry, memory table, metrics, the reserved
//! counter, probe randomization) travel in a [`TierCtx`] built per call
//! by the thin `Gallatin` composition root.

pub(crate) mod block;
pub(crate) mod segment;
pub(crate) mod slice;

pub(crate) use block::BlockTier;
pub(crate) use segment::SegmentTier;
pub(crate) use slice::SliceTier;

use crate::config::Geometry;
use crate::table::MemoryTable;
use gpu_sim::{Metrics, Striped};

/// The read-only seam every tier operates through: borrowed views of the
/// composition root's shared state, rebuilt per call (it is all
/// references, so construction is free).
pub(crate) struct TierCtx<'a> {
    /// Derived geometry (sizes, counts, offset arithmetic).
    pub geo: &'a Geometry,
    /// The memory table: per-segment metadata (tree ids, rings, claim
    /// words, free counters).
    pub table: &'a MemoryTable,
    /// Instrumentation counters.
    pub metrics: &'a Metrics,
    /// Bytes reserved by live allocations, in cell [`RESERVED`] (shared
    /// accounting, striped like the metrics: no two threads write a line).
    pub reserved: &'a Striped,
    /// Start tree probes at an SM-hashed position (paper §4.3).
    pub randomize_probes: bool,
}

/// The cell of [`TierCtx::reserved`] that holds the byte count.
pub(crate) const RESERVED: usize = 0;

impl TierCtx<'_> {
    /// Start position for a tree probe over `universe` ids by `sm_id`.
    ///
    /// A Fibonacci multiplicative hash of the SM id, scaled onto the
    /// universe: concurrent SMs begin their successor scans ~uniformly
    /// spread across the tree's words instead of all reading — and then
    /// CAS-hammering — bit 0 (the paper's block-selection randomization,
    /// §4.3). SM 0 maps to 0, so single-SM workloads keep the legacy
    /// front-first placement; wraparound search preserves the "find any
    /// free" contract for everyone else. Identity, not time or an RNG:
    /// deterministic-mode replays stay bit-identical.
    #[inline]
    pub fn probe_hint(&self, sm_id: u32, universe: u64) -> u64 {
        if !self.randomize_probes {
            return 0;
        }
        (((sm_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) * universe) >> 32
    }
}

/// The active deterministic schedule seed, formatted for diagnostics.
pub(crate) fn seed_diag() -> String {
    match gpu_sim::current_sched_seed() {
        Some(s) => s.to_string(),
        None => "none (pool mode)".to_string(),
    }
}
