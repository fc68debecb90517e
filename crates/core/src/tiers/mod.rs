//! The three allocation tiers, decomposed (paper §4).
//!
//! Gallatin's design is three pipelines layered over one memory table,
//! each file here one `impl Gallatin` block over the allocator's own
//! fields:
//!
//! * [`segment`] — the segment tree: claim free segments from the front
//!   (to format for a class) or back (large allocations), the two-phase
//!   reclaim protocol, and `trim` (Algorithm 1, §4.1);
//! * [`block`] — per-class block trees plus the per-SM block buffers: pop
//!   blocks from formatted segments' rings, push them home, keep the
//!   wavefront cached (Algorithm 2, §4.2);
//! * [`slice`] — generation-tagged claim words and the coalesced group
//!   claim: one batched RMW serves a whole same-class warp group
//!   (Algorithm 3, §4.3).
//!
//! Each file owns its protocol, its share of the cross-structure
//! invariant check and its own metrics/trace emissions. The protocols
//! cross tiers by design (a block free may reclaim a segment; a slice
//! claim may pull a fresh block, which may pull a fresh segment).

pub(crate) mod block;
pub(crate) mod segment;
pub(crate) mod slice;

use crate::gallatin::Gallatin;

/// The cell of `Gallatin::reserved` that holds the byte count.
pub(crate) const RESERVED: usize = 0;

impl Gallatin {
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
    fn probe_hint(&self, sm_id: u32, universe: u64) -> u64 {
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
