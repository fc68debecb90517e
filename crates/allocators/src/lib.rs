//! # allocators: baseline GPU memory managers on the SIMT substrate
//!
//! The Gallatin paper evaluates against the allocators collected by the
//! Winter et al. survey ("war of the worlds" benchmark). This crate ports
//! each of those designs — structurally, not instruction-for-instruction —
//! onto the same [`gpu_sim`] substrate Gallatin runs on, so the benchmark
//! harness can compare the *algorithms* the way the paper does:
//!
//! * [`CudaHeapSim`] — the CUDA device heap: fully general, globally
//!   serialized first-fit free list. The paper's "orders of magnitude
//!   slower" fallback that every chunk-limited allocator leans on.
//! * [`reg_eff`] — the Register-Efficient allocators (Vinkler & Havran):
//!   lock-free chunk lists walked by rovers. Variants A, AW (the
//!   atomicAdd wrapper pseudo-allocator), C, CF, CM, CFM.
//! * [`ScatterAlloc`] — hashed scattering of requests across superblock
//!   pages with bitfield chunk claims.
//! * [`ouroboros`] — queue-based recycling over 8192-byte chunks (C/P;
//!   S, VA and VL are one run here), with the capped CUDA-heap fallback
//!   for requests above the chunk size.
//! * [`XMalloc`] — warp-level request combining over size-class free
//!   lists.
//!
//! All implement [`gpu_sim::DeviceAllocator`]; [`all_baselines`] builds
//! the full roster the benchmarks iterate over.

#![warn(missing_docs)]

pub mod cuda_heap;
pub mod ouroboros;
pub mod reg_eff;
pub mod scatter_alloc;
pub mod util;
pub mod xmalloc;

pub use cuda_heap::{CudaHeapSim, FirstFitHeap};
pub use ouroboros::{Ouroboros, OuroborosKind};
pub use reg_eff::{RegEff, RegEffVariant};
pub use scatter_alloc::ScatterAlloc;
pub use xmalloc::XMalloc;

use gpu_sim::DeviceAllocator;
use std::sync::Arc;

/// The display name of every baseline, in the order the paper's figures
/// list them — the one list [`all_baselines`] builds from.
pub fn baseline_names() -> Vec<&'static str> {
    let mut v = vec!["CUDA"];
    v.extend(Ouroboros::VARIANTS.map(|v| v.0));
    v.extend(RegEffVariant::ALL.map(|v| v.0));
    v.extend(["ScatterAlloc", "XMalloc"]);
    v
}

/// Build one baseline by its display name; `None` for a name
/// [`baseline_names`] does not list.
pub fn baseline_by_name(name: &str, heap_bytes: u64) -> Option<Arc<dyn DeviceAllocator>> {
    Some(match name {
        "CUDA" => Arc::new(CudaHeapSim::new(heap_bytes)),
        "ScatterAlloc" => Arc::new(ScatterAlloc::new(heap_bytes)),
        "XMalloc" => Arc::new(XMalloc::new(heap_bytes)),
        _ => match Ouroboros::parse_name(name) {
            Some(kind) => Arc::new(Ouroboros::new(heap_bytes, kind)),
            None => Arc::new(RegEff::new(heap_bytes, RegEffVariant::from_name(name)?)),
        },
    })
}

/// Build every baseline allocator at the given heap size, in the order
/// the paper's figures list them.
///
/// ```
/// use gpu_sim::{DeviceAllocator, WarpCtx};
///
/// let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
/// for a in allocators::all_baselines(16 << 20) {
///     if a.is_managing() && a.supports_size(64) {
///         let p = a.malloc(&warp.lane(0), 64);
///         assert!(!p.is_null(), "{}", a.name());
///         a.free(&warp.lane(0), p);
///     }
/// }
/// ```
pub fn all_baselines(heap_bytes: u64) -> Vec<Arc<dyn DeviceAllocator>> {
    baseline_names()
        .into_iter()
        .map(|name| baseline_by_name(name, heap_bytes).expect("a listed baseline name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_complete_and_distinct() {
        let all = all_baselines(32 << 20);
        // CUDA + 2 Ouroboros + 6 RegEff + ScatterAlloc + XMalloc = 11.
        assert_eq!(all.len(), 11);
        let mut names: Vec<&str> = all.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate allocator names");
    }

    #[test]
    fn every_listed_name_builds_the_allocator_that_reports_it() {
        let all = all_baselines(32 << 20);
        assert_eq!(all.iter().map(|a| a.name()).collect::<Vec<_>>(), baseline_names());
        assert!(baseline_by_name("Ouroboros-Q", 32 << 20).is_none());
        assert!(baseline_by_name("RegEff-", 32 << 20).is_none());
    }

    #[test]
    fn only_aw_is_non_managing() {
        for a in all_baselines(32 << 20) {
            assert_eq!(a.is_managing(), a.name() != "RegEff-AW", "{}", a.name());
        }
    }
}
