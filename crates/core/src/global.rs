//! The global allocator variant (paper Appendix A.2).
//!
//! For convenience, Gallatin ships a variant callable through static
//! device pointers: `init_global_allocator(num_bytes)` once on the host,
//! then `global_malloc` / `global_free` from any device function. This
//! module reproduces that interface over a process-wide instance — a
//! single [`Gallatin`] from [`init_global_allocator`], or any allocator
//! the caller built (a `GallatinPool`, a `DevicePool`) via
//! [`init_global`], which hands back the typed `&'static` so pool
//! counters stay reachable.
//!
//! Initialization is once-only, as with the CUDA original where the
//! device pointer is set once: a second init call returns
//! [`AlreadyInitialized`] (carrying what the global already is) instead
//! of silently keeping the first instance.
//!
//! ```
//! use gallatin::global::{global_free, global_malloc, init_global_allocator};
//! use gpu_sim::{launch, DeviceConfig};
//!
//! init_global_allocator(64 << 20).expect("first init in this process");
//! launch(DeviceConfig::default(), 1024, |ctx| {
//!     let p = global_malloc(ctx, 64);
//!     assert!(!p.is_null());
//!     global_free(ctx, p);
//! });
//! ```

use crate::config::GallatinConfig;
use crate::gallatin::Gallatin;
use gpu_sim::{DeviceAllocator, DevicePtr, LaneCtx};
use std::sync::OnceLock;

static GLOBAL: OnceLock<&'static dyn DeviceAllocator> = OnceLock::new();

/// The global allocator was already initialized; the new allocator was
/// discarded. Carries a description of what the global already is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlreadyInitialized {
    /// `name()` of the backend that won the initialization race.
    pub existing: String,
}

impl std::fmt::Display for AlreadyInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global allocator already initialized (as {})", self.existing)
    }
}

impl std::error::Error for AlreadyInitialized {}

/// Install `alloc` as the process-wide global allocator and return the
/// typed reference to it. Errors with [`AlreadyInitialized`] (dropping
/// `alloc`) if the global was already set, as the CUDA original's device
/// pointer is set once.
pub fn init_global<A: DeviceAllocator + 'static>(
    alloc: A,
) -> Result<&'static A, AlreadyInitialized> {
    let mut installed = None;
    let winner = GLOBAL.get_or_init(|| {
        let typed: &'static A = Box::leak(Box::new(alloc));
        installed = Some(typed);
        typed
    });
    installed.ok_or_else(|| AlreadyInitialized { existing: winner.name().to_string() })
}

/// Initialize the global allocator as one [`Gallatin`] with `num_bytes`
/// of device memory (rounded down to whole default 16 MB segments,
/// minimum one segment) and the default configuration.
pub fn init_global_allocator(num_bytes: u64) -> Result<(), AlreadyInitialized> {
    let heap_bytes = (num_bytes / (16 << 20) * (16 << 20)).max(16 << 20);
    init_global(Gallatin::new(GallatinConfig { heap_bytes, ..GallatinConfig::default() })).map(drop)
}

/// Whether an init call has succeeded.
pub fn global_allocator_initialized() -> bool {
    GLOBAL.get().is_some()
}

/// The global instance, behind the common [`DeviceAllocator`] interface.
///
/// # Panics
/// Panics if the global allocator has not been initialized.
pub fn global_allocator() -> &'static dyn DeviceAllocator {
    *GLOBAL.get().expect("call init_global_allocator first")
}

/// Device-side `void* global_malloc(num_bytes)`.
pub fn global_malloc(ctx: &LaneCtx, num_bytes: u64) -> DevicePtr {
    global_allocator().malloc(ctx, num_bytes)
}

/// Device-side `void global_free(void* alloc)`.
pub fn global_free(ctx: &LaneCtx, alloc: DevicePtr) {
    global_allocator().free(ctx, alloc)
}

/// Run the invariant check on the global instance — the host-side
/// maintenance check, callable between launches the way
/// `cudaDeviceSynchronize` + a verifier kernel would be on the GPU. For
/// a pool this checks every instance plus the pool-wide ledger.
///
/// # Panics
/// Panics if the global allocator has not been initialized.
pub fn global_check_invariants() -> Result<(), String> {
    global_allocator().check_invariants()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Note: the global is process-wide, so all assertions live in one
    // test to avoid cross-test init races. (Pool-backed globals are
    // exercised in the `pool_routing` / `topo_routing` integration
    // tests — each its own process.)
    #[test]
    fn global_variant_end_to_end() {
        assert!(!global_allocator_initialized());
        init_global_allocator(48 << 20).expect("first init succeeds");
        assert!(global_allocator_initialized());
        // Double init is an explicit error naming the existing backend,
        // and the first instance stays in place.
        let err = init_global_allocator(128 << 20).unwrap_err();
        assert_eq!(err.existing, "Gallatin");
        assert!(err.to_string().contains("already initialized"));
        let pool = crate::GallatinPool::new(2, GallatinConfig::small_test(1 << 20));
        let Err(err) = init_global(pool) else { panic!("a pool must not replace the global") };
        assert_eq!(err.existing, "Gallatin");
        assert_eq!(global_allocator().heap_bytes(), 48 << 20);

        let ok = AtomicU64::new(0);
        launch(DeviceConfig::default(), 10_000, |ctx| {
            let p = global_malloc(ctx, 32);
            assert!(!p.is_null());
            global_allocator().memory().write_stamp(p, ctx.global_tid());
            assert_eq!(global_allocator().memory().read_stamp(p), ctx.global_tid());
            global_free(ctx, p);
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10_000);
        assert_eq!(global_allocator().stats().reserved_bytes, 0);
        global_check_invariants().expect("global heap consistent after the storm");
    }
}
