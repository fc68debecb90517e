//! Offline stand-in for the `rayon` crate (see the workspace
//! `Cargo.toml` for why external dependencies are vendored as shims).
//!
//! Provides the slice of rayon this workspace uses — `into_par_iter()`
//! over integer ranges, `rayon::scope`, and `ThreadPoolBuilder` — on top
//! of `std::thread::scope`. Work is distributed dynamically through a
//! shared atomic cursor, so like real rayon (and like a GPU), the
//! assignment of items to OS threads is timing-dependent and racy
//! interleavings still occur; the deterministic scheduler in `gpu-sim`
//! is the reproducible alternative, not this pool.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Global worker-count override installed by [`ThreadPoolBuilder::build_global`].
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

// From the libc std already links.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

fn pool_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    // The affinity mask in one syscall (`available_parallelism` re-reads
    // the cgroup files too, ≈12 µs a launch). Read at every launch, never
    // cached: callers pin and unpin the launching thread.
    #[cfg(target_os = "linux")]
    {
        // Room for 1,024 CPUs; a wider kernel mask is an error.
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable buffer of the `cpusetsize` bytes
        // passed, all the call writes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0 {
            return mask.iter().map(|w| w.count_ones() as usize).sum();
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Builder mirroring `rayon::ThreadPoolBuilder`; only the global-pool
/// worker count is honoured (thread names are cosmetic).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn thread_name<F: FnMut(usize) -> String>(self, _f: F) -> Self {
        self
    }

    pub fn build_global(self) -> Result<(), Box<dyn std::error::Error>> {
        if self.num_threads > 0 {
            GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Scope mirroring `rayon::scope`: spawned closures run on their own
/// threads and are all joined before `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let handoff = Scope { inner: self.inner };
        self.inner.spawn(move || f(&handoff));
    }
}

pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

pub mod iter {
    use super::*;

    /// A parallel iterator over a half-open integer range.
    pub struct RangeParIter<T> {
        pub(crate) start: T,
        pub(crate) end: T,
    }

    pub trait IntoParallelIterator {
        type Iter;
        fn into_par_iter(self) -> Self::Iter;
    }

    macro_rules! range_par_iter {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for std::ops::Range<$t> {
                type Iter = RangeParIter<$t>;
                fn into_par_iter(self) -> RangeParIter<$t> {
                    RangeParIter { start: self.start, end: self.end }
                }
            }

            impl RangeParIter<$t> {
                /// Run `f` for every item, distributing items over the
                /// pool through a shared atomic cursor.
                pub fn for_each<F>(self, f: F)
                where
                    F: Fn($t) + Sync + Send,
                {
                    let len = self.end.saturating_sub(self.start) as u64;
                    if len == 0 {
                        return;
                    }
                    let workers = (super::pool_threads() as u64).min(len).max(1);
                    if workers == 1 {
                        for i in self.start..self.end {
                            f(i);
                        }
                        return;
                    }
                    let cursor = AtomicU64::new(0);
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(|| loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= len {
                                    break;
                                }
                                f(self.start + i as $t);
                            });
                        }
                    });
                }
            }
        )*};
    }

    range_par_iter!(u32, u64, usize);
}

pub mod prelude {
    pub use crate::iter::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_for_each_covers_range() {
        let hits: Vec<std::sync::atomic::AtomicU32> =
            (0..100).map(|_| std::sync::atomic::AtomicU32::new(0)).collect();
        (0u64..100).into_par_iter().for_each(|i| {
            hits[i as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
    }

    /// No test here installs a global worker count, so `pool_threads`
    /// reads the calling test thread's own mask (affinity is per thread).
    #[test]
    #[cfg(target_os = "linux")]
    fn pool_follows_the_calling_threads_affinity_mask() {
        use super::sched_getaffinity;
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes.
        assert_eq!(unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) }, 0);
        let cpus: usize = allowed.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(super::pool_threads(), cpus);
        if cpus < 2 {
            return; // nothing to narrow from
        }
        let run_ids = || {
            let ids = std::sync::Mutex::new(Vec::new());
            (0u32..64).into_par_iter().for_each(|_| {
                ids.lock().unwrap().push(std::thread::current().id());
            });
            ids.into_inner().unwrap()
        };
        let caller = std::thread::current().id();

        let word = allowed.iter().position(|&w| w != 0).unwrap();
        let mut one = [0u64; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        // SAFETY: `one` is a live buffer of `bytes` bytes the call only reads.
        assert_eq!(unsafe { sched_setaffinity(0, bytes, one.as_ptr()) }, 0);
        let narrowed = (super::pool_threads(), run_ids());
        // SAFETY: as above, for `allowed`. Restored before any assert.
        assert_eq!(unsafe { sched_setaffinity(0, bytes, allowed.as_ptr()) }, 0);
        assert_eq!(narrowed.0, 1);
        assert!(narrowed.1.iter().all(|&id| id == caller), "one CPU: every item on the caller");

        // The mask is read again at this launch: workers come back, and
        // with more than one of them no item runs on the launching thread.
        assert_eq!(super::pool_threads(), cpus);
        let ids = run_ids();
        assert_eq!(ids.len(), 64);
        assert!(ids.iter().all(|&id| id != caller), "restored mask: the items run on workers");
    }

    #[test]
    fn scope_joins_spawns() {
        let total = std::sync::atomic::AtomicU32::new(0);
        super::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scope_spawn() {
        let total = std::sync::atomic::AtomicU32::new(0);
        super::scope(|s| {
            s.spawn(|inner| {
                inner.spawn(|_| {
                    total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}
