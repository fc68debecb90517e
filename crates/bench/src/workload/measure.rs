//! Benchmark kernels and the median-of-N measurement protocol.
//!
//! Every timing experiment follows the survey protocol as amended by the
//! paper (§6.1): a run allocates with one kernel, validates payloads,
//! frees with a second kernel, and *the allocator is reset between runs*
//! so each run measures cold-state behaviour; the reported figure is the
//! median over runs. Warmed-up mode (§6.9) skips the reset and discards
//! the first run.

use crate::report::counts_delta;
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How per-thread request sizes are chosen.
#[derive(Clone, Copy, Debug)]
pub enum SizeSpec {
    /// Every thread requests the same size (single-size tests).
    Fixed(u64),
    /// Thread sizes are power-of-two sizes drawn deterministically from
    /// `[16, upper]` (mixed-size tests).
    MixedUpTo(u64),
}

impl SizeSpec {
    /// The size thread `tid` requests.
    #[inline]
    pub fn size_for(self, tid: u64) -> u64 {
        match self {
            SizeSpec::Fixed(s) => s,
            SizeSpec::MixedUpTo(upper) => {
                let lo = 4; // log2(16)
                let hi = 63 - upper.leading_zeros() as u64;
                // SplitMix-style hash keeps the draw deterministic and
                // identical across allocators.
                let mut x = tid.wrapping_add(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 31;
                1 << (lo + x % (hi - lo + 1))
            }
        }
    }
}

/// Result of one allocate→validate→free run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Wall time of the allocation kernel, milliseconds.
    pub alloc_ms: f64,
    /// Wall time of the free kernel, milliseconds.
    pub free_ms: f64,
    /// Requests that returned null.
    pub failed: u64,
    /// Payload validation failures (overlapping allocations).
    pub corrupt: u64,
    /// Lowest address handed out (fragmentation metric input).
    pub min_addr: u64,
    /// Highest `address + size` handed out.
    pub max_addr: u64,
    /// The allocator's counters over this run's kernels (empty for an
    /// allocator that keeps no metrics).
    pub counts: Vec<(String, u64)>,
}

/// Run one allocate→validate→free cycle of `threads` requests on `alloc`.
///
/// Allocation and free are separate kernels (as in the survey harness) so
/// they can be timed independently; pointers live in a host-side table
/// between the two, standing in for the device array the survey uses.
pub fn run_alloc_free(
    alloc: &dyn DeviceAllocator,
    device: DeviceConfig,
    threads: u64,
    sizes: SizeSpec,
    validate: bool,
) -> RunResult {
    let ptrs: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(DevicePtr::NULL.0)).collect();
    let failed = AtomicU64::new(0);
    let corrupt = AtomicU64::new(0);
    let min_addr = AtomicU64::new(u64::MAX);
    let max_addr = AtomicU64::new(0);
    let snapshot = || alloc.metrics().map(|m| m.snapshot());
    let before = snapshot();

    // --- allocation kernel ---
    let t0 = Instant::now();
    launch_warps(device, threads, |warp| {
        let n = warp.active as usize;
        let req: Vec<Option<u64>> =
            (0..n).map(|l| Some(sizes.size_for(warp.base_tid + l as u64))).collect();
        let mut out = vec![DevicePtr::NULL; n];
        alloc.warp_malloc(warp, &req, &mut out);
        for (l, p) in out.iter().enumerate() {
            let tid = warp.base_tid + l as u64;
            if p.is_null() {
                failed.fetch_add(1, Ordering::Relaxed);
            } else {
                ptrs[tid as usize].store(p.0, Ordering::Relaxed);
                alloc.memory().write_stamp(*p, tid ^ 0xa11c);
            }
        }
    });
    let alloc_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- validation (untimed, survey-style correctness check) ---
    if validate {
        launch_warps(device, threads, |warp| {
            for l in warp.lanes() {
                let tid = warp.base_tid + l as u64;
                let raw = ptrs[tid as usize].load(Ordering::Relaxed);
                if raw != DevicePtr::NULL.0 {
                    let p = DevicePtr(raw);
                    if alloc.memory().read_stamp(p) != tid ^ 0xa11c {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    min_addr.fetch_min(raw, Ordering::Relaxed);
                    max_addr.fetch_max(raw + sizes.size_for(tid), Ordering::Relaxed);
                }
            }
        });
    }

    // --- free kernel ---
    let t1 = Instant::now();
    launch_warps(device, threads, |warp| {
        let n = warp.active as usize;
        let batch: Vec<DevicePtr> = (0..n)
            .map(|l| DevicePtr(ptrs[(warp.base_tid + l as u64) as usize].load(Ordering::Relaxed)))
            .collect();
        alloc.warp_free(warp, &batch);
    });
    let free_ms = t1.elapsed().as_secs_f64() * 1e3;

    RunResult {
        alloc_ms,
        free_ms,
        failed: failed.load(Ordering::Relaxed),
        corrupt: corrupt.load(Ordering::Relaxed),
        min_addr: min_addr.load(Ordering::Relaxed),
        max_addr: max_addr.load(Ordering::Relaxed),
        counts: before.zip(snapshot()).map_or_else(Vec::new, |(b, a)| counts_delta(&b, &a)),
    }
}

/// Every run of one cell: each figure of the cell is read off them.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    pub runs: Vec<RunResult>,
}

impl Measurement {
    /// The alloc kernel's milliseconds, run by run.
    pub fn alloc_ms(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.alloc_ms).collect()
    }

    /// The free kernel's milliseconds, run by run.
    pub fn free_ms(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.free_ms).collect()
    }

    /// Every counter summed over the runs, each taken around its run's
    /// own kernels.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let Some(first) = self.runs.first() else { return Vec::new() };
        let total = |i: usize| self.runs.iter().map(|r| r.counts[i].1).sum();
        first.counts.iter().enumerate().map(|(i, (name, _))| (name.clone(), total(i))).collect()
    }
}

/// Median of a sample (empty → NaN).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sample variance (n−1 denominator; < 2 samples → 0).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64
}

/// The full protocol: `runs` repetitions of [`run_alloc_free`], resetting
/// the allocator between runs (cold mode) or never (warmed mode, first
/// run discarded).
pub fn measure(
    alloc: &dyn DeviceAllocator,
    device: DeviceConfig,
    threads: u64,
    sizes: SizeSpec,
    runs: usize,
    warmed: bool,
) -> Measurement {
    let mut m = Measurement::default();
    alloc.reset();
    if warmed {
        // Warm-up round, not recorded.
        let _ = run_alloc_free(alloc, device, threads, sizes, false);
    }
    for _ in 0..runs {
        if !warmed {
            alloc.reset();
        }
        m.runs.push(run_alloc_free(alloc, device, threads, sizes, true));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::gallatin;

    #[test]
    fn size_spec_fixed_and_mixed() {
        assert_eq!(SizeSpec::Fixed(64).size_for(123), 64);
        let spec = SizeSpec::MixedUpTo(4096);
        for tid in 0..1000 {
            let s = spec.size_for(tid);
            assert!(s.is_power_of_two());
            assert!((16..=4096).contains(&s), "{s}");
        }
        // Deterministic.
        assert_eq!(spec.size_for(42), spec.size_for(42));
        // Actually mixed.
        let distinct: std::collections::HashSet<u64> =
            (0..1000).map(|t| spec.size_for(t)).collect();
        assert!(distinct.len() >= 5);
    }

    #[test]
    fn median_and_variance_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn protocol_runs_clean_on_gallatin() {
        let a = gallatin(64 << 20, 8);
        let m =
            measure(&a, gpu_sim::DeviceConfig::with_sms(8), 2048, SizeSpec::Fixed(64), 3, false);
        assert_eq!(m.runs.len(), 3);
        for r in &m.runs {
            assert_eq!((r.failed, r.corrupt), (0, 0), "no failures, no overlapping allocations");
            assert!(r.alloc_ms > 0.0 && r.max_addr > r.min_addr);
        }
    }

    #[test]
    fn warmed_mode_skips_reset() {
        let a = gallatin(64 << 20, 8);
        let m = measure(
            &a,
            gpu_sim::DeviceConfig::with_sms(8),
            1024,
            SizeSpec::MixedUpTo(256),
            2,
            true,
        );
        assert_eq!(m.runs.len(), 2);
        assert!(m.runs.iter().all(|r| r.corrupt == 0));
    }
}
