//! The fused free+malloc kernel that `kernel-mixed`, `kernel-large` and
//! `topo-hotspot` share, generic over the allocator so the same code
//! runs against Gallatin, a pool, a device pool, the span [`Probe`] and
//! the [`BumpControl`] floor.
//!
//! A *unit* is one launch. Lane `t` of unit `u` verifies the stamp of
//! the pointer it stored `R` units ago (a ring of `R` live tables),
//! frees it, draws its size from input table `u mod K`, allocates,
//! re-issues a NULL up to [`NULL_RETRIES`] times, stamps the new
//! allocation and stores the pointer. One lane's malloc or one lane's
//! free is one *op*.
//!
//! [`Probe`]: crate::span::Probe
//! [`BumpControl`]: crate::control::BumpControl

use crate::span::{Name, Recorder, WarpSpans};
use gpu_sim::{launch_warps_counted, DeviceAllocator, DeviceConfig, DevicePtr, WARP_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Re-issues of a NULL malloc before the op counts as failed. Three
/// immediate retries still left ≈1 in 10⁶ failed in sizing, eight with a
/// bare `yield_now` ≈4 in 10⁸, and eight backing off for 17 ms in all
/// still lost one warp's 32 lanes in one run of 70: the peer that holds
/// the segment mid-reformat, or that owes the per-SM buffer its
/// replacement block, is an OS-preempted thread (which a GPU does not
/// have; on a 2-core box a yield returns at once when nothing else is
/// runnable) or a thread caught for a while in the `BlockTier::get`
/// retry loop the README describes. So the first three retries yield and
/// the later ones sleep, tripling from 50 µs to 0.33 s (half a second in
/// all), well inside the watchdog's deadline.
pub const NULL_RETRIES: usize = 12;

/// Wait before re-issue number `retry` of a NULL malloc.
pub fn back_off(retry: usize) {
    if retry < 3 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50 * 3u64.pow(retry as u32 - 3)));
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform integer in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * self.unit_f64()).exp().round() as u64).clamp(lo, hi)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The generated inputs of a churn workload: `K` size tables of one
/// entry per thread. A size of 0 marks a lane that issues nothing.
pub struct ChurnInputs {
    /// Threads per launch.
    pub threads: usize,
    /// `tables[k][tid]`: request size in bytes, 0 for an idle lane.
    pub tables: Vec<Vec<u32>>,
    /// Lanes of each table that issue a request.
    active: Vec<u64>,
}

impl ChurnInputs {
    /// `k` tables of `threads` sizes drawn by `draw(rng, tid)`.
    pub fn generate(
        seed: u64,
        threads: usize,
        k: usize,
        mut draw: impl FnMut(&mut SplitMix64, usize) -> u32,
    ) -> Self {
        let mut rng = SplitMix64(seed);
        let tables =
            (0..k).map(|_| (0..threads).map(|tid| draw(&mut rng, tid)).collect()).collect();
        Self::from_tables(threads, tables)
    }

    fn from_tables(threads: usize, tables: Vec<Vec<u32>>) -> Self {
        let active = tables.iter().map(|t| t.iter().filter(|&&s| s > 0).count() as u64).collect();
        ChurnInputs { threads, tables, active }
    }

    /// The same inputs cut to the first `threads` lanes of every table
    /// (the sim pass runs a prefix of the host pass's inputs).
    pub fn prefix(&self, threads: usize) -> Self {
        let tables = self.tables.iter().map(|t| t[..threads.min(t.len())].to_vec()).collect();
        Self::from_tables(threads.min(self.threads), tables)
    }

    /// Lanes that issue a request in table `k`.
    pub fn active(&self, k: usize) -> u64 {
        self.active[k]
    }

    /// Bytes table `k` requests.
    pub fn bytes(&self, k: usize) -> u64 {
        self.tables[k].iter().map(|&s| s as u64).sum()
    }
}

/// Failures and retries a pass observed (all zero on a healthy run).
#[derive(Default)]
pub struct Counters {
    /// Mallocs still NULL after the retry policy.
    pub malloc_failed: AtomicU64,
    /// Stamps that did not read back as written.
    pub stamp_mismatch: AtomicU64,
    /// Lane re-issues made by the retry policy.
    pub null_retries: AtomicU64,
}

/// What one unit does with the ring slot it visits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Verify and free the slot's old table, then allocate a new one.
    Churn,
    /// Verify and free only (the drain after a pass).
    Drain,
}

/// A ring of live pointer tables driven through an allocator.
pub struct Churn<'a, A> {
    alloc: &'a A,
    inputs: &'a ChurnInputs,
    /// `ring[slot][tid]`: pointer stored by the unit that last wrote the
    /// slot.
    ring: Vec<Vec<AtomicU64>>,
    /// Unit that last wrote each slot (`u64::MAX`: never).
    written: Vec<u64>,
    /// Failure and retry counts.
    pub counters: Counters,
}

const NEVER: u64 = u64::MAX;

#[inline]
fn stamp_of(unit: u64, tid: usize) -> u64 {
    ((unit << 32) | tid as u64) ^ 0x5EED_CAFE_F00D_D00D
}

impl<'a, A: DeviceAllocator> Churn<'a, A> {
    /// An empty ring of `depth` tables over `alloc`.
    pub fn new(alloc: &'a A, inputs: &'a ChurnInputs, depth: usize) -> Self {
        let ring = (0..depth)
            .map(|_| (0..inputs.threads).map(|_| AtomicU64::new(DevicePtr::NULL.0)).collect())
            .collect();
        Churn { alloc, inputs, ring, written: vec![NEVER; depth], counters: Counters::default() }
    }

    /// Ring depth `R`.
    pub fn depth(&self) -> usize {
        self.ring.len()
    }

    /// Ops unit `u` performs when nothing fails: the mallocs of its input
    /// table plus the frees of the table it replaces.
    pub fn ops_of_unit(&self, u: u64, phase: Phase) -> u64 {
        let k = self.inputs.tables.len() as u64;
        let prev = self.written[(u % self.depth() as u64) as usize];
        let frees = if prev == NEVER { 0 } else { self.inputs.active((prev % k) as usize) };
        let mallocs = if phase == Phase::Churn { self.inputs.active((u % k) as usize) } else { 0 };
        frees + mallocs
    }

    /// Run unit `u` as one launch on `device`; returns the launch's
    /// duration in schedule steps (0 in `Pool` mode). With `trace`, the
    /// launch and every warp record spans under the given unit span id.
    pub fn run_unit(
        &mut self,
        device: DeviceConfig,
        u: u64,
        phase: Phase,
        trace: Option<(&Recorder, u32)>,
    ) -> u64 {
        let slot = (u % self.depth() as u64) as usize;
        let prev = self.written[slot];
        let table = &self.ring[slot];
        let sizes_in = &self.inputs.tables[(u % self.inputs.tables.len() as u64) as usize];
        let alloc = self.alloc;
        let mem = alloc.memory();
        let counters = &self.counters;
        let unit32 = u as u32;

        let launch = trace.map(|(rec, _)| rec.begin_launch());
        let steps = launch_warps_counted(device, self.inputs.threads as u64, |warp| {
            let base = warp.base_tid as usize;
            let active = warp.active as usize;
            let mut spans = trace
                .zip(launch)
                .map(|((rec, _), (id, _))| WarpSpans::begin(rec, unit32, id, warp));
            // Runs `f` as a leaf span when tracing, directly otherwise.
            macro_rules! leaf {
                ($name:expr, $lanes:expr, $f:expr) => {
                    match spans.as_mut() {
                        Some(s) => s.leaf($name, $lanes, $f),
                        None => ($f)(),
                    }
                };
            }

            if prev != NEVER {
                let mut old = [DevicePtr::NULL; WARP_SIZE];
                leaf!(Name::Verify, active as u32, || {
                    for lane in 0..active {
                        let p = DevicePtr(table[base + lane].load(Ordering::Relaxed));
                        if !p.is_null() && mem.read_stamp(p) != stamp_of(prev, base + lane) {
                            counters.stamp_mismatch.fetch_add(1, Ordering::Relaxed);
                        }
                        old[lane] = p;
                    }
                });
                alloc.warp_free(warp, &old[..active]);
            }
            if phase == Phase::Drain {
                for lane in 0..active {
                    table[base + lane].store(DevicePtr::NULL.0, Ordering::Relaxed);
                }
                if let Some(s) = spans {
                    s.finish();
                }
                return;
            }

            let mut sizes = [None::<u64>; WARP_SIZE];
            leaf!(Name::Gen, active as u32, || {
                for lane in 0..active {
                    let sz = sizes_in[base + lane];
                    sizes[lane] = (sz > 0).then_some(sz as u64);
                }
            });
            let mut out = [DevicePtr::NULL; WARP_SIZE];
            alloc.warp_malloc(warp, &sizes[..active], &mut out[..active]);
            retry_nulls(alloc, warp, &sizes, &mut out, counters);
            leaf!(Name::Stamp, active as u32, || {
                for lane in 0..active {
                    if !out[lane].is_null() {
                        mem.write_stamp(out[lane], stamp_of(u, base + lane));
                    }
                    table[base + lane].store(out[lane].0, Ordering::Relaxed);
                }
            });
            if let Some(s) = spans {
                s.finish();
            }
        });

        if let Some(((rec, unit_id), launch)) = trace.zip(launch) {
            rec.end_launch(launch, unit_id, unit32);
        }
        self.written[slot] = if phase == Phase::Churn { u } else { NEVER };
        steps
    }

    /// Verify and free every live table (units `from..from + R`), so the
    /// allocator can be checked for `reserved_bytes == 0`.
    pub fn drain(&mut self, device: DeviceConfig, from: u64) {
        for u in from..from + self.depth() as u64 {
            self.run_unit(device, u, Phase::Drain, None);
        }
    }
}

/// The retry policy: re-issue the lanes whose malloc returned NULL, up
/// to [`NULL_RETRIES`] times, backing off before each try; what is
/// still NULL afterwards counts as failed.
fn retry_nulls<A: DeviceAllocator>(
    alloc: &A,
    warp: &gpu_sim::WarpCtx,
    sizes: &[Option<u64>; WARP_SIZE],
    out: &mut [DevicePtr; WARP_SIZE],
    counters: &Counters,
) {
    let active = warp.active as usize;
    let missing = |out: &[DevicePtr; WARP_SIZE]| {
        (0..active).filter(|&l| sizes[l].is_some() && out[l].is_null()).count() as u64
    };
    let mut left = missing(out);
    for retry in 0..NULL_RETRIES {
        if left == 0 {
            return;
        }
        counters.null_retries.fetch_add(left, Ordering::Relaxed);
        back_off(retry);
        let mut again = [None::<u64>; WARP_SIZE];
        for lane in 0..active {
            if out[lane].is_null() {
                again[lane] = sizes[lane];
            }
        }
        let mut got = [DevicePtr::NULL; WARP_SIZE];
        alloc.warp_malloc(warp, &again[..active], &mut got[..active]);
        for lane in 0..active {
            if again[lane].is_some() {
                out[lane] = got[lane];
            }
        }
        left = missing(out);
    }
    counters.malloc_failed.fetch_add(left, Ordering::Relaxed);
}
