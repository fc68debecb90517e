//! Execute a [`ReplayScript`] against any allocator, reducing the run
//! to a diffable [`ScriptOutcome`].
//!
//! The runner enforces the same contract discipline as the differential
//! sweep: every served pointer is bounds-checked and stamped, every
//! stamp is verified immediately before its free (a clobbered stamp
//! means two live allocations overlapped), and whatever is still
//! reserved after the launch counts as leaked. Violations are *counted*,
//! not asserted, so differing allocator families produce comparable
//! outcomes instead of differently-located panics.
//!
//! In collective mode (the default for sweeps) consecutive same-kind
//! ops on distinct lanes are batched into one `warp_malloc`/`warp_free`
//! call, exercising the coalescing path exactly like a SIMT kernel
//! would. Scalar mode issues one op at a time in strict script order,
//! which is what makes trace round-trips order-exact (see the
//! `script_fixpoint` test).

use gpu_sim::replay::{ReplayOp, ReplayScript};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WARP_SIZE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where failing scenario scripts are dumped for artifact upload
/// (default `target/replay`), mirroring `GALLATIN_TRACE_DIR` for traces.
pub const REPLAY_DIR_ENV: &str = "GALLATIN_REPLAY_DIR";

/// Everything observable about one allocator's run of a script, reduced
/// to counters so runs can be diffed exactly across families.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScriptOutcome {
    /// Malloc ops issued by the script.
    pub attempted: u64,
    /// Requests that returned a pointer.
    pub served: u64,
    /// Requests refused: unsupported size or NULL (exhaustion).
    pub denied: u64,
    /// Stamp clobbers observed — two live allocations overlapped.
    pub overlaps: u64,
    /// Pointers handed out beyond the heap end.
    pub oob: u64,
    /// Bytes still reserved after the script completed.
    pub leaked_bytes: u64,
}

impl ScriptOutcome {
    /// The contract projection: counters that must be zero for every
    /// correct allocator regardless of its allocation policy.
    pub fn violations(&self) -> (u64, u64, u64) {
        (self.overlaps, self.oob, self.leaked_bytes)
    }
}

/// Per-warp slot table: pointer, request size, and whether the payload
/// was stamped (out-of-bounds pointers are never stamped or verified).
type Slot = (DevicePtr, u64, bool);

/// A warp-unique stamp per slot; a surviving stamp proves no other live
/// allocation overlapped this one.
fn stamp_of(warp_id: u64, slot: u32) -> u64 {
    (warp_id << 32) | (slot as u64 + 1)
}

/// Run `script` on `a` under `device` and reduce the run to a
/// [`ScriptOutcome`]. `collective` batches consecutive distinct-lane
/// same-kind ops into warp collectives; scalar mode preserves strict
/// per-warp op order. Does not reset the allocator — callers own its
/// lifecycle (and leaks are part of the outcome).
pub fn run_script(
    a: &dyn DeviceAllocator,
    device: DeviceConfig,
    script: &ReplayScript,
    collective: bool,
) -> ScriptOutcome {
    let attempted = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let denied = AtomicU64::new(0);
    let overlaps = AtomicU64::new(0);
    let oob = AtomicU64::new(0);
    let heap = a.heap_bytes();
    launch_warps(device, script.num_warps() * WARP_SIZE as u64, |warp| {
        let ops = &script.warps[warp.warp_id as usize].ops;
        let mut slots: Vec<Slot> = Vec::new();
        let slot_at = |slots: &mut Vec<Slot>, s: u32| {
            if slots.len() <= s as usize {
                slots.resize(s as usize + 1, (DevicePtr::NULL, 0, false));
            }
        };
        // One pending collective batch; `None` lane entries sit out.
        let mut batch_sizes: Vec<Option<u64>> = vec![None; WARP_SIZE];
        let mut batch_ptrs: Vec<DevicePtr> = vec![DevicePtr::NULL; WARP_SIZE];
        let mut batch_slots: Vec<Option<u32>> = vec![None; WARP_SIZE];
        let mut pending_mallocs = 0usize;
        let mut pending_frees = 0usize;

        macro_rules! flush_mallocs {
            () => {
                if pending_mallocs > 0 {
                    let mut out = vec![DevicePtr::NULL; WARP_SIZE];
                    a.warp_malloc(warp, &batch_sizes, &mut out);
                    for lane in 0..WARP_SIZE {
                        if let (Some(size), Some(slot)) = (batch_sizes[lane], batch_slots[lane]) {
                            settle_malloc(
                                a,
                                warp.warp_id,
                                &mut slots,
                                slot,
                                size,
                                out[lane],
                                heap,
                                &served,
                                &denied,
                                &oob,
                            );
                        }
                        batch_sizes[lane] = None;
                        batch_slots[lane] = None;
                    }
                    pending_mallocs = 0;
                }
            };
        }
        macro_rules! flush_frees {
            () => {
                if pending_frees > 0 {
                    for lane in 0..WARP_SIZE {
                        if let Some(slot) = batch_slots[lane] {
                            verify_stamp(a, warp.warp_id, &slots[slot as usize], slot, &overlaps);
                        }
                    }
                    a.warp_free(warp, &batch_ptrs);
                    for lane in 0..WARP_SIZE {
                        if let Some(slot) = batch_slots[lane] {
                            slots[slot as usize] = (DevicePtr::NULL, 0, false);
                        }
                        batch_ptrs[lane] = DevicePtr::NULL;
                        batch_slots[lane] = None;
                    }
                    pending_frees = 0;
                }
            };
        }

        for op in ops {
            match *op {
                ReplayOp::Malloc { lane, slot, size } => {
                    attempted.fetch_add(1, Ordering::Relaxed);
                    slot_at(&mut slots, slot);
                    if !a.supports_size(size) {
                        denied.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if collective {
                        flush_frees!();
                        if batch_sizes[lane as usize].is_some() {
                            flush_mallocs!(); // lane already queued: new batch
                        }
                        batch_sizes[lane as usize] = Some(size);
                        batch_slots[lane as usize] = Some(slot);
                        pending_mallocs += 1;
                    } else {
                        let p = a.malloc(&warp.lane(lane as usize), size);
                        settle_malloc(
                            a,
                            warp.warp_id,
                            &mut slots,
                            slot,
                            size,
                            p,
                            heap,
                            &served,
                            &denied,
                            &oob,
                        );
                    }
                }
                ReplayOp::Free { lane, slot } => {
                    if collective {
                        // The pointer may still sit in the pending
                        // malloc batch: settle it before looking it up.
                        flush_mallocs!();
                    }
                    slot_at(&mut slots, slot);
                    let entry = slots[slot as usize];
                    if entry.0.is_null() {
                        continue; // the malloc was denied: nothing to free
                    }
                    if collective {
                        if batch_slots[lane as usize].is_some() {
                            flush_frees!();
                        }
                        batch_ptrs[lane as usize] = entry.0;
                        batch_slots[lane as usize] = Some(slot);
                        pending_frees += 1;
                    } else {
                        verify_stamp(a, warp.warp_id, &entry, slot, &overlaps);
                        a.free(&warp.lane(lane as usize), entry.0);
                        slots[slot as usize] = (DevicePtr::NULL, 0, false);
                    }
                }
            }
        }
        flush_mallocs!();
        flush_frees!();
        debug_assert_eq!(
            pending_mallocs + pending_frees,
            0,
            "final flushes must drain both batches"
        );
    });
    ScriptOutcome {
        attempted: attempted.into_inner(),
        served: served.into_inner(),
        denied: denied.into_inner(),
        overlaps: overlaps.into_inner(),
        oob: oob.into_inner(),
        leaked_bytes: a.stats().reserved_bytes,
    }
}

/// Record a malloc result: count served/denied, bounds-check, stamp.
#[allow(clippy::too_many_arguments)]
fn settle_malloc(
    a: &dyn DeviceAllocator,
    warp_id: u64,
    slots: &mut [Slot],
    slot: u32,
    size: u64,
    p: DevicePtr,
    heap: u64,
    served: &AtomicU64,
    denied: &AtomicU64,
    oob: &AtomicU64,
) {
    if p.is_null() {
        denied.fetch_add(1, Ordering::Relaxed);
        return;
    }
    served.fetch_add(1, Ordering::Relaxed);
    if p.0 + size > heap {
        oob.fetch_add(1, Ordering::Relaxed);
        // Kept unstamped; the matching free still returns it.
        slots[slot as usize] = (p, size, false);
    } else {
        a.memory().write_stamp(p, stamp_of(warp_id, slot));
        slots[slot as usize] = (p, size, true);
    }
}

/// A clobbered stamp at free time means two live allocations overlapped.
fn verify_stamp(
    a: &dyn DeviceAllocator,
    warp_id: u64,
    entry: &Slot,
    slot: u32,
    overlaps: &AtomicU64,
) {
    let (p, _, stamped) = *entry;
    if stamped && a.memory().read_stamp(p) != stamp_of(warp_id, slot) {
        overlaps.fetch_add(1, Ordering::Relaxed);
    }
}

/// The directory failing scripts are dumped to: `$GALLATIN_REPLAY_DIR`,
/// defaulting to `target/replay`.
pub fn replay_dump_dir() -> PathBuf {
    std::env::var_os(REPLAY_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("replay"))
}

/// Write `script` to `dir/<label>-seed<seed>.replay` (creating `dir`,
/// including parents, if missing) so a failing scenario ships its exact
/// workload as a CI artifact. Returns the path, or `None` (with a
/// warning on stderr) if the write failed — dumping is best-effort and
/// never masks the original failure.
pub fn dump_script_to(
    dir: &Path,
    label: &str,
    seed: u64,
    script: &ReplayScript,
) -> Option<PathBuf> {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    let path = dir.join(format!("{safe}-seed{seed}.replay"));
    let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, script.render()));
    match write {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not dump replay script {}: {e}", path.display());
            None
        }
    }
}

/// [`dump_script_to`] targeting [`replay_dump_dir`].
pub fn dump_script(label: &str, seed: u64, script: &ReplayScript) -> Option<PathBuf> {
    dump_script_to(&replay_dump_dir(), label, seed, script)
}

/// Result of one serving batch dispatched by [`run_batch`].
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One pointer per requested malloc, in request order; NULL means
    /// the allocator denied the request (exhaustion or oversize).
    pub ptrs: Vec<DevicePtr>,
    /// Schedule steps the launch consumed (see
    /// [`gpu_sim::launch_warps_counted`]); 0 in pool mode.
    pub steps: u64,
}

/// Dispatch one serving batch as one kernel launch of ⌈max(f, m) / 32⌉
/// warps for `f` previously-served `frees` and `m` `mallocs` sizes: lane
/// `i` of warp `w` frees `frees[32w + i]`, then mallocs `mallocs[32w + i]`,
/// where each exists (a warp with no entry on a side skips that call) —
/// the free-then-malloc kernel a serving layer fuses queued work into.
///
/// Under a deterministic device the returned `steps` is the simulated
/// service time of the batch, a pure function of `(device seed, batch
/// contents, allocator state)`.
pub fn run_batch(
    a: &dyn DeviceAllocator,
    device: DeviceConfig,
    mallocs: &[u64],
    frees: &[DevicePtr],
) -> BatchResult {
    let mut results = Vec::new();
    let steps = run_batch_into(a, device, mallocs, frees, &mut results);
    BatchResult { ptrs: results.into_iter().map(|p| DevicePtr(p.into_inner())).collect(), steps }
}

/// [`run_batch`] into caller-owned `results` (a pointer per malloc), so a
/// loop of batches allocates nothing per launch; returns the steps.
pub(crate) fn run_batch_into(
    a: &dyn DeviceAllocator,
    device: DeviceConfig,
    mallocs: &[u64],
    frees: &[DevicePtr],
    results: &mut Vec<AtomicU64>,
) -> u64 {
    let w = WARP_SIZE;
    results.clear();
    results.resize_with(mallocs.len(), || AtomicU64::new(DevicePtr::NULL.0));
    let total_threads = (mallocs.len().max(frees.len()).div_ceil(w) * w) as u64;
    gpu_sim::launch_warps_counted(device, total_threads, |warp| {
        let base = warp.warp_id as usize * w;
        let active = warp.active as usize;
        if base < frees.len() {
            // Lanes beyond the batch's frees free NULL, which allocators ignore.
            let end = (base + active).min(frees.len());
            let mut ptrs = [DevicePtr::NULL; WARP_SIZE];
            ptrs[..end - base].copy_from_slice(&frees[base..end]);
            a.warp_free(warp, &ptrs[..active]);
        }
        if base < mallocs.len() {
            // Lanes beyond the batch's mallocs request nothing.
            let end = (base + active).min(mallocs.len());
            let mut sizes = [None; WARP_SIZE];
            for (lane, &size) in mallocs[base..end].iter().enumerate() {
                sizes[lane] = Some(size);
            }
            let mut out = [DevicePtr::NULL; WARP_SIZE];
            a.warp_malloc(warp, &sizes[..active], &mut out[..active]);
            for (lane, ptr) in out.iter().enumerate().take(end - base) {
                results[base + lane].store(ptr.0, Ordering::Relaxed);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallatin::{Gallatin, GallatinConfig};
    use gpu_sim::replay::WarpScript;
    use gpu_sim::{DeviceMemory, LaneCtx, WarpCtx};
    use std::sync::Mutex;

    fn two_warp_script() -> ReplayScript {
        let mut warps = Vec::new();
        for _ in 0..2 {
            let mut ops = Vec::new();
            for slot in 0..8u32 {
                ops.push(ReplayOp::Malloc { lane: slot % 4, slot, size: 16 << (slot % 3) });
            }
            for slot in (0..8u32).rev() {
                ops.push(ReplayOp::Free { lane: slot % 4, slot });
            }
            warps.push(WarpScript { ops });
        }
        ReplayScript { num_sms: 2, warps }
    }

    #[test]
    fn script_runs_clean_in_both_modes() {
        let script = two_warp_script();
        for collective in [false, true] {
            let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
            let out = run_script(&g, DeviceConfig::with_sms(2).seeded(7), &script, collective);
            assert_eq!(out.attempted, 16);
            assert_eq!(out.served, 16, "collective={collective}: {out:?}");
            assert_eq!(out.denied, 0);
            assert_eq!(out.violations(), (0, 0, 0), "collective={collective}: {out:?}");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn unsupported_and_exhausted_requests_count_as_denied() {
        // One 64 KiB segment: a second large allocation must be denied
        // (exhaustion), and a larger-than-heap request is unsupported.
        let g = Gallatin::new(GallatinConfig::small_test(1 << 16));
        let script = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript {
                ops: vec![
                    ReplayOp::Malloc { lane: 0, slot: 0, size: 1 << 16 },
                    ReplayOp::Malloc { lane: 1, slot: 1, size: 1 << 16 },
                    ReplayOp::Malloc { lane: 2, slot: 2, size: 1 << 24 },
                    ReplayOp::Free { lane: 0, slot: 0 },
                    ReplayOp::Free { lane: 1, slot: 1 },
                    ReplayOp::Free { lane: 2, slot: 2 },
                ],
            }],
        };
        let out = run_script(&g, DeviceConfig::with_sms(1).seeded(7), &script, true);
        assert_eq!(out.attempted, 3);
        assert_eq!(out.served, 1);
        assert_eq!(out.denied, 2);
        assert_eq!(out.violations(), (0, 0, 0), "{out:?}");
    }

    #[test]
    fn repeated_lane_use_splits_batches_correctly() {
        // All ops on lane 0: collective mode must flush per op and still
        // produce the same outcome as scalar mode.
        let ops: Vec<ReplayOp> = (0..6u32)
            .map(|slot| ReplayOp::Malloc { lane: 0, slot, size: 32 })
            .chain((0..6u32).map(|slot| ReplayOp::Free { lane: 0, slot }))
            .collect();
        let script = ReplayScript { num_sms: 1, warps: vec![WarpScript { ops }] };
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let a = run_script(&g, DeviceConfig::with_sms(1).seeded(3), &script, true);
        g.reset();
        let b = run_script(&g, DeviceConfig::with_sms(1).seeded(3), &script, false);
        assert_eq!(a, b);
        assert_eq!(a.served, 6);
        assert_eq!(a.violations(), (0, 0, 0));
    }

    #[test]
    fn intentional_leak_shows_up_in_the_outcome() {
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let script = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript { ops: vec![ReplayOp::Malloc { lane: 0, slot: 0, size: 256 }] }],
        };
        let out = run_script(&g, DeviceConfig::with_sms(1).seeded(0), &script, true);
        assert_eq!(out.served, 1);
        assert!(out.leaked_bytes >= 256, "{out:?}");
    }

    /// One collective call as [`Recorder`] saw it: the warp, whether it
    /// freed, and each lane's pointer or size (`None` for an idle lane).
    type Call = (u64, bool, Vec<Option<u64>>);

    /// Records every collective call and serves a malloc of `size` at
    /// address `size`, so a result names the request it answers.
    struct Recorder {
        memory: DeviceMemory,
        calls: Mutex<Vec<Call>>,
    }

    impl DeviceAllocator for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn memory(&self) -> &DeviceMemory {
            &self.memory
        }
        fn malloc(&self, _: &LaneCtx, _: u64) -> DevicePtr {
            unreachable!("run_batch calls the collectives only")
        }
        fn free(&self, _: &LaneCtx, _: DevicePtr) {
            unreachable!("run_batch calls the collectives only")
        }
        fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
            for (o, s) in out.iter_mut().zip(sizes) {
                *o = s.map_or(DevicePtr::NULL, DevicePtr);
            }
            self.calls.lock().unwrap().push((warp.warp_id, false, sizes.to_vec()));
        }
        fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
            let lanes = ptrs.iter().map(|p| (!p.is_null()).then_some(p.0)).collect();
            self.calls.lock().unwrap().push((warp.warp_id, true, lanes));
        }
        fn reset(&self) {}
        fn heap_bytes(&self) -> u64 {
            0
        }
    }

    /// Warp `w`'s lanes of `entries`, padded with idle lanes to a warp.
    fn warp_lanes(entries: &[u64], w: usize) -> Vec<Option<u64>> {
        (0..WARP_SIZE).map(|lane| entries.get(w * WARP_SIZE + lane).copied()).collect()
    }

    #[test]
    fn a_batch_fuses_its_frees_and_mallocs_lane_by_lane() {
        for (f, m) in [(0, 0), (3, 3), (0, 5), (5, 0), (40, 3), (3, 40), (70, 70usize)] {
            let frees: Vec<u64> = (0..f as u64).map(|i| 1 << 20 | i).collect();
            let mallocs: Vec<u64> = (1..=m as u64).collect();
            let ptrs: Vec<DevicePtr> = frees.iter().map(|&p| DevicePtr(p)).collect();
            let rec = Recorder { memory: DeviceMemory::new(64), calls: Default::default() };
            let out = run_batch(&rec, DeviceConfig::with_sms(2).seeded(5), &mallocs, &ptrs);
            let want: Vec<DevicePtr> = mallocs.iter().map(|&s| DevicePtr(s)).collect();
            assert_eq!(out.ptrs, want, "(f, m) = ({f}, {m}): results in request order");
            // The recorder crosses no preemption point, so the schedule is
            // one finish step per warp: the launch's warp count.
            let n_warps = f.max(m).div_ceil(WARP_SIZE);
            assert_eq!(out.steps, n_warps as u64, "(f, m) = ({f}, {m}): warps launched");

            let mut calls = rec.calls.into_inner().unwrap();
            calls.sort_by_key(|c| c.0); // stable: a warp's own calls keep their order
            let mut expect = Vec::new();
            for w in 0..n_warps {
                if w * WARP_SIZE < f {
                    expect.push((w as u64, true, warp_lanes(&frees, w)));
                }
                if w * WARP_SIZE < m {
                    expect.push((w as u64, false, warp_lanes(&mallocs, w)));
                }
            }
            assert_eq!(calls, expect, "(f, m) = ({f}, {m})");
        }
    }

    #[test]
    fn dump_script_creates_nested_directories() {
        let dir = std::env::temp_dir()
            .join(format!("gallatin-replay-test-{}", std::process::id()))
            .join("deeply")
            .join("nested");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dump_script_to(&dir, "unit test/scenario", 42, &two_warp_script())
            .expect("dump must create missing directories");
        assert!(path.ends_with("unit-test-scenario-seed42.replay"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(ReplayScript::parse(&text).unwrap(), two_warp_script());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }
}
