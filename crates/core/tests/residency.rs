//! Resident-memory guard for the memory table (Linux only).
//!
//! A segment's metadata costs what its format uses: its ring is one word
//! a cell, and its slice counters are a column of two block-major arrays
//! allocated zeroed, so a heap formatted only for 16-block classes makes
//! 16 counter rows resident, not `max_blocks` (256). The guard builds
//! `dense(4 GiB)` (4,096 one-MiB segments), churns 64 KiB blocks through
//! 1,024 of them, and bounds the growth of this process's `VmRSS`.
//!
//! It reads the whole process's resident set, so it is `#[ignore]`d and
//! run alone: `cargo test -p gallatin --test residency -- --ignored
//! --test-threads=1`.
#![cfg(target_os = "linux")]

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{DeviceAllocator, DevicePtr, WarpCtx, WARP_SIZE};

const MIB: u64 = 1 << 20;
const BLOCK: u64 = 64 << 10;

/// This process's resident set (`VmRSS`) in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    let kib: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("kB");
    kib / 1024.0
}

#[test]
#[ignore = "reads the process's VmRSS: run alone, with --ignored --test-threads=1"]
fn a_dense_4_gib_heap_churning_64_kib_blocks_stays_within_12_mib_resident() {
    let before = rss_mib();
    let g = Gallatin::new(GallatinConfig { num_sms: 16, ..GallatinConfig::dense(4096 * MIB) });
    let built = rss_mib() - before;
    let segments = 1024;
    let per_segment = (MIB / BLOCK) as usize;
    let mut held = Vec::with_capacity(segments * per_segment);
    for round in 0..2 {
        for w in 0..(segments * per_segment / WARP_SIZE) as u64 {
            let warp = WarpCtx { warp_id: w, sm_id: (w % 16) as u32, base_tid: 0, active: 32 };
            let mut out = [DevicePtr::NULL; WARP_SIZE];
            g.warp_malloc(&warp, &[Some(BLOCK); WARP_SIZE], &mut out);
            assert!(out.iter().all(|p| !p.is_null()), "round {round}: the heap has room");
            held.extend(out);
        }
        let used: std::collections::HashSet<_> =
            held.iter().map(|p| g.geometry().segment_of(p.0)).collect();
        assert!(used.len() >= segments, "round {round}: {} segments formatted", used.len());
        for (w, ptrs) in held.chunks(WARP_SIZE).enumerate() {
            let warp = WarpCtx { warp_id: w as u64, sm_id: 0, base_tid: 0, active: 32 };
            g.warp_free(&warp, ptrs);
        }
        held.clear();
    }
    g.check_invariants().unwrap();
    let grown = rss_mib() - before;
    eprintln!("VmRSS grew {built:.1} MiB at construction, {grown:.1} MiB after the churn");
    assert!(grown <= 12.0, "metadata made {grown:.1} MiB resident (construction: {built:.1})");
}
