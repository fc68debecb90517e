//! E23 — multi-device topology scaling (`repro topo`).
//!
//! Two deterministic arms over the hierarchical [`DevicePool`], swept
//! across 1/2/4/8 devices:
//!
//! 1. **Locality skew.** Every warp allocates on its affinity device,
//!    then a controlled fraction of warps (0, 1, or 8 per 16 warp
//!    pairs) return a *neighbor* warp's batch — frees issued one SM
//!    over, which on a multi-device topology is one device over. The
//!    interconnect counters make the skew exactly visible: the
//!    peer-access share is a closed-form function of the rotation
//!    fraction, and the acceptance gate pins the affine and mild-skew
//!    cells under 5% peer share while every home has headroom.
//! 2. **Spill cascade.** One SM claims every segment of the whole
//!    topology wholesale: the home device's in-device walk absorbs the
//!    first `width × 16` claims, then each successive device denial
//!    crosses the interconnect. Cross-spill counts and the step cost of
//!    the cascade (peer accesses × the interconnect tariff) are exact
//!    functions of the geometry.
//!
//! Neither arm repeats another experiment's run: `DevicePool(1, 2)`'s
//! bit-identical parity with `GallatinPool(2)` on the E18 churn is a
//! test in `pool.rs`, and a 2-device pool serves as E20's
//! `DevicePool(2x1)` roster cell, whose ledger and `check_invariants`
//! gate `repro serve`.
//!
//! The skew arm sweeps 8 seeds (4 under `--smoke`). Everything replays
//! bit-identically per seed.

use crate::report::{emit_records, BenchRecord};
use crate::HarnessConfig;
use gallatin::{DevicePool, GallatinConfig};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Device counts swept by `repro topo`.
const TOPO_DEVICES: [u32; 4] = [1, 2, 4, 8];

/// Instances per device throughout the experiment.
const WIDTH: usize = 2;

/// Per-instance heap (16 small_test segments, matching E18's pressure
/// geometry).
const HEAP: u64 = 1 << 20;

/// Warps per skew run; warp `w` lands on SM `w % (2 × devices)`, so 32
/// warps cover every SM at every swept device count.
const SKEW_WARPS: u64 = 32;

/// Rotated warp *pairs* per 16: warp `w` returns warp `w ^ 1`'s batch
/// when `(w / 2) % 16 < skew`. Adjacent warps sit one SM — hence one
/// device — apart, so each rotation is a cross-device free. 0 = fully
/// affine, 1 = mild skew (1/16 of warps ⇒ 1/32 of accesses peer), 8 =
/// heavy skew (1/2 of warps ⇒ 1/4 of accesses peer).
const SKEWS: [u64; 3] = [0, 1, 8];

/// Peer-share ceiling, in basis points, the affine and mild-skew cells
/// must stay under (acceptance: "peer-access share stays under 5% at
/// headroom").
const PEER_SHARE_GATE_BP: u64 = 500;

/// E23's columns: a cell's params, then its traffic, spill and cascade
/// counts.
const COLUMNS: &str = "case,devices,skew_per_16,local_accesses,peer_accesses,peer_share_bp,\
    in_device_spills,cross_spills,cascade_cost_steps";

/// Schedule seed of the cascade arm (any seed reproduces
/// the same counts — one warp, nothing to interleave with).
const CASCADE_SEED: u64 = 3;

/// One seeded locality-skew run: affine warp-collective mallocs, then a
/// rotated free pass where `skew`-per-16 warp pairs return their
/// neighbor's batch. Returns the cell's record, its counters read after
/// the frees (still armed) — the pool drains and audits clean.
fn skew_run(devices: u32, skew: u64, seed: u64) -> BenchRecord {
    let pool = Arc::new(DevicePool::new(devices, WIDTH, GallatinConfig::small_test(HEAP)));
    let num_sms = devices * WIDTH as u32;
    let slots: Vec<Mutex<Vec<DevicePtr>>> =
        (0..SKEW_WARPS).map(|_| Mutex::new(Vec::new())).collect();
    launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed), SKEW_WARPS * 32, |warp| {
        let k = warp.active as usize;
        let sizes: Vec<Option<u64>> =
            (0..k).map(|l| Some(16u64 << ((warp.base_tid as usize + l) % 4))).collect();
        let mut out = vec![DevicePtr::NULL; k];
        pool.warp_malloc(warp, &sizes, &mut out);
        assert!(out.iter().all(|p| !p.is_null()), "every home device has headroom");
        *slots[warp.warp_id as usize].lock().unwrap() = out;
    });
    assert_eq!(pool.total_spills(), 0, "affine placement never crosses at headroom");
    let rotated = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed ^ 0x5eed), SKEW_WARPS * 32, |warp| {
        let victim = if (warp.warp_id / 2) % 16 < skew {
            rotated.fetch_add(1, Ordering::Relaxed);
            warp.warp_id ^ 1
        } else {
            warp.warp_id
        };
        let ptrs = slots[victim as usize].lock().unwrap().clone();
        pool.warp_free(warp, &ptrs);
    });
    assert_eq!(rotated.load(Ordering::Relaxed), SKEW_WARPS * skew.min(16) / 16);
    assert_eq!(pool.stats().reserved_bytes, 0, "every rotated free routed home");
    pool.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let s = pool.topo_stats();
    let m = pool.metrics().expect("a device pool keeps metrics").snapshot();
    BenchRecord::new("topo", "DevicePool")
        .case("locality-skew")
        .param("devices", devices)
        .param("width", WIDTH)
        .param("skew_per_16", skew)
        .count("local_accesses", m.local_accesses)
        .count("peer_accesses", m.peer_accesses)
        .count("peer_share_bp", (m.peer_share() * 10_000.0).round() as u64)
        .count("in_device_spills", s.in_device_spills)
        .count("cross_spills", s.cross_spills)
}

/// The spill cascade: one SM claims every segment of the whole topology
/// with segment-sized allocations, then frees them all. Returns the
/// cell's record, with the cascade's interconnect cost in schedule steps
/// (peer accesses × peer tariff).
fn cascade(devices: u32) -> BenchRecord {
    let pool = DevicePool::new(devices, WIDTH, GallatinConfig::small_test(HEAP));
    let claims = devices as u64 * WIDTH as u64 * 16;
    launch_warps(DeviceConfig::with_sms(1).seeded(CASCADE_SEED), 32, |warp| {
        let lane = warp.lane(0);
        let seg = pool.pool(0).instance(0).geometry().segment_bytes;
        let held: Vec<DevicePtr> = (0..claims).map(|_| pool.malloc(&lane, seg)).collect();
        assert!(held.iter().all(|p| !p.is_null()), "the cascade must reach every device");
        for p in held {
            pool.free(&lane, p);
        }
    });
    pool.check_invariants().expect("clean after the cascade round-trip");
    let s = pool.topo_stats();
    let peer = pool.metrics().expect("a device pool keeps metrics").snapshot().peer_accesses;
    BenchRecord::new("topo", "DevicePool")
        .case("cascade")
        .param("devices", devices)
        .param("width", WIDTH)
        .param("seed", CASCADE_SEED)
        .count("claims", claims)
        .count("cross_spills", s.cross_spills)
        .count("in_device_spills", s.in_device_spills)
        .count("peer_accesses", peer)
        .count("cascade_cost_steps", peer * gpu_sim::topo::PEER_STEPS)
}

/// E23 entry point (`repro topo`). Returns `false` — exit 1 — when a
/// gate trips: affine/mild-skew peer share ≥ 5%, or a cascade that
/// crosses the interconnect a different number of times than its
/// geometry says.
pub fn run_topo(cfg: &HarnessConfig) -> bool {
    let seeds = if cfg.smoke { 4 } else { 8 };
    println!("E23 topo: multi-device scaling, {seeds} seeds");
    let mut clean = true;
    let mut records = Vec::new();

    // Arm 1: locality skew × device count, seed-swept; counters must
    // replay bit-identically across seeds of the same cell.
    for &devices in &TOPO_DEVICES {
        for &skew in &SKEWS {
            let mut runs = (0..seeds).map(|seed| skew_run(devices, skew, seed));
            let rec = runs.next().expect("at least one seed").param("seeds", seeds);
            let traffic = |r: &BenchRecord| {
                ["local_accesses", "peer_accesses", "cross_spills"].map(|k| r.get_count(k))
            };
            for r in runs {
                assert_eq!(
                    traffic(&rec),
                    traffic(&r),
                    "devices={devices} skew={skew}: traffic counters must be seed-independent"
                );
            }
            let share_bp = rec.get_count("peer_share_bp").expect("a skew cell's share");
            if devices > 1 && skew <= 1 && share_bp >= PEER_SHARE_GATE_BP {
                eprintln!(
                    "topo gate FAILED: devices={devices} skew={skew}: peer share {:.2}% ≥ 5%",
                    share_bp as f64 / 100.0
                );
                clean = false;
            }
            records.push(rec);
        }
    }

    // Arm 2: the spill cascade at every device count.
    for &devices in &TOPO_DEVICES {
        let rec = cascade(devices);
        let count = |k: &str| rec.get_count(k).expect("a cascade count");
        let expected_cross = count("claims") - (WIDTH as u64 * 16);
        if count("cross_spills") != expected_cross {
            eprintln!(
                "topo gate FAILED: cascade devices={devices}: {} cross spills, expected \
                 {expected_cross}",
                count("cross_spills")
            );
            clean = false;
        }
        records.push(rec);
    }

    let title = "E23 — multi-device topology: locality skew, spill cascade";
    clean &= emit_records(cfg, "topo", title, "e23_topo", COLUMNS, &records);
    if !clean {
        eprintln!("topo gate FAILED (see above)");
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_share_is_closed_form() {
        // Mallocs are all local; `skew`-per-16 warp pairs free one SM
        // (= one device) over, so peer share = skew / 32 exactly.
        for (skew, share_bp) in [(0u64, 0), (1, 313), (8, 2500)] {
            let r = skew_run(4, skew, 11);
            let count = |k: &str| r.get_count(k).unwrap();
            assert_eq!(count("cross_spills"), 0, "skew frees route, they never spill");
            let accesses = count("local_accesses") + count("peer_accesses");
            assert_eq!(count("peer_accesses") * 32, skew * accesses, "skew {skew}");
            assert_eq!(count("peer_share_bp"), share_bp, "skew {skew}");
        }
        // One device: rotation crosses instances, never devices.
        assert_eq!(skew_run(1, 8, 11).get_count("peer_accesses"), Some(0));
    }

    #[test]
    fn cascade_overflow_and_cost_are_exact() {
        let r = cascade(2);
        let count = |k: &str| r.get_count(k).unwrap();
        assert_eq!(count("claims"), 64);
        assert_eq!(count("cross_spills"), 32, "everything past the home device crosses");
        // 32 peer mallocs + 32 peer frees, at the default 40-step tariff.
        assert_eq!(count("peer_accesses"), 64);
        assert_eq!(count("cascade_cost_steps"), 64 * 40);
        let one = cascade(1);
        let one = ["cross_spills", "cascade_cost_steps"].map(|k| one.get_count(k));
        assert_eq!(one, [Some(0), Some(0)], "one device has no interconnect to pay");
    }
}
