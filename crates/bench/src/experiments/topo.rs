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
//! `GALLATIN_TOPO_SEEDS` bounds the seed sweep (default 8; CI quick
//! uses 4). Everything replays bit-identically per seed.

use crate::report::{emit_bench_json, BenchRecord, Table};
use crate::HarnessConfig;
use gallatin::{DevicePool, GallatinConfig, TopoStats};
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

/// Peer-share ceiling the affine and mild-skew cells must stay under
/// (acceptance: "peer-access share stays under 5% at headroom").
const PEER_SHARE_GATE: f64 = 0.05;

/// Schedule seed of the cascade arm (any seed reproduces
/// the same counts — one warp, nothing to interleave with).
const CASCADE_SEED: u64 = 3;

/// Env var bounding the skew-arm seed sweep (mirrors
/// `GALLATIN_ELASTIC_SEEDS`); default 8, CI quick uses 4.
const TOPO_SEEDS_ENV: &str = "GALLATIN_TOPO_SEEDS";

fn topo_seeds() -> u64 {
    match std::env::var(TOPO_SEEDS_ENV) {
        Ok(s) => {
            s.parse::<u64>().unwrap_or_else(|_| panic!("{TOPO_SEEDS_ENV} must be a u64, got {s:?}"))
        }
        Err(_) => 8,
    }
}

/// One seeded locality-skew run: affine warp-collective mallocs, then a
/// rotated free pass where `skew`-per-16 warp pairs return their
/// neighbor's batch. Returns the topology snapshot after the frees
/// (counters still armed) — the pool drains and audits clean.
fn skew_run(devices: u32, skew: u64, seed: u64) -> TopoStats {
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
    pool.topo_stats()
}

/// The spill cascade: one SM claims every segment of the whole topology
/// with segment-sized allocations, then frees them all. Returns the
/// snapshot, the claim count, and the cascade's interconnect cost in
/// schedule steps (peer accesses × peer tariff).
fn cascade(devices: u32) -> (TopoStats, u64, u64) {
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
    let stats = pool.topo_stats();
    let cost = stats.peer_accesses * gpu_sim::topo::PEER_STEPS;
    (stats, claims, cost)
}

/// E23 entry point (`repro topo`). Returns `false` — exit 1 — when a
/// gate trips: affine/mild-skew peer share ≥ 5%, or a cascade that
/// crosses the interconnect a different number of times than its
/// geometry says.
pub fn run_topo(cfg: &HarnessConfig) -> bool {
    let seeds = topo_seeds();
    println!("E23 topo: multi-device scaling, {TOPO_SEEDS_ENV}={seeds}");
    let mut clean = true;
    let mut records = Vec::new();
    let mut table = Table::new(
        "E23 — multi-device topology: locality skew, spill cascade",
        &[
            "case",
            "devices",
            "skew/16",
            "local",
            "peer",
            "peer share",
            "in-dev spills",
            "cross spills",
            "cascade steps",
        ],
    );

    // Arm 1: locality skew × device count, seed-swept; counters must
    // replay bit-identically across seeds of the same cell.
    for &devices in &TOPO_DEVICES {
        for &skew in &SKEWS {
            let mut first: Option<TopoStats> = None;
            for seed in 0..seeds {
                let s = skew_run(devices, skew, seed);
                if let Some(f) = &first {
                    assert_eq!(
                        (f.local_accesses, f.peer_accesses, f.cross_spills),
                        (s.local_accesses, s.peer_accesses, s.cross_spills),
                        "devices={devices} skew={skew}: traffic counters must be seed-independent"
                    );
                } else {
                    first = Some(s);
                }
            }
            let s = first.expect("at least one seed");
            let share = s.peer_share();
            if devices > 1 && skew <= 1 && share >= PEER_SHARE_GATE {
                eprintln!(
                    "topo gate FAILED: devices={devices} skew={skew}: peer share {:.2}% ≥ 5%",
                    share * 100.0
                );
                clean = false;
            }
            table.row(vec![
                "locality-skew".into(),
                devices.to_string(),
                skew.to_string(),
                s.local_accesses.to_string(),
                s.peer_accesses.to_string(),
                format!("{:.2}%", share * 100.0),
                s.in_device_spills.to_string(),
                s.cross_spills.to_string(),
                "-".into(),
            ]);
            records.push(
                BenchRecord::new("topo", "DevicePool")
                    .case("locality-skew")
                    .param("devices", devices)
                    .param("width", WIDTH)
                    .param("skew_per_16", skew)
                    .param("seeds", seeds)
                    .count("local_accesses", s.local_accesses)
                    .count("peer_accesses", s.peer_accesses)
                    .count("peer_share_bp", (share * 10_000.0).round() as u64)
                    .count("in_device_spills", s.in_device_spills)
                    .count("cross_spills", s.cross_spills),
            );
        }
    }

    // Arm 2: the spill cascade at every device count.
    for &devices in &TOPO_DEVICES {
        let (s, claims, cost) = cascade(devices);
        let expected_cross = claims - (WIDTH as u64 * 16);
        if s.cross_spills != expected_cross {
            eprintln!(
                "topo gate FAILED: cascade devices={devices}: {} cross spills, expected \
                 {expected_cross}",
                s.cross_spills
            );
            clean = false;
        }
        table.row(vec![
            "cascade".into(),
            devices.to_string(),
            "-".into(),
            s.local_accesses.to_string(),
            s.peer_accesses.to_string(),
            format!("{:.2}%", s.peer_share() * 100.0),
            s.in_device_spills.to_string(),
            s.cross_spills.to_string(),
            cost.to_string(),
        ]);
        records.push(
            BenchRecord::new("topo", "DevicePool")
                .case("cascade")
                .param("devices", devices)
                .param("width", WIDTH)
                .param("seed", CASCADE_SEED)
                .count("claims", claims)
                .count("cross_spills", s.cross_spills)
                .count("in_device_spills", s.in_device_spills)
                .count("peer_accesses", s.peer_accesses)
                .count("cascade_cost_steps", cost),
        );
    }

    table.emit(&cfg.out_dir, "e23_topo");
    clean &= emit_bench_json(cfg, "topo", &records);
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
        for (skew, expected) in [(0u64, 0.0), (1, 1.0 / 32.0), (8, 0.25)] {
            let s = skew_run(4, skew, 11);
            assert_eq!(s.cross_spills, 0, "skew frees route, they never spill");
            assert!(
                (s.peer_share() - expected).abs() < 1e-9,
                "skew {skew}: share {} != {expected}",
                s.peer_share()
            );
        }
        // One device: rotation crosses instances, never devices.
        assert_eq!(skew_run(1, 8, 11).peer_accesses, 0);
    }

    #[test]
    fn cascade_overflow_and_cost_are_exact() {
        let (s, claims, cost) = cascade(2);
        assert_eq!(claims, 64);
        assert_eq!(s.cross_spills, 32, "everything past the home device crosses");
        // 32 peer mallocs + 32 peer frees, at the default 40-step tariff.
        assert_eq!(s.peer_accesses, 64);
        assert_eq!(cost, 64 * 40);
        let (s1, _, cost1) = cascade(1);
        assert_eq!((s1.cross_spills, cost1), (0, 0), "one device has no interconnect to pay");
    }
}
