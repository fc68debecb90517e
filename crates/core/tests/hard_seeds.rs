//! Tier-1 hard-seed matrix, promoted from `.github/workflows/nightly.yml`.
//!
//! The nightly `hard-seeds` job replays the full reclaim suite under
//! each schedule seed that historically produced the nastiest
//! interleavings (straggler parked across reclaim+reformat, pop racing
//! the FREE publish). Nightly coverage is a day late for a PR that
//! reintroduces one of those windows, so this file runs a **fast
//! subset** — one alternating-class churn per seed, small enough for the
//! per-PR path — with one `#[test]` per seed so a regression names its
//! seed directly in the test title, exactly like the nightly job matrix.
//!
//! Keep the seed list in sync with the `hard-seeds` matrix in
//! nightly.yml: add any seed a sweep failure reports; never remove.

use gallatin::{Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::sync::atomic::{AtomicU64, Ordering};

/// The nightly hard-seed matrix (nightly.yml `hard-seeds.strategy.matrix.seed`).
const HARD_SEEDS: [u64; 5] = [7, 13, 29, 42, 57];

/// Schedule seeds that produced the tightest elastic-pool interleavings
/// during the donation sweeps (`tests/elastic.rs`): donation, shrink,
/// and grow racing churn, reclaim, and adopt-before-spill. Same
/// contract as `HARD_SEEDS`: add any seed a sweep failure reports,
/// never remove. The CI adversarial job's quick elastic step runs the
/// first four seeds of the full sweep; this list pins the keepers.
const ELASTIC_HARD_SEEDS: [u64; 4] = [2, 5, 9, 14];

/// One fast churn under the pinned schedule: whole-block fills with the
/// class alternating per round over a 4-segment heap, so segments cycle
/// through reclaim/reformat while the scheduler interleaves at the
/// pinned seed. The shape is the nightly suite's alternating-class
/// churn at a quarter of the warp-rounds — enough to cross the
/// reclaim/reformat windows the hard seeds were recorded for.
fn hard_seed_churn(seed: u64) {
    let g = Gallatin::new(GallatinConfig::small_test(256 << 10)); // 4 segments
    let spb = g.geometry().slices_per_block;
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4).seeded(seed), 32, |warp| {
        for round in 0..8u64 {
            let class_size = 16u64 << ((warp.warp_id + round) % 5);
            let mut ptrs = Vec::with_capacity(spb as usize / 4);
            for i in 0..spb / 4 {
                let p = g.malloc(&warp.lane(0), class_size);
                if p.is_null() {
                    continue;
                }
                let stamp = warp.warp_id * 1_000_000 + round * 1000 + i;
                g.memory().write_stamp(p, stamp);
                ptrs.push((p, stamp));
            }
            for &(p, stamp) in &ptrs {
                if g.memory().read_stamp(p) != stamp {
                    corrupt.fetch_add(1, Ordering::Relaxed);
                }
                g.free(&warp.lane(0), p);
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0, "double allocation under seed {seed}");
    assert_eq!(g.stats().reserved_bytes, 0, "leak under seed {seed}");
    if let Err(e) = g.check_invariants() {
        panic!("invariants violated under seed {seed}:\n{e}");
    }
    // No segment may be lost to the churn: after a reset everything is
    // claimable again.
    g.reset();
    assert_eq!(g.free_segments(), 4, "segment lost under seed {seed}");
}

/// One fast elastic churn under the pinned schedule: a two-instance
/// pool over 8 segments with a maintenance warp shuttling capacity
/// (donate → shrink → grow) while the other warps churn blocks and
/// slices — the `tests/elastic.rs` sweep scenario at a single seed.
/// Checks payload integrity, leak-freedom, segment conservation, and
/// the cross-structure invariants including the ownership audit.
fn elastic_hard_seed_churn(seed: u64) {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(256 << 10)); // 8 segments
    let corrupt = AtomicU64::new(0);
    launch_warps(DeviceConfig::with_sms(4).seeded(seed), 128, |warp| {
        let l = warp.lane(0);
        if warp.warp_id == 0 {
            for round in 0..6u64 {
                let (from, to) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
                if let Err(e) = pool.donate(from, to, 1) {
                    panic!("donation bounced under seed {seed}: {e}");
                }
                let parked = pool.shrink_instance(to, 1);
                pool.grow(from, parked);
            }
        } else {
            for round in 0..6u64 {
                let mut ptrs = [DevicePtr::NULL; 8];
                for (i, slot) in ptrs.iter_mut().enumerate() {
                    let size = if (warp.warp_id + i as u64).is_multiple_of(3) {
                        1024
                    } else {
                        16 << ((warp.warp_id + round + i as u64) % 5)
                    };
                    *slot = pool.malloc(&l, size);
                    if !slot.is_null() {
                        pool.memory().write_stamp(*slot, round * 100 + i as u64);
                    }
                }
                for (i, p) in ptrs.iter().enumerate() {
                    if !p.is_null() {
                        if pool.memory().read_stamp(*p) != round * 100 + i as u64 {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        pool.free(&l, *p);
                    }
                }
            }
        }
    });
    assert_eq!(corrupt.load(Ordering::Relaxed), 0, "torn payload under seed {seed}");
    assert_eq!(pool.stats().reserved_bytes, 0, "leak under seed {seed}");
    let s = pool.stats();
    let owned: u64 = s.children.iter().map(|i| i.owned_segments).sum();
    assert_eq!(owned + s.pool_free_segments, 8, "segments lost under seed {seed}: {s:?}");
    if let Err(e) = pool.check_invariants() {
        panic!("invariants violated under seed {seed}:\n{e}");
    }
}

macro_rules! hard_seed_test {
    ($name:ident, $seed:expr) => {
        #[test]
        fn $name() {
            hard_seed_churn($seed);
        }
    };
}

hard_seed_test!(hard_seed_7, HARD_SEEDS[0]);
hard_seed_test!(hard_seed_13, HARD_SEEDS[1]);
hard_seed_test!(hard_seed_29, HARD_SEEDS[2]);
hard_seed_test!(hard_seed_42, HARD_SEEDS[3]);
hard_seed_test!(hard_seed_57, HARD_SEEDS[4]);

macro_rules! elastic_hard_seed_test {
    ($name:ident, $seed:expr) => {
        #[test]
        fn $name() {
            elastic_hard_seed_churn($seed);
        }
    };
}

elastic_hard_seed_test!(elastic_hard_seed_2, ELASTIC_HARD_SEEDS[0]);
elastic_hard_seed_test!(elastic_hard_seed_5, ELASTIC_HARD_SEEDS[1]);
elastic_hard_seed_test!(elastic_hard_seed_9, ELASTIC_HARD_SEEDS[2]);
elastic_hard_seed_test!(elastic_hard_seed_14, ELASTIC_HARD_SEEDS[3]);

/// The macro invocations above must cover both lists — a new seed added
/// to `HARD_SEEDS` or `ELASTIC_HARD_SEEDS` without a matching test
/// fails here instead of silently running nowhere.
#[test]
fn every_hard_seed_has_a_test() {
    assert_eq!(HARD_SEEDS, [7, 13, 29, 42, 57], "add a hard_seed_test! for the new seed");
    assert_eq!(
        ELASTIC_HARD_SEEDS,
        [2, 5, 9, 14],
        "add an elastic_hard_seed_test! for the new seed"
    );
}
