//! Whole-segment blocks come home (ROADMAP's stranded-segments defect).
//!
//! A class whose block *is* the segment (`blocks_per_segment == 1`) pops
//! its ring empty on every `get`, so the next `get` that finds the bit
//! `deactivate`s it — and the free that brings the block home is at once
//! the first push and the last. `free_many` sets the bit *before* it tries
//! the reclaim; in the old order (`try_reclaim` if full, else set the bit)
//! `claim_exact` found no bit and the segment stayed in no tree, forever.

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{explore_schedules, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::collections::VecDeque;
use std::sync::Mutex;

const HOST: WarpCtx = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
const SEGMENTS: u64 = 16;
const LIVE: usize = 3; // whole-segment blocks each of the two warps keeps

/// `small_test` (64 KiB segments, 64 slices a block) with a top slice class
/// of 1024 B (class 6: the block is the segment) or 512 B (two blocks).
fn top_class(max_slice: u64) -> Gallatin {
    Gallatin::new(GallatinConfig { max_slice, ..GallatinConfig::small_test(1 << 20) })
}

/// Two warps churn class 6 at a constant live set — a whole block in, the
/// oldest out, and a 1024 B slice of the per-SM buffer's whole-segment
/// block — a launch a round, under 8 base seeds; each warp's `get` probes
/// past the segments the other popped empty, clearing their bits between
/// pop and free. Free segments hold at 16 − 6 live − 2 buffered, no malloc
/// fails, and freeing every pointer plus `trim()` brings all 16 home. In
/// the old order this fails at its first check, round 3 of seed 0: 6
/// segments free, not 8 — the first two frees each stranded a segment.
#[test]
fn whole_segment_blocks_come_home_under_every_schedule() {
    let swept = explore_schedules(0..8, |seed| {
        let g = top_class(1024);
        assert_eq!((g.geometry().blocks_per_segment(6), g.free_segments()), (1, SEGMENTS));
        let held: [Mutex<VecDeque<DevicePtr>>; 2] = Default::default();
        for round in 0..96u64 {
            launch_warps(DeviceConfig::with_sms(2).seeded(seed << 16 | round), 64, |warp| {
                let lane = warp.lane(0);
                let mut mine = held[warp.warp_id as usize].lock().unwrap();
                let block = g.malloc(&lane, 40 << 10);
                assert!(!block.is_null(), "seed {seed} round {round}: a block malloc failed");
                mine.push_back(block);
                if mine.len() > LIVE {
                    g.free(&lane, mine.pop_front().unwrap());
                }
                let slice = g.malloc(&lane, 1024);
                assert!(!slice.is_null(), "seed {seed} round {round}: a slice malloc failed");
                g.free(&lane, slice);
            });
            let free = g.free_segments(); // steady: 16 − 6 live − 2 buffered
            assert!(round < LIVE as u64 || free == 8, "seed {seed} round {round}: {free}");
        }
        for queue in &held {
            queue.lock().unwrap().drain(..).for_each(|p| g.free(&HOST.lane(0), p));
        }
        assert_eq!((g.stats().reserved_bytes, g.free_segments()), (0, SEGMENTS - 2), "seed {seed}");
        assert_eq!((g.trim(), g.free_segments()), (2, SEGMENTS), "seed {seed}: after trim()");
        g.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
    swept.unwrap_or_else(|failure| panic!("{failure}"));
}

/// The same defect, two blocks a segment and no run: two scalar frees race
/// past a segment a third `get` deactivated, each sees the ring full, and in
/// the old order neither found the bit — 21 of these 64 schedules stranded it.
#[test]
fn two_frees_racing_past_a_deactivated_segment_bring_it_home() {
    let swept = explore_schedules(0..64, |seed| {
        let g = top_class(512);
        // Two 32 KiB blocks a segment; `c` probes past the emptied one.
        let [a, b, c] = [(); 3].map(|_| g.malloc(&HOST.lane(0), 20 << 10));
        let seg = |p: DevicePtr| g.geometry().segment_of(p.0);
        assert!(seg(a) == seg(b) && seg(b) != seg(c));
        launch_warps(DeviceConfig::with_sms(2).seeded(seed), 64, |w| {
            g.free(&w.lane(0), [a, b][w.warp_id as usize]);
        });
        g.free(&HOST.lane(0), c);
        assert_eq!(g.free_segments(), SEGMENTS, "seed {seed}");
        g.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
    swept.unwrap_or_else(|failure| panic!("{failure}"));
}
