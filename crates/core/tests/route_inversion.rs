//! Free-route inversion property: for an *arbitrary* geometry and an
//! arbitrary request size, the pointer produced by `malloc` must route
//! back — from the offset alone, via Algorithm 4's segment-table lookup —
//! to the pipeline that produced it, and freeing it must return exactly
//! what that pipeline reserved.
//!
//! Algorithm 4 discriminates on `tree_id[segment_of(ptr)]`:
//! a slice class for the slice pipeline, the same class plus a set
//! whole-block bit for the block pipeline, and a `LARGE_BASE + n` marker
//! for the multi-segment pipeline.

use gallatin::{Gallatin, GallatinConfig, LARGE_BASE};
use gpu_sim::{cases, DeviceAllocator, SplitMix64, WarpCtx};
use std::sync::atomic::Ordering;

/// Arbitrary-but-valid geometries: every knob that
/// `GallatinConfig::geometry` validates is drawn from its legal range,
/// and dependent knobs (segment size, heap size) are derived so the
/// combination always passes validation.
fn config(rng: &mut SplitMix64) -> GallatinConfig {
    let (e_min, n_classes, e_spb) = (3 + rng.below(4), 1 + rng.below(4), 2 + rng.below(5));
    let (e_seg, n_segs) = (rng.below(3), 2 + rng.below(7));
    let min_slice = 1u64 << e_min;
    let max_slice = min_slice << (n_classes - 1);
    let slices_per_block = 1u64 << e_spb;
    let segment_bytes = (max_slice * slices_per_block) << e_seg;
    GallatinConfig {
        heap_bytes: segment_bytes * n_segs,
        segment_bytes,
        min_slice,
        max_slice,
        slices_per_block,
        num_sms: 2,
        min_buffer_slots: 1,
        randomize_probe_starts: true,
    }
}

#[test]
fn free_route_inverts_malloc_route() {
    cases("free_route_inverts_malloc_route", 96, |rng| {
        let (cfg, pipeline, raw) = (config(rng), rng.below(3) as u8, rng.next_u64());
        let geo = cfg.geometry();
        let max_block = geo.block_size(geo.num_classes - 1);
        // Pick a size inside the chosen pipeline's band (the slice band
        // includes 0: a zero-size request is a minimum-slice request).
        let (lo, hi) = match pipeline {
            0 => (0, geo.max_slice()),
            1 => (geo.max_slice() + 1, max_block),
            _ => (max_block + 1, geo.heap_bytes),
        };
        let size = lo + raw % (hi - lo + 1);

        let g = Gallatin::new(cfg);
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let lane = warp.lane(0);
        let p = g.malloc(&lane, size);
        assert!(!p.is_null(), "fresh heap must serve a {size}-byte request");

        // Algorithm 4's routing key, recovered from the offset alone.
        let eff = size.max(1);
        let seg = geo.segment_of(p.0);
        let id = g.table().seg(seg).tree_id.load(Ordering::SeqCst);
        match pipeline {
            0 => {
                let c = geo.slice_class(eff).expect("band 0 is the slice range");
                assert_eq!(id as usize, c, "slice alloc must sit in a class-{} segment", c);
                assert_eq!(p.0 % geo.slice_size(c), 0, "slice-aligned");
                assert!(
                    !g.table().seg(seg).is_whole_block(geo.block_of(p.0, c)),
                    "slice alloc must not set the whole-block bit"
                );
                assert_eq!(g.stats().reserved_bytes, geo.slice_size(c));
            }
            1 => {
                let c = geo.block_class(eff).expect("band 1 is the block range");
                assert_eq!(id as usize, c, "block alloc must sit in a class-{} segment", c);
                assert_eq!(geo.slice_of(p.0, c), 0, "block alloc starts on a block boundary");
                assert!(
                    g.table().seg(seg).is_whole_block(geo.block_of(p.0, c)),
                    "block alloc must set the whole-block bit"
                );
                assert_eq!(g.stats().reserved_bytes, geo.block_size(c));
            }
            _ => {
                let n = geo.segments_for(eff);
                assert_eq!(p.0 % geo.segment_bytes, 0, "large alloc is segment-aligned");
                assert_eq!(
                    u64::from(id),
                    u64::from(LARGE_BASE) + n,
                    "large alloc head must carry its span"
                );
                assert_eq!(g.stats().reserved_bytes, n * geo.segment_bytes);
            }
        }

        // Freeing through Algorithm 4 must return exactly what the
        // producing pipeline reserved — a mis-route would leave a residue
        // (or trip the allocator's own cross-structure invariants).
        g.free(&lane, p);
        assert_eq!(g.stats().reserved_bytes, 0, "free must invert the reservation");
        g.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    });
}
