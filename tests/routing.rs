//! Tier-1 routing coverage: the pools are one `Router` stacked, so the
//! checks below fail when placement, the spill walk, free routing or
//! donation breaks at either level.

use gallatin::{DevicePool, Gallatin, GallatinConfig, GallatinPool, TopoStats};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{launch_warps, AllocStats, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::sync::Arc;

fn cfg() -> GallatinConfig {
    GallatinConfig::small_test(1 << 20) // 16 segments per instance
}

fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
    WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
}

/// One seeded script under the deterministic scheduler: every warp takes
/// a coalesced mixed-size batch, warp 0 additionally overflows its home
/// instance with segment-sized claims (forcing the spill walk), then
/// everything is freed collectively. Returns the trace export.
fn seeded_script(alloc: &dyn DeviceAllocator, segment_bytes: u64) -> String {
    let sink = Arc::new(TraceSink::new());
    trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(4).seeded(7), 4 * 32, |warp| {
            let k = warp.active as usize;
            let sizes: Vec<Option<u64>> = (0..k).map(|l| Some(16u64 << (l % 5))).collect();
            let mut batch = vec![DevicePtr::NULL; k];
            alloc.warp_malloc(warp, &sizes, &mut batch);
            assert!(batch.iter().all(|p| !p.is_null()));
            if warp.warp_id == 0 {
                let lane = warp.lane(0);
                let big: Vec<_> = (0..17).map(|_| alloc.malloc(&lane, segment_bytes)).collect();
                assert!(big.iter().all(|p| !p.is_null()), "a sibling absorbs the overflow");
                big.into_iter().for_each(|p| alloc.free(&lane, p));
            }
            alloc.warp_free(warp, &batch);
        });
        alloc.check_invariants().expect("clean after the script");
        trace::chrome_trace_json(&sink.snapshot())
    })
}

#[test]
fn one_device_pool_replays_a_flat_pool_byte_for_byte() {
    let flat = GallatinPool::new(2, cfg());
    let one = DevicePool::new(1, 2, cfg());
    let seg = flat.instance(0).geometry().segment_bytes;
    let flat_trace = seeded_script(&flat, seg);
    let one_trace = seeded_script(&one, seg);
    assert!(flat_trace.contains("\"instance\": 1"), "the script must reach the sibling");
    assert_eq!(flat_trace, one_trace, "the device level must add nothing to the trace");
    let metrics = |p: &GallatinPool| -> Vec<MetricsSnapshot> {
        (0..2).map(|i| p.instance(i).metrics().expect("instances count").snapshot()).collect()
    };
    assert_eq!(metrics(&flat), metrics(one.pool(0)), "per-instance metrics must be identical");
    assert_eq!(flat.stats().children, one.pool(0).stats().children, "instance nodes must match");
    assert!(flat.total_spills() > 0, "the script must exercise the spill walk");
    assert_eq!(one.total_spills(), 0, "one device has no peer to spill to");
}

/// `t.stats()`, after checking that every node of the tree states what
/// the accessors say and that `topo_stats()` is the tree's spill split.
fn stats_tree_checked(t: &DevicePool) -> AllocStats {
    let s = t.stats();
    let segs = t.heap_bytes() / t.pool(0).instance(0).geometry().segment_bytes;
    let routed = |owner: &dyn Fn(u64) -> Option<usize>, i| {
        (0..segs).filter(|&seg| owner(seg) == Some(i)).count() as u64
    };
    assert_eq!((s.spills, s.children.len()), (t.total_spills(), 2));
    for (d, dev) in s.children.iter().enumerate() {
        let p = t.pool(d);
        let owned = routed(&|seg| t.owner_of_segment(seg), d);
        assert_eq!((dev.spills, dev.owned_segments), (t.spill_count(d), owned), "device {d}");
        for (i, node) in dev.children.iter().enumerate() {
            let g = p.instance(i);
            let accessors = (
                p.spill_count(i),
                routed(&|seg| p.owner_of_segment(seg), i),
                g.free_segments(),
                g.reserved_bytes(),
            );
            let fields =
                (node.spills, node.owned_segments, node.free_segments, node.reserved_bytes);
            assert_eq!(fields, accessors, "device {d} instance {i}");
            assert!(node.children.is_empty(), "an instance is a leaf");
        }
        let reserved = dev.children.iter().map(|i| i.reserved_bytes).sum::<u64>();
        assert_eq!(dev.reserved_bytes, reserved, "device {d}");
    }
    let reserved = s.children.iter().map(|d| d.reserved_bytes).sum::<u64>();
    assert_eq!((s.reserved_bytes, s.headroom_bytes()), (reserved, s.heap_bytes - reserved));
    let in_device = s.children.iter().flat_map(|d| &d.children).map(|i| i.spills).sum::<u64>();
    assert_eq!(in_device, t.pool(0).total_spills() + t.pool(1).total_spills());
    let devices = s.children.clone();
    assert_eq!(
        t.topo_stats(),
        TopoStats { in_device_spills: in_device, cross_spills: s.spills, devices }
    );
    s
}

#[test]
fn whole_device_exhaustion_spills_in_device_first_then_across() {
    let t = DevicePool::new(2, 2, cfg());
    let seg = t.pool(0).instance(0).geometry().segment_bytes;
    let lane0 = warp_on(0, 1);
    let spills = |t: &DevicePool| {
        let s = stats_tree_checked(t);
        let in_device = |d: &AllocStats| d.children.iter().map(|i| i.spills).sum::<u64>();
        (in_device(&s.children[0]), in_device(&s.children[1]), s.spills)
    };
    // SM 0 homes on device 0, instance 0. 52 segment claims: 16 at home,
    // 16 spilled to the sibling instance, then 20 across the interconnect
    // — where device 1's own walk serves 16 at its home and spills 4.
    let mut held: Vec<_> = (0..52).map(|_| t.malloc(&lane0.lane(0), seg)).collect();
    assert!(held.iter().all(|p| !p.is_null()));
    assert_eq!(spills(&t), (16, 4, 20));
    // Fill the topology (64 segments), then overshoot: a walk every child
    // denies is a failed malloc at every level, never a spill.
    held.extend((0..12).map(|_| t.malloc(&lane0.lane(0), seg)));
    assert!(held.iter().all(|p| !p.is_null()));
    assert_eq!(spills(&t), (16, 16, 32));
    assert!((0..3).all(|_| t.malloc(&lane0.lane(0), seg).is_null()));
    assert_eq!(spills(&t), (16, 16, 32));
    let peer = t.metrics().unwrap().snapshot().peer_accesses;
    assert_eq!(peer, 32, "exactly the crossed claims are peer traffic");
    // Frees route home by ownership from an unrelated SM.
    held.into_iter().for_each(|p| t.free(&warp_on(3, 1).lane(0), p));
    assert_eq!(t.stats().reserved_bytes, 0);
    t.check_invariants().expect("clean after exhaustion and routed frees");
}

/// After `donate(0, 1, 4)` child 1 answers for `own + 4` segments: it
/// must hold that many segment claims from its own SM without a spill at
/// this level, and frees from a foreign SM must route to the new owner.
fn donated_headroom_is_served_at_home(alloc: &dyn DeviceAllocator, own: usize, seg: u64) {
    let lane1 = warp_on(1, 1);
    let held: Vec<_> = (0..own + 4).map(|_| alloc.malloc(&lane1.lane(0), seg)).collect();
    assert!(held.iter().all(|p| !p.is_null()), "{}", alloc.name());
    held.into_iter().for_each(|p| alloc.free(&warp_on(6, 1).lane(0), p));
    assert_eq!(alloc.stats().reserved_bytes, 0, "{}", alloc.name());
    alloc.check_invariants().expect("clean after routed frees of donated segments");
}

#[test]
fn donation_rehomes_and_routing_follows_at_both_levels() {
    let p = GallatinPool::new(2, cfg());
    let seg = p.instance(0).geometry().segment_bytes;
    assert_eq!(p.donate(0, 1, 4), Ok(4));
    p.check_invariants().expect("clean after instance donation");
    donated_headroom_is_served_at_home(&p, 16, seg);
    assert_eq!((p.spill_count(1), p.stats().donated_segments), (0, 4));

    let t = DevicePool::new(2, 2, cfg());
    assert_eq!(t.donate(0, 1, 4), Ok(4));
    t.check_invariants().expect("clean after device donation");
    donated_headroom_is_served_at_home(&t, 32, seg);
    let s = t.stats();
    assert_eq!((s.spills, s.donated_segments), (0, 4));
    // The donated segments stay resident on device 0: peer memory to the
    // SM 1 mallocs that land there; the 32 device-1 frees cross from SM 6.
    assert_eq!(t.metrics().unwrap().snapshot().peer_accesses, 4 + 32);
}

#[test]
fn a_single_heap_reports_a_childless_node() {
    let g = Gallatin::new(cfg());
    let p = g.malloc(&warp_on(0, 1).lane(0), 64);
    let s = g.stats();
    assert_eq!((s.free_segments, s.reserved_bytes), (g.free_segments(), g.reserved_bytes()));
    assert!(s.reserved_bytes > 0 && s.children.is_empty());
    g.free(&warp_on(0, 1).lane(0), p);
    let baseline = &allocators::all_baselines(1 << 20)[0];
    assert!(baseline.stats().children.is_empty(), "{} is a single heap", baseline.name());
}

#[test]
fn foreign_pointer_free_panics_at_both_levels() {
    let levels: [Box<dyn DeviceAllocator>; 2] =
        [Box::new(GallatinPool::new(2, cfg())), Box::new(DevicePool::new(2, 1, cfg()))];
    for alloc in &levels {
        let foreign = DevicePtr(alloc.heap_bytes() + 64);
        let free = std::panic::AssertUnwindSafe(|| alloc.free(&warp_on(0, 1).lane(0), foreign));
        let panic = std::panic::catch_unwind(free).expect_err("a foreign free must panic");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("foreign pointer"), "{}: {msg}", alloc.name());
    }
}
