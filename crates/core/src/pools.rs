//! The two pools: [`Router`] instantiated once per level.
//!
//! [`GallatinPool`] shards one device's heap across `n` [`Gallatin`]
//! instances; [`DevicePool`] is the same router one level up — `d`
//! per-device pools over a [`Topology`] of `d` arenas joined by an
//! interconnect with asymmetric local/peer cost. Everything that routes,
//! spills, donates, resets, audits or reports lives in `crate::router`
//! and `crate::elastic`; this file holds only what is particular to a
//! level: the constructors and the level-named accessors.

use crate::config::GallatinConfig;
use crate::gallatin::Gallatin;
use crate::router::Router;
use gpu_sim::{AllocStats, DeviceAllocator, Topology};

/// `n` Gallatin instances over one arena and one shared memory table:
/// SM-affine placement (`sm % n`), spill to sibling instances,
/// ownership-routed frees, elastic segment migration.
pub type GallatinPool = Router<Gallatin>;

/// `d` per-device [`GallatinPool`]s over one [`Topology`] reservation
/// and one shared memory table: SM→device affinity (`sm % d`, matching
/// [`Topology::affinity_device`]), device-homed free routing,
/// cross-device spill as the last resort, quiesce-gated cross-device
/// donation, and every served access classified local/peer.
pub type DevicePool = Router<GallatinPool>;

/// A [`DevicePool`]'s spill split, read off its [`AllocStats`] tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopoStats {
    /// In-device spills: the spills charged to every device's instances.
    pub in_device_spills: u64,
    /// Whole-device denials a peer device absorbed.
    pub cross_spills: u64,
    /// One node per device, in device order.
    pub devices: Vec<AllocStats>,
}

impl GallatinPool {
    /// Build `n` instances, each configured by `cfg` (so `cfg.heap_bytes`
    /// is the *per-instance* shard; the pool manages `n` times that).
    pub fn new(n: usize, cfg: GallatinConfig) -> Self {
        Self::root(&[n], cfg, None)
    }

    /// Instance `i`, for per-instance metrics and diagnostics.
    pub fn instance(&self, i: usize) -> &Gallatin {
        &self.children[i]
    }
}

impl DevicePool {
    /// Build `devices` pools of `width` instances each, every instance
    /// configured by `cfg` (so `cfg.heap_bytes` is the *per-instance*
    /// shard; the topology manages `devices × width` times that), joined
    /// by [`Topology`]'s default interconnect tariff.
    pub fn new(devices: u32, width: usize, cfg: GallatinConfig) -> Self {
        let device_bytes = cfg.geometry().heap_bytes.saturating_mul(width as u64);
        let topo = Topology::new(devices, device_bytes);
        Self::root(&[devices as usize, width], cfg, Some(topo))
    }

    /// Number of devices.
    pub fn devices(&self) -> u32 {
        self.num_children() as u32
    }

    /// Instances per device.
    pub fn width(&self) -> usize {
        self.children[0].num_children()
    }

    /// Device `d`'s pool, for per-device introspection.
    pub fn pool(&self, d: usize) -> &GallatinPool {
        &self.children[d]
    }

    /// The underlying topology (reservation, stride, SM affinity).
    pub fn topology(&self) -> &Topology {
        &self.tariff.as_ref().expect("a DevicePool is always built over a topology").0
    }

    /// The spill split of [`DeviceAllocator::stats`]'s tree.
    pub fn topo_stats(&self) -> TopoStats {
        let s = self.stats();
        TopoStats {
            in_device_spills: s.children.iter().flat_map(|d| &d.children).map(|i| i.spills).sum(),
            cross_spills: s.spills,
            devices: s.children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DevicePtr, WarpCtx};

    fn cfg() -> GallatinConfig {
        GallatinConfig::small_test(1 << 20) // 16 segments per instance
    }

    fn topo_pool(devices: u32, width: usize) -> DevicePool {
        DevicePool::new(devices, width, cfg())
    }

    fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
        WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
    }

    #[test]
    fn affinity_places_on_the_sm_home_device() {
        let t = topo_pool(2, 2);
        let stride = t.topology().device_stride();
        // SM 0 and 2 home on device 0, SM 1 and 3 on device 1.
        for sm in 0..4u32 {
            let p = t.malloc(&warp_on(sm, 1).lane(0), 64);
            assert!(!p.is_null());
            assert_eq!(p.device_of(stride), sm % 2, "SM {sm} must allocate on its device");
            assert_eq!(t.device_of(p), t.affinity_device(sm));
            t.free(&warp_on(sm, 1).lane(0), p);
        }
        let m = t.metrics().unwrap().snapshot();
        assert_eq!((t.total_spills(), m.peer_accesses), (0, 0), "all-affine traffic stays local");
        assert_eq!(m.local_accesses, 8, "4 mallocs + 4 frees, all local");
        assert_eq!(t.stats().reserved_bytes, 0);
        t.check_invariants().expect("clean after affine traffic");
    }

    #[test]
    fn whole_device_denial_spills_across_the_interconnect() {
        let t = topo_pool(2, 2);
        let seg = t.pool(0).instance(0).geometry().segment_bytes;
        let l0 = warp_on(0, 1);
        // Exhaust device 0 wholesale: 2 instances × 16 segments.
        let held: Vec<_> = (0..32).map(|_| t.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(t.total_spills(), 0, "in-device walk absorbed everything so far");
        assert!(t.pool(0).total_spills() > 0, "the in-device spill walk ran first");
        // The 33rd crosses to device 1 — charged to home device 0, and
        // the access is classified peer.
        let crossed = t.malloc(&l0.lane(0), seg);
        assert!(!crossed.is_null());
        assert_eq!(t.device_of(crossed), 1, "served by the peer device");
        assert_eq!(t.spill_count(0), 1);
        assert_eq!(t.metrics().unwrap().snapshot().peer_accesses, 1);
        // Frees route home by segment ownership regardless of SM.
        t.free(&warp_on(3, 1).lane(0), crossed);
        for q in held {
            t.free(&warp_on(2, 1).lane(0), q);
        }
        assert_eq!(t.stats().reserved_bytes, 0);
        t.check_invariants().expect("clean after cross-device spill + routed frees");
    }

    #[test]
    fn cross_device_donation_rehomes_and_routing_follows() {
        let t = topo_pool(2, 2);
        assert_eq!(t.donate(0, 1, 4), Ok(4));
        assert_eq!(t.stats().donated_segments, 4);
        t.check_invariants().expect("clean after cross-device donation");
        // Device 1 now answers for 36 segments; device 0 for 28.
        let s = t.stats();
        let owned: Vec<u64> = s
            .children
            .iter()
            .map(|d| d.children.iter().map(|i| i.owned_segments).sum::<u64>())
            .collect();
        assert_eq!(owned, vec![28, 36], "responsibility moved without copying bytes");
        // Device 1 can hold 36 segment claims with no cross-device spill;
        // the 4 donated ones are physically on device 0, so those
        // allocations classify as peer accesses.
        let seg = t.pool(0).instance(0).geometry().segment_bytes;
        let l1 = warp_on(1, 1);
        let held: Vec<_> = (0..36).map(|_| t.malloc(&l1.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(t.total_spills(), 0, "donated headroom absorbed the pressure");
        let donated: Vec<_> = held.iter().filter(|q| t.device_of(**q) == 0).collect();
        assert_eq!(donated.len(), 4, "exactly the donated segments are peer memory");
        assert_eq!(t.metrics().unwrap().snapshot().peer_accesses, 4);
        // Frees of donated-segment pointers route to device 1 (the
        // owner), not device 0 (the physical host).
        for q in held {
            t.free(&warp_on(5, 1).lane(0), q);
        }
        assert_eq!(t.stats().reserved_bytes, 0);
        t.check_invariants().expect("clean after routed frees of donated segments");
    }

    #[test]
    fn oversize_requests_are_denied_once_and_walk_nothing() {
        let t = topo_pool(2, 2);
        assert!(!t.supports_size(t.stride() + 1));
        assert!(t.malloc(&warp_on(0, 1).lane(0), t.stride() + 1).is_null());
        assert_eq!(t.pool(0).stats().oversize_denials, 1, "home device counts the one denial");
        assert_eq!(t.pool(1).stats().oversize_denials, 0, "peers are never consulted");
        let w = warp_on(0, 32);
        let sizes = vec![Some(t.stride() + 1); 32];
        let mut out = vec![DevicePtr(7); 32];
        t.warp_malloc(&w, &sizes, &mut out);
        assert!(out.iter().all(|q| q.is_null()));
        assert_eq!(t.pool(0).stats().oversize_denials, 33);
        assert_eq!(t.pool(1).stats().oversize_denials, 0);
        assert_eq!(t.total_spills(), 0, "an unservable size is not a spill");
    }

    #[test]
    fn reset_restores_the_initial_topology() {
        let t = topo_pool(2, 2);
        let seg = t.pool(0).instance(0).geometry().segment_bytes;
        let l0 = warp_on(0, 1);
        for _ in 0..33 {
            assert!(!t.malloc(&l0.lane(0), seg).is_null());
        }
        assert_eq!(t.total_spills(), 1);
        assert_eq!(t.donate(1, 0, 2), Ok(2));
        t.reset();
        let (s, m) = (t.stats(), t.metrics().unwrap().snapshot());
        assert_eq!((s.reserved_bytes, s.spills, s.donated_segments), (0, 0, 0));
        assert_eq!((m.local_accesses, m.peer_accesses), (0, 0));
        for d in 0..2 {
            assert!(s.children[d].children.iter().all(|i| i.owned_segments == 16));
        }
        t.check_invariants().expect("clean after reset");
    }

    #[test]
    fn single_device_pool_matches_a_standalone_pool_bit_for_bit() {
        // The refactor's parity gate: DevicePool(1, n, cfg) must replay
        // GallatinPool(n, cfg) exactly — same placement, same counters,
        // same per-instance metrics — because the topology layer adds
        // only host-side accounting (never a preemption point).
        let one = DevicePool::new(1, 2, cfg());
        let flat = GallatinPool::new(2, cfg());
        let seg = flat.instance(0).geometry().segment_bytes;
        let drive = |a: &dyn DeviceAllocator| {
            let mut held = Vec::new();
            for sm in 0..4u32 {
                for i in 0..5u64 {
                    let p = a.malloc(&warp_on(sm, 1).lane(0), 16 << (i % 3));
                    assert!(!p.is_null());
                    held.push((sm, p));
                }
            }
            // Force the in-device spill walk on both.
            for _ in 0..17 {
                let p = a.malloc(&warp_on(0, 1).lane(0), seg);
                assert!(!p.is_null());
                held.push((0, p));
            }
            for (sm, p) in held {
                a.free(&warp_on(sm, 1).lane(0), p);
            }
        };
        drive(&one);
        drive(&flat);
        for i in 0..2 {
            assert_eq!(
                one.pool(0).instance(i).metrics().unwrap().snapshot(),
                flat.instance(i).metrics().unwrap().snapshot(),
                "instance {i} metrics must be bit-identical"
            );
        }
        assert_eq!(one.pool(0).total_spills(), flat.total_spills());
        assert_eq!(one.pool(0).stats(), flat.stats());
        assert_eq!(one.total_spills(), 0, "one device has no peers to spill to");
        assert_eq!(one.metrics().unwrap().snapshot().peer_accesses, 0);
        one.check_invariants().expect("clean");
        flat.check_invariants().expect("clean");
    }
}
