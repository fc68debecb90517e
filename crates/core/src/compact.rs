//! Compaction by migration (DynaSOAr-style defragmentation).
//!
//! Two-phase reclaim only returns a segment when *every* block is home,
//! so a workload that frees most — but not all — of its allocations
//! strands nearly-empty segments: one live slice pins 64 KiB. DynaSOAr's
//! answer is to migrate the stragglers into denser blocks so the
//! nearly-empty ones become reclaimable; this module is that pass,
//! host-side and quiescent (like [`crate::gallatin::Gallatin::trim`],
//! it must not run concurrently with device traffic).
//!
//! The caller supplies its live pointers (`(ptr, requested size)`). The
//! pass groups them by segment, marks *victims* — formatted segments
//! whose live bytes are at or below `max_occupancy` of the segment — and
//! migrates each victim-resident allocation: allocate a replacement
//! through the ordinary malloc path, copy the payload byte-for-byte,
//! free the original. Replacements that land inside the victim set are
//! held (not freed back, which would just re-bounce the next migration)
//! until the search escapes the set, then released. Every migration is
//! a traced malloc/free pair, so the lifecycle [`gpu_sim::ledger::Ledger`]
//! proves contents-preserving behavior the same way it audits ordinary
//! traffic; the returned [`Relocation`]s let the caller rewrite its
//! pointers. Once the last straggler leaves a victim, the ordinary free
//! path's reclaim returns the segment — there is no special-case
//! reclaim here, the existing two-phase protocol does the work.

use crate::gallatin::Gallatin;
use crate::pools::GallatinPool;
use gpu_sim::DevicePtr;
use std::collections::{HashMap, HashSet};

/// One migrated allocation: the caller must replace `old` with `new` in
/// its own pointer bookkeeping (the payload was copied verbatim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Relocation {
    /// The pointer that was freed.
    pub old: DevicePtr,
    /// The replacement holding the same `size` bytes of payload.
    pub new: DevicePtr,
    /// The originally requested size in bytes.
    pub size: u64,
}

/// Backstop on replacement attempts per migration. The bounce loop
/// terminates on its own (every bounce consumes a slot of a victim
/// segment, and an exhausted victim stops being offered), so this only
/// guards against a protocol bug turning into a hang.
const MAX_BOUNCES: usize = 1 << 17;

impl Gallatin {
    /// Migrate live allocations out of nearly-empty segments so those
    /// segments become reclaimable. `live` is the caller's set of live
    /// `(pointer, requested size)` pairs; a formatted segment whose
    /// live bytes are at or below `max_occupancy * segment_bytes` is a
    /// victim. Returns the relocations performed (possibly empty).
    /// Allocations that cannot be placed outside the victim set (no
    /// headroom) are left where they are — best effort, never lossy.
    ///
    /// Host-side maintenance: must not run concurrently with
    /// allocation, and `live` must be exactly the live set.
    pub fn compact(&self, live: &[(DevicePtr, u64)], max_occupancy: f64) -> Vec<Relocation> {
        assert!((0.0..=1.0).contains(&max_occupancy), "occupancy is a fraction");
        let geo = &self.geo;
        let mut seg_live: HashMap<u64, u64> = HashMap::new();
        for &(p, size) in live {
            *seg_live.entry(geo.segment_of(p.0)).or_default() += size.max(1);
        }
        let mut victims: HashSet<u64> = HashSet::new();
        for (&seg, &bytes) in &seg_live {
            let id = self.table.seg(seg).ldcv_tree_id();
            // Only class-formatted segments compact; large allocations
            // are exactly their segments and have nothing to migrate.
            if (id as usize) < geo.num_classes
                && (bytes as f64) <= max_occupancy * geo.segment_bytes as f64
            {
                victims.insert(seg);
            }
        }
        if victims.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut bounced: Vec<DevicePtr> = Vec::new();
        for &(old, size) in live {
            if !victims.contains(&geo.segment_of(old.0)) {
                continue;
            }
            // Find a replacement outside the victim set, holding (not
            // recycling) any that land inside it so the search drains
            // the victims instead of churning one slot.
            let mut new = DevicePtr::NULL;
            for _ in 0..MAX_BOUNCES {
                let q = self.malloc_routed(0, size);
                if q.is_null() {
                    break;
                }
                if victims.contains(&geo.segment_of(q.0)) {
                    bounced.push(q);
                    continue;
                }
                new = q;
                break;
            }
            if new.is_null() {
                continue;
            }
            self.mem.copy(old, new, size as usize);
            self.free_routed(old);
            out.push(Relocation { old, new, size });
        }
        for q in bounced {
            self.free_routed(q);
        }
        out
    }
}

impl GallatinPool {
    /// Pool-wide compaction: split `live` by owning instance (via the
    /// segment routing table) and run each instance's pass under its
    /// trace-instance stamp, so the ledger keeps pairing per
    /// `(instance, ptr)`. Typically followed by
    /// [`GallatinPool::donate`] or [`GallatinPool::shrink_instance`] — the
    /// point of compaction is that afterwards there are whole free
    /// segments to move.
    pub fn compact(&self, live: &[(DevicePtr, u64)], max_occupancy: f64) -> Vec<Relocation> {
        let mut out = Vec::new();
        for i in 0..self.num_children() {
            let mine: Vec<(DevicePtr, u64)> =
                live.iter().copied().filter(|&(p, _)| self.owner_of(p) == i).collect();
            if mine.is_empty() {
                continue;
            }
            out.extend(Self::enter(i, || self.instance(i).compact(&mine, max_occupancy)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GallatinConfig;
    use gpu_sim::{DeviceAllocator, WarpCtx};

    fn with_lane<R>(f: impl FnOnce(&gpu_sim::LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn compaction_migrates_out_of_nearly_empty_segments() {
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20)); // 16 segments
        with_lane(|l| {
            // Fill two segments with 1 KiB blocks (64 per segment)…
            let a: Vec<_> = (0..64).map(|_| g.malloc(l, 1024)).collect();
            let b: Vec<_> = (0..64).map(|_| g.malloc(l, 1024)).collect();
            assert!(a.iter().chain(&b).all(|p| !p.is_null()));
            // …then empty segment A down to one straggler and open one
            // slot in dense segment B for it to land in.
            for &p in &a[1..] {
                g.free(l, p);
            }
            g.free(l, b[0]);
            g.memory().write_stamp(a[0], 0xfeed_f00d);
            assert_eq!(g.free_segments(), 14, "both segments pinned");
            let live: Vec<_> = std::iter::once((a[0], 1024u64))
                .chain(b[1..].iter().map(|&p| (p, 1024u64)))
                .collect();
            let relos = g.compact(&live, 0.25);
            assert_eq!(relos.len(), 1, "only the straggler moves");
            assert_eq!(relos[0].old, a[0]);
            assert_eq!(relos[0].size, 1024);
            // Payload preserved byte-for-byte, and the nearly-empty
            // segment was reclaimed by the ordinary free path.
            assert_eq!(g.memory().read_stamp(relos[0].new), 0xfeed_f00d);
            assert_eq!(g.free_segments(), 15, "victim segment reclaimed");
            g.check_invariants().expect("clean after compaction");
            g.free(l, relos[0].new);
            for &p in &b[1..] {
                g.free(l, p);
            }
            assert_eq!(g.free_segments(), 16);
            assert_eq!(g.stats().reserved_bytes, 0);
            g.check_invariants().expect("clean after teardown");
        });
    }

    #[test]
    fn dense_segments_are_not_touched() {
        let g = Gallatin::new(GallatinConfig::small_test(1 << 20));
        with_lane(|l| {
            let held: Vec<_> = (0..64).map(|_| g.malloc(l, 1024)).collect();
            let live: Vec<_> = held.iter().map(|&p| (p, 1024u64)).collect();
            assert!(g.compact(&live, 0.25).is_empty(), "a full segment is not a victim");
            for &p in &held {
                g.free(l, p);
            }
            g.check_invariants().expect("clean");
        });
    }

    #[test]
    fn pool_compaction_creates_donatable_segments() {
        let p = GallatinPool::new(2, GallatinConfig::small_test(1 << 20));
        let w0 = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        let l = w0.lane(0);
        // Two sparse segments on instance 0: one straggler block each.
        let a: Vec<_> = (0..64).map(|_| p.malloc(&l, 1024)).collect();
        let b: Vec<_> = (0..64).map(|_| p.malloc(&l, 1024)).collect();
        for &q in &a[1..] {
            p.free(&l, q);
        }
        for &q in &b[2..] {
            p.free(&l, q);
        }
        p.memory().write_stamp(a[0], 0xaa);
        p.memory().write_stamp(b[0], 0xb0);
        p.memory().write_stamp(b[1], 0xb1);
        let live = vec![(a[0], 1024u64), (b[0], 1024), (b[1], 1024)];
        let relos = p.compact(&live, 0.25);
        // All three stragglers coalesce into a fresh segment, so both
        // victims empty out and reclaim.
        assert_eq!(relos.len(), 3);
        let stamps: Vec<u64> = relos.iter().map(|r| p.memory().read_stamp(r.new)).collect();
        for (r, s) in relos.iter().zip(&stamps) {
            let expect = match () {
                _ if r.old == a[0] => 0xaa,
                _ if r.old == b[0] => 0xb0,
                _ => 0xb1,
            };
            assert_eq!(*s, expect, "payload preserved across migration");
        }
        p.check_invariants().expect("clean after pool compaction");
        // The freed-up segments are now donatable to instance 1.
        let freed = p.instance(0).free_segments();
        assert!(freed >= 15, "compaction freed the sparse segments (free = {freed})");
        let donated = p.donate(0, 1, 2).expect("donation after compaction");
        assert!(donated >= 2);
        p.check_invariants().expect("clean after donate");
        for r in &relos {
            p.free(&l, r.new);
        }
        let still: Vec<_> =
            live.iter().filter(|(q, _)| !relos.iter().any(|r| r.old == *q)).collect();
        for (q, _) in still {
            p.free(&l, *q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after teardown");
    }
}
