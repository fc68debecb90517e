//! The dynamic edge-list graph store.
//!
//! Each vertex owns one device allocation holding its edge list as an
//! array of `u64` destination ids. Lists are sized to the next power of
//! two of their length (as the paper's graph benchmark does), growing by
//! reallocation when full and shrinking when three quarters empty. Every
//! grow/shrink is a `malloc` + copy + `free` against the allocator under
//! test — which is exactly what the benchmark measures.
//!
//! A list is a ring in arrival order inside its allocation. A delete
//! compares the head first and scans the ring only on a miss, filling the
//! slot it empties with the *oldest* edge; either way the head advances,
//! so a sliding window's expiry is one compare and moves nothing.
//!
//! Per-vertex updates are serialized with a spinlock, the standard
//! device-side pattern for edge-list updaters; different vertices update
//! fully in parallel.

use gpu_sim::{DeviceAllocator, DevicePtr, LaneCtx};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Minimum edge-list capacity (entries) for a non-empty vertex.
const MIN_CAP: u64 = 4;

struct Vertex {
    /// Device offset of the edge array, or `DevicePtr::NULL`'s raw value.
    ptr: AtomicU64,
    /// Number of live edges.
    len: AtomicU32,
    /// Capacity in entries (power of two, or 0 when unallocated).
    cap: AtomicU32,
    /// Slot of the oldest edge: the list is slots `head .. head + len`
    /// modulo `cap`, oldest first. 0 whenever `cap` is.
    head: AtomicU32,
    /// Spinlock guarding structural updates.
    lock: AtomicU32,
}

impl Vertex {
    /// The live ring as two runs of slots, `[head, head + first)` then
    /// `[0, second)`: `(head, first, second)`. Caller holds the lock.
    fn runs(&self) -> (u64, u64, u64) {
        let head = self.head.load(Ordering::Relaxed) as u64;
        let len = self.len.load(Ordering::Relaxed) as u64;
        let first = len.min(self.cap.load(Ordering::Relaxed) as u64 - head);
        (head, first, len - first)
    }

    fn new() -> Self {
        Vertex {
            ptr: AtomicU64::new(DevicePtr::NULL.0),
            len: AtomicU32::new(0),
            cap: AtomicU32::new(0),
            head: AtomicU32::new(0),
            lock: AtomicU32::new(0),
        }
    }
}

/// A guard that releases the vertex spinlock on drop.
struct VertexGuard<'a>(&'a Vertex);

impl<'a> VertexGuard<'a> {
    fn acquire(v: &'a Vertex) -> Self {
        while v.lock.compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            gpu_sim::spin_hint();
        }
        VertexGuard(v)
    }
}

impl Drop for VertexGuard<'_> {
    fn drop(&mut self) {
        self.0.lock.store(0, Ordering::Release);
    }
}

/// A dynamic graph stored as per-vertex edge lists in device memory.
pub struct DynamicGraph<A: DeviceAllocator> {
    alloc: A,
    vertices: Box<[Vertex]>,
    /// Edge insertions that failed because the allocator returned null
    /// (how the benchmark detects allocators failing the workload).
    failed_updates: AtomicU64,
}

impl<A: DeviceAllocator> DynamicGraph<A> {
    /// An empty graph over `num_vertices` vertices.
    pub fn new(num_vertices: usize, alloc: A) -> Self {
        DynamicGraph {
            alloc,
            vertices: (0..num_vertices).map(|_| Vertex::new()).collect(),
            failed_updates: AtomicU64::new(0),
        }
    }

    /// The allocator under test.
    pub fn allocator(&self) -> &A {
        &self.alloc
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Updates that could not be applied due to allocation failure.
    pub fn failed_updates(&self) -> u64 {
        self.failed_updates.load(Ordering::Relaxed)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.vertices[v as usize].len.load(Ordering::Acquire)
    }

    /// Total live edges.
    pub fn num_edges(&self) -> u64 {
        self.vertices.iter().map(|v| v.len.load(Ordering::Acquire) as u64).sum()
    }

    /// Bytes currently held in edge-list allocations (entries × 8, at
    /// power-of-two capacities).
    pub fn edge_bytes(&self) -> u64 {
        self.vertices.iter().map(|v| v.cap.load(Ordering::Acquire) as u64 * 8).sum()
    }

    /// Read vertex `v`'s edge list back to the host, oldest edge first
    /// (arrival order, except where a delete moved the oldest edge into
    /// the slot it emptied).
    pub fn edges(&self, v: u32) -> Vec<u64> {
        let vert = &self.vertices[v as usize];
        let _guard = VertexGuard::acquire(vert);
        let (head, first, second) = vert.runs();
        let ptr = DevicePtr(vert.ptr.load(Ordering::Relaxed));
        let mut words = vec![[0u8; 8]; (first + second) as usize];
        // An empty list may be null: nothing to read, so never looked at.
        if first > 0 {
            let (older, wrapped) = words.split_at_mut(first as usize);
            self.alloc.memory().read_bytes(ptr.offset(head * 8), older.as_flattened_mut());
            self.alloc.memory().read_bytes(ptr, wrapped.as_flattened_mut());
        }
        words.into_iter().map(u64::from_le_bytes).collect()
    }

    /// Grow or shrink `vert`'s storage to hold `need` entries. Returns
    /// `false` on allocation failure, leaving the list as it was. Caller
    /// holds the vertex lock.
    fn resize_locked(&self, ctx: &LaneCtx, vert: &Vertex, need: u64) -> bool {
        let cap = vert.cap.load(Ordering::Relaxed) as u64;
        let old = DevicePtr(vert.ptr.load(Ordering::Relaxed));
        let new_cap = if need == 0 { 0 } else { need.next_power_of_two().max(MIN_CAP) };
        if new_cap == cap {
            return true;
        }
        if new_cap == 0 {
            if !old.is_null() {
                self.alloc.free(ctx, old);
            }
            vert.ptr.store(DevicePtr::NULL.0, Ordering::Relaxed);
            vert.cap.store(0, Ordering::Relaxed);
            vert.head.store(0, Ordering::Relaxed);
            return true;
        }
        let fresh = self.alloc.malloc(ctx, new_cap * 8);
        if fresh.is_null() {
            return false;
        }
        if !old.is_null() {
            // Move the live ring, device to device, oldest edge first.
            let (head, first, second) = vert.runs();
            let mem = self.alloc.memory();
            mem.copy(old.offset(head * 8), fresh, (first * 8) as usize);
            mem.copy(old, fresh.offset(first * 8), (second * 8) as usize);
            self.alloc.free(ctx, old);
        }
        vert.ptr.store(fresh.0, Ordering::Relaxed);
        vert.cap.store(new_cap as u32, Ordering::Relaxed);
        vert.head.store(0, Ordering::Relaxed);
        true
    }

    /// Insert edge `src → dst`. Returns `false` if the allocator could
    /// not provide storage.
    pub fn insert_edge(&self, ctx: &LaneCtx, src: u32, dst: u64) -> bool {
        let vert = &self.vertices[src as usize];
        let _guard = VertexGuard::acquire(vert);
        let len = vert.len.load(Ordering::Relaxed) as u64;
        if len == vert.cap.load(Ordering::Relaxed) as u64 && !self.resize_locked(ctx, vert, len + 1)
        {
            self.failed_updates.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // The slot past the newest edge.
        let ptr = DevicePtr(vert.ptr.load(Ordering::Relaxed));
        let (head, cap) = (vert.head.load(Ordering::Relaxed), vert.cap.load(Ordering::Relaxed));
        let tail = (head as u64 + len) & (cap as u64 - 1);
        self.alloc.memory().write_stamp(ptr.offset(tail * 8), dst);
        vert.len.store(len as u32 + 1, Ordering::Release);
        true
    }

    /// Delete the first occurrence of edge `src → dst` in `edges()` order
    /// (one compare at the head, else a scan; module docs). Returns whether
    /// the edge existed.
    pub fn delete_edge(&self, ctx: &LaneCtx, src: u32, dst: u64) -> bool {
        let vert = &self.vertices[src as usize];
        let _guard = VertexGuard::acquire(vert);
        let (head, first, second) = vert.runs();
        // An empty list may be null: never offset.
        if first == 0 {
            return false;
        }
        let ptr = DevicePtr(vert.ptr.load(Ordering::Relaxed));
        let mem = self.alloc.memory();
        // The first match in arrival order: the head, the run from it, then
        // the wrapped run. `edges()` order is what notices another match.
        let oldest = mem.read_stamp(ptr.offset(head * 8));
        let Some(i) = (oldest == dst)
            .then_some(head)
            .or_else(|| mem.find_stamp(ptr.offset(head * 8), first, dst).map(|i| head + i))
            .or_else(|| mem.find_stamp(ptr, second, dst))
        else {
            return false;
        };
        if i != head {
            mem.write_stamp(ptr.offset(i * 8), oldest);
        }
        let (len, cap) = (first + second, vert.cap.load(Ordering::Relaxed) as u64);
        vert.head.store(((head + 1) & (cap - 1)) as u32, Ordering::Relaxed);
        vert.len.store(len as u32 - 1, Ordering::Release);
        // Shrink at quarter occupancy (paper: lists sized to the next
        // power of two of their length). A shrink the allocator cannot
        // serve keeps the capacity; the delete itself has succeeded.
        if len - 1 <= cap / 4 {
            self.resize_locked(ctx, vert, len - 1);
        }
        true
    }

    /// Release every edge list back to the allocator.
    pub fn destroy(&self, ctx: &LaneCtx) {
        for vert in self.vertices.iter() {
            let _guard = VertexGuard::acquire(vert);
            let ptr = DevicePtr(vert.ptr.load(Ordering::Relaxed));
            if !ptr.is_null() {
                self.alloc.free(ctx, ptr);
                vert.ptr.store(DevicePtr::NULL.0, Ordering::Relaxed);
                vert.len.store(0, Ordering::Relaxed);
                vert.cap.store(0, Ordering::Relaxed);
                vert.head.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allocators::CudaHeapSim;
    use gallatin::{Gallatin, GallatinConfig};
    use gpu_sim::{launch, DeviceConfig, WarpCtx};

    fn with_lane<R>(f: impl FnOnce(&LaneCtx) -> R) -> R {
        let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
        f(&warp.lane(0))
    }

    #[test]
    fn insert_and_read_edges() {
        let g = DynamicGraph::new(8, Gallatin::new(GallatinConfig::small_test(1 << 20)));
        with_lane(|l| {
            for d in 0..10u64 {
                assert!(g.insert_edge(l, 3, d * 100));
            }
        });
        assert_eq!(g.degree(3), 10);
        assert_eq!(g.edges(3), (0..10).map(|d| d * 100).collect::<Vec<_>>());
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn growth_keeps_power_of_two_capacity() {
        let g = DynamicGraph::new(2, Gallatin::new(GallatinConfig::small_test(1 << 20)));
        with_lane(|l| {
            for d in 0..100u64 {
                g.insert_edge(l, 0, d);
            }
        });
        let cap = g.vertices[0].cap.load(Ordering::Relaxed);
        assert_eq!(cap, 128);
        assert_eq!(g.edges(0).len(), 100);
        assert_eq!(g.edge_bytes(), 128 * 8);
    }

    #[test]
    fn delete_expires_the_oldest_and_shrinks() {
        let g = DynamicGraph::new(1, Gallatin::new(GallatinConfig::small_test(1 << 20)));
        with_lane(|l| {
            for d in 0..32u64 {
                g.insert_edge(l, 0, d);
            }
            assert_eq!(g.vertices[0].cap.load(Ordering::Relaxed), 32);
            for d in 0..28u64 {
                assert!(g.delete_edge(l, 0, d));
            }
            assert!(!g.delete_edge(l, 0, 999));
            assert_eq!(g.degree(0), 4);
            assert!(g.vertices[0].cap.load(Ordering::Relaxed) <= 8, "list must shrink");
            assert_eq!(g.edges(0), vec![28, 29, 30, 31]);
        });
    }

    /// Each path of a delete's search on a wrapped ring, against `edges()`
    /// order: a head hit, a duplicate whose older copy is at the head, a
    /// hit in the run from the head and one in the wrapped run (the oldest
    /// edge fills both holes), and a miss on both runs.
    #[test]
    fn delete_takes_the_first_match_at_the_head_or_in_either_run() {
        let g = DynamicGraph::new(1, Gallatin::new(GallatinConfig::small_test(1 << 20)));
        let ring = || (g.vertices[0].head.load(Ordering::Relaxed), g.edges(0));
        with_lane(|l| {
            (0..8).for_each(|d| assert!(g.insert_edge(l, 0, d)));
            (0..3).for_each(|d| assert!(g.delete_edge(l, 0, d)));
            (8..11).for_each(|d| assert!(g.insert_edge(l, 0, d)));
            assert_eq!(ring(), (3, vec![3, 4, 5, 6, 7, 8, 9, 10]), "full and wrapped");
            assert!(g.delete_edge(l, 0, 3), "at the head");
            assert_eq!(ring(), (4, vec![4, 5, 6, 7, 8, 9, 10]));
            assert!(g.insert_edge(l, 0, 4) && g.delete_edge(l, 0, 4), "the head's copy");
            assert_eq!(ring(), (5, vec![5, 6, 7, 8, 9, 10, 4]));
            assert!(g.delete_edge(l, 0, 7), "in the run from the head");
            assert_eq!(ring(), (6, vec![6, 5, 8, 9, 10, 4]));
            assert!(g.delete_edge(l, 0, 9), "in the wrapped run");
            assert_eq!(ring(), (7, vec![5, 8, 6, 10, 4]));
            assert!(!g.delete_edge(l, 0, 99), "in neither run");
            assert_eq!(ring(), (7, vec![5, 8, 6, 10, 4]));
        });
    }

    /// One vertex through every ring case with first-in-first-out deletes
    /// only, so `edges()` must stay in insertion order throughout: the
    /// head wraps past `cap` several times, the list grows while wrapped,
    /// shrinks while wrapped, empties to the null list and refills.
    #[test]
    fn fifo_deletes_keep_insertion_order_through_every_ring_case() {
        let g = DynamicGraph::new(1, Gallatin::new(GallatinConfig::small_test(1 << 20)));
        let vert = &g.vertices[0];
        let state = || {
            let load = |a: &AtomicU32| a.load(Ordering::Relaxed);
            (load(&vert.head), load(&vert.len), load(&vert.cap))
        };
        let mut model = std::collections::VecDeque::new();
        let (mut next, mut wraps, mut grew_wrapped, mut shrank_wrapped) = (0u64, 0, false, false);
        // Each step is an insert (`true`) or a delete of the oldest edge.
        let mut step = |l: &LaneCtx, insert: bool| {
            let (head, len, cap) = state();
            if insert {
                assert!(g.insert_edge(l, 0, next));
                model.push_back(next);
                next += 1;
            } else {
                assert!(g.delete_edge(l, 0, model.pop_front().unwrap()));
            }
            let (new_head, _, new_cap) = state();
            let wrapped = head + len > cap;
            grew_wrapped |= wrapped && new_cap > cap;
            shrank_wrapped |= wrapped && new_cap < cap && new_cap > 0;
            wraps += (new_cap == cap && new_head < head) as u32;
            assert_eq!(g.edges(0), Vec::from(model.clone()), "at {:?}", state());
        };
        with_lane(|l| {
            let mut run = |inserts: usize, window: usize, deletes: usize| {
                (0..inserts).for_each(|_| step(l, true));
                (0..window).for_each(|_| [true, false].into_iter().for_each(|i| step(l, i)));
                (0..deletes).for_each(|_| step(l, false));
            };
            // Six edges in 8 slots, a 40-step sliding window (the head
            // wraps five times), then expire down to 3 live at head 3.
            run(6, 40, 3);
            // Fill all 8 slots and grow to 16 from the wrapped ring, slide
            // the head to 8, then expire down to 4 live: the shrink finds
            // the ring wrapped at head 13.
            run(6, 8, 5);
            assert_eq!(state(), (0, 4, 4), "shrunk once, unwrapped");
            // Empty to the null list, miss on it, and refill.
            run(0, 0, 4);
            assert_eq!((state(), vert.ptr.load(Ordering::Relaxed)), ((0, 0, 0), DevicePtr::NULL.0));
            assert!(!g.delete_edge(l, 0, 7));
            run(5, 3, 0);
            g.destroy(l);
        });
        assert!(
            wraps >= 5 && grew_wrapped && shrank_wrapped,
            "{wraps} {grew_wrapped} {shrank_wrapped}"
        );
        assert_eq!(g.allocator().stats().reserved_bytes, 0);
    }

    #[test]
    fn concurrent_inserts_across_vertices() {
        let g = DynamicGraph::new(64, Gallatin::new(GallatinConfig::small_test(2 << 20)));
        launch(DeviceConfig::with_sms(8), 64 * 32, |l| {
            let v = (l.global_tid() % 64) as u32;
            assert!(g.insert_edge(l, v, l.global_tid()));
        });
        assert_eq!(g.num_edges(), 64 * 32);
        for v in 0..64 {
            assert_eq!(g.degree(v), 32);
        }
    }

    #[test]
    fn concurrent_inserts_same_vertex_serialize() {
        // Free-running threads, then two warps under eight deterministic
        // schedules: there a warp spinning on the vertex lock must yield
        // its turn to the parked holder, or the launch never ends.
        let seeded = (0..8).map(|seed| (DeviceConfig::with_sms(2).seeded(seed), 64));
        for (device, n) in std::iter::once((DeviceConfig::with_sms(8), 500)).chain(seeded) {
            let g = DynamicGraph::new(1, Gallatin::new(GallatinConfig::small_test(2 << 20)));
            launch(device, n, |l| {
                assert!(g.insert_edge(l, 0, l.global_tid()));
            });
            let mut edges = g.edges(0);
            edges.sort_unstable();
            assert_eq!(edges, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn allocation_failure_is_reported() {
        // A heap too small for the hub vertex's growth.
        let g = DynamicGraph::new(1, CudaHeapSim::new(4 << 10));
        with_lane(|l| {
            let mut inserted = 0u64;
            for d in 0..10_000u64 {
                if !g.insert_edge(l, 0, d) {
                    break;
                }
                inserted += 1;
            }
            assert!(inserted < 10_000);
            assert!(g.failed_updates() > 0);
        });
    }

    #[test]
    fn shrink_that_cannot_allocate_is_not_a_failed_update() {
        // Grow one list, then fill what is left of the heap so no shrink
        // can be served: every delete still succeeds, at full capacity.
        let g = DynamicGraph::new(1, CudaHeapSim::new(4 << 10));
        with_lane(|l| {
            for d in 0..100u64 {
                assert!(g.insert_edge(l, 0, d));
            }
            let filler: Vec<DevicePtr> = std::iter::repeat_with(|| g.allocator().malloc(l, 16))
                .take_while(|p| !p.is_null())
                .collect();
            for d in 0..99u64 {
                assert!(g.delete_edge(l, 0, d));
                assert_eq!(g.edge_bytes(), 128 * 8, "the list keeps its capacity");
            }
            assert_eq!(g.edges(0), vec![99]);
            assert!(g.delete_edge(l, 0, 99), "emptying the list needs no allocation");
            assert_eq!(g.failed_updates(), 0);
            for p in filler {
                g.allocator().free(l, p);
            }
            g.destroy(l);
        });
        assert_eq!(g.allocator().stats().reserved_bytes, 0);
    }

    #[test]
    fn destroy_returns_all_memory() {
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let g = DynamicGraph::new(16, alloc);
        with_lane(|l| {
            for v in 0..16u32 {
                for d in 0..20u64 {
                    g.insert_edge(l, v, d);
                }
            }
            g.destroy(l);
        });
        assert_eq!(g.allocator().stats().reserved_bytes, 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn works_over_trait_reference() {
        // The graph is generic over &dyn DeviceAllocator too.
        let alloc = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let dyn_ref: &dyn gpu_sim::DeviceAllocator = &alloc;
        let g = DynamicGraph::new(4, dyn_ref);
        with_lane(|l| {
            assert!(g.insert_edge(l, 0, 42));
        });
        assert_eq!(g.edges(0), vec![42]);
    }
}
