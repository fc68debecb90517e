//! Probes of single layers through their public functions: the launch
//! machinery with an empty kernel, the vEB tree at a workload's
//! universe, and the routing cost of a pool and a device pool.

use crate::metrics::Values;
use crate::stats::percentile;
use gallatin::DevicePool;
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use std::hint::black_box;
use std::time::Instant;
use veb::VebTree;

/// Median duration of a launch of `threads` threads whose kernel does
/// nothing, at the workload's geometry and mode: what the launch
/// machinery itself costs per unit.
pub fn empty_launch_p50_us(device: DeviceConfig, threads: u64, launches: usize) -> f64 {
    let ns: Vec<u64> = (0..launches)
        .map(|_| {
            let t0 = Instant::now();
            launch_warps(device, threads, |w| {
                black_box(w.warp_id);
            });
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&ns, 0.5) as f64 / 1e3
}

/// Operations per vEB probe loop; five loops make the 1 M-op probe.
const VEB_OPS: u64 = 200_000;

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Time the five tree operations the allocator's segment and block
/// trees use, single-threaded, on a tree of `universe` bits built the
/// way `GallatinConfig`'s defaults build it (wide scans on).
pub fn veb_probe(layers: &mut Values, universe: u64) {
    // A multiplicative hash walks the universe without a pattern the
    // summaries could exploit.
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    let tree = VebTree::new_wide(universe);
    layers.set(
        "veb.insert_ns",
        ns_per_op(VEB_OPS, || {
            for i in 0..VEB_OPS {
                black_box(tree.insert(key(i) % universe));
            }
        }),
    );
    layers.set(
        "veb.remove_ns",
        ns_per_op(VEB_OPS, || {
            for i in 0..VEB_OPS {
                black_box(tree.remove(key(i) % universe));
            }
        }),
    );
    tree.fill();
    layers.set(
        "veb.claim_exact_ns",
        ns_per_op(VEB_OPS, || {
            for i in 0..VEB_OPS {
                let x = key(i) % universe;
                if !tree.claim_exact(x) {
                    tree.insert(x);
                }
            }
        }),
    );
    // One bit in 16 set: a search crosses words and uses the summaries.
    tree.clear();
    for x in (0..universe).step_by(16) {
        tree.insert(x);
    }
    layers.set(
        "veb.find_first_ns",
        ns_per_op(VEB_OPS, || {
            for i in 0..VEB_OPS {
                black_box(tree.find_first_from(key(i) % universe));
            }
        }),
    );
    tree.fill();
    layers.set(
        "veb.claim_contig_ns",
        ns_per_op(VEB_OPS, || {
            for i in 0..VEB_OPS {
                let n = 2 + i % 3;
                if let Some(start) = tree.claim_contiguous_from_back(n.min(universe)) {
                    tree.insert_range(start, n.min(universe));
                }
            }
        }),
    );
}

/// Malloc/free pairs per routing probe.
const ROUTE_OPS: usize = 20_000;

/// Median nanoseconds of one scalar `malloc` of `size` bytes from SM 0
/// (each followed by its free, untimed).
fn malloc_p50_ns(alloc: &dyn DeviceAllocator, size: u64) -> f64 {
    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let lane = warp.lane(0);
    let ns: Vec<u64> = (0..ROUTE_OPS)
        .map(|_| {
            let t0 = Instant::now();
            let p = alloc.malloc(&lane, size);
            let dt = t0.elapsed().as_nanos() as u64;
            if p != DevicePtr::NULL {
                alloc.free(&lane, p);
            }
            dt
        })
        .collect();
    percentile(&ns, 0.5) as f64
}

/// Routing overhead of each level of a device pool: the median of a
/// malloc through the level minus the median of the same request issued
/// to the child that serves it (SM 0's home: device 0, instance 0).
pub fn route_probe(layers: &mut Values, pool: &DevicePool) {
    let size = 64;
    let through_topology = malloc_p50_ns(pool, size);
    let through_pool = malloc_p50_ns(pool.pool(0), size);
    let direct = malloc_p50_ns(pool.pool(0).instance(0), size);
    layers.set("core.device_pool.route_overhead_ns", through_topology - through_pool);
    layers.set("core.pool.route_overhead_ns", through_pool - direct);
}
