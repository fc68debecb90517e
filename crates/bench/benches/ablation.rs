//! E14 — ablation benches for Gallatin's design choices (DESIGN.md §5).
//!
//! Three knobs the paper's discussion (§6.13) attributes Gallatin's
//! performance to:
//!
//! * **warp coalescing** — collective `warp_malloc` (one atomic per
//!   same-class group) vs per-lane scalar mallocs (one atomic each);
//! * **block buffers** — the per-SM cache of live blocks vs pulling every
//!   block through the block tree (approximated by a 1-SM configuration,
//!   which funnels all warps through a single buffer slot);
//! * **SM fan-out** — how throughput changes with the number of buffer
//!   slots (num_sms sweep).
//!
//! The bench also prints atomics-per-malloc from the instrumentation
//! counters, the scheduling-independent witness of the coalescing win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};

const THREADS: u64 = 8192;

fn run_coalesced(a: &Gallatin, device: DeviceConfig) {
    launch_warps(device, THREADS, |warp| {
        let sizes = [Some(16u64); gpu_sim::WARP_SIZE];
        let mut out = [DevicePtr::NULL; gpu_sim::WARP_SIZE];
        let n = warp.active as usize;
        a.warp_malloc(warp, &sizes[..n], &mut out[..n]);
        a.warp_free(warp, &out[..n]);
    });
}

fn run_scalar(a: &Gallatin, device: DeviceConfig) {
    launch_warps(device, THREADS, |warp| {
        let mut out = [DevicePtr::NULL; gpu_sim::WARP_SIZE];
        for lane in warp.lanes() {
            out[lane] = a.malloc(&warp.lane(lane), 16);
        }
        for lane in warp.lanes() {
            if !out[lane].is_null() {
                a.free(&warp.lane(lane), out[lane]);
            }
        }
    });
}

fn bench_ablation(c: &mut Criterion) {
    let _ = rayon::ThreadPoolBuilder::new().num_threads(8).build_global();
    let device = DeviceConfig::with_sms(128);

    // --- coalescing on/off ---
    let mut group = c.benchmark_group("ablation_coalescing");
    group.sample_size(10);
    group.throughput(Throughput::Elements(THREADS));
    let a = Gallatin::new(GallatinConfig { heap_bytes: 256 << 20, ..Default::default() });
    group.bench_function("warp_coalesced", |b| {
        b.iter(|| run_coalesced(&a, device));
    });
    // Report the atomic-op witness once, outside timing.
    a.reset();
    run_coalesced(&a, device);
    let coalesced_rmw = a.metrics().unwrap().snapshot().rmw_per_malloc();
    a.reset();
    group.bench_function("per_lane_scalar", |b| {
        b.iter(|| run_scalar(&a, device));
    });
    a.reset();
    run_scalar(&a, device);
    let scalar_rmw = a.metrics().unwrap().snapshot().rmw_per_malloc();
    println!(
        "\n[ablation] atomics per malloc: coalesced={coalesced_rmw:.3} scalar={scalar_rmw:.3} \
         (reduction {:.1}x)",
        scalar_rmw / coalesced_rmw.max(1e-9)
    );
    group.finish();

    // --- block-buffer fan-out: sweep the SM count ---
    let mut group = c.benchmark_group("ablation_buffer_slots");
    group.sample_size(10);
    group.throughput(Throughput::Elements(THREADS));
    for sms in [1u32, 8, 32, 128] {
        let a = Gallatin::new(GallatinConfig {
            heap_bytes: 256 << 20,
            num_sms: sms,
            min_buffer_slots: 1,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::new("num_sms", sms), &sms, |b, _| {
            b.iter(|| run_coalesced(&a, DeviceConfig::with_sms(sms)));
        });
    }
    group.finish();

    // --- vEB tree vs flat linear scan behind the segment/block indexes.
    // The gap widens with segment count (linear scans are O(universe/64)
    // per search), so sweep the heap size. Block churn is forced by
    // allocating whole blocks (every alloc walks the block index).
    let mut group = c.benchmark_group("ablation_index_structure");
    group.sample_size(10);
    for (label, search) in [
        // "veb" is the tree as the stock configurations build it.
        ("veb", gallatin::SearchStructure::VebWide),
        ("flat_scan", gallatin::SearchStructure::FlatScan),
    ] {
        for heap_mb in [64u64, 512] {
            let a = Gallatin::new(GallatinConfig {
                heap_bytes: heap_mb << 20,
                segment_bytes: 1 << 20,
                slices_per_block: 256,
                search,
                ..Default::default()
            });
            group.bench_with_input(
                BenchmarkId::new(label, format!("{heap_mb}MiB")),
                &heap_mb,
                |b, _| {
                    b.iter(|| {
                        launch_warps(DeviceConfig::with_sms(128), 2048, |warp| {
                            for lane in warp.lanes() {
                                let l = warp.lane(lane);
                                // Whole-block requests stress the index.
                                let p = a.malloc(&l, 8 << 10);
                                if !p.is_null() {
                                    a.free(&l, p);
                                }
                            }
                        });
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
