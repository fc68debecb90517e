//! K-mer counting with a dynamically resizable device hash table.
//!
//! The paper's introduction names k-mer analysis as a workload that
//! *needs* dynamic memory: the multiset size is unknown in advance, so
//! static GPU hash tables must be grossly over-provisioned. With a
//! general-purpose device allocator, the table can start small and grow
//! by reallocating — each growth step is a *large* (multi-megabyte, even
//! multi-segment) allocation served by the same allocator that serves
//! 16-byte slices.
//!
//! This example builds exactly that: an open-addressing table of
//! (kmer, count) slots living in Gallatin-managed device memory, doubled
//! whenever occupancy passes 70%, fed by kernels that extract 2-bit-packed
//! k-mers from a synthetic DNA string.
//!
//! Run with: `cargo run --release --example kmer_counting`

use gallatin_repro::prelude::*;
use gpu_sim::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

const K: usize = 21;
const EMPTY: u64 = u64::MAX;

/// An open-addressing (linear probing) hash table in device memory:
/// `capacity` pairs of 8-byte slots `[key][count]`.
struct DeviceHashTable<'a> {
    alloc: &'a Gallatin,
    ptr: DevicePtr,
    capacity: u64,
    live: AtomicU64,
}

impl<'a> DeviceHashTable<'a> {
    fn new(alloc: &'a Gallatin, capacity: u64, ctx: &LaneCtx) -> Self {
        let capacity = capacity.next_power_of_two();
        let ptr = alloc.malloc(ctx, capacity * 16);
        assert!(!ptr.is_null(), "table allocation failed");
        // Initialize keys to EMPTY.
        for i in 0..capacity {
            alloc.memory().write_stamp(ptr.offset(i * 16), EMPTY);
            alloc.memory().write_stamp(ptr.offset(i * 16 + 8), 0);
        }
        DeviceHashTable { alloc, ptr, capacity, live: AtomicU64::new(0) }
    }

    #[inline]
    fn hash(kmer: u64) -> u64 {
        let mut x = kmer.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 31)
    }

    /// Insert-or-increment. Returns false when the table is too full to
    /// place the key (caller resizes).
    fn upsert(&self, kmer: u64) -> bool {
        let mem = self.alloc.memory();
        let mask = self.capacity - 1;
        let mut slot = Self::hash(kmer) & mask;
        for _ in 0..self.capacity.min(256) {
            let key_off = self.ptr.0 + slot * 16;
            let key_word = mem.atomic_u64(key_off);
            let cur = key_word.load(Ordering::Acquire);
            if cur == kmer {
                mem.atomic_u64(key_off + 8).fetch_add(1, Ordering::Relaxed);
                return true;
            }
            if cur == EMPTY {
                match key_word.compare_exchange(EMPTY, kmer, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        self.live.fetch_add(1, Ordering::Relaxed);
                        mem.atomic_u64(key_off + 8).fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(now) if now == kmer => {
                        mem.atomic_u64(key_off + 8).fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(_) => {} // someone claimed a different key; probe on
                }
            }
            slot = (slot + 1) & mask;
        }
        false
    }

    fn occupancy(&self) -> f64 {
        self.live.load(Ordering::Relaxed) as f64 / self.capacity as f64
    }

    /// Double the capacity: allocate the new table (possibly a
    /// multi-segment large allocation), rehash, free the old.
    fn grow(&mut self, ctx: &LaneCtx) {
        let old_ptr = self.ptr;
        let old_cap = self.capacity;
        let new = DeviceHashTable::new(self.alloc, old_cap * 2, ctx);
        let mem = self.alloc.memory();
        for i in 0..old_cap {
            let key = mem.read_stamp(old_ptr.offset(i * 16));
            if key != EMPTY {
                let count = mem.read_stamp(old_ptr.offset(i * 16 + 8));
                assert!(new.upsert_with_count(key, count));
            }
        }
        self.alloc.free(ctx, old_ptr);
        self.ptr = new.ptr;
        self.capacity = new.capacity;
        self.live.store(new.live.load(Ordering::Relaxed), Ordering::Relaxed);
        // `new` has no Drop; its ptr ownership moved into self above.
    }

    fn upsert_with_count(&self, kmer: u64, count: u64) -> bool {
        if !self.upsert(kmer) {
            return false;
        }
        let mem = self.alloc.memory();
        let mask = self.capacity - 1;
        let mut slot = Self::hash(kmer) & mask;
        loop {
            let key_off = self.ptr.0 + slot * 16;
            if mem.atomic_u64(key_off).load(Ordering::Acquire) == kmer {
                mem.atomic_u64(key_off + 8).fetch_add(count - 1, Ordering::Relaxed);
                return true;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn distinct(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }
}

/// Synthetic DNA: uniform ACGT with a few repeated motifs so counts > 1
/// appear.
fn synthesize_dna(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let motif: Vec<u8> = (0..64).map(|_| rng.below(4) as u8).collect();
    let mut dna = Vec::with_capacity(len);
    while dna.len() < len {
        if rng.unit_f64() < 0.1 {
            dna.extend_from_slice(&motif);
        } else {
            dna.push(rng.below(4) as u8);
        }
    }
    dna.truncate(len);
    dna
}

fn main() {
    let alloc = Gallatin::new(GallatinConfig { heap_bytes: 512 << 20, ..Default::default() });
    let device = DeviceConfig::default();
    let dna = synthesize_dna(2_000_000, 7);
    let num_kmers = dna.len() - K + 1;

    // 2-bit-pack every k-mer up front (host-side prep, as a real pipeline
    // would do on device).
    let kmers: Vec<u64> = (0..num_kmers)
        .map(|i| dna[i..i + K].iter().fold(0u64, |acc, &b| (acc << 2) | b as u64))
        .collect();

    let warp = WarpCtx { warp_id: 0, sm_id: 0, base_tid: 0, active: 1 };
    let host_lane = warp.lane(0);
    // Deliberately undersized start: 4096 slots for ~2M k-mers.
    let mut table = DeviceHashTable::new(&alloc, 4096, &host_lane);
    println!("counting {} {K}-mers, table starts at {} slots", kmers.len(), table.capacity);

    let t0 = std::time::Instant::now();
    let mut next = 0usize;
    while next < kmers.len() {
        // Insert in chunks small enough that the table cannot fill past
        // the probe limit before the next occupancy check; grow when
        // occupancy crosses 70%.
        let headroom = (table.capacity as f64 * 0.85) as u64 - table.distinct();
        let chunk_len = (headroom as usize).clamp(512, 200_000);
        let chunk_end = (next + chunk_len).min(kmers.len());
        let chunk = &kmers[next..chunk_end];
        let failures = AtomicU64::new(0);
        launch(device, chunk.len() as u64, |l| {
            if !table.upsert(chunk[l.global_tid() as usize]) {
                failures.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(failures.load(Ordering::Relaxed), 0, "probe limit hit before resize");
        next = chunk_end;
        while table.occupancy() > 0.70 {
            let old = table.capacity;
            table.grow(&host_lane);
            println!(
                "  grew table {old} -> {} slots ({} MiB allocation)",
                table.capacity,
                (table.capacity * 16) >> 20
            );
        }
    }
    let elapsed = t0.elapsed();

    println!(
        "done in {elapsed:.2?}: {} distinct {K}-mers, final table {} slots ({} MiB)",
        table.distinct(),
        table.capacity,
        (table.capacity * 16) >> 20
    );
    println!(
        "allocator: {} bytes reserved of {} ({} segments free)",
        alloc.stats().reserved_bytes,
        alloc.heap_bytes(),
        alloc.free_segments()
    );
    alloc.free(&host_lane, table.ptr);
    assert_eq!(alloc.stats().reserved_bytes, 0);
    println!("table freed; heap fully recovered");
}
