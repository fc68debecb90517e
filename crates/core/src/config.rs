//! Configuration and memory geometry.
//!
//! Gallatin partitions its heap three ways (paper §4):
//!
//! * **segments** — large fixed regions (16 MB by default), tracked by the
//!   segment tree;
//! * **blocks** — a segment formatted for one size class splits into
//!   `segment/block_size` blocks, tracked by that class's block tree;
//! * **slices** — each block holds `slices_per_block` equal slices
//!   (4096 by default), handed out by a counter.
//!
//! The published defaults (16 B–4096 B slices, 4096 slices/block, 16 MB
//! segments) imply block sizes 64 KB–16 MB and at most 256 blocks per
//! segment. Everything is configurable so tests can run tiny heaps; the
//! invariants between the knobs are enforced in [`GallatinConfig::geometry`].

/// Tunable parameters of a Gallatin instance.
#[derive(Clone, Copy, Debug)]
pub struct GallatinConfig {
    /// Total managed heap in bytes; must be a multiple of `segment_bytes`.
    pub heap_bytes: u64,
    /// Segment size in bytes (power of two). Paper default: 16 MB.
    pub segment_bytes: u64,
    /// Smallest slice size in bytes (power of two ≥ 8). Paper default: 16.
    pub min_slice: u64,
    /// Largest slice size in bytes (power of two). Paper default: 4096.
    pub max_slice: u64,
    /// Slices per block (power of two). Paper default: 4096.
    pub slices_per_block: u64,
    /// Streaming multiprocessors — sizes the per-SM block buffers.
    pub num_sms: u32,
    /// Minimum block-buffer slots per size class (paper: capped at 4).
    pub min_buffer_slots: u32,
    /// Start segment- and block-tree probes at an SM-hashed position
    /// instead of index 0 (the paper's block-selection randomization,
    /// §4.3), so concurrent SMs fan out across different tree words
    /// instead of CAS-hammering the front. The hash maps SM 0 to start
    /// 0, so single-SM workloads keep the legacy front-first placement.
    /// Wraparound search preserves the "find any free" contract either
    /// way. Default: on. Turn off to ablate (see EXPERIMENTS.md).
    pub randomize_probe_starts: bool,
}

impl Default for GallatinConfig {
    /// The paper's published configuration at a 1 GB heap (the heap size
    /// is per-experiment; the A40 runs used 2–8 GB).
    fn default() -> Self {
        GallatinConfig {
            heap_bytes: 1 << 30,
            segment_bytes: 16 << 20,
            min_slice: 16,
            max_slice: 4096,
            slices_per_block: 4096,
            num_sms: 128,
            min_buffer_slots: 4,
            randomize_probe_starts: true,
        }
    }
}

impl GallatinConfig {
    /// A dense configuration for small heaps (tens of MB): 1 MB segments
    /// with 256-slice blocks, keeping the full 16 B–4096 B slice range.
    /// The default 16 MB segments dedicate one segment per active slice
    /// class (the wavefront), which dominates heaps of only a few
    /// segments; the paper's §6.13 notes Gallatin "can be easily
    /// specialized" by exactly this kind of reconfiguration.
    pub fn dense(heap_bytes: u64) -> Self {
        GallatinConfig {
            heap_bytes,
            segment_bytes: 1 << 20,
            min_slice: 16,
            max_slice: 4096,
            slices_per_block: 256,
            num_sms: 128,
            min_buffer_slots: 4,
            randomize_probe_starts: true,
        }
    }

    /// A small configuration for unit tests: 64 KB segments, 16–256 B
    /// slices, 64 slices per block (blocks 1–16 KB).
    pub fn small_test(heap_bytes: u64) -> Self {
        GallatinConfig {
            heap_bytes,
            segment_bytes: 64 << 10,
            min_slice: 16,
            max_slice: 256,
            slices_per_block: 64,
            num_sms: 8,
            min_buffer_slots: 2,
            randomize_probe_starts: true,
        }
    }

    /// Validate and derive the full geometry.
    ///
    /// # Panics
    /// Panics with a descriptive message on any inconsistent combination.
    pub fn geometry(&self) -> Geometry {
        assert!(self.segment_bytes.is_power_of_two(), "segment_bytes must be a power of two");
        assert!(
            self.min_slice.is_power_of_two() && self.min_slice >= 8,
            "min_slice must be a power of two ≥ 8"
        );
        assert!(
            self.max_slice.is_power_of_two() && self.max_slice >= self.min_slice,
            "max_slice must be a power of two ≥ min_slice"
        );
        assert!(self.slices_per_block.is_power_of_two(), "slices_per_block must be a power of two");
        assert!(
            self.slices_per_block <= crate::table::SLICE_COUNT_MASK as u64,
            "slices_per_block ({}) must fit the claim word's count field (≤ {})",
            self.slices_per_block,
            crate::table::SLICE_COUNT_MASK
        );
        assert!(
            self.max_slice * self.slices_per_block <= self.segment_bytes,
            "largest block ({} B) exceeds segment ({} B)",
            self.max_slice * self.slices_per_block,
            self.segment_bytes
        );
        assert!(
            self.heap_bytes >= self.segment_bytes
                && self.heap_bytes.is_multiple_of(self.segment_bytes),
            "heap_bytes must be a positive multiple of segment_bytes"
        );
        assert!(self.num_sms > 0 && self.min_buffer_slots > 0);
        let max_blocks = self.segment_bytes / (self.min_slice * self.slices_per_block);
        let ids = 1 << crate::ring::ID_BITS;
        assert!(
            max_blocks <= ids,
            "max_blocks ({max_blocks}) exceeds the ring cell's 16-bit block id field (≤ {ids})"
        );

        let num_classes =
            (self.max_slice.trailing_zeros() - self.min_slice.trailing_zeros() + 1) as usize;
        Geometry {
            heap_bytes: self.heap_bytes,
            segment_bytes: self.segment_bytes,
            num_segments: self.heap_bytes / self.segment_bytes,
            min_slice: self.min_slice,
            slices_per_block: self.slices_per_block,
            num_classes,
            max_blocks,
        }
    }
}

/// Derived memory geometry shared by all of Gallatin's components.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// Total managed heap in bytes.
    pub heap_bytes: u64,
    /// Segment size in bytes.
    pub segment_bytes: u64,
    /// Number of segments (`heap_bytes / segment_bytes`).
    pub num_segments: u64,
    /// Smallest slice size in bytes.
    pub min_slice: u64,
    /// Slices per block.
    pub slices_per_block: u64,
    /// Number of slice size classes == number of block trees.
    pub num_classes: usize,
    /// Blocks per segment at the smallest class (ring capacity).
    pub max_blocks: u64,
}

impl Geometry {
    /// Slice size of class `c`.
    #[inline]
    pub fn slice_size(&self, c: usize) -> u64 {
        debug_assert!(c < self.num_classes);
        self.min_slice << c
    }

    /// Block size of class `c` (`slice_size * slices_per_block`).
    #[inline]
    pub fn block_size(&self, c: usize) -> u64 {
        self.slice_size(c) * self.slices_per_block
    }

    /// Blocks per segment when formatted for class `c`.
    #[inline]
    pub fn blocks_per_segment(&self, c: usize) -> u64 {
        self.segment_bytes >> self.block_size(c).trailing_zeros()
    }

    /// Largest slice size.
    #[inline]
    pub fn max_slice(&self) -> u64 {
        self.slice_size(self.num_classes - 1)
    }

    /// Slice class serving a request of `size` bytes, if the request fits
    /// the slice pipeline (`size ≤ max_slice`). Sizes round up to the next
    /// power of two, clamped to `min_slice`.
    #[inline]
    pub fn slice_class(&self, size: u64) -> Option<usize> {
        if size == 0 || size > self.max_slice() {
            return None;
        }
        let rounded = size.next_power_of_two().max(self.min_slice);
        Some((rounded.trailing_zeros() - self.min_slice.trailing_zeros()) as usize)
    }

    /// Block class whose block size is the smallest that can hold a
    /// mid-size request (`max_slice < size ≤ largest block`). Requests
    /// above the largest block go to the segment pipeline, even when they
    /// are smaller than a segment (possible in configurations where the
    /// largest block is smaller than a segment).
    #[inline]
    pub fn block_class(&self, size: u64) -> Option<usize> {
        if size == 0 || size > self.block_size(self.num_classes - 1) {
            return None;
        }
        let rounded = size.next_power_of_two().max(self.block_size(0));
        let c = (rounded.trailing_zeros() - self.block_size(0).trailing_zeros()) as usize;
        debug_assert!(c < self.num_classes);
        Some(c)
    }

    /// Number of contiguous segments for a large request
    /// (`size > segment_bytes`).
    #[inline]
    pub fn segments_for(&self, size: u64) -> u64 {
        size.div_ceil(self.segment_bytes)
    }

    /// Segment containing byte offset `off` (all sizes are powers of two: shifts and masks).
    #[inline]
    pub fn segment_of(&self, off: u64) -> u64 {
        off >> self.segment_bytes.trailing_zeros()
    }

    /// Block index within its segment of byte offset `off`, for class `c`.
    #[inline]
    pub fn block_of(&self, off: u64, c: usize) -> u64 {
        (off & (self.segment_bytes - 1)) >> self.block_size(c).trailing_zeros()
    }

    /// Slice index within its block of byte offset `off`, for class `c`.
    #[inline]
    pub fn slice_of(&self, off: u64, c: usize) -> u64 {
        (off & (self.block_size(c) - 1)) >> self.slice_size(c).trailing_zeros()
    }

    /// Byte offset of `(segment, block, slice)` for class `c`.
    #[inline]
    pub fn offset_of(&self, seg: u64, block: u64, slice: u64, c: usize) -> u64 {
        seg * self.segment_bytes + block * self.block_size(c) + slice * self.slice_size(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let g = GallatinConfig::default().geometry();
        assert_eq!(g.num_classes, 9); // 16, 32, …, 4096
        assert_eq!(g.slice_size(0), 16);
        assert_eq!(g.slice_size(8), 4096);
        assert_eq!(g.block_size(0), 64 << 10); // 64 KB
        assert_eq!(g.block_size(8), 16 << 20); // 16 MB
        assert_eq!(g.max_blocks, 256);
        assert_eq!(g.blocks_per_segment(0), 256);
        assert_eq!(g.blocks_per_segment(8), 1);
        assert_eq!(g.num_segments, 64); // 1 GB / 16 MB
    }

    #[test]
    fn slice_class_rounds_up() {
        let g = GallatinConfig::default().geometry();
        assert_eq!(g.slice_class(1), Some(0));
        assert_eq!(g.slice_class(16), Some(0));
        assert_eq!(g.slice_class(17), Some(1));
        assert_eq!(g.slice_class(32), Some(1));
        assert_eq!(g.slice_class(4096), Some(8));
        assert_eq!(g.slice_class(4097), None);
        assert_eq!(g.slice_class(0), None);
    }

    #[test]
    fn block_class_covers_mid_sizes() {
        let g = GallatinConfig::default().geometry();
        assert_eq!(g.block_class(8192), Some(0)); // rounds to 64 KB block
        assert_eq!(g.block_class(64 << 10), Some(0));
        assert_eq!(g.block_class((64 << 10) + 1), Some(1));
        assert_eq!(g.block_class(16 << 20), Some(8));
        assert_eq!(g.block_class((16 << 20) + 1), None);
    }

    #[test]
    fn segments_for_large_requests() {
        let g = GallatinConfig::default().geometry();
        assert_eq!(g.segments_for((16 << 20) + 1), 2);
        assert_eq!(g.segments_for(32 << 20), 2);
        assert_eq!(g.segments_for(100 << 20), 7);
    }

    #[test]
    fn offset_mapping_roundtrips() {
        let g = GallatinConfig::small_test(1 << 20).geometry();
        for c in 0..g.num_classes {
            for seg in 0..g.num_segments.min(4) {
                for block in 0..g.blocks_per_segment(c).min(4) {
                    for slice in [0, 1, g.slices_per_block - 1] {
                        let off = g.offset_of(seg, block, slice, c);
                        assert_eq!(g.segment_of(off), seg);
                        assert_eq!(g.block_of(off, c), block);
                        assert_eq!(g.slice_of(off, c), slice);
                    }
                }
            }
        }
    }

    /// The shift-and-mask decodes equal the division decodes they replace,
    /// on all three stock geometries, every class, a few hundred offsets.
    #[test]
    fn shift_decodes_equal_division_decodes() {
        use crate::table::BlockHandle;
        for cfg in [
            GallatinConfig::default(),
            GallatinConfig::dense(64 << 20),
            GallatinConfig::small_test(1 << 20),
        ] {
            let g = cfg.geometry();
            let offsets = (0..300u64).map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % g.heap_bytes;
                if i % 3 == 0 {
                    x & !(g.min_slice - 1)
                } else {
                    x
                }
            });
            for off in offsets.chain([0, g.heap_bytes - 1, g.segment_bytes, g.segment_bytes - 1]) {
                assert_eq!(g.segment_of(off), off / g.segment_bytes, "{cfg:?} at {off}");
                for c in 0..g.num_classes {
                    let (block, slice) = (g.block_size(c), g.slice_size(c));
                    assert_eq!(g.blocks_per_segment(c), g.segment_bytes / block);
                    assert_eq!(g.block_of(off, c), (off % g.segment_bytes) / block);
                    assert_eq!(g.slice_of(off, c), (off % block) / slice, "{cfg:?} at {off}");
                }
                let h = BlockHandle(off / 8);
                assert_eq!(h.segment(g.max_blocks), h.0 / g.max_blocks);
                assert_eq!(h.block(g.max_blocks), h.0 % g.max_blocks);
            }
        }
    }

    #[test]
    fn small_test_config_is_consistent() {
        let g = GallatinConfig::small_test(1 << 20).geometry();
        assert_eq!(g.num_classes, 5); // 16..256
        assert_eq!(g.block_size(0), 1024);
        assert_eq!(g.block_size(4), 16 << 10);
        assert_eq!(g.max_blocks, 64);
        assert_eq!(g.num_segments, 16);
    }

    #[test]
    #[should_panic(expected = "largest block")]
    fn oversized_block_rejected() {
        let cfg = GallatinConfig { max_slice: 8192, ..GallatinConfig::default() };
        cfg.geometry();
    }

    /// 16 B blocks: 2^16 to a 1 MiB segment fill the ring's id field,
    /// 2^17 to a 2 MiB one overflow it.
    #[test]
    #[should_panic(expected = "max_blocks (131072) exceeds the ring cell's 16-bit block id field")]
    fn max_blocks_beyond_the_ring_id_field_rejected() {
        let tiny_blocks = |segment_bytes| GallatinConfig {
            heap_bytes: segment_bytes,
            segment_bytes,
            min_slice: 8,
            max_slice: 8,
            slices_per_block: 2,
            ..GallatinConfig::default()
        };
        assert_eq!(tiny_blocks(1 << 20).geometry().max_blocks, 1 << 16);
        tiny_blocks(2 << 20).geometry();
    }

    #[test]
    #[should_panic(expected = "multiple of segment_bytes")]
    fn misaligned_heap_rejected() {
        let cfg = GallatinConfig { heap_bytes: (16 << 20) + 1, ..GallatinConfig::default() };
        cfg.geometry();
    }
}
