//! Device memory: one contiguous arena standing in for GPU DRAM, which
//! [`DeviceMemory::zero_range`] populates in 2 MiB pages, as a GPU maps it.
//!
//! All of the allocators in this workspace hand out [`DevicePtr`]s, which
//! are byte offsets into a [`DeviceMemory`] arena. Using offsets instead of
//! host pointers keeps the paper's pointer arithmetic intact: Gallatin
//! locates the segment, block and slice of an allocation by integer
//! division on the offset (paper §5), and the benchmark's correctness
//! checks write/read payloads through the arena.
//!
//! # Access discipline
//!
//! Three kinds of access are offered:
//!
//! * **Atomic views** ([`DeviceMemory::atomic_u64`]): used for all
//!   allocator *metadata* (counters, bitmaps, queue slots). These are real
//!   `std::sync::atomic` objects aliasing the arena, so concurrent
//!   metadata access is fully defined behaviour.
//! * **Payload copies** ([`DeviceMemory::write_bytes`] /
//!   [`DeviceMemory::read_bytes`]): plain `memcpy`-style access used by
//!   benchmark kernels for allocation payloads. The required discipline is
//!   the same as on a GPU: a payload range must be accessed by its owner
//!   only between `malloc` and `free`. The allocator property tests verify
//!   ownership is exclusive (no double allocation), which is what makes
//!   this discipline sound.
//! * **Ranged payload primitives** ([`DeviceMemory::find_stamp`] /
//!   [`DeviceMemory::copy`]): the search and the device-to-device copy a
//!   kernel runs over ranges it owns, same discipline, neither a preemption
//!   point. The rule is *one check per range, one branch per eight words*:
//!   what a word-by-word [`DeviceMemory::read_stamp`] loop would check and
//!   compare one at a time is checked once and compared a line at a time.

use crate::sys::{madvise, mincore, MADV_DONTNEED, MADV_HUGEPAGE, MADV_POPULATE_WRITE};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Arena alignment. 16 bytes satisfies every atomic type and — critically
/// — keeps `alloc_zeroed` on the `calloc` fast path: for alignments above
/// the platform minimum (16 on x86-64 Linux) the allocator falls back to
/// `posix_memalign` + an explicit memset, which makes a multi-GiB arena
/// fully resident at construction instead of lazily zero-paged.
const ARENA_ALIGN: usize = 16;
/// The host's base page (x86-64).
const PAGE: usize = 4096;

/// A device pointer: a byte offset into a [`DeviceMemory`] arena.
///
/// `DevicePtr::NULL` plays the role of `nullptr` returned by a failed
/// device `malloc`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The null device pointer (allocation failure).
    pub const NULL: DevicePtr = DevicePtr(u64::MAX);

    /// Whether this pointer is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Offset arithmetic, mirroring `ptr + bytes` in device code.
    #[inline]
    pub fn offset(self, bytes: u64) -> DevicePtr {
        debug_assert!(!self.is_null());
        DevicePtr(self.0 + bytes)
    }

    /// The device holding this pointer's bytes, on a topology whose
    /// per-device arenas are `device_stride` bytes each (devices are
    /// carved contiguously from one reservation, so the device id is the
    /// quotient — the same integer-division routing Gallatin uses for
    /// segment ids, lifted one level up).
    #[inline]
    pub fn device_of(self, device_stride: u64) -> u32 {
        debug_assert!(!self.is_null());
        debug_assert!(device_stride > 0);
        (self.0 / device_stride) as u32
    }
}

/// The backing host allocation for one or more [`DeviceMemory`] views.
///
/// Owned behind an `Arc` so [`DeviceMemory::clone_view`] can hand out
/// further views of the same physical bytes; the allocation is freed when
/// the last view drops.
struct Arena {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: the arena is plain memory; all concurrent access goes through
// atomics or follows the exclusive-ownership payload discipline documented
// on `DeviceMemory`.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Drop for Arena {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len, ARENA_ALIGN).expect("arena layout");
        // SAFETY: allocated with the identical layout in `DeviceMemory::new`.
        unsafe { dealloc(self.base.as_ptr(), layout) };
    }
}

/// A contiguous, zero-initialized arena standing in for GPU DRAM.
///
/// The arena is allocated once (the paper's Gallatin similarly grabs its
/// whole heap with a single `cudaMalloc` at init) and freed when the last
/// view of it drops.
pub struct DeviceMemory {
    arena: Arc<Arena>,
    len: usize,
}

impl DeviceMemory {
    /// Allocate a zeroed arena of `len` bytes (rounded up to the arena
    /// alignment).
    ///
    /// # Panics
    /// Panics if `len == 0` or if the host allocation fails.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "device memory must be non-empty");
        let len = len.next_multiple_of(ARENA_ALIGN);
        let layout = Layout::from_size_align(len, ARENA_ALIGN).expect("arena layout");
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else { handle_alloc_error(layout) };
        DeviceMemory { arena: Arc::new(Arena { base, len }), len }
    }

    /// A second view of the same bytes, sharing the backing arena.
    /// Used where several owners need whole-range access to one heap
    /// (e.g. every `GallatinPool` instance holds a full-arena view so a
    /// donated segment's bytes stay reachable from its new home).
    pub fn clone_view(&self) -> DeviceMemory {
        DeviceMemory { arena: Arc::clone(&self.arena), len: self.len }
    }

    /// Host pointer to byte offset `off` of this view.
    #[inline]
    fn ptr(&self, off: usize) -> *mut u8 {
        // SAFETY: callers bounds-check `off` against `self.len` first, and
        // `self.len` is the arena length.
        unsafe { self.arena.base.as_ptr().add(off) }
    }

    /// Total size of this view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena is empty (never true; arenas are non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, off: u64, bytes: usize, align: usize) {
        let off = off as usize;
        assert!(
            off.is_multiple_of(align),
            "device access at offset {off} misaligned for {align}-byte access"
        );
        assert!(
            off.checked_add(bytes).is_some_and(|end| end <= self.len),
            "device access [{off}, {off}+{bytes}) out of bounds (arena {} bytes)",
            self.len
        );
    }

    /// An atomic 64-bit view of the word at byte offset `off`.
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        self.check(off, 8, 8);
        // SAFETY: in-bounds, aligned, and AtomicU64 has no invalid bit
        // patterns; aliasing with other atomic views is fine.
        unsafe { &*(self.ptr(off as usize) as *const AtomicU64) }
    }

    /// Relaxed atomic load of a u64.
    #[inline]
    pub fn load_u64(&self, off: u64) -> u64 {
        self.atomic_u64(off).load(Ordering::Relaxed)
    }

    /// Relaxed atomic store of a u64.
    #[inline]
    pub fn store_u64(&self, off: u64, v: u64) {
        self.atomic_u64(off).store(v, Ordering::Relaxed)
    }

    /// Copy `data` into the arena at `ptr` (payload write).
    ///
    /// See the module docs for the ownership discipline that makes
    /// concurrent payload access sound.
    #[inline]
    pub fn write_bytes(&self, ptr: DevicePtr, data: &[u8]) {
        self.check(ptr.0, data.len(), 1);
        // SAFETY: bounds-checked; exclusive ownership of live payload
        // ranges is the documented access discipline.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr(ptr.0 as usize), data.len());
        }
    }

    /// Copy `out.len()` bytes out of the arena at `ptr` (payload read).
    #[inline]
    pub fn read_bytes(&self, ptr: DevicePtr, out: &mut [u8]) {
        self.check(ptr.0, out.len(), 1);
        // SAFETY: see write_bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr(ptr.0 as usize), out.as_mut_ptr(), out.len());
        }
    }

    /// Write a little-endian u64 payload stamp at `ptr` — the benchmark's
    /// "write to the allocation and check it" correctness pattern.
    #[inline]
    pub fn write_stamp(&self, ptr: DevicePtr, stamp: u64) {
        self.write_bytes(ptr, &stamp.to_le_bytes());
    }

    /// Read back a little-endian u64 payload stamp from `ptr`.
    #[inline]
    pub fn read_stamp(&self, ptr: DevicePtr) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(ptr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Index of the first of the `count` little-endian u64 words at `ptr`
    /// equal to `needle`, bounds-checked once for the whole range: the
    /// graph store's delete when the ring's head misses. `ptr` needs no
    /// alignment, and `count == 0` is `None` without looking at it (an
    /// empty list may hold [`DevicePtr::NULL`]).
    #[inline]
    pub fn find_stamp(&self, ptr: DevicePtr, count: u64, needle: u64) -> Option<u64> {
        if count == 0 {
            return None;
        }
        let words = usize::try_from(count).expect("word count exceeds the address space");
        self.check(ptr.0, words.checked_mul(8).expect("search range overflows usize"), 1);
        // SAFETY: the check covers all `8 * words` bytes from `ptr`, `[u8; 8]`
        // has alignment 1, and a live payload range is accessed by its owner
        // only (module docs), so nothing writes under the slice.
        let list = unsafe {
            std::slice::from_raw_parts(self.ptr(ptr.0 as usize).cast::<[u8; 8]>(), words)
        };
        let eq = |w: &[u8; 8]| u64::from_le_bytes(*w) == needle;
        // One branch per eight words: a chunk's compares are OR-ed without
        // short-circuit, and only the chunk that hits is searched word by word.
        let chunks = list.chunks_exact(8);
        let tail = chunks.remainder();
        for (c, chunk) in chunks.enumerate() {
            if chunk.iter().fold(false, |hit, w| hit | eq(w)) {
                return chunk.iter().position(eq).map(|i| (c * 8 + i) as u64);
            }
        }
        tail.iter().position(eq).map(|i| (words - tail.len() + i) as u64)
    }

    /// Device-to-device payload copy (the `memcpy` of a reallocation or a
    /// migration): each range is bounds-checked once; they must not overlap.
    #[inline]
    pub fn copy(&self, src: DevicePtr, dst: DevicePtr, bytes: usize) {
        self.check(src.0, bytes, 1);
        self.check(dst.0, bytes, 1);
        assert!(src.0.abs_diff(dst.0) >= bytes as u64, "device copy of {bytes} bytes overlaps");
        let (from, to) = (self.ptr(src.0 as usize), self.ptr(dst.0 as usize));
        // SAFETY: both ranges are in bounds and disjoint (checked above);
        // see write_bytes for the ownership discipline.
        unsafe { std::ptr::copy_nonoverlapping(from, to, bytes) };
    }

    /// Zero a byte range and leave it resident, as a benchmark's pre-fault
    /// does to a whole arena. A range whose first whole page is not resident
    /// has its whole pages dropped (zeroed), given 2 MiB pages and populated,
    /// and its edges written; a resident one, cheaper to write than to refault,
    /// or a refused call is written whole. Nothing may access it meanwhile.
    pub fn zero_range(&self, off: u64, bytes: usize) {
        self.check(off, bytes, 1);
        let (off, at) = (off as usize, self.ptr(off as usize) as usize);
        let (lo, hi) = (at.next_multiple_of(PAGE), (at + bytes) / PAGE * PAGE);
        // SAFETY: the checked range's whole pages hold only this arena's bytes.
        let advise = |advice| unsafe { madvise(lo as *mut u8, hi - lo, advice) } == 0;
        let mut first = 1u8;
        let paged = cfg!(target_os = "linux")
            && lo < hi
            // SAFETY: `lo` starts a mapped page; `first` takes its one status byte.
            && unsafe { mincore(lo as *mut u8, PAGE, &mut first) } == 0
            && first & 1 == 0
            && advise(MADV_DONTNEED)
            && advise(MADV_HUGEPAGE)
            && advise(MADV_POPULATE_WRITE);
        let (head, tail) = if paged { (lo - at, at + bytes - hi) } else { (bytes, 0) };
        // SAFETY: both edges lie in the checked range; see `write_bytes`.
        unsafe {
            std::ptr::write_bytes(self.ptr(off), 0, head);
            std::ptr::write_bytes(self.ptr(off + bytes - tail), 0, tail);
        }
    }
}

impl std::fmt::Debug for DeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceMemory").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn arena_is_zeroed() {
        let mem = DeviceMemory::new(4096);
        for off in (0..4096).step_by(8) {
            assert_eq!(mem.load_u64(off), 0);
        }
    }

    #[test]
    fn null_pointer_identity() {
        assert!(DevicePtr::NULL.is_null());
        assert!(!DevicePtr(0).is_null());
        assert_eq!(DevicePtr(16).offset(8), DevicePtr(24));
    }

    #[test]
    fn device_routing_is_the_quotient() {
        let stride = 1 << 20;
        assert_eq!(DevicePtr(0).device_of(stride), 0);
        assert_eq!(DevicePtr(stride - 1).device_of(stride), 0);
        assert_eq!(DevicePtr(stride).device_of(stride), 1);
        assert_eq!(DevicePtr(3 * stride + 17).device_of(stride), 3);
    }

    #[test]
    fn atomic_views_alias_payload_bytes() {
        let mem = DeviceMemory::new(64);
        mem.atomic_u64(0).store(0x1122_3344_5566_7788, Ordering::Relaxed);
        let mut buf = [0u8; 8];
        mem.read_bytes(DevicePtr(0), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 0x1122_3344_5566_7788);
    }

    #[test]
    fn stamps_roundtrip() {
        let mem = DeviceMemory::new(128);
        mem.write_stamp(DevicePtr(32), 0xdead_beef);
        assert_eq!(mem.read_stamp(DevicePtr(32)), 0xdead_beef);
        assert_eq!(mem.read_stamp(DevicePtr(40)), 0);
    }

    #[test]
    fn len_rounds_up_to_alignment() {
        let mem = DeviceMemory::new(1);
        assert_eq!(mem.len(), 16);
        assert!(!mem.is_empty());
    }

    #[test]
    fn huge_arena_is_lazily_paged() {
        // Guards the calloc fast path: a large zeroed arena must be
        // cheap to construct (no eager memset of every page). 4 GiB
        // would take seconds to memset; lazy mapping is ~instant.
        let t0 = std::time::Instant::now();
        let mem = DeviceMemory::new(4 << 30);
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "arena construction took {:?} — alloc_zeroed fell off the lazy path",
            t0.elapsed()
        );
        assert_eq!(mem.load_u64((4 << 30) - 8), 0);
    }

    #[test]
    fn concurrent_fetch_add_sums() {
        let mem = DeviceMemory::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        mem.atomic_u64(0).fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(mem.load_u64(0), 8000);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics() {
        let mem = DeviceMemory::new(64);
        mem.load_u64(64);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_atomic_panics() {
        let mem = DeviceMemory::new(64);
        mem.load_u64(4);
    }

    /// A 128-byte arena holding the words 10, 20, 30, 20 at offset 64.
    fn arena_with_list() -> DeviceMemory {
        let mem = DeviceMemory::new(128);
        for (i, w) in [10u64, 20, 30, 20].into_iter().enumerate() {
            mem.write_stamp(DevicePtr(64 + i as u64 * 8), w);
        }
        mem
    }

    #[test]
    fn find_stamp_returns_the_first_match_or_none() {
        let mem = arena_with_list();
        assert_eq!(mem.find_stamp(DevicePtr(64), 4, 20), Some(1), "first of two equal words");
        assert_eq!(mem.find_stamp(DevicePtr(64), 4, 30), Some(2));
        assert_eq!(mem.find_stamp(DevicePtr(64), 4, 99), None);
        assert_eq!(mem.find_stamp(DevicePtr(64), 1, 20), None, "the range ends where told");
        // An empty list is never dereferenced, so it may be null.
        assert_eq!(mem.find_stamp(DevicePtr::NULL, 0, 0), None);
    }

    /// Every length 0..=24 and 1,000 around the eight-word chunks, against
    /// `iter().position` as the reference: the needle at each index and
    /// absent, duplicates inside a chunk (3, 5), across a chunk edge (7, 8)
    /// and in the remainder (17, 19), and an odd `ptr` with 17 words.
    #[test]
    fn find_stamp_matches_position_across_chunk_boundaries() {
        let mem = DeviceMemory::new(8 * 1024);
        let check = |base: u64, list: &[u64], needle: u64| {
            for (i, &w) in list.iter().enumerate() {
                mem.write_stamp(DevicePtr(base + i as u64 * 8), w);
            }
            let want = list.iter().position(|&w| w == needle).map(|i| i as u64);
            let got = mem.find_stamp(DevicePtr(base), list.len() as u64, needle);
            assert_eq!(got, want, "{} words at {base}, needle {needle}", list.len());
        };
        const NEEDLE: u64 = u64::MAX;
        for len in (0..=24).chain([1000]) {
            let list: Vec<u64> = (0..len as u64).collect();
            check(0, &list, NEEDLE);
            for at in 0..len {
                let mut hit = list.clone();
                hit[at] = NEEDLE;
                check(0, &hit, NEEDLE);
            }
        }
        for (a, b, len) in
            [(3, 5, 8), (3, 5, 24), (7, 8, 9), (7, 8, 24), (17, 19, 20), (17, 19, 23)]
        {
            let mut list: Vec<u64> = (0..len).collect();
            (list[a], list[b]) = (NEEDLE, NEEDLE);
            check(0, &list, NEEDLE);
        }
        let list: Vec<u64> = (0..17).map(|i| 100 + i).collect();
        for needle in [100, 107, 108, 116, 999] {
            check(3, &list, needle);
        }
    }

    #[test]
    fn find_stamp_reads_unaligned_words() {
        let mem = DeviceMemory::new(64);
        mem.write_stamp(DevicePtr(3 + 2 * 8), 0xfeed_f00d);
        assert_eq!(mem.find_stamp(DevicePtr(3), 5, 0xfeed_f00d), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn find_stamp_one_word_past_the_view_panics() {
        let mem = arena_with_list();
        // Words 8..17 of a 16-word arena: a miss that would read word 16.
        mem.find_stamp(DevicePtr(64), 9, 99);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn find_stamp_range_length_overflow_panics() {
        let mem = arena_with_list();
        // 2^61 words are 2^64 bytes: wrapped to 0 they would pass the check.
        mem.find_stamp(DevicePtr(64), 1 << 61, 10);
    }

    #[test]
    fn copy_moves_a_range_and_zero_bytes_is_a_no_op() {
        let mem = arena_with_list();
        mem.copy(DevicePtr(64), DevicePtr(0), 32);
        assert_eq!(mem.find_stamp(DevicePtr(0), 4, 30), Some(2));
        assert_eq!(mem.read_stamp(DevicePtr(32)), 0, "nothing past the range is written");
        mem.copy(DevicePtr(64), DevicePtr(64), 0);
        mem.copy(DevicePtr(128), DevicePtr(0), 0);
        assert_eq!(mem.read_stamp(DevicePtr(64)), 10);
        assert_eq!(mem.read_stamp(DevicePtr(0)), 10);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn copy_of_overlapping_ranges_panics() {
        let mem = arena_with_list();
        mem.copy(DevicePtr(64), DevicePtr(72), 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_past_the_end_panics() {
        let mem = arena_with_list();
        mem.copy(DevicePtr(0), DevicePtr(112), 24);
    }

    #[test]
    fn zero_range_clears() {
        let mem = DeviceMemory::new(64);
        mem.store_u64(8, u64::MAX);
        mem.zero_range(8, 8);
        assert_eq!(mem.load_u64(8), 0);
    }

    /// Drop the first whole page at or after byte `off`, as if it had never
    /// been touched: a `zero_range` from `off` then takes the page-level
    /// path, where a resident first page has the range written.
    fn drop_first_page(mem: &DeviceMemory, off: usize) {
        let page = (mem.ptr(off) as usize).next_multiple_of(PAGE);
        // SAFETY: a whole page of the test's own arena; nothing else reads it.
        assert_eq!(unsafe { madvise(page as *mut u8, PAGE, MADV_DONTNEED) }, 0);
    }

    /// Fill the whole view with a pattern that has no zero byte, zero
    /// `[off, off + bytes)` through `zeroer` and check every byte of the
    /// view: 0 inside the range, the pattern outside it. A range holding a
    /// whole page is checked on both paths: resident, and with its first
    /// whole page dropped.
    fn assert_zeroes_exactly(mem: &DeviceMemory, zeroer: &DeviceMemory, off: usize, bytes: usize) {
        let mut pattern = (1..=251u8).collect::<Vec<_>>().repeat(mem.len() / 251 + 1);
        pattern.truncate(mem.len());
        let mut want = pattern.clone();
        want[off..off + bytes].fill(0);
        let at = mem.ptr(off) as usize;
        let holds_a_page = at.next_multiple_of(PAGE) + PAGE <= at + bytes;
        for dropped in [false, true].into_iter().take(1 + holds_a_page as usize) {
            mem.write_bytes(DevicePtr(0), &pattern);
            if dropped {
                drop_first_page(mem, off);
            }
            zeroer.zero_range(off as u64, bytes);
            let mut got = vec![0u8; mem.len()];
            mem.read_bytes(DevicePtr(0), &mut got);
            if got != want {
                let i = got.iter().zip(&want).position(|(g, w)| g != w).unwrap();
                let (g, w) = (got[i], want[i]);
                panic!(
                    "zeroing [{off}, +{bytes}), dropped {dropped}: byte {i} reads {g}, want {w}"
                );
            }
        }
    }

    /// Both paths are exact at the page edges: a range that starts mid-page
    /// and spans whole 2 MiB pages, one that ends at the arena's end, the
    /// whole arena, a write through a second view, and the ranges too small
    /// to hold a page.
    #[test]
    fn zero_range_is_exact_at_the_page_edges() {
        let mem = DeviceMemory::new((8 << 20) + 3);
        let len = mem.len();
        assert_zeroes_exactly(&mem, &mem, 3 * PAGE + 5, (4 << 20) + 2 * PAGE + 7);
        assert_zeroes_exactly(&mem, &mem, (2 << 20) + 123, len - (2 << 20) - 123);
        assert_zeroes_exactly(&mem, &mem, 0, len);
        assert_zeroes_exactly(&mem, &mem.clone_view(), PAGE - 64, (2 << 20) + 128);
        for (off, bytes) in [(PAGE, 1), (PAGE - 1, 1), (5 * PAGE, 0), (len, 0), (len - 1, 1)] {
            assert_zeroes_exactly(&mem, &mem, off, bytes);
        }
    }

    /// Minor page faults taken by the calling thread so far.
    fn thread_minor_faults() -> i64 {
        extern "C" {
            fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
        }
        const RUSAGE_THREAD: i32 = 1;
        let mut usage = [0i64; 18];
        // SAFETY: `struct rusage` is two `timeval`s and fourteen `long`s on
        // x86-64 Linux, 18 words; `ru_minflt` is the ninth.
        assert_eq!(unsafe { getrusage(RUSAGE_THREAD, &mut usage) }, 0);
        usage[8]
    }

    /// A pre-fault relies on the range being resident afterwards, on either
    /// path: reading one word of each of its pages must take no fault.
    /// (Dropping the pages without populating them leaves each read a
    /// zero-page fault.)
    #[test]
    fn zero_range_leaves_the_range_resident() {
        const BYTES: usize = 16 << 20;
        let mem = DeviceMemory::new(BYTES + PAGE);
        for dropped in [false, true] {
            mem.write_bytes(DevicePtr(0), &vec![7u8; mem.len()]);
            if dropped {
                drop_first_page(&mem, PAGE / 2);
            }
            mem.zero_range(PAGE as u64 / 2, BYTES);
            let before = thread_minor_faults();
            let sum: u64 = (0..BYTES / PAGE).map(|p| mem.load_u64((PAGE + p * PAGE) as u64)).sum();
            let faults = thread_minor_faults() - before;
            assert_eq!(
                (sum, faults),
                (0, 0),
                "dropped {dropped}: (sum of words read, faults taken)"
            );
        }
    }
}
