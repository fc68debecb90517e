//! # gallatin: a general-purpose GPU memory manager, in Rust
//!
//! A from-scratch reproduction of *Gallatin: A General-Purpose GPU Memory
//! Manager* (McCoy & Pandey, PPoPP 2024), running on the [`gpu_sim`]
//! SIMT substrate instead of a physical GPU.
//!
//! Gallatin manages a contiguous heap with three nested granularities:
//!
//! * **Segments** (16 MB default) — tracked by a concurrent van Emde Boas
//!   tree ([`veb::VebTree`]); small allocations claim segments from the
//!   front of memory, and arbitrarily large allocations claim contiguous
//!   runs of segments from the back. This ordering is what lets Gallatin
//!   serve *any* allocation size from a single heap.
//! * **Blocks** — a segment attached to a size class is split into blocks
//!   (64 KB–16 MB), tracked by one block tree per class and recycled
//!   through a per-segment ring queue.
//! * **Slices** (16 B–4096 B) — each block holds 4096 slices handed out by
//!   a single `fetch_add`; same-size requests within a warp are coalesced
//!   so one atomic can serve up to 32 threads.
//!
//! ## Quick start
//!
//! ```
//! use gallatin::{Gallatin, GallatinConfig};
//! use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
//!
//! let alloc = Gallatin::new(GallatinConfig::small_test(1 << 20));
//! launch_warps(DeviceConfig::with_sms(8), 256, |warp| {
//!     let sizes = vec![Some(64u64); warp.active as usize];
//!     let mut out = vec![DevicePtr::NULL; warp.active as usize];
//!     alloc.warp_malloc(warp, &sizes, &mut out);
//!     // ... use the allocations ...
//!     alloc.warp_free(warp, &out);
//! });
//! ```

#![warn(missing_docs)]

mod buffer;
mod compact;
mod config;
mod elastic;
mod gallatin;
pub mod global;
mod pools;
mod ring;
mod router;
mod table;
mod tiers;

pub use buffer::BlockBuffer;
pub use compact::Relocation;
pub use config::{GallatinConfig, Geometry};
pub use gallatin::Gallatin;
pub use pools::{DevicePool, GallatinPool, TopoStats};
pub use ring::BlockRing;
pub use router::Router;
pub use table::{
    BlockHandle, MemoryTable, Segment, SegmentMeta, DRAIN_SPIN_LIMIT, LARGE_BASE, LARGE_BODY,
    SLICE_COUNT_MASK, SLICE_GEN_SHIFT, TREE_FREE,
};
