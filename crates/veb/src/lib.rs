//! # veb: a highly concurrent van Emde Boas tree
//!
//! This crate implements the van Emde Boas (vEB) tree variant at the heart
//! of the Gallatin GPU memory manager (PPoPP 2024, §3). It maintains a set
//! `S ⊆ {0, …, u−1}` over a fixed universe `u` and supports concurrent:
//!
//! * [`VebTree::insert`] / [`VebTree::remove`] / [`VebTree::contains`]
//! * [`VebTree::successor`] / [`VebTree::predecessor`]
//! * [`VebTree::claim_first_ge`] — find-and-atomically-remove the first
//!   member `≥ x` (how Gallatin claims the lowest free segment),
//! * [`VebTree::claim_exact`] — atomically remove a specific member
//!   (Algorithm 1's `claimIndex`),
//! * [`VebTree::claim_contiguous_from_back`] — claim a run of `n`
//!   consecutive members scanning from the top of the universe (how
//!   Gallatin serves multi-segment allocations from the back of memory).
//!
//! ## Departures from the textbook structure, as in the paper
//!
//! The classic vEB node stores a min, a max, and a √u-wide summary, giving
//! `O(log log u)` operations — but such nodes cannot be read or written
//! atomically. Following the paper (§3.2), every node here is a **single
//! 64-bit word**: a bitmap over 64 children, manipulated with one atomic
//! instruction (`fetch_or` / `fetch_and`). Min/max are dropped. The tree
//! has fixed 64-ary fan-out, so its height is `⌈log₆₄ u⌉` — a small
//! constant for any practical universe (4 levels cover 16.7 M items; at
//! Gallatin's 16 MB segments that is 256 TB of device memory).
//!
//! ## Concurrency model
//!
//! The **leaf bitmap is the source of truth**; the linearization point of
//! every mutation is a single atomic RMW on a leaf word. Upper-level
//! summary words are maintained best-effort (one atomic per level, with a
//! re-check/fix-up step to repair insert/remove races), so searches may
//! transiently observe a summary bit without members below it, or miss a
//! member whose insert has not finished propagating. Searches therefore
//! *skip* subtrees that turn out empty and keep scanning — they never
//! trust a summary over a leaf. Claim operations re-validate at the leaf
//! with an atomic RMW, so a successful claim is always exclusive.
//!
//! These are exactly the semantics a memory allocator needs: a missed
//! concurrent insert just means "allocate a fresh segment instead", never
//! a correctness violation; a claim can never hand the same segment to two
//! threads.

#![warn(missing_docs)]

mod tree;
mod word;

pub use tree::VebTree;
pub use word::{first_set_ge, first_set_le, WORD_BITS};
