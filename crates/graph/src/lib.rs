//! # graph: dynamic edge-list graphs over a device allocator
//!
//! The Gallatin paper's real-world benchmark (§6.12) integrates each
//! allocator into a dynamic graph workload: graphs are stored as
//! per-vertex edge lists, each list living in a device allocation of the
//! next power-of-two size, growing and shrinking through `malloc`/`free`
//! as edges stream in and out.
//!
//! This crate provides:
//!
//! * [`DynamicGraph`] — the edge-list store, generic over any
//!   [`gpu_sim::DeviceAllocator`];
//! * [`gen`] — workload generators: uniform streams, Zipf/power-law
//!   ("Twitter-like") skewed streams, and the expansion schedule that
//!   drives hub vertices past the 8192-byte chunk limit of queue-based
//!   allocators (§6.12's expansion tests). Each stream is a pure function
//!   of its arguments, drawn from [`gpu_sim::SplitMix64`].

#![warn(missing_docs)]

pub mod gen;
pub mod store;

pub use gen::{expansion_rounds, uniform_edges, zipf_edges, EdgeBatch};
pub use store::DynamicGraph;
