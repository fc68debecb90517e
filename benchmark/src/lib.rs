//! The repo benchmark: five workloads against the public APIs of
//! `gpu-sim`, `veb`, `gallatin`, `graph` and `bench::serve`, every
//! output checked, eight end-to-end metrics per workload (five on the
//! host clock, three on the deterministic scheduler's step clock) and a
//! traced run that attributes the time to layers from outside the
//! program. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod churn;
pub mod cli;
pub mod control;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod pass;
pub mod repeat;
pub mod repro;
pub mod span;
pub mod stats;
pub mod workloads;
