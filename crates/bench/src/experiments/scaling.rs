//! E6/E7 — Figure 5: scaling with thread count.
//!
//! The allocation size is held constant (16 / 64 / 512 / 8192 B, the
//! paper's four panels) while the number of threads doubles from 2^0 up
//! to 2^20 (paper scale; capped lower by default on small hosts). One
//! allocator is resident at a time.

use super::figure::Sweep;
use crate::workload::{measure, SizeSpec};
use crate::HarnessConfig;

/// The four panel sizes of Figure 5.
pub const SCALING_SIZES: [u64; 4] = [16, 64, 512, 8192];

/// The Fig 5 panel of `kernel` at `size`: its CSV's file stem.
pub fn csv_name(kernel: &str, size: u64) -> String {
    format!("fig5_scaling_{kernel}_{size}b")
}

/// Run the scaling experiment: one table (alloc + free) per size, one row
/// per power-of-two thread count up to 2^16 (2^20 at paper scale).
pub fn run_scaling(cfg: &HarnessConfig) {
    let points: Vec<u64> = (0..=if cfg.full { 20 } else { 16 }).map(|l| 1 << l).collect();
    for size in SCALING_SIZES {
        let sweep = Sweep::run(
            cfg,
            &points,
            |threads| (size, threads),
            |a, threads| measure(a, cfg.device(), threads, SizeSpec::Fixed(size), cfg.runs, false),
        );
        sweep.emit_timed(cfg, "threads", |_, op| {
            let title =
                format!("Fig 5 — scaling {op} @ {size} B, median of {} runs (ms)", cfg.runs);
            (title, csv_name(op, size))
        });
    }
}
