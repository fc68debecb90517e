//! E4/E5 — Figure 4c/4d: mixed-size allocation and free performance,
//! and E10's Fig 6b (fragmentation) read off the same runs.
//!
//! Every thread draws a power-of-two size uniformly from `[16, upper]`;
//! the x-axis sweeps `upper` from 16 B to 4096 B. Same protocol as the
//! single-size tests (median of N runs, reset between runs), one
//! allocator resident at a time.

use super::figure::{self, Sweep, FRAG_SIZES};
use crate::workload::{measure, SizeSpec};
use crate::HarnessConfig;

/// Upper range bounds from the paper's Figure 4c/4d.
pub const MIXED_UPPERS: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Run the mixed-size sweep; writes Fig 4c/4d and Fig 6b.
pub fn run_mixed(cfg: &HarnessConfig) {
    let (threads, runs) = (cfg.threads, cfg.runs);
    // Budget for the worst case: every thread draws `upper`.
    let sweep = Sweep::run(
        cfg,
        &MIXED_UPPERS,
        |upper| (upper, threads),
        |a, upper| measure(a, cfg.device(), threads, SizeSpec::MixedUpTo(upper), runs, false),
    );
    sweep.emit_timed(cfg, "upper B", |i, op| {
        let fig = ["4c", "4d"][i];
        let title = format!(
            "Fig {fig} — mixed-size {op} [16,upper], {threads} threads, median of {runs} runs (ms)"
        );
        (title, format!("fig{fig}_mixed_{op}"))
    });
    let title = format!("Fig 6b — fragmentation, mixed-size (span / ideal), {threads} allocations");
    sweep.emit(cfg, "size B", title, "fig6b_frag_mixed", &FRAG_SIZES, |upper, m| {
        figure::span(m, SizeSpec::MixedUpTo(upper), threads)
    });
}
