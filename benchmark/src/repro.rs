//! `--repro <name>`: the three observations made while sizing the
//! workloads, each as a command that shows it. They are defects or
//! limits of the program, recorded here for later correctness issues;
//! the workloads are sized to stay clear of them and nothing in the
//! program was changed to work around them.

use crate::churn::{Churn, ChurnInputs, Phase};
use crate::workloads::{graph_churn, kernels, Ctx};
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::trace::{self, TraceSink};
use gpu_sim::{DeviceAllocator, DeviceConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Names `--repro` accepts.
pub const NAMES: [&str; 3] = ["stranded-blocks", "block-tier-spin", "graph-spinlock"];

/// Run one reproduction; returns the process exit code (the two hangs
/// end in the watchdog's exit, which is the point).
pub fn run(name: &str, ctx: &Ctx) -> i32 {
    match name {
        "stranded-blocks" => stranded_blocks(ctx),
        "block-tier-spin" => block_tier_spin(ctx),
        "graph-spinlock" => graph_churn::repro_spinlock(ctx),
        _ => unreachable!("validated by the CLI"),
    }
}

/// Whole-segment blocks strand their segments. `kernel-mixed` with the
/// 4096 B class added (at `dense`, 256 slices of 4096 B are one 1 MiB
/// segment): a constant live set drains the heap a few segments per unit
/// until mallocs fail, and the segments stay unclaimable after every
/// pointer is freed and `trim()` has run.
fn stranded_blocks(ctx: &Ctx) -> i32 {
    let alloc = Gallatin::new(GallatinConfig { num_sms: 16, ..GallatinConfig::dense(512 << 20) });
    let inputs =
        ChurnInputs::generate(ctx.seed, 16_384, 8, |rng, _| rng.log_uniform(16, 4096) as u32);
    let device = DeviceConfig::with_sms(16);
    let mut churn = Churn::new(&alloc, &inputs, 4);
    let total = alloc.geometry().num_segments;
    println!("unit  free_segments/{total}  failed_mallocs  reserved_MiB");
    ctx.enter("repro", 200, 0);
    let mut last = 0;
    // Stop at the first unit with failed mallocs: from there on every
    // warp sits out the retry policy's back-off.
    for u in 0..200u64 {
        ctx.dog.arm(u);
        churn.run_unit(device, u, Phase::Churn, None);
        last = u;
        let failed = churn.counters.malloc_failed.load(Ordering::Relaxed);
        if u % 10 == 0 || failed > 0 {
            println!(
                "{u:4}  {:13}  {failed:14}  {:12.1}",
                alloc.free_segments(),
                alloc.stats().reserved_bytes as f64 / (1 << 20) as f64
            );
        }
        if failed > 0 {
            break;
        }
    }
    churn.drain(device, last + 1);
    ctx.dog.disarm();
    println!(
        "after freeing every pointer: reserved {} B, free segments {}/{total}",
        alloc.stats().reserved_bytes,
        alloc.free_segments()
    );
    let trimmed = alloc.trim();
    println!(
        "after trim() ({trimmed} blocks released): free segments {}/{total}; \
         check_invariants: {:?}",
        alloc.free_segments(),
        alloc.check_invariants().map_err(|e| e.lines().next().unwrap_or("").to_string())
    );
    0
}

/// `BlockTier::get` can spin forever. `free_block` pushes a block home,
/// crosses a preemption point, and only then compares the ring's length
/// with the class's block count; if the segment was reclaimed and
/// formatted for another class in between, the comparison fails and the
/// stale class's tree gets the segment's bit back. `get` for the stale
/// class then finds the segment, pops a block, sees the `tree_id`
/// mismatch, pushes the block home and retries the same probe start.
/// The deterministic scheduler replays it exactly: `topo-hotspot`'s
/// geometry, 2,048-thread launches, seed 104, launch 1.
fn block_tier_spin(ctx: &Ctx) -> i32 {
    let spec =
        kernels::Spec { sim_threads: 2048, sim_launches: 8, sim_ring: 4, ..kernels::hotspot() };
    let sink = Arc::new(TraceSink::new());
    let seen = Arc::clone(&sink);
    ctx.dog.on_abort(Box::new(move || {
        let records = seen.snapshot();
        eprintln!("last events of {}:", records.len());
        for r in records.iter().rev().take(8).rev() {
            eprintln!("  warp {:3} sm {:2} instance {} {:?}", r.warp, r.sm, r.instance, r.event);
        }
    }));
    let mut violations = Vec::new();
    trace::with_sink(sink, || kernels::sim_pass(&spec, ctx, &mut violations));
    println!("no hang with seed {} (the schedule that hangs is seed 104)", ctx.seed);
    0
}
