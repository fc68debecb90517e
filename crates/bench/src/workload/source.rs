//! The [`WorkloadSource`] trait.

use gpu_sim::replay::ReplayScript;

/// Anything that can produce a per-warp allocation script for a seed.
///
/// Scripts must be **deterministic in the seed**: `script(s)` called
/// twice returns identical scripts, so a failing `(scenario, seed)`
/// pair replays exactly (combined with `GALLATIN_SCHED_SEED=<seed>` for
/// the schedule half, see TESTING.md).
pub trait WorkloadSource {
    /// Display name, used in test output and dump filenames.
    fn name(&self) -> &str;

    /// Build the workload for `seed`, deriving sizes and shapes from it.
    fn script(&self, seed: u64) -> ReplayScript;
}
