//! # bench: the Gallatin reproduction harness
//!
//! Drivers for every experiment in the paper's §6 evaluation, shared by
//! the `repro` binary. See DESIGN.md §5 for the experiment index mapping
//! each figure/table to a subcommand.
//!
//! ## Execution environment note
//!
//! The paper measures an A40 with 10,752 CUDA cores; this harness runs on
//! whatever CPU is present. Two decisions keep the benchmark *shapes*
//! meaningful regardless of host width:
//!
//! * the executor pool is **oversubscribed** (default 8 OS threads even on a
//!   1-core host, see [`HarnessConfig::pool_threads`]): preemptive OS
//!   scheduling then interleaves warps mid-operation, so lock-based
//!   designs (the CUDA-heap model) genuinely block and lock-free designs
//!   genuinely retry — the serialization structure the paper measures;
//! * every allocator additionally reports its [`gpu_sim::Metrics`]
//!   (atomics issued, CAS retries, lock acquisitions), which are
//!   scheduling-independent witnesses of the same structure.

pub mod experiments;
pub mod report;
pub mod roster;
pub mod serve;
pub mod workload;

/// Global harness configuration, parsed from CLI flags by `repro`.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Logical GPU threads for the single/mixed tests (paper: 1 M).
    pub threads: u64,
    /// Runs per measurement; the median is reported (paper: 50).
    pub runs: usize,
    /// Heap given to every allocator.
    pub heap_bytes: u64,
    /// Simulated SMs (sizes Gallatin's block buffers).
    pub num_sms: u32,
    /// OS threads in the executor pool (oversubscription is deliberate).
    pub pool_threads: usize,
    /// Directory for CSV output.
    pub out_dir: String,
    /// Paper-scale mode: 1 M threads, 50 runs, scaling to 2^20.
    pub full: bool,
    /// CI smoke mode (`--smoke`): shrink sweeps to a gating subset and
    /// fail fast on invariant violations. Honored by `repro serve` and
    /// `repro topo`.
    pub smoke: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        HarnessConfig {
            threads: 1 << 15,
            runs: 7,
            heap_bytes: 1 << 30,
            num_sms: 128,
            pool_threads: cores.max(8),
            out_dir: "results".to_string(),
            full: false,
            smoke: false,
        }
    }
}

impl HarnessConfig {
    /// Apply paper-scale settings.
    pub fn at_full_scale(mut self) -> Self {
        self.threads = 1 << 20;
        self.runs = 50;
        self.heap_bytes = 2 << 30;
        self.full = true;
        self
    }

    /// Install the oversubscribed executor pool. Call once at startup.
    pub fn install_pool(&self) {
        gpu_sim::launch::set_pool_threads(self.pool_threads);
    }

    /// Device configuration for launches.
    pub fn device(&self) -> gpu_sim::DeviceConfig {
        gpu_sim::DeviceConfig::with_sms(self.num_sms)
    }
}
