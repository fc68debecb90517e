//! One driver per paper experiment (see DESIGN.md §5, E1–E13).

pub mod ablation;
pub mod elastic;
pub mod figure;
pub mod graph_bench;
pub mod init_bench;
pub mod mixed;
pub mod pool;
pub mod reclaim;
pub mod replay;
pub mod scaling;
pub mod serve;
pub mod single;
pub mod summary;
pub mod topo;
pub mod utilization;

/// Schedule seed of the replayable experiments (E17/E19 replay, E20
/// serve) when `GALLATIN_SCHED_SEED` is unset — one value, so the
/// capture, its replay and the serving sweep describe the same schedule.
pub(crate) const DEFAULT_SEED: u64 = 7;

pub use ablation::{run_ablation, run_bench_smoke};
pub use elastic::run_elastic;
pub use graph_bench::{run_graph, run_graph_expansion};
pub use init_bench::run_init;
pub use mixed::run_mixed;
pub use pool::run_pool;
pub use reclaim::run_reclaim;
pub use replay::run_replay;
pub use scaling::run_scaling;
pub use serve::run_serve;
pub use single::run_single;
pub use summary::run_summary;
pub use topo::run_topo;
pub use utilization::run_utilization;
