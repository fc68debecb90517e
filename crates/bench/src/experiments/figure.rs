//! The grid every roster figure of E2–E11 is laid out on: one row per x
//! (a size, an upper bound, a thread count), one column per roster
//! allocator, one n/a rule and one cell vocabulary. A driver runs one
//! [`Sweep`] per figure family and lays out every table of the family
//! from its cells, so E8's variance and E10's span read E2/E4's own runs.

use crate::report::{fmt_ms, Table};
use crate::roster::{build_by_name, roster_names};
use crate::workload::{median, Measurement, SizeSpec};
use crate::HarnessConfig;
use gpu_sim::DeviceAllocator;

// The cell vocabulary: a cell the allocator cannot run, a measurement
// that failed outright, the suffix of a cell that hit its wall-clock
// budget, and the markers of a timing cell in which some requests
// returned null or payload validation found corruption.
pub const NA: &str = "n/a";
pub const FAIL: &str = "fail";
pub const TIMED_OUT: &str = "t/o";
pub const SOME_FAILED: &str = "*";
pub const CORRUPT: &str = "!";

/// Sizes of E10's fragmentation rows (Fig 6a sizes, Fig 6b upper bounds).
pub const FRAG_SIZES: [u64; 5] = [16, 64, 256, 1024, 4096];

/// A run's milliseconds in one kernel, run by run.
pub type Kernel = fn(&Measurement) -> Vec<f64>;

/// The two timed kernels of a run, by name.
pub const KERNELS: [(&str, Kernel); 2] =
    [("alloc", Measurement::alloc_ms), ("free", Measurement::free_ms)];

/// One sweep's cells: `cells[allocator][x]`, `None` where n/a.
pub struct Sweep<T> {
    xs: Vec<u64>,
    cells: Vec<Vec<Option<T>>>,
}

impl<T> Sweep<T> {
    /// Run `cell(allocator, x)` over the roster at every x whose
    /// `demand(x) = (largest request, threads)` the allocator supports and
    /// its heap holds. Each allocator is built, swept and dropped
    /// (unmapping its arena) before the next: 12 resident heaps would
    /// exceed small hosts' RAM once their pages are touched.
    pub fn run(
        cfg: &HarnessConfig,
        xs: &[u64],
        demand: impl Fn(u64) -> (u64, u64),
        mut cell: impl FnMut(&dyn DeviceAllocator, u64) -> T,
    ) -> Self {
        let mut cells = Vec::new();
        for name in roster_names() {
            let a = build_by_name(name, cfg.heap_bytes, cfg.num_sms).expect("a roster name");
            let fits = |(size, threads)| a.supports_size(size) && a.heap_bytes() >= threads * size;
            cells.push(xs.iter().map(|&x| fits(demand(x)).then(|| cell(a.as_ref(), x))).collect());
        }
        Sweep { xs: xs.to_vec(), cells }
    }

    /// The cell of roster allocator `ai` at `x`.
    pub fn get(&self, x: u64, ai: usize) -> Option<&T> {
        self.cells[ai][self.xs.iter().position(|&v| v == x).expect("x is on the sweep")].as_ref()
    }

    /// Row `x`'s cells, one per roster allocator: `fmt(x, cell)`, or n/a.
    pub fn row(&self, x: u64, fmt: impl Fn(u64, &T) -> String) -> Vec<String> {
        (0..self.cells.len()).map(|ai| self.get(x, ai).map_or(NA.into(), |c| fmt(x, c))).collect()
    }

    /// Print and write `<file>.csv`: a header of `x_label` then the roster
    /// names, one row per x of `rows`.
    pub fn emit(
        &self,
        cfg: &HarnessConfig,
        x_label: &str,
        title: String,
        file: &str,
        rows: &[u64],
        fmt: impl Fn(u64, &T) -> String,
    ) {
        let mut tab = table(title, &[x_label]);
        for &x in rows {
            tab.row([vec![x.to_string()], self.row(x, &fmt)].concat());
        }
        tab.emit(&cfg.out_dir, file);
    }
}

impl Sweep<Measurement> {
    /// Emit the alloc and free figures of every x, each cell the median
    /// with its marker; `fig(i, kernel)` is the `i`th figure's title and
    /// file.
    pub fn emit_timed(
        &self,
        cfg: &HarnessConfig,
        x_label: &str,
        fig: impl Fn(usize, &str) -> (String, String),
    ) {
        for (i, (kernel, ms)) in KERNELS.into_iter().enumerate() {
            let (title, file) = fig(i, kernel);
            self.emit(cfg, x_label, title, &file, &self.xs, |_, m| timed(m, median(&ms(m))));
        }
        println!("({SOME_FAILED} = some requests failed; {CORRUPT} = payload corruption detected)");
    }
}

/// A table headed by `labels` then every roster name.
pub fn table(title: String, labels: &[&str]) -> Table {
    Table::new(title, &[labels, &roster_names()].concat())
}

/// `ms` with the cell's marker: `!` on corruption, else `*` on failures.
fn timed(m: &Measurement, ms: f64) -> String {
    let any = |field: fn(&_) -> u64| m.runs.iter().any(|r| field(r) > 0);
    let marker = match (any(|r| r.corrupt), any(|r| r.failed)) {
        (true, _) => CORRUPT,
        (_, true) => SOME_FAILED,
        _ => "",
    };
    format!("{}{marker}", fmt_ms(ms))
}

/// E10's cell: the first run's address span over the ideal (tightly
/// packed) footprint of `threads` requests, or `fail` if that run failed
/// a request or handed out nothing.
pub fn span(m: &Measurement, sizes: SizeSpec, threads: u64) -> String {
    let ideal: u64 = (0..threads).map(|t| sizes.size_for(t)).sum();
    match m.runs.first() {
        Some(r) if r.failed == 0 && r.max_addr > r.min_addr => {
            format!("{:.2}", (r.max_addr - r.min_addr) as f64 / ideal as f64)
        }
        _ => FAIL.into(),
    }
}
