//! The host pass: a closed loop of units driven from one thread on one
//! CPU, cut into equal *rounds* (the statistics are taken per round and
//! the quietest round reported), the rounds grouped into [`SEGMENTS`]
//! segments with a calibration tick before each, every unit timed and
//! watched by the [`Watchdog`].

use crate::host::{calibration_tick_ms, Watchdog, CALIB_SHORT_ITERS};
use crate::stats::{
    equal_cuts, fastest_round_goodput, percentile, quietest, segment_median_goodput, Segment,
};
use std::time::Instant;

/// Segments a host pass is cut into: a calibration tick runs before each
/// and after the last.
pub const SEGMENTS: usize = 12;

/// A segment holds at most this many rounds (48 rounds of ≈0.3 s in a
/// full-length pass: short enough to fit between two disturbances of a
/// shared machine, long enough that a round's p90 means something).
pub const MAX_ROUNDS_PER_SEGMENT: usize = 4;

/// A round holds at least this many units where the pass is long enough,
/// so that a dozen samples lie beyond its p90.
pub const MIN_ROUND_UNITS: usize = 120;

/// Rounds a pass of `units` units is cut into: a multiple of
/// [`SEGMENTS`], as many as [`MIN_ROUND_UNITS`] allows, at most
/// `SEGMENTS × MAX_ROUNDS_PER_SEGMENT`.
pub fn rounds_for(units: usize) -> usize {
    SEGMENTS * (units / (SEGMENTS * MIN_ROUND_UNITS)).clamp(1, MAX_ROUNDS_PER_SEGMENT)
}

/// A calibration tick slower than this multiple of the run's fastest
/// marks its neighbouring segments as disturbed.
pub const DISTURBED_RATIO: f64 = 1.10;

/// Everything a host pass measured.
#[derive(Clone, Debug, Default)]
pub struct HostPass {
    /// Duration of each unit, nanoseconds.
    pub unit_ns: Vec<u64>,
    /// Ops and time of each round.
    pub rounds: Vec<Segment>,
    /// Index into `unit_ns` one past each round's last unit.
    pub round_ends: Vec<usize>,
    /// Calibration ticks: one before each segment and one after the last.
    pub ticks_ms: Vec<f64>,
}

impl HostPass {
    /// Verified ops per second in the fastest round.
    pub fn goodput_ops_s(&self) -> f64 {
        fastest_round_goodput(&self.rounds)
    }

    /// Verified ops per second as the median of the round rates: what
    /// the whole pass, disturbances included, ran at. Logged beside
    /// [`Self::goodput_ops_s`]; the distance between the two says how
    /// disturbed the run was.
    pub fn median_goodput_ops_s(&self) -> f64 {
        segment_median_goodput(&self.rounds)
    }

    /// Nearest-rank percentile of the unit durations taken inside each
    /// round, the quietest round's reported, microseconds. A slow
    /// episode of the machine that covers a quarter of a run puts all of
    /// its units beyond the run-wide p90; it cannot touch the rounds that
    /// ran before and after it.
    pub fn unit_us(&self, q: f64) -> f64 {
        quietest(self.round_unit_us(q))
    }

    /// Nearest-rank percentile of the unit durations of each round,
    /// microseconds.
    pub fn round_unit_us(&self, q: f64) -> Vec<f64> {
        let mut start = 0;
        self.round_ends
            .iter()
            .map(|&end| {
                let p = percentile(&self.unit_ns[start..end], q) as f64 / 1e3;
                start = end;
                p
            })
            .collect()
    }

    /// Ops the pass completed.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|s| s.ops).sum()
    }

    /// Host time inside units, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.unit_ns.iter().sum()
    }

    /// Segments with a neighbouring tick above [`DISTURBED_RATIO`] × the
    /// run's fastest tick.
    pub fn disturbed_segments(&self) -> u64 {
        let fastest = self.ticks_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let slow = |i: usize| self.ticks_ms.get(i).is_some_and(|&t| t > DISTURBED_RATIO * fastest);
        let segments = self.ticks_ms.len().saturating_sub(1);
        (0..segments).filter(|&i| slow(i) || slow(i + 1)).count() as u64
    }

    /// Close a round that ran units `self.round_ends.last()..` of
    /// `unit_ns` and completed `ops` ops.
    pub fn end_round(&mut self, ops: u64) {
        let start = self.round_ends.last().copied().unwrap_or(0);
        self.rounds.push(Segment { ops, ns: self.unit_ns[start..].iter().sum() });
        self.round_ends.push(self.unit_ns.len());
    }
}

/// Run `units` units: `unit(u)` performs unit `u` and returns the ops it
/// completed. Fixed unit counts, never fixed wall time, so two commits
/// do identical work.
pub fn run_units(dog: &Watchdog, units: usize, mut unit: impl FnMut(usize) -> u64) -> HostPass {
    let mut pass = HostPass { unit_ns: Vec::with_capacity(units), ..Default::default() };
    let rounds = rounds_for(units);
    let mut u = 0;
    for (round, end) in equal_cuts(units, rounds).into_iter().enumerate() {
        if round % (rounds / SEGMENTS) == 0 {
            pass.ticks_ms.push(calibration_tick_ms(CALIB_SHORT_ITERS));
        }
        let mut ops = 0;
        let mut last = Instant::now();
        while u < end {
            dog.arm(u as u64);
            ops += unit(u);
            let now = Instant::now();
            pass.unit_ns.push((now - last).as_nanos() as u64);
            last = now;
            u += 1;
        }
        dog.disarm();
        pass.end_round(ops);
    }
    pass.ticks_ms.push(calibration_tick_ms(CALIB_SHORT_ITERS));
    pass
}
