//! The benchmark's arithmetic: nearest-rank percentiles, medians, the
//! fastest-round and round-median goodput and the quartile spread the
//! acceptance check uses. Everything here is a pure function, tested in `tests/`.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `q` of the samples at or below it. `q` is in
/// `(0, 1]`; an empty slice yields 0.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank percentile of unsorted samples (sorts a copy).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, q)
}

/// Median of floats: the middle value, or the mean of the two middle
/// values for an even count. Empty input yields 0.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed segment of a host pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Segment {
    /// Verified ops completed inside the segment.
    pub ops: u64,
    /// Host time the segment took, nanoseconds.
    pub ns: u64,
}

/// Goodput in ops per second as the **median of the per-segment rates**
/// (segments or rounds: any equal cuts of a pass). With equal-op segments
/// this is ops-per-segment ÷ the median segment time, so one slow episode
/// of a shared machine (which lengthens a minority of segments) cannot
/// move it, where total-ops ÷ total-time would absorb the whole episode.
/// It is what a whole pass ran at; [`fastest_round_goodput`] is what the
/// benchmark reports.
pub fn segment_median_goodput(segments: &[Segment]) -> f64 {
    let rates: Vec<f64> =
        segments.iter().filter(|s| s.ns > 0).map(|s| s.ops as f64 * 1e9 / s.ns as f64).collect();
    median_f64(&rates)
}

/// Goodput in ops per second of the **fastest round**: the highest of
/// the per-round rates. Rounds do the same work, and a pass runs on one
/// CPU, where the rest of a shared machine can only ever slow a round
/// down; so the fastest round is the program at the machine's own speed,
/// however much of the run was disturbed, while a change to the program
/// moves every round, the fastest too. (The median of the rates, above,
/// follows the machine as soon as half the run is disturbed.)
pub fn fastest_round_goodput(rounds: &[Segment]) -> f64 {
    rounds.iter().filter(|s| s.ns > 0).map(|s| s.ops as f64 * 1e9 / s.ns as f64).fold(0.0, f64::max)
}

/// The smallest of `values`, 0 for none: a duration statistic taken in
/// each round, reported for the quietest round (see
/// [`fastest_round_goodput`]).
pub fn quietest(values: impl IntoIterator<Item = f64>) -> f64 {
    let least = values.into_iter().fold(f64::INFINITY, f64::min);
    if least.is_finite() {
        least
    } else {
        0.0
    }
}

/// Cut `units` unit indices into `parts` contiguous ranges whose sizes
/// differ by at most one; returns the exclusive end index of each part.
pub fn equal_cuts(units: usize, parts: usize) -> Vec<usize> {
    (1..=parts).map(|k| units * k / parts).collect()
}

/// Distance between the first and third quartile as a share of the
/// median, with the "exclusive" quartile method of Python's
/// `statistics.quantiles(values, n=4)` — the spread the acceptance
/// check computes over repeated runs. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Exclusive method, as CPython writes it: divmod(k(n+1), 4)
        // gives the 1-based index and the interpolation weight; the
        // index is clamped to the data and the weight kept.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos % 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median_f64(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quantile(3) - quantile(1)) / med).abs()
}

/// A log-bucketed histogram of nanosecond durations: 8 sub-buckets per
/// octave, so a reported percentile is within ~6% of the true value.
/// Constant memory however many spans a traced run records.
#[derive(Clone, Debug)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

const SUB: u32 = 3; // log2 of sub-buckets per octave

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: vec![0; (64 << SUB) as usize], count: 0, sum: 0 }
    }
}

impl Hist {
    fn bucket_of(v: u64) -> usize {
        if v < (1 << SUB) {
            return v as usize;
        }
        let top = 63 - v.leading_zeros();
        let sub = (v >> (top - SUB)) & ((1 << SUB) - 1);
        (((top - SUB + 1) << SUB) as u64 + sub) as usize
    }

    /// Lower edge of bucket `b` (the value reported for a percentile).
    fn floor_of(b: usize) -> u64 {
        let b = b as u64;
        if b < (1 << SUB) {
            return b;
        }
        let octave = (b >> SUB) - 1;
        ((1 << SUB) | (b & ((1 << SUB) - 1))) << octave
    }

    /// Record one duration.
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank percentile, reported as its bucket's lower edge.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor_of(b);
            }
        }
        Self::floor_of(self.buckets.len() - 1)
    }
}
