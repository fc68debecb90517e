//! Workload generators for the graph benchmarks.
//!
//! The paper's graph tests (§6.12) run on real social-network-style
//! graphs; their defining properties are (a) streams of edge updates and
//! (b) heavy degree skew — "the average user vertex has less than 35
//! edges, while the most connected user has over 2.9 million". No graph
//! downloads are available here, so these generators synthesize streams
//! with controlled versions of exactly those properties (see DESIGN.md §1
//! for the substitution argument).
//!
//! Every stream is a function of its arguments: one [`SplitMix64`] seeded
//! with `seed`, two draws per edge (source, then destination). A Zipf
//! source is an inverse-CDF lookup; the table behind it is built once per
//! distinct `(n, α)` and kept in a one-entry memo, so a caller that
//! generates many batches of one shape pays for one table; a draw counts a
//! fixed window of the CDF, or binary-searches a bucket wider than that.

use gpu_sim::SplitMix64;
use std::sync::{Arc, Mutex, PoisonError};

/// A batch of edge updates `(src, dst)`.
pub type EdgeBatch = Vec<(u32, u64)>;

/// Uniform stream: every edge picks its source uniformly. Models the
/// benchmark's synthetic update batches.
pub fn uniform_edges(num_vertices: u32, num_edges: usize, seed: u64) -> EdgeBatch {
    assert!(num_vertices > 0);
    let mut rng = SplitMix64::new(seed);
    (0..num_edges).map(|_| (rng.below(num_vertices.into()) as u32, rng.next_u64() >> 16)).collect()
}

/// Entries a draw compares when its table's every bucket fits them.
const WINDOW: usize = 8;

/// The inverse CDF of Zipf(α) over `0..n`, with a guide table that
/// narrows each lookup to one bucket.
struct Zipf {
    key: (u32, u64),
    /// `cdf[k]`: the normalized weight of `0..=k`; 1 at `n − 1` and past it (the padding).
    cdf: Vec<f64>,
    /// `B = n.next_power_of_two()` buckets plus an end mark: `guide[b]`
    /// is the first index with `cdf[i] ≥ b/B`, and `guide[B] = n`.
    guide: Vec<u32>,
    /// Whether no bucket holds more than [`WINDOW`] entries.
    windowed: bool,
}

impl Zipf {
    fn new(n: u32, alpha: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n as usize + WINDOW);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let buckets = (n as u64).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets as usize + 1);
        let mut i = 0;
        for b in 0..buckets {
            let floor = b as f64 / buckets as f64;
            while i < cdf.len() && cdf[i] < floor {
                i += 1;
            }
            guide.push(i as u32);
        }
        guide.push(n);
        cdf.resize(n as usize + WINDOW, 1.0);
        let windowed = guide.windows(2).all(|w| (w[1] - w[0]) as usize <= WINDOW);
        Zipf { key: (n, alpha.to_bits()), cdf, guide, windowed }
    }

    /// The first index with `cdf[i] ≥ u`: the full search's answer, found
    /// in `u`'s bucket. `B` is a power of two, so `u·B` and `b/B` are
    /// exact and the bucket's bounds bracket the answer, which a window no
    /// bucket outgrows counts: every later entry, padding too, exceeds `u`.
    fn index(&self, u: f64) -> u32 {
        let b = (u * (self.guide.len() - 1) as f64) as usize;
        let lo = self.guide[b] as usize;
        if self.windowed {
            return (lo + self.cdf[lo..lo + WINDOW].iter().filter(|&&c| c < u).count()) as u32;
        }
        (lo + self.cdf[lo..=self.guide[b + 1] as usize].partition_point(|&c| c < u)) as u32
    }

    /// The table for `(n, α)`, from the memo when the last call asked for
    /// the same pair.
    fn shared(n: u32, alpha: f64) -> Arc<Zipf> {
        static MEMO: Mutex<Option<Arc<Zipf>>> = Mutex::new(None);
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        match &*memo {
            Some(z) if z.key == (n, alpha.to_bits()) => z.clone(),
            _ => memo.insert(Arc::new(Zipf::new(n, alpha))).clone(),
        }
    }
}

/// Skewed ("Twitter-like") stream: sources are drawn Zipf(α), so a few
/// hub vertices accumulate most edges while the median vertex stays
/// small. `alpha ≈ 1.0` reproduces social-graph-like skew.
pub fn zipf_edges(num_vertices: u32, num_edges: usize, alpha: f64, seed: u64) -> EdgeBatch {
    let zipf = Zipf::shared(num_vertices, alpha);
    let mut rng = SplitMix64::new(seed);
    (0..num_edges).map(|_| (zipf.index(rng.unit_f64()), rng.next_u64() >> 16)).collect()
}

/// The expansion schedule (§6.12's expansion tests): a sequence of
/// rounds, each inserting `edges_per_round` additional edges, with
/// sources Zipf-skewed so hub edge lists repeatedly double and
/// eventually outgrow chunk-limited allocators' native size. Returns one
/// batch per round.
pub fn expansion_rounds(
    num_vertices: u32,
    rounds: usize,
    edges_per_round: usize,
    alpha: f64,
    seed: u64,
) -> Vec<EdgeBatch> {
    (0..rounds)
        .map(|r| zipf_edges(num_vertices, edges_per_round, alpha, seed.wrapping_add(r as u64)))
        .collect()
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The normalized Zipf CDF, summed in the generator's order.
    fn reference_cdf(n: u32, alpha: f64) -> Vec<f64> {
        let sums: Vec<f64> = (1..=n)
            .scan(0.0, |acc, k| {
                *acc += 1.0 / (k as f64).powf(alpha);
                Some(*acc)
            })
            .collect();
        sums.iter().map(|s| s / sums[sums.len() - 1]).collect()
    }

    /// `zipf_edges` without a guide table or a memo: a full-CDF search for
    /// every draw of a `SplitMix64` stream.
    fn reference_zipf(n: u32, edges: usize, alpha: f64, seed: u64) -> EdgeBatch {
        let cdf = reference_cdf(n, alpha);
        let mut rng = SplitMix64::new(seed);
        let mut next = || rng.next_u64();
        (0..edges)
            .map(|_| {
                let u = (next() >> 11) as f64 * 2f64.powi(-53);
                (cdf.partition_point(|&c| c < u) as u32, next() >> 16)
            })
            .collect()
    }

    /// FNV-1a over each edge's little-endian `src` then `dst` bytes.
    fn fnv1a(edges: &[(u32, u64)]) -> u64 {
        let bytes =
            edges.iter().flat_map(|&(s, d)| s.to_le_bytes().into_iter().chain(d.to_le_bytes()));
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn guide_table_draws_match_the_full_search() {
        // 1.4 M Zipf draws over one-vertex, tiny, head-heavy, flat and
        // benchmark-sized tables, windowed or (the last) not.
        let shapes = [
            (1, 0.8),
            (3, 2.5),
            (50, 1.0),
            (1000, 0.0),
            (1 << 15, 0.8),
            (100_000, 0.5),
            (1 << 15, 2.0),
        ];
        for (i, &(n, alpha)) in shapes.iter().enumerate() {
            assert_eq!(Zipf::new(n, alpha).windowed, i + 1 < shapes.len(), "({n}, α = {alpha})");
            let seed = 0x5EED + i as u64;
            assert!(
                zipf_edges(n, 200_000, alpha, seed) == reference_zipf(n, 200_000, alpha, seed),
                "zipf_edges({n}, α = {alpha}) left the full-search stream"
            );
        }
        let rounds = expansion_rounds(512, 4, 10_000, 1.0, 17);
        for (r, batch) in rounds.iter().enumerate() {
            assert_eq!(*batch, reference_zipf(512, 10_000, 1.0, 17 + r as u64), "round {r}");
        }
        let mut rng = SplitMix64::new(5);
        let expect: EdgeBatch = (0..100_000)
            .map(|_| (((rng.next_u64() as u128 * 300) >> 64) as u32, rng.next_u64() >> 16))
            .collect();
        assert_eq!(uniform_edges(300, 100_000, 5), expect);
    }

    #[test]
    fn draws_on_bucket_and_cdf_boundaries_match_the_full_search() {
        // (112, 1.2)'s widest bucket fills the window and (123, 1.2)'s is
        // one wider, neither the last: a draw just below its end needs all
        // of it.
        let shapes = [
            (1, 0.8),
            (2, 1.0),
            (3, 2.5),
            (5, 0.0),
            (7, 0.8),
            (12, 1.3),
            (33, 0.5),
            (112, 1.2),
            (123, 1.2),
        ];
        let mut seen = Vec::new();
        for (n, alpha) in shapes {
            let zipf = Zipf::new(n, alpha);
            let cdf = reference_cdf(n, alpha);
            let (table, padding) = zipf.cdf.split_at(n as usize);
            assert!(table == cdf, "n = {n}, α = {alpha}: table differs from the reference");
            assert_eq!(padding, [1.0; WINDOW]);
            let buckets = zipf.guide.len() - 1;
            assert_eq!(buckets, n.next_power_of_two() as usize);
            let widest = zipf.guide.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap();
            seen.push((widest, zipf.windowed));
            let floors = (0..=buckets).map(|b| b as f64 / buckets as f64);
            let ends = floors.chain(cdf.iter().copied()).flat_map(|c| [c, c.next_down()]);
            for u in ends.filter(|u| (0.0..1.0).contains(u)) {
                let full = cdf.partition_point(|&c| c < u) as u32;
                assert_eq!(zipf.index(u), full, "n = {n}, α = {alpha}, u = {u:e}");
            }
        }
        assert!(seen.contains(&(WINDOW, true)) && seen.contains(&(WINDOW + 1, false)), "{seen:?}");
    }

    #[test]
    fn streams_match_their_recorded_digests() {
        // `graph-churn`'s first and last batch at seed 20240302, and the
        // uniform stream of `tests/graph_pipeline.rs`: a moved stream
        // moves every figure measured on it.
        let churn = |j: u64| zipf_edges(1 << 15, 16_384, 0.8, 20_240_302 * 64 + j);
        assert_eq!(fnv1a(&churn(0)), 0x2fc1_40af_9f08_86c0);
        assert_eq!(fnv1a(&churn(63)), 0x8709_491a_2a48_1691);
        assert_eq!(fnv1a(&uniform_edges(256, 20_000, 99)), 0x600b_7b4d_72a5_0d92);
        assert_eq!(
            fnv1a(&expansion_rounds(1000, 5, 2_000, 0.9, 42).concat()),
            0x453c_4696_5624_5118
        );
    }

    #[test]
    fn uniform_covers_vertex_range() {
        let edges = uniform_edges(100, 10_000, 7);
        assert_eq!(edges.len(), 10_000);
        assert!(edges.iter().all(|&(s, _)| s < 100));
        let distinct: std::collections::HashSet<u32> = edges.iter().map(|&(s, _)| s).collect();
        assert!(distinct.len() > 90, "uniform stream should touch most vertices");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(uniform_edges(50, 100, 3), uniform_edges(50, 100, 3));
        assert_ne!(uniform_edges(50, 100, 3), uniform_edges(50, 100, 4));
        assert_eq!(zipf_edges(50, 100, 1.0, 3), zipf_edges(50, 100, 1.0, 3));
    }

    #[test]
    fn zipf_concentrates_on_hubs() {
        let edges = zipf_edges(10_000, 100_000, 1.0, 11);
        let mut deg: HashMap<u32, u64> = HashMap::new();
        for &(s, _) in &edges {
            *deg.entry(s).or_default() += 1;
        }
        let max = *deg.values().max().unwrap();
        let mean = edges.len() as f64 / 10_000.0;
        // The hub must be orders of magnitude above the mean, as in the
        // Twitter graph the paper cites.
        assert!(max as f64 > 100.0 * mean, "max {max} vs mean {mean}");
        // And vertex 0 (highest Zipf weight) should be the hub.
        let hub = deg.iter().max_by_key(|&(_, &d)| d).map(|(&v, _)| v).unwrap();
        assert!(hub < 5, "hub should be one of the head vertices, got {hub}");
    }

    #[test]
    fn expansion_rounds_have_requested_shape() {
        let rounds = expansion_rounds(1000, 5, 2_000, 0.9, 42);
        assert_eq!(rounds.len(), 5);
        assert!(rounds.iter().all(|b| b.len() == 2_000));
        // Distinct rounds differ (different derived seeds).
        assert_ne!(rounds[0], rounds[1]);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let edges = zipf_edges(1000, 50_000, 0.0, 5);
        let mut deg = vec![0u32; 1000];
        for &(s, _) in &edges {
            deg[s as usize] += 1;
        }
        let max = *deg.iter().max().unwrap() as f64;
        let mean = 50.0;
        assert!(max < 3.0 * mean, "α=0 should be near uniform (max {max})");
    }
}
