//! The perf suite: what `repro perf` actually measures.
//!
//! Five groups of cells, chosen so the wall-clock trajectory covers
//! every layer the speed campaign touches (E21):
//!
//! 1. **Allocator churn** — the E16 churn workload (`churn_sweep`) at
//!    the slice (16 B) and block (1 KiB) sizes, with wide vEB scans on
//!    and off. The on/off pair is the standing A/B for the
//!    word-parallel-scan optimization, owned by this lane alone: counts
//!    must be *identical* (asserted here — the scan only changes loads),
//!    only ms may move.
//! 2. **Pool churn** — the E18 2-instance aggregate (same cell the
//!    count gate pins), timing the sharded path.
//! 3. **Elastic maintenance** — the E22 maintenance cycle via
//!    [`crate::experiments::elastic::perf_record`]: fragment, compact,
//!    donate, shrink, re-adopt on a 2-instance pool. Times the host-side
//!    elasticity path (segment migration + payload copies); the
//!    relocation/donation counts are exact functions of the fixed layout.
//! 4. **Serving** — the E20 smoke subset via
//!    [`crate::experiments::serve::perf_records`], timing the open-loop
//!    engine end to end.
//! 5. **vEB successor microbench** — a dedicated wide-vs-narrow
//!    successor storm on a 2^22 universe. The allocator geometries
//!    above have single-word trees (16–32 segments) where the wide path
//!    cannot fire; this cell isolates the scan kernel itself, with the
//!    narrow row as its permanent control. It is a *guardrail*, not a
//!    victory lap: single-threaded with accurate summaries is the wide
//!    path's worst case (the climb is two hot loads), and the pair of
//!    rows pins that cost in the trend while the churn cells above show
//!    the win under concurrent summary churn.
//!
//! Every cell is deterministic (fixed seeds, deterministic scheduler),
//! so counts must agree bit-for-bit across the run's repeated samples —
//! [`sampled_records`] asserts that and reports per-record median ms.

use crate::experiments::ablation::{churn_counts, gallatin_sweep};
use crate::experiments::{elastic, pool, serve, topo};
use crate::report::BenchRecord;
use gallatin::SearchStructure;
use std::time::Instant;
use veb::VebTree;

/// Default schedule seeds for the churn cells (the bench-smoke prefix);
/// override with `repro perf --seeds`.
pub const DEFAULT_SEEDS: std::ops::Range<u64> = 0..8;

/// Universe of the vEB microbench: 64 Ki leaf words (512 KiB of leaf
/// bitmap, 4 levels) — large enough that the summary hierarchy no
/// longer lives in L1, so a narrow climb pays two dependent cache
/// misses per query where the wide path's forward loads stay on one or
/// two prefetched lines.
const VEB_UNIVERSE: u64 = 1 << 22;
/// Member stride: ~32 Ki members, average gap ~2 leaf words, so wide
/// scans usually hit within the near window.
const VEB_STEP: usize = 131;
/// Successor queries per measurement.
const VEB_ROUNDS: u64 = 300_000;

/// One churn cell: the E16 workload over `seeds`, wide scans on/off.
/// The param keeps the name of the config field it once mirrored, so
/// every `series_key` in `results/history/` still matches.
fn churn_cell(size: u64, wide: bool, seeds: &[u64]) -> BenchRecord {
    let search = if wide { SearchStructure::VebWide } else { SearchStructure::Veb };
    let (m, ms) = gallatin_sweep(seeds.iter().copied(), size, |cfg| cfg.search = search);
    let rec = BenchRecord::new("perf", "Gallatin")
        .case("churn")
        .param("size", size)
        .param("wide_veb_scans", if wide { "on" } else { "off" })
        .param("seeds", seed_label(seeds))
        .ms(ms);
    churn_counts(rec, &m)
}

/// Stable label for a seed list (part of the series key).
pub fn seed_label(seeds: &[u64]) -> String {
    let contiguous = seeds.windows(2).all(|w| w[1] == w[0] + 1);
    match (seeds.first(), seeds.last()) {
        (Some(&a), Some(&b)) if contiguous => format!("{a}..{}", b + 1),
        _ => seeds.iter().map(u64::to_string).collect::<Vec<_>>().join("+"),
    }
}

/// One vEB successor-storm measurement. Returns `(checksum, members,
/// ms)`; the checksum folds every query result, so wide and narrow runs
/// returning it equal is a full behavioral parity check.
fn veb_storm(wide: bool) -> (u64, u64, f64) {
    let t = if wide { VebTree::new_wide(VEB_UNIVERSE) } else { VebTree::new(VEB_UNIVERSE) };
    for i in (0..VEB_UNIVERSE).step_by(VEB_STEP) {
        t.insert(i);
    }
    let members = t.count();
    let mut checksum = 0u64;
    let mut x = 0u64;
    let t0 = Instant::now();
    for round in 0..VEB_ROUNDS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(round | 1) % VEB_UNIVERSE;
        if let Some(v) = t.find_first_from(x) {
            checksum = checksum.wrapping_mul(31).wrapping_add(v);
        }
    }
    (checksum, members, t0.elapsed().as_secs_f64() * 1e3)
}

fn veb_cell(wide: bool) -> BenchRecord {
    let (checksum, members, ms) = veb_storm(wide);
    BenchRecord::new("perf", "VebTree")
        .case("veb-succ")
        .param("universe", VEB_UNIVERSE)
        .param("rounds", VEB_ROUNDS)
        .param("wide_veb_scans", if wide { "on" } else { "off" })
        .ms(ms)
        .count("checksum", checksum)
        .count("members", members)
}

/// One full pass over the suite. Returns the records plus the serving
/// clean flag (quota/ledger audit — a dirty serve run must not be
/// silently recorded as a timing).
fn collect_once(seeds: &[u64]) -> (Vec<BenchRecord>, bool) {
    let mut records = Vec::new();
    for size in [16u64, 1024] {
        for wide in [true, false] {
            records.push(churn_cell(size, wide, seeds));
        }
    }
    // Wide scans change loads only: the A/B pair must agree on counts.
    for pair in records.chunks(2) {
        assert_eq!(
            pair[0].counts, pair[1].counts,
            "wide vEB scans must not change atomic-op counts"
        );
    }
    records.push(pool::smoke_record("perf"));
    records.push(elastic::perf_record());
    records.push(topo::perf_record());
    let (serve_recs, clean) = serve::perf_records();
    records.extend(serve_recs);
    let wide = veb_cell(true);
    let narrow = veb_cell(false);
    assert_eq!(wide.counts, narrow.counts, "wide and narrow successor storms must agree");
    records.push(wide);
    records.push(narrow);
    (records, clean)
}

/// Run the suite `samples` times, check counts agree bit-for-bit across
/// samples, and return one record per cell with the median ms.
pub fn sampled_records(samples: usize, seeds: &[u64]) -> Result<Vec<BenchRecord>, String> {
    let samples = samples.max(1);
    let mut passes: Vec<Vec<BenchRecord>> = Vec::with_capacity(samples);
    for s in 0..samples {
        let t0 = Instant::now();
        let (records, clean) = collect_once(seeds);
        if !clean {
            return Err(format!("sample {s}: serving cells reported quota/ledger anomalies"));
        }
        println!(
            "# perf sample {}/{samples}: {} records in {:.1}s",
            s + 1,
            records.len(),
            t0.elapsed().as_secs_f64()
        );
        passes.push(records);
    }
    let mut out = Vec::with_capacity(passes[0].len());
    for i in 0..passes[0].len() {
        let first = &passes[0][i];
        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for p in &passes {
            let r = &p[i];
            if r.key() != first.key() || r.experiment != first.experiment {
                return Err(format!("sample records diverged: {} vs {}", r.key(), first.key()));
            }
            if r.counts != first.counts {
                return Err(format!(
                    "counts diverged across samples for {} — the suite must be deterministic",
                    first.key()
                ));
            }
            times.push(r.median_ms);
        }
        let median_ms = if times.iter().all(|t| t.is_finite()) {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            times[times.len() / 2]
        } else {
            f64::NAN
        };
        out.push(first.clone().ms(median_ms));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_labels_are_stable() {
        assert_eq!(seed_label(&[0, 1, 2, 3]), "0..4");
        assert_eq!(seed_label(&[5]), "5..6");
        assert_eq!(seed_label(&[2, 5, 9]), "2+5+9");
        assert_eq!(seed_label(&[]), "");
    }

    #[test]
    fn veb_storm_is_deterministic_and_parity_checked() {
        let (c1, m1, _) = veb_storm(true);
        let (c2, m2, _) = veb_storm(false);
        assert_eq!(c1, c2, "wide and narrow storms must return identical successors");
        assert_eq!(m1, m2);
        let (c3, _, _) = veb_storm(true);
        assert_eq!(c1, c3, "storm must be deterministic");
    }
}
