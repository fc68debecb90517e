//! Tests of the benchmark's own arithmetic: a wrong percentile or a
//! wrong self-time would silently skew every number a later change is
//! judged by.

use gallatin_benchmark::cli::{self, result_line};
use gallatin_benchmark::host::Watchdog;
use gallatin_benchmark::json::{self, Value};
use gallatin_benchmark::metrics::{Values, END_TO_END, PER_LAYER};
use gallatin_benchmark::pass::{rounds_for, HostPass, MIN_ROUND_UNITS, SEGMENTS};
use gallatin_benchmark::span::{covered_ns, self_ns};
use gallatin_benchmark::stats::{
    equal_cuts, fastest_round_goodput, median_f64, percentile, percentile_sorted, quartile_spread,
    quietest, segment_median_goodput, Hist, Segment,
};
use gallatin_benchmark::workloads::{kernels, Ctx, WORKLOADS};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile_sorted(&v, 0.50), 5); // ceil(0.5 * 10) = 5th
    assert_eq!(percentile_sorted(&v, 0.90), 9);
    assert_eq!(percentile_sorted(&v, 0.91), 10); // ceil(9.1) = 10th
    assert_eq!(percentile_sorted(&v, 1.00), 10);
    assert_eq!(percentile_sorted(&v, 0.01), 1); // never rank 0
    assert_eq!(percentile_sorted(&[], 0.5), 0);
    assert_eq!(percentile_sorted(&[7], 0.95), 7);
    // Unsorted input, 256 samples: p95 is the 244th, 12 lie beyond it.
    let shuffled: Vec<u64> = (0..256u64).map(|i| (i * 77) % 256).collect();
    assert_eq!(percentile(&shuffled, 0.95), 243);
    assert_eq!(shuffled.iter().filter(|&&x| x > 243).count(), 12);
}

#[test]
fn medians() {
    assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median_f64(&[]), 0.0);
}

#[test]
fn segment_median_goodput_ignores_one_slow_episode() {
    // 12 equal-op segments of 1 ms: 1e6 ops / 1e-3 s = 1e9 ops/s.
    let mut segs = vec![Segment { ops: 1_000_000, ns: 1_000_000 }; 12];
    assert_eq!(segment_median_goodput(&segs), 1e9);
    // One machine-wide slow episode triples three segments: the median
    // does not move, where total ops / total time would lose a third.
    for s in segs.iter_mut().take(3) {
        s.ns *= 3;
    }
    assert_eq!(segment_median_goodput(&segs), 1e9);
    let total_ops: u64 = segs.iter().map(|s| s.ops).sum();
    let total_ns: u64 = segs.iter().map(|s| s.ns).sum();
    assert!((total_ops as f64 * 1e9 / total_ns as f64) < 0.7e9);
    // Unequal ops (the serving workload): the median of the rates.
    let uneven = [
        Segment { ops: 100, ns: 1_000 },
        Segment { ops: 300, ns: 1_000 },
        Segment { ops: 200, ns: 1_000 },
    ];
    assert_eq!(segment_median_goodput(&uneven), 200.0 * 1e9 / 1_000.0);
    // A zero-length segment is skipped, not divided by.
    assert_eq!(segment_median_goodput(&[Segment { ops: 5, ns: 0 }]), 0.0);
}

#[test]
fn fastest_round_survives_a_run_that_is_mostly_disturbed() {
    // 48 equal-op rounds of 3 ms: 1e9 ops/s.
    let mut rounds = vec![Segment { ops: 3_000_000, ns: 3_000_000 }; 48];
    assert_eq!(fastest_round_goodput(&rounds), 1e9);
    // The machine slows three quarters of the run by a third: the
    // fastest round does not move, the median of the rates follows the
    // machine.
    for s in rounds.iter_mut().take(36) {
        s.ns = s.ns * 4 / 3;
    }
    assert_eq!(fastest_round_goodput(&rounds), 1e9);
    assert_eq!(segment_median_goodput(&rounds), 0.75e9);
    // A change to the program moves every round, the fastest too.
    for s in rounds.iter_mut() {
        s.ns *= 2;
    }
    assert_eq!(fastest_round_goodput(&rounds), 0.5e9);
    // A zero-length round is skipped, not divided by.
    assert_eq!(fastest_round_goodput(&[Segment { ops: 5, ns: 0 }]), 0.0);
    assert_eq!(quietest([3.0, 1.5, 2.0]), 1.5);
    assert_eq!(quietest([]), 0.0);
}

#[test]
fn unit_percentiles_are_the_quietest_rounds() {
    // Two rounds of ten units; the second ran on a disturbed machine.
    let mut pass = HostPass::default();
    pass.unit_ns.extend((1..=10).map(|i| i * 1_000));
    pass.end_round(100);
    pass.unit_ns.extend((1..=10).map(|i| i * 3_000));
    pass.end_round(100);
    assert_eq!(pass.round_ends, [10, 20]);
    assert_eq!(pass.rounds[0], Segment { ops: 100, ns: 55_000 });
    assert_eq!(pass.rounds[1], Segment { ops: 100, ns: 165_000 });
    assert_eq!(pass.unit_us(0.50), 5.0); // 5th of 1..=10 µs, not of the slow round
    assert_eq!(pass.unit_us(0.90), 9.0);
    assert_eq!(pass.goodput_ops_s(), 100.0 * 1e9 / 55_000.0);
    assert_eq!((pass.ops(), pass.busy_ns()), (200, 220_000));
}

#[test]
fn rounds_are_a_multiple_of_the_segments() {
    assert_eq!(rounds_for(8_400), 4 * SEGMENTS); // 175 units a round
    assert_eq!(rounds_for(3_450), 2 * SEGMENTS); // 143 units a round
    assert_eq!(rounds_for(2 * SEGMENTS * MIN_ROUND_UNITS - 1), SEGMENTS);
    assert_eq!(rounds_for(420), SEGMENTS); // --quick
    assert_eq!(rounds_for(1_000_000), 4 * SEGMENTS);
}

#[test]
fn equal_cuts_cover_every_unit_once() {
    assert_eq!(equal_cuts(24, 12), (1..=12).map(|k| 2 * k).collect::<Vec<_>>());
    let cuts = equal_cuts(5600, 12);
    assert_eq!(cuts.len(), 12);
    assert_eq!(*cuts.last().unwrap(), 5600);
    let sizes: Vec<usize> =
        std::iter::once(cuts[0]).chain(cuts.windows(2).map(|w| w[1] - w[0])).collect();
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
    let w = [12.0, 10.0, 20.0, 11.0, 13.0];
    assert!((quartile_spread(&w) - (16.5 - 10.5) / 12.0).abs() < 1e-12);
    assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn span_self_time_subtracts_what_children_cover() {
    // Sequential children (the leaves of a warp).
    let mut seq = [(10, 20), (30, 45), (45, 50)];
    assert_eq!(covered_ns(0, 100, &mut seq), 30);
    assert_eq!(self_ns(0, 100, &mut seq), 70);
    // Parallel, overlapping children (the warps of a launch): the union,
    // not the sum.
    let mut par = [(10, 60), (20, 70), (65, 90)];
    assert_eq!(covered_ns(0, 100, &mut par), 80);
    assert_eq!(self_ns(0, 100, &mut par), 20);
    // A child reaching outside its parent is clipped to it; one wholly
    // outside covers nothing; order of the children does not matter.
    let mut clip = [(150, 170), (90, 120), (0, 10)];
    assert_eq!(covered_ns(5, 100, &mut clip), 5 + 10);
    // A child nested inside another adds nothing.
    let mut nested = [(10, 90), (20, 30)];
    assert_eq!(self_ns(0, 100, &mut nested), 20);
    assert_eq!(self_ns(0, 100, &mut []), 100);
}

#[test]
fn histogram_percentiles_are_close_and_sums_exact() {
    let mut h = Hist::default();
    for v in 1..=10_000u64 {
        h.add(v);
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(h.sum(), 10_000 * 10_001 / 2);
    for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
        let got = h.percentile(q) as f64;
        assert!(got <= exact && got > exact * 0.88, "p{q}: {got} vs {exact}");
    }
    // Small values are exact.
    let mut small = Hist::default();
    for v in [0, 1, 2, 3, 3, 3, 7] {
        small.add(v);
    }
    assert_eq!(small.percentile(0.5), 3);
    assert_eq!(small.percentile(1.0), 7);
    let mut merged = Hist::default();
    merged.merge(&h);
    merged.merge(&small);
    assert_eq!(merged.count(), 10_007);
}

#[test]
fn json_writer_round_trips_through_the_parser() {
    let v = json::obj(vec![
        ("name", json::string("quote \" backslash \\ newline \n tab \t bell \u{7} é")),
        ("whole", json::num(183_500_800.0)),
        ("all_digits", json::num(0.253_498_708_169_291_3)),
        ("tiny", json::num(4.359_654_017_857_143e-8)),
        ("negative", json::num(-0.0242)),
        ("flag", Value::Bool(true)),
        ("nothing", Value::Null),
        ("list", Value::Arr(vec![json::num(1.0), json::string(""), Value::Arr(vec![])])),
        ("empty", Value::Obj(vec![])),
    ]);
    assert_eq!(json::parse(&json::write(&v)).unwrap(), v);
    // JSON has no spelling for a non-finite number.
    assert_eq!(json::write(&json::num(f64::NAN)), "null");
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut values = Values::default();
    values.set("setup_s", 0.8127);
    values.set("goodput_ops_s", 21_339_196.991_931_863);
    let catalogue: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let line = result_line(true, 1000, 0, &values, &catalogue);
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).unwrap();
    let keys: Vec<&str> = parsed.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(1000.0));
    let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    let goodput = parsed.get("metrics").unwrap().get("goodput_ops_s").unwrap();
    assert_eq!(goodput.get("value").unwrap().as_f64(), Some(21_339_196.991_931_863));
    assert_eq!(goodput.get("unit").unwrap().as_str(), Some("ops/s"));
    // `attempted` is at least 1 even for a run that attempted nothing.
    let empty = json::parse(&result_line(false, 0, 0, &values, &catalogue)).unwrap();
    assert_eq!(empty.get("attempted").unwrap().as_f64(), Some(1.0));
}

#[test]
fn cli_parses_the_driver_arguments() {
    let args: Vec<String> = "--workload topo-hotspot --seed 7 --seconds 10 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let a = cli::parse(&args).unwrap();
    assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some("topo-hotspot"), 7, 10.0, true));
    assert!(cli::parse(&["--workload".into(), "nope".into()]).is_err());
    assert!(cli::parse(&["--trace".into(), "2".into()]).is_err());
    assert!(cli::parse(&["--seconds".into(), "0".into()]).is_err());
    assert!(cli::parse(&["--seed".into()]).is_err());
}

/// `BENCHMARK.json` at the repo root names the same workloads and
/// metrics, with the same units, directions and bounds, as the code.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let field = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_string();

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(w, "name"), *name);
        assert_eq!(field(w, "why"), *why);
        assert!(why.len() <= 200);
    }
    let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name.to_string(), unit.to_string(), better.to_string())
        );
        assert_eq!(m.get("bound").unwrap().as_f64(), Some(*bound));
        assert!(*bound > 0.0 && *bound <= 0.25);
    }
    let layers = doc.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name.to_string(), unit.to_string(), better.to_string())
        );
        assert!(name.len() <= 64 && unit.len() <= 16);
    }
    assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(cli::RUN_SECONDS));
}

/// The three step-clock metrics of `kernel-mixed` are bit-identical
/// across two sim passes in one process, at `--quick` length.
#[test]
fn sim_metrics_repeat_bit_for_bit() {
    let dog = Watchdog::start(None);
    let ctx = Ctx {
        workload: "kernel-mixed",
        seed: cli::CANONICAL_SEED,
        seconds: cli::RUN_SECONDS * cli::QUICK_SCALE,
        quick: true,
        attempt: 0,
        dog: dog.clone(),
        out_dir: std::env::temp_dir(),
        started: std::time::Instant::now(),
    };
    let spec = kernels::mixed();
    let mut violations = Vec::new();
    let (first, counters_first, audit_first) = kernels::sim_pass(&spec, &ctx, &mut violations);
    let (second, counters_second, audit_second) = kernels::sim_pass(&spec, &ctx, &mut violations);
    dog.stop();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(first.steps_per_op.to_bits(), second.steps_per_op.to_bits());
    assert_eq!(first.p50_steps, second.p50_steps);
    assert_eq!(first.tail_steps, second.tail_steps);
    assert!(first.steps_per_op > 0.0 && first.p50_steps > 0);
    // And so are the allocator's counters and the event stream's size.
    assert_eq!(counters_first, counters_second);
    assert_eq!(audit_first.events.total, audit_second.events.total);
    assert_eq!((audit_first.anomalies, audit_first.dropped), (0, 0));
    // Another seed gives other inputs, and a clean ledger too.
    let dog = Watchdog::start(None);
    let other = Ctx { seed: ctx.seed + 1, dog: dog.clone(), ..ctx };
    let (third, _, audit_third) = kernels::sim_pass(&spec, &other, &mut violations);
    dog.stop();
    assert!(violations.is_empty(), "{violations:?}");
    assert_ne!(third.steps_per_op.to_bits(), first.steps_per_op.to_bits());
    assert_eq!(audit_third.anomalies, 0);
}
