//! The warp-collective path pinned from outside: what `warp_malloc` and
//! `warp_free` hand out, count and emit for sparse, full, mixed and
//! empty warps on a lone [`Gallatin`], a 3-instance [`GallatinPool`] and
//! a 2×3 [`DevicePool`], as literals captured from the lane-loop
//! implementation (every 32-slot loop still in place) — plus a property
//! test against that algorithm, kept here as the oracle.
//!
//! Group order is part of the schedule: classes ascending, lanes
//! ascending inside a class, scalar (whole-block, multi-segment) lanes
//! last; children ascending on a free. A regrouping that serves the same
//! lanes in another order issues its CASes in another order, and every
//! pointer, `sim_*` step count and trace byte downstream moves with it.
//! These literals are what notices.
//!
//! Re-recording (only when the schedule moves on purpose): a failing run
//! writes what it saw to `$CARGO_TARGET_TMPDIR/collective_golden.actual`;
//! that text replaces [`GOLDEN`].

use gallatin::{DevicePool, Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, AllocTier, TraceEvent, TraceRecord, TraceSink, LANE_NONE};
use gpu_sim::{launch_warps_counted, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Per-leaf heap of the roomy scenarios: 16 `small_test` segments, slice
/// classes 16–256 B, blocks 1–16 KiB.
const HEAP: u64 = 1 << 20;
/// Per-leaf heap of the tight ones: two segments, so a hot home spills.
const TIGHT: u64 = 128 << 10;
/// One SM, and one warp a launch, per leaf of the 2×3 topology: SM `s`
/// homes on device `s % 2`, instance `s % 3`.
const SMS: u32 = 6;
const LANES: usize = gpu_sim::WARP_SIZE;

/// The three allocators the collective path crosses zero, one and two
/// routing levels of.
trait Subject: DeviceAllocator + Sync + Sized {
    const NAME: &'static str;
    fn build(heap: u64) -> Self;
    fn leaves(&self) -> Vec<&Gallatin>;
    /// Spill counters (per home, per level), oversize denials and the
    /// tariff's local/peer split: everything a router counts itself.
    fn pressure(&self) -> String;
}

impl Subject for Gallatin {
    const NAME: &'static str = "Gallatin";
    fn build(heap: u64) -> Self {
        Gallatin::new(GallatinConfig::small_test(heap))
    }
    fn leaves(&self) -> Vec<&Gallatin> {
        vec![self]
    }
    fn pressure(&self) -> String {
        "none".into()
    }
}

fn pool_pressure(p: &GallatinPool) -> String {
    let s = p.pool_stats();
    let spills: Vec<u64> = s.instances.iter().map(|i| i.spills).collect();
    format!("spills {spills:?} oversize {}", s.oversize_denials)
}

impl Subject for GallatinPool {
    const NAME: &'static str = "GallatinPool(3)";
    fn build(heap: u64) -> Self {
        GallatinPool::new(3, GallatinConfig::small_test(heap))
    }
    fn leaves(&self) -> Vec<&Gallatin> {
        (0..self.num_children()).map(|i| self.instance(i)).collect()
    }
    fn pressure(&self) -> String {
        pool_pressure(self)
    }
}

impl Subject for DevicePool {
    const NAME: &'static str = "DevicePool(2x3)";
    fn build(heap: u64) -> Self {
        DevicePool::new(2, 3, GallatinConfig::small_test(heap))
    }
    fn leaves(&self) -> Vec<&Gallatin> {
        (0..2).flat_map(|d| (0..3).map(move |i| self.pool(d).instance(i))).collect()
    }
    fn pressure(&self) -> String {
        let t = self.topo_stats();
        let cross: Vec<u64> = (0..2).map(|d| self.spill_count(d)).collect();
        format!(
            "cross {cross:?} | d0 {} | d1 {} | local {} peer {}",
            pool_pressure(self.pool(0)),
            pool_pressure(self.pool(1)),
            t.local_accesses,
            t.peer_accesses
        )
    }
}

/// The fourteen counters, in declaration order: rmw, cas, cas-fail,
/// lock, coalesced, mallocs, frees, failed, reclaims, reclaim-aborts,
/// drain-spins, bounces, local, peer.
fn counters(m: &MetricsSnapshot) -> [u64; 14] {
    [
        m.atomic_rmw,
        m.cas_attempts,
        m.cas_failures,
        m.lock_acquires,
        m.coalesced_requests,
        m.mallocs,
        m.frees,
        m.failed_mallocs,
        m.reclaim_attempts,
        m.reclaim_aborts,
        m.drain_spins,
        m.straggler_bounces,
        m.local_accesses,
        m.peer_accesses,
    ]
}

fn leaf_counters<A: Subject>(alloc: &A) -> Vec<[u64; 14]> {
    alloc.leaves().iter().map(|g| counters(&g.metrics().unwrap().snapshot())).collect()
}

/// One of the four event kinds the collective path emits per request,
/// with its lane stamp: `G<class>x<lanes>` a coalesced group,
/// `C<seg>.<block>a<attempts>g<gen>t<taken>` its claim, `M<lane>:<ptr>+
/// <size><tier>` a malloc, `F<lane>:<ptr>-<size>` a free; lane `*` is a
/// warp-level stamp. Ring, buffer and segment events are left to `repro
/// trace`'s bytes.
fn token(r: &TraceRecord) -> Option<String> {
    let lane = if r.lane == LANE_NONE { "*".to_string() } else { r.lane.to_string() };
    Some(match r.event {
        TraceEvent::CoalesceGroup { class, lanes } => format!("G{class}x{lanes}"),
        TraceEvent::ClaimCas { seg, block, attempts, gen, taken } => {
            format!("C{seg}.{block}a{attempts}g{gen}t{taken}")
        }
        TraceEvent::Malloc { size, tier, ptr } => {
            let tier = match tier {
                AllocTier::Slice => 's',
                AllocTier::Block => 'b',
                AllocTier::Large => 'L',
            };
            format!("M{lane}:{ptr}+{size}{tier}")
        }
        TraceEvent::Free { ptr, size } => format!("F{lane}:{ptr}-{size}"),
        _ => return None,
    })
}

/// The typed event sequence, a line per run of one `(sm, warp, device,
/// instance)` stamp, broken again before each claim and every 8 tokens.
fn render_events(records: &[TraceRecord], doc: &mut String) {
    let mut stamp = None;
    let mut on_line = 0;
    for r in records {
        let Some(tok) = token(r) else { continue };
        let here = (r.sm, r.warp, r.device, r.instance);
        if stamp != Some(here) || tok.starts_with('C') || on_line == 8 {
            write!(doc, "\n  [s{} w{} d{} i{}]", r.sm, r.warp, r.device, r.instance).unwrap();
            stamp = Some(here);
            on_line = 0;
        }
        write!(doc, " {tok}").unwrap();
        on_line += 1;
    }
    doc.push('\n');
}

/// A warp's served lanes as `lane:ptr`, eight a line; the rest got NULL.
fn render_ptrs(w: usize, ptrs: &[DevicePtr], doc: &mut String) {
    let served: Vec<_> = ptrs.iter().enumerate().filter(|(_, p)| !p.is_null()).collect();
    for line in served.chunks(8) {
        write!(doc, "out w{w}:").unwrap();
        for (lane, p) in line {
            write!(doc, " {lane}:{}", p.0).unwrap();
        }
        doc.push('\n');
    }
}

/// Who returns what in the free launch.
#[derive(Clone, Copy)]
enum Frees {
    /// Warp `w` returns warp `w + 1`'s pointers lane for lane: a foreign
    /// SM at every routing level.
    Rotated,
    /// Warp 5 returns the pointers of warps 0, 1 and 2 — three different
    /// children at either level — dealt round-robin over its lanes with
    /// every fourth lane NULL; the other warps free all-NULL vectors.
    Gathered,
}

struct Scenario {
    name: &'static str,
    heap: u64,
    seed: u64,
    /// Request of `(warp, lane)`; every warp is 32 lanes wide.
    sizes: fn(u64, usize) -> Option<u64>,
    frees: Frees,
}

const OVERSIZE: u64 = HEAP + 1; // > stride on the pools, > heap on the lone leaf

const SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "one request in lane 31",
        heap: HEAP,
        seed: 11,
        sizes: |w, lane| (lane == 31).then_some(16 << (w % 5)),
        frees: Frees::Rotated,
    },
    Scenario {
        name: "four classes in lanes 3 9 17 30",
        heap: HEAP,
        seed: 12,
        sizes: |w, lane| {
            let at = [3, 9, 17, 30].iter().position(|&l| l == lane)?;
            Some(16 << ((at as u64 + w) % 5))
        },
        frees: Frees::Rotated,
    },
    Scenario {
        name: "full warps over every class",
        heap: HEAP,
        seed: 13,
        // Not powers of two, so class rounding shows; warps 2.. idle.
        sizes: |w, lane| (w < 2).then_some((16 << ((lane as u64 + w) % 5)) - (lane as u64 % 3)),
        frees: Frees::Rotated,
    },
    Scenario {
        name: "slice block multi-segment oversize zero and idle lanes",
        heap: HEAP,
        seed: 14,
        sizes: |w, lane| match (w, lane % 8) {
            (2.., _) | (_, 7) => None,
            (_, 0) => Some(0),
            (_, 1) => Some(1024),           // a whole 1 KiB block
            (_, 2) => Some(40),             // 64 B class
            (_, 3) => Some(2 * (64 << 10)), // two segments
            (_, 4) => Some(OVERSIZE),
            (_, 5) => Some(16 << 10), // the largest block
            (_, _) => Some(200 + w),
        },
        frees: Frees::Rotated,
    },
    Scenario {
        name: "all lanes idle",
        heap: HEAP,
        seed: 15,
        sizes: |_, _| None,
        frees: Frees::Rotated,
    },
    Scenario {
        name: "all lanes oversize",
        heap: HEAP,
        seed: 16,
        sizes: |_, _| Some(OVERSIZE),
        frees: Frees::Rotated,
    },
    Scenario {
        name: "three owners interleaved with NULLs freed from SM 5",
        heap: HEAP,
        seed: 17,
        sizes: |w, lane| match (w, lane) {
            (0..=2, 0..=5) => Some(16 << ((lane as u64 + w) % 3)),
            (0..=2, 6) => Some(1024),
            (0..=2, 7) => Some(2 * (64 << 10)),
            _ => None,
        },
        frees: Frees::Gathered,
    },
    Scenario {
        name: "a hot home spilling on a tight pool",
        heap: TIGHT,
        seed: 18,
        // Warps 0 and 3 both home on instance 0 — of one pool, or of
        // devices 0 and 1: 28 whole 16 KiB blocks against 8 a leaf,
        // behind four slices that pin a segment each.
        sizes: |w, lane| match (w, lane) {
            (0 | 3, 0..=3) => Some(16u64 << lane),
            (0 | 3, _) => Some(16 << 10),
            _ => None,
        },
        frees: Frees::Rotated,
    },
];

fn run<A: Subject>(sc: &Scenario) -> String {
    let alloc = A::build(sc.heap);
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let warps = SMS as u64;
    let cfg = DeviceConfig::with_sms(SMS);
    let outs: Vec<Mutex<Vec<DevicePtr>>> = (0..warps).map(|_| Mutex::new(Vec::new())).collect();
    let mut doc = format!("== {} / {}\n", sc.name, A::NAME);
    trace::with_sink(sink.clone(), || {
        let malloc_steps = launch_warps_counted(cfg.seeded(sc.seed), warps * 32, |warp| {
            let sizes: Vec<_> = (0..LANES).map(|lane| (sc.sizes)(warp.warp_id, lane)).collect();
            // Poisoned: the call owes every slot a pointer or NULL.
            let mut out = vec![DevicePtr(7); LANES];
            alloc.warp_malloc(warp, &sizes, &mut out);
            for (lane, p) in out.iter().enumerate() {
                assert!(sizes[lane].is_some() || p.is_null(), "idle lane {lane} got {p:?}");
            }
            *outs[warp.warp_id as usize].lock().unwrap() = out;
        });
        let outs: Vec<Vec<DevicePtr>> = outs.iter().map(|o| o.lock().unwrap().clone()).collect();
        let reserved = alloc.stats().reserved_bytes;
        let free_steps = launch_warps_counted(cfg.seeded(sc.seed ^ 0x5eed), warps * 32, |warp| {
            let w = warp.warp_id as usize;
            let ptrs = match sc.frees {
                Frees::Rotated => outs[(w + 1) % outs.len()].clone(),
                Frees::Gathered if w == 5 => {
                    let served =
                        |o: &Vec<DevicePtr>| o.clone().into_iter().filter(|p| !p.is_null());
                    let mut from: Vec<_> = outs[..3].iter().map(served).collect();
                    let mut deal = |lane: usize| from[lane % 3].next().expect("eight a warp");
                    (0..LANES).map(|l| if l % 4 == 3 { DevicePtr::NULL } else { deal(l) }).collect()
                }
                Frees::Gathered => vec![DevicePtr::NULL; LANES],
            };
            alloc.warp_free(warp, &ptrs);
        });
        assert_eq!(alloc.stats().reserved_bytes, 0, "{}: everything was freed", sc.name);
        alloc.check_invariants().unwrap_or_else(|e| panic!("{} / {}: {e}", sc.name, A::NAME));
        writeln!(doc, "steps: malloc {malloc_steps} free {free_steps}").unwrap();
        writeln!(doc, "reserved after the mallocs: {reserved}").unwrap();
        for (w, out) in outs.iter().enumerate() {
            render_ptrs(w, out, &mut doc);
        }
        doc.push_str("events:");
        render_events(&sink.snapshot(), &mut doc);
        for (i, c) in leaf_counters(&alloc).iter().enumerate() {
            writeln!(doc, "leaf {i}: {c:?}").unwrap();
        }
        writeln!(doc, "pressure: {}", alloc.pressure()).unwrap();
    });
    doc
}

#[test]
fn collective_calls_match_the_literals_captured_from_the_lane_loop_implementation() {
    let mut actual = String::new();
    for sc in &SCENARIOS {
        actual.push_str(&run::<Gallatin>(sc));
        actual.push_str(&run::<GallatinPool>(sc));
        actual.push_str(&run::<DevicePool>(sc));
    }
    if actual != GOLDEN {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("collective_golden.actual");
        std::fs::write(&path, &actual).expect("write the observed document");
        let line = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        let line = line.unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "collective output differs from the literals at line {}:\n  saw      {:?}\n  expected \
             {:?}\n(full document in {})",
            line + 1,
            actual.lines().nth(line),
            GOLDEN.lines().nth(line),
            path.display()
        );
    }
}

// ---------------------------------------------------------------------
// The oracle: the lane-loop algorithm, over narrower calls
// ---------------------------------------------------------------------

/// The collective malloc as it was written before lane masks: a loop
/// over every lane slot per size class, then the scalar lanes — each
/// group issued to `alloc` as a call of its own, which is what makes the
/// order observable from outside. On a router the groups of one warp
/// reach a sibling interleaved differently than in one call, but every
/// *leaf* sees its requests in the same order, and leaves share nothing.
fn oracle_malloc<A: Subject>(
    alloc: &A,
    heap: u64,
    warp: &WarpCtx,
    sizes: &[Option<u64>],
) -> Vec<DevicePtr> {
    let geo = GallatinConfig::small_test(heap).geometry();
    let k = sizes.len();
    let mut out = vec![DevicePtr::NULL; k];
    let mut keys = [None::<usize>; LANES];
    for lane in 0..k {
        keys[lane] = sizes[lane].and_then(|sz| geo.slice_class(sz.max(1)));
    }
    for class in 0..geo.num_classes {
        let mut part = vec![None; k];
        for lane in 0..k {
            if keys[lane] == Some(class) {
                part[lane] = sizes[lane];
            }
        }
        if part.iter().any(Option::is_some) {
            let mut got = vec![DevicePtr::NULL; k];
            alloc.warp_malloc(warp, &part, &mut got);
            for lane in 0..k {
                if part[lane].is_some() {
                    out[lane] = got[lane];
                }
            }
        }
    }
    for lane in 0..k {
        if let (None, Some(size)) = (keys[lane], sizes[lane]) {
            out[lane] = alloc.malloc(&warp.lane(lane), size);
        }
    }
    out
}

/// The collective free as it was written: every owning leaf in turn
/// (`ptr / heap`: nothing is donated here) zero-fills a warp-wide vector
/// and rescans all lanes for its own.
fn oracle_free<A: Subject>(alloc: &A, heap: u64, warp: &WarpCtx, ptrs: &[DevicePtr]) {
    for leaf in 0..alloc.leaves().len() as u64 {
        let mut local = vec![DevicePtr::NULL; ptrs.len()];
        let mut any = false;
        for lane in 0..ptrs.len() {
            if !ptrs[lane].is_null() && ptrs[lane].0 / heap == leaf {
                local[lane] = ptrs[lane];
                any = true;
            }
        }
        if any {
            alloc.warp_free(warp, &local);
        }
    }
}

/// Frees the leaf-level regrouping must save: slice lanes beyond the
/// first of each block (one `fetch_add` a block), by a lane loop.
fn coalesced_frees(heap: u64, sizes: &[Option<u64>], ptrs: &[DevicePtr]) -> u64 {
    let geo = GallatinConfig::small_test(heap).geometry();
    let mut blocks = Vec::new();
    let mut saved = 0;
    for lane in 0..ptrs.len() {
        let class = sizes[lane].and_then(|sz| geo.slice_class(sz.max(1)));
        if let (Some(class), false) = (class, ptrs[lane].is_null()) {
            let block = ptrs[lane].0 / geo.block_size(class) * geo.block_size(class);
            if blocks.contains(&block) {
                saved += 1;
            } else {
                blocks.push(block);
            }
        }
    }
    saved
}

/// Typed events per serving leaf, in emission order.
fn events_by_leaf(sink: &TraceSink) -> BTreeMap<(u32, u32), Vec<String>> {
    let mut by_leaf: BTreeMap<_, Vec<String>> = BTreeMap::new();
    for r in sink.snapshot() {
        if let Some(tok) = token(&r) {
            by_leaf.entry((r.device, r.instance)).or_default().push(tok);
        }
    }
    by_leaf
}

/// A request drawn from `0..1000`: idle with probability `idle`‰, else
/// mostly slices of every class (odd sizes included), some zero-size,
/// whole-block, multi-segment and oversize.
fn request(draw: u32, idle: u32) -> Option<u64> {
    if draw < idle {
        return None;
    }
    Some(match draw % 23 {
        0 => 0,
        1 | 2 => 1024,
        3 | 4 => 16 << 10,
        5 => 2 * (64 << 10),
        6 => TIGHT + 1,
        n => (16u64 << (n % 5)) - (draw as u64 % 7).min(15),
    })
}

fn check_against_oracle<A: Subject>(
    sm: u32,
    active: usize,
    idle: u32,
    draws: &[u32],
) -> Result<(), TestCaseError> {
    let (real, twin) = (A::build(TIGHT), A::build(TIGHT));
    let (real_sink, twin_sink) = (Arc::new(TraceSink::new()), Arc::new(TraceSink::new()));
    let warp = WarpCtx { warp_id: sm as u64, sm_id: sm, base_tid: 0, active: active as u32 };
    let foreign = WarpCtx { warp_id: 9, sm_id: sm + 1, base_tid: 9 * 32, active: active as u32 };
    let mut held = Vec::new();
    for round in draws.chunks(active) {
        let mut sizes: Vec<_> = round.iter().map(|&d| request(d, idle)).collect();
        sizes.resize(active, None);
        let mut out = vec![DevicePtr(7); active];
        trace::with_sink(real_sink.clone(), || real.warp_malloc(&warp, &sizes, &mut out));
        let expect =
            trace::with_sink(twin_sink.clone(), || oracle_malloc(&twin, TIGHT, &warp, &sizes));
        prop_assert_eq!(&out, &expect, "served set and pointers, sizes {:?}", sizes);
        held.push((sizes, out));
    }
    prop_assert_eq!(events_by_leaf(&real_sink), events_by_leaf(&twin_sink), "group order");
    prop_assert_eq!(leaf_counters(&real), leaf_counters(&twin), "atomic counts after the mallocs");
    prop_assert_eq!(real.pressure(), twin.pressure(), "spills and denials");
    let coalesced = |a: &A| leaf_counters(a).iter().map(|c| c[4]).sum::<u64>();
    let before = coalesced(&real);
    let mut saved = 0;
    for (sizes, ptrs) in &held {
        trace::with_sink(real_sink.clone(), || real.warp_free(&foreign, ptrs));
        trace::with_sink(twin_sink.clone(), || oracle_free(&twin, TIGHT, &foreign, ptrs));
        saved += coalesced_frees(TIGHT, sizes, ptrs);
    }
    prop_assert_eq!(coalesced(&real) - before, saved, "one fetch_add a block on the free");
    prop_assert_eq!(events_by_leaf(&real_sink), events_by_leaf(&twin_sink), "free order");
    prop_assert_eq!(leaf_counters(&real), leaf_counters(&twin), "atomic counts after the frees");
    prop_assert_eq!(real.pressure(), twin.pressure(), "tariff after the frees");
    for a in [&real, &twin] {
        prop_assert_eq!(a.stats().reserved_bytes, 0);
        a.check_invariants().map_err(TestCaseError::fail)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sparse warps from one hot SM on two-segment leaves: the
    /// collective call and the lane-loop oracle serve the same lanes the
    /// same pointers, in the same order per leaf, for the same counters.
    #[test]
    fn sparse_warps_match_the_lane_loop_oracle(
        subject in 0usize..3,
        sm in 0u32..SMS,
        active in 1usize..=LANES,
        idle in 0u32..950,
        draws in prop::collection::vec(0u32..1000, 1..6 * LANES),
    ) {
        match subject {
            0 => check_against_oracle::<Gallatin>(sm, active, idle, &draws)?,
            1 => check_against_oracle::<GallatinPool>(sm, active, idle, &draws)?,
            _ => check_against_oracle::<DevicePool>(sm, active, idle, &draws)?,
        }
    }
}

// ---------------------------------------------------------------------
// The literals
// ---------------------------------------------------------------------

const GOLDEN: &str = "== one request in lane 31 / Gallatin
steps: malloc 36 free 12
reserved after the mallocs: 512
out w0: 31:0
out w1: 31:589824
out w2: 31:196608
out w3: 31:851968
out w4: 31:458752
out w5: 31:65536
events:
  [s2 w2 d0 i0] C3.0a1g1t1 G2x1 M31:196608+64s
  [s4 w4 d0 i0] C7.0a1g1t1 G4x1 M31:458752+256s
  [s1 w1 d0 i0] C9.0a1g1t1 G1x1 M31:589824+32s
  [s5 w5 d0 i0] C1.0a1g1t1 G0x1 M31:65536+16s
  [s3 w3 d0 i0] C13.0a1g1t1 G3x1 M31:851968+128s
  [s0 w0 d0 i0] C0.0a1g1t1 G0x1 M31:0+16s
  [s5 w5 d0 i0] F31:0-16
  [s1 w1 d0 i0] F31:196608-64
  [s4 w4 d0 i0] F31:65536-16
  [s2 w2 d0 i0] F31:851968-128
  [s0 w0 d0 i0] F31:589824-32
  [s3 w3 d0 i0] F31:458752-256
leaf 0: [18, 12, 0, 0, 0, 6, 6, 0, 0, 0, 0, 0, 0, 0]
pressure: none
== one request in lane 31 / GallatinPool(3)
steps: malloc 36 free 12
reserved after the mallocs: 512
out w0: 31:65536
out w1: 31:1900544
out w2: 31:2097152
out w3: 31:0
out w4: 31:1441792
out w5: 31:2162688
events:
  [s2 w2 d0 i2] C32.0a1g1t1 G2x1 M31:2097152+64s
  [s4 w4 d0 i1] C22.0a1g1t1 G4x1 M31:1441792+256s
  [s1 w1 d0 i1] C29.0a1g1t1 G1x1 M31:1900544+32s
  [s5 w5 d0 i2] C33.0a1g1t1 G0x1 M31:2162688+16s
  [s3 w3 d0 i0] C0.0a1g1t1 G3x1 M31:0+128s
  [s0 w0 d0 i0] C1.0a1g1t1 G0x1 M31:65536+16s
  [s5 w5 d0 i0] F31:65536-16
  [s1 w1 d0 i2] F31:2097152-64
  [s4 w4 d0 i2] F31:2162688-16
  [s2 w2 d0 i0] F31:0-128
  [s0 w0 d0 i1] F31:1900544-32
  [s3 w3 d0 i1] F31:1441792-256
leaf 0: [6, 4, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [6, 4, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [6, 4, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 0
== one request in lane 31 / DevicePool(2x3)
steps: malloc 36 free 12
reserved after the mallocs: 512
out w0: 31:0
out w1: 31:4194304
out w2: 31:2097152
out w3: 31:3145728
out w4: 31:1048576
out w5: 31:5242880
events:
  [s2 w2 d0 i2] C32.0a1g1t1 G2x1 M31:2097152+64s
  [s4 w4 d0 i1] C16.0a1g1t1 G4x1 M31:1048576+256s
  [s1 w1 d1 i1] C64.0a1g1t1 G1x1 M31:4194304+32s
  [s5 w5 d1 i2] C80.0a1g1t1 G0x1 M31:5242880+16s
  [s3 w3 d1 i0] C48.0a1g1t1 G3x1 M31:3145728+128s
  [s0 w0 d0 i0] C0.0a1g1t1 G0x1 M31:0+16s
  [s5 w5 d0 i0] F31:0-16
  [s1 w1 d0 i2] F31:2097152-64
  [s4 w4 d1 i2] F31:5242880-16
  [s2 w2 d1 i0] F31:3145728-128
  [s0 w0 d1 i1] F31:4194304-32
  [s3 w3 d0 i1] F31:1048576-256
leaf 0: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 0 | d1 spills [0, 0, 0] oversize 0 | local 6 peer 6
== four classes in lanes 3 9 17 30 / Gallatin
steps: malloc 80 free 30
reserved after the mallocs: 2224
out w0: 3:855040 9:591872 17:196672 30:262272
out w1: 3:596000 9:200768 17:270592 30:983296
out w2: 3:196608 9:262144 17:459008 30:851968
out w3: 3:270336 9:983040 17:852992 30:917504
out w4: 3:458752 9:854016 17:591904 30:196736
out w5: 3:856064 9:595968 17:200704 30:270464
events:
  [s2 w2 d0 i0] C13.0a1g1t1 G0x1 M30:851968+16s
  [s3 w3 d0 i0] C13.1a1g1t1 G0x1 M17:852992+16s
  [s0 w0 d0 i0] C13.3a1g1t1 G0x1 M3:855040+16s
  [s4 w4 d0 i0] C13.2a1g1t1 G0x1 M9:854016+16s
  [s5 w5 d0 i0] C13.4a1g1t1 G0x1 M3:856064+16s
  [s2 w2 d0 i0] C3.0a1g1t1 G2x1 M3:196608+64s
  [s3 w3 d0 i0] C14.0a1g1t1 G1x1 M30:917504+32s
  [s0 w0 d0 i0] C9.1a1g1t1 G1x1 M9:591872+32s
  [s5 w5 d0 i0] C9.3a1g1t1 G1x1 M9:595968+32s
  [s3 w3 d0 i0] C4.1a1g1t1 G3x1 M3:270336+128s
  [s4 w4 d0 i0] C9.1a1g1t1 G1x1 M17:591904+32s
  [s4 w4 d0 i0] C3.0a1g1t1 G2x1 M30:196736+64s
  [s0 w0 d0 i0] C3.0a1g1t1 G2x1 M17:196672+64s
  [s0 w0 d0 i0] C4.0a1g1t1 G3x1 M30:262272+128s
  [s4 w4 d0 i0] C7.0a1g1t1 G4x1 M3:458752+256s
  [s2 w2 d0 i0] C4.0a1g1t1 G3x1 M9:262144+128s
  [s5 w5 d0 i0] C3.1a1g1t1 G2x1 M17:200704+64s
  [s2 w2 d0 i0] C7.0a1g1t1 G4x1 M17:459008+256s
  [s5 w5 d0 i0] C4.1a1g1t1 G3x1 M30:270464+128s
  [s3 w3 d0 i0] C15.0a1g1t1 G4x1 M9:983040+256s
  [s1 w1 d0 i0] C9.3a1g1t1 G1x1 M3:596000+32s
  [s1 w1 d0 i0] C3.1a1g1t1 G2x1 M9:200768+64s
  [s1 w1 d0 i0] C4.1a1g1t1 G3x1 M17:270592+128s
  [s1 w1 d0 i0] C15.0a1g1t1 G4x1 M30:983296+256s
  [s2 w2 d0 i0] F3:270336-128 F9:983040-256 F17:852992-16 F30:917504-32
  [s1 w1 d0 i0] F3:196608-64 F9:262144-128 F17:459008-256 F30:851968-16
  [s0 w0 d0 i0] F3:596000-32 F9:200768-64 F17:270592-128 F30:983296-256
  [s5 w5 d0 i0] F3:855040-16 F9:591872-32 F17:196672-64 F30:262272-128
  [s4 w4 d0 i0] F3:856064-16 F9:595968-32 F17:200704-64 F30:270464-128
  [s3 w3 d0 i0] F3:458752-256 F9:854016-16 F17:591904-32 F30:196736-64
leaf 0: [49, 31, 0, 0, 0, 24, 24, 0, 0, 0, 0, 0, 0, 0]
pressure: none
== four classes in lanes 3 9 17 30 / GallatinPool(3)
steps: malloc 110 free 30
reserved after the mallocs: 2224
out w0: 3:1024 9:67584 17:196608 30:139264
out w1: 3:1900544 9:1966080 17:2031616 30:1589248
out w2: 3:2162688 9:2293760 17:2359296 30:2097152
out w3: 3:131072 9:262144 17:0 30:65536
out w4: 3:1572864 9:1441792 17:1902592 30:1507328
out w5: 3:2098176 9:2228224 17:2166784 30:2301952
events:
  [s3 w3 d0 i0] C0.0a1g1t1 G0x1 M17:0+16s
  [s2 w2 d0 i2] C32.0a1g1t1 G0x1 M30:2097152+16s
  [s0 w0 d0 i0] C0.1a1g1t1 G0x1 M3:1024+16s
  [s5 w5 d0 i2] C32.1a1g1t1 G0x1 M3:2098176+16s
  [s1 w1 d0 i1] C29.0a1g1t1 G1x1 M3:1900544+32s
  [s4 w4 d0 i1] C22.0a1g1t1 G0x1 M9:1441792+16s
  [s2 w2 d0 i2] C33.0a1g1t1 G2x1 M3:2162688+64s
  [s3 w3 d0 i0] C1.0a1g1t1 G1x1 M30:65536+32s
  [s0 w0 d0 i0] C1.1a1g1t1 G1x1 M9:67584+32s
  [s4 w4 d0 i1] C29.1a1g1t1 G1x1 M17:1902592+32s
  [s5 w5 d0 i2] C34.0a1g1t1 G1x1 M9:2228224+32s
  [s3 w3 d0 i0] C2.0a1g1t1 G3x1 M3:131072+128s
  [s4 w4 d0 i1] C23.0a1g1t1 G2x1 M30:1507328+64s
  [s3 w3 d0 i0] C4.0a1g1t1 G4x1 M9:262144+256s
  [s2 w2 d0 i2] C35.0a1g1t1 G3x1 M9:2293760+128s
  [s0 w0 d0 i0] C3.0a1g1t1 G2x1 M17:196608+64s
  [s4 w4 d0 i1] C24.0a1g1t1 G4x1 M3:1572864+256s
  [s5 w5 d0 i2] C33.1a1g1t1 G2x1 M17:2166784+64s
  [s0 w0 d0 i0] C2.1a1g1t1 G3x1 M30:139264+128s
  [s2 w2 d0 i2] C36.0a1g1t1 G4x1 M17:2359296+256s
  [s5 w5 d0 i2] C35.1a1g1t1 G3x1 M30:2301952+128s
  [s1 w1 d0 i1] C30.0a1g1t1 G2x1 M9:1966080+64s
  [s1 w1 d0 i1] C31.0a1g1t1 G3x1 M17:2031616+128s
  [s1 w1 d0 i1] C24.1a1g1t1 G4x1 M30:1589248+256s
  [s2 w2 d0 i0] F3:131072-128 F9:262144-256 F17:0-16 F30:65536-32
  [s1 w1 d0 i2] F3:2162688-64 F9:2293760-128 F17:2359296-256 F30:2097152-16
  [s0 w0 d0 i1] F3:1900544-32 F9:1966080-64 F17:2031616-128 F30:1589248-256
  [s5 w5 d0 i0] F3:1024-16 F9:67584-32 F17:196608-64 F30:139264-128
  [s4 w4 d0 i2] F3:2098176-16 F9:2228224-32 F17:2166784-64 F30:2301952-128
  [s3 w3 d0 i1] F3:1572864-256 F9:1441792-16 F17:1902592-32 F30:1507328-64
leaf 0: [21, 13, 0, 0, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [22, 14, 0, 0, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [21, 13, 0, 0, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 0
== four classes in lanes 3 9 17 30 / DevicePool(2x3)
steps: malloc 126 free 30
reserved after the mallocs: 2224
out w0: 3:0 9:65536 17:131072 30:196608
out w1: 3:4194304 9:4259840 17:4325376 30:4390912
out w2: 3:2162688 9:2228224 17:2293760 30:2097152
out w3: 3:3276800 9:3342336 17:3145728 30:3211264
out w4: 3:1245184 9:1048576 17:1114112 30:1179648
out w5: 3:5242880 9:5308416 17:5373952 30:5439488
events:
  [s3 w3 d1 i0] C48.0a1g1t1 G0x1 M17:3145728+16s
  [s2 w2 d0 i2] C32.0a1g1t1 G0x1 M30:2097152+16s
  [s0 w0 d0 i0] C0.0a1g1t1 G0x1 M3:0+16s
  [s5 w5 d1 i2] C80.0a1g1t1 G0x1 M3:5242880+16s
  [s1 w1 d1 i1] C64.0a1g1t1 G1x1 M3:4194304+32s
  [s4 w4 d0 i1] C16.0a1g1t1 G0x1 M9:1048576+16s
  [s2 w2 d0 i2] C33.0a1g1t1 G2x1 M3:2162688+64s
  [s3 w3 d1 i0] C49.0a1g1t1 G1x1 M30:3211264+32s
  [s4 w4 d0 i1] C17.0a1g1t1 G1x1 M17:1114112+32s
  [s3 w3 d1 i0] C50.0a1g1t1 G3x1 M3:3276800+128s
  [s0 w0 d0 i0] C1.0a1g1t1 G1x1 M9:65536+32s
  [s3 w3 d1 i0] C51.0a1g1t1 G4x1 M9:3342336+256s
  [s2 w2 d0 i2] C34.0a1g1t1 G3x1 M9:2228224+128s
  [s4 w4 d0 i1] C18.0a1g1t1 G2x1 M30:1179648+64s
  [s5 w5 d1 i2] C81.0a1g1t1 G1x1 M9:5308416+32s
  [s1 w1 d1 i1] C65.0a1g1t1 G2x1 M9:4259840+64s
  [s4 w4 d0 i1] C19.0a1g1t1 G4x1 M3:1245184+256s
  [s0 w0 d0 i0] C2.0a1g1t1 G2x1 M17:131072+64s
  [s2 w2 d0 i2] C35.0a1g1t1 G4x1 M17:2293760+256s
  [s5 w5 d1 i2] C82.0a1g1t1 G2x1 M17:5373952+64s
  [s1 w1 d1 i1] C66.0a1g1t1 G3x1 M17:4325376+128s
  [s0 w0 d0 i0] C3.0a1g1t1 G3x1 M30:196608+128s
  [s5 w5 d1 i2] C83.0a1g1t1 G3x1 M30:5439488+128s
  [s1 w1 d1 i1] C67.0a1g1t1 G4x1 M30:4390912+256s
  [s2 w2 d1 i0] F3:3276800-128 F9:3342336-256 F17:3145728-16 F30:3211264-32
  [s1 w1 d0 i2] F3:2162688-64 F9:2228224-128 F17:2293760-256 F30:2097152-16
  [s0 w0 d1 i1] F3:4194304-32 F9:4259840-64 F17:4325376-128 F30:4390912-256
  [s5 w5 d0 i0] F3:0-16 F9:65536-32 F17:131072-64 F30:196608-128
  [s4 w4 d1 i2] F3:5242880-16 F9:5308416-32 F17:5373952-64 F30:5439488-128
  [s3 w3 d0 i1] F3:1245184-256 F9:1048576-16 F17:1114112-32 F30:1179648-64
leaf 0: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [12, 8, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 0 | d1 spills [0, 0, 0] oversize 0 | local 24 peer 24
== full warps over every class / Gallatin
steps: malloc 48 free 16
reserved after the mallocs: 6096
out w0: 0:590848 1:655360 2:0 3:65536 4:131072 5:590864 6:655392 7:64
out w0: 8:65664 9:131328 10:590880 11:655424 12:128 13:65792 14:131584 15:590896
out w0: 16:655456 17:192 18:65920 19:131840 20:590912 21:655488 22:256 23:66048
out w0: 24:132096 25:590928 26:655520 27:320 28:66176 29:132352 30:590944 31:655552
out w1: 0:657408 1:4096 2:73728 3:720896 4:589824 5:657440 6:4160 7:73856
out w1: 8:721152 9:589840 10:657472 11:4224 12:73984 13:721408 14:589856 15:657504
out w1: 16:4288 17:74112 18:721664 19:589872 20:657536 21:4352 22:74240 23:721920
out w1: 24:589888 25:657568 26:4416 27:74368 28:722176 29:589904 30:657600 31:4480
events:
  [s1 w1 d0 i0] C9.0a1g1t6 G0x6 M4:589824+16s M9:589840+16s M14:589856+16s M19:589872+16s M24:589888+16s M29:589904+16s
  [s0 w0 d0 i0] C9.1a1g1t7 G0x7 M0:590848+16s M5:590864+16s M10:590880+16s M15:590896+16s M20:590912+16s M25:590928+16s
  [s0 w0 d0 i0] M30:590944+16s
  [s0 w0 d0 i0] C10.0a1g1t7 G1x7 M1:655360+32s M6:655392+32s M11:655424+32s M16:655456+32s M21:655488+32s M26:655520+32s
  [s0 w0 d0 i0] M31:655552+32s
  [s1 w1 d0 i0] C10.1a1g1t7 G1x7 M0:657408+32s M5:657440+32s M10:657472+32s M15:657504+32s M20:657536+32s M25:657568+32s
  [s1 w1 d0 i0] M30:657600+32s
  [s0 w0 d0 i0] C0.0a1g1t6 G2x6 M2:0+64s M7:64+64s M12:128+64s M17:192+64s M22:256+64s M27:320+64s
  [s1 w1 d0 i0] C0.1a1g1t7 G2x7 M1:4096+64s M6:4160+64s M11:4224+64s M16:4288+64s M21:4352+64s M26:4416+64s
  [s1 w1 d0 i0] M31:4480+64s
  [s0 w0 d0 i0] C1.0a1g1t6 G3x6 M3:65536+128s M8:65664+128s M13:65792+128s M18:65920+128s M23:66048+128s M28:66176+128s
  [s1 w1 d0 i0] C1.1a1g1t6 G3x6 M2:73728+128s M7:73856+128s M12:73984+128s M17:74112+128s M22:74240+128s M27:74368+128s
  [s1 w1 d0 i0] C11.0a1g1t6 G4x6 M3:720896+256s M8:721152+256s M13:721408+256s M18:721664+256s M23:721920+256s M28:722176+256s
  [s0 w0 d0 i0] C2.0a1g1t6 G4x6 M4:131072+256s M9:131328+256s M14:131584+256s M19:131840+256s M24:132096+256s M29:132352+256s
  [s5 w5 d0 i0] F0:590848-16 F1:655360-32 F2:0-64 F3:65536-128 F4:131072-256 F5:590864-16 F6:655392-32 F7:64-64
  [s5 w5 d0 i0] F8:65664-128 F9:131328-256 F10:590880-16 F11:655424-32 F12:128-64 F13:65792-128 F14:131584-256 F15:590896-16
  [s5 w5 d0 i0] F16:655456-32 F17:192-64 F18:65920-128 F19:131840-256 F20:590912-16 F21:655488-32 F22:256-64 F23:66048-128
  [s5 w5 d0 i0] F24:132096-256 F25:590928-16 F26:655520-32 F27:320-64 F28:66176-128 F29:132352-256 F30:590944-16 F31:655552-32
  [s0 w0 d0 i0] F0:657408-32 F1:4096-64 F2:73728-128 F3:720896-256 F4:589824-16 F5:657440-32 F6:4160-64 F7:73856-128
  [s0 w0 d0 i0] F8:721152-256 F9:589840-16 F10:657472-32 F11:4224-64 F12:73984-128 F13:721408-256 F14:589856-16 F15:657504-32
  [s0 w0 d0 i0] F16:4288-64 F17:74112-128 F18:721664-256 F19:589872-16 F20:657536-32 F21:4352-64 F22:74240-128 F23:721920-256
  [s0 w0 d0 i0] F24:589888-16 F25:657568-32 F26:4416-64 F27:74368-128 F28:722176-256 F29:589904-16 F30:657600-32 F31:4480-64
leaf 0: [26, 16, 0, 0, 108, 64, 64, 0, 0, 0, 0, 0, 0, 0]
pressure: none
== full warps over every class / GallatinPool(3)
steps: malloc 56 free 16
reserved after the mallocs: 6096
out w0: 0:0 1:65536 2:131072 3:196608 4:262144 5:16 6:65568 7:131136
out w0: 8:196736 9:262400 10:32 11:65600 12:131200 13:196864 14:262656 15:48
out w0: 16:65632 17:131264 18:196992 19:262912 20:64 21:65664 22:131328 23:197120
out w0: 24:263168 25:80 26:65696 27:131392 28:197248 29:263424 30:96 31:65728
out w1: 0:1966080 1:2031616 2:1048576 3:1114112 4:1900544 5:1966112 6:2031680 7:1048704
out w1: 8:1114368 9:1900560 10:1966144 11:2031744 12:1048832 13:1114624 14:1900576 15:1966176
out w1: 16:2031808 17:1048960 18:1114880 19:1900592 20:1966208 21:2031872 22:1049088 23:1115136
out w1: 24:1900608 25:1966240 26:2031936 27:1049216 28:1115392 29:1900624 30:1966272 31:2032000
events:
  [s1 w1 d0 i1] C29.0a1g1t6 G0x6 M4:1900544+16s M9:1900560+16s M14:1900576+16s M19:1900592+16s M24:1900608+16s M29:1900624+16s
  [s0 w0 d0 i0] C0.0a1g1t7 G0x7 M0:0+16s M5:16+16s M10:32+16s M15:48+16s M20:64+16s M25:80+16s
  [s0 w0 d0 i0] M30:96+16s
  [s1 w1 d0 i1] C30.0a1g1t7 G1x7 M0:1966080+32s M5:1966112+32s M10:1966144+32s M15:1966176+32s M20:1966208+32s M25:1966240+32s
  [s1 w1 d0 i1] M30:1966272+32s
  [s0 w0 d0 i0] C1.0a1g1t7 G1x7 M1:65536+32s M6:65568+32s M11:65600+32s M16:65632+32s M21:65664+32s M26:65696+32s
  [s0 w0 d0 i0] M31:65728+32s
  [s0 w0 d0 i0] C2.0a1g1t6 G2x6 M2:131072+64s M7:131136+64s M12:131200+64s M17:131264+64s M22:131328+64s M27:131392+64s
  [s1 w1 d0 i1] C31.0a1g1t7 G2x7 M1:2031616+64s M6:2031680+64s M11:2031744+64s M16:2031808+64s M21:2031872+64s M26:2031936+64s
  [s1 w1 d0 i1] M31:2032000+64s
  [s1 w1 d0 i1] C16.0a1g1t6 G3x6 M2:1048576+128s M7:1048704+128s M12:1048832+128s M17:1048960+128s M22:1049088+128s M27:1049216+128s
  [s1 w1 d0 i1] C17.0a1g1t6 G4x6 M3:1114112+256s M8:1114368+256s M13:1114624+256s M18:1114880+256s M23:1115136+256s M28:1115392+256s
  [s0 w0 d0 i0] C3.0a1g1t6 G3x6 M3:196608+128s M8:196736+128s M13:196864+128s M18:196992+128s M23:197120+128s M28:197248+128s
  [s0 w0 d0 i0] C4.0a1g1t6 G4x6 M4:262144+256s M9:262400+256s M14:262656+256s M19:262912+256s M24:263168+256s M29:263424+256s
  [s5 w5 d0 i0] F0:0-16 F1:65536-32 F2:131072-64 F3:196608-128 F4:262144-256 F5:16-16 F6:65568-32 F7:131136-64
  [s5 w5 d0 i0] F8:196736-128 F9:262400-256 F10:32-16 F11:65600-32 F12:131200-64 F13:196864-128 F14:262656-256 F15:48-16
  [s5 w5 d0 i0] F16:65632-32 F17:131264-64 F18:196992-128 F19:262912-256 F20:64-16 F21:65664-32 F22:131328-64 F23:197120-128
  [s5 w5 d0 i0] F24:263168-256 F25:80-16 F26:65696-32 F27:131392-64 F28:197248-128 F29:263424-256 F30:96-16 F31:65728-32
  [s0 w0 d0 i1] F0:1966080-32 F1:2031616-64 F2:1048576-128 F3:1114112-256 F4:1900544-16 F5:1966112-32 F6:2031680-64 F7:1048704-128
  [s0 w0 d0 i1] F8:1114368-256 F9:1900560-16 F10:1966144-32 F11:2031744-64 F12:1048832-128 F13:1114624-256 F14:1900576-16 F15:1966176-32
  [s0 w0 d0 i1] F16:2031808-64 F17:1048960-128 F18:1114880-256 F19:1900592-16 F20:1966208-32 F21:2031872-64 F22:1049088-128 F23:1115136-256
  [s0 w0 d0 i1] F24:1900608-16 F25:1966240-32 F26:2031936-64 F27:1049216-128 F28:1115392-256 F29:1900624-16 F30:1966272-32 F31:2032000-64
leaf 0: [15, 10, 0, 0, 54, 32, 32, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [15, 10, 0, 0, 54, 32, 32, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 0
== full warps over every class / DevicePool(2x3)
steps: malloc 56 free 16
reserved after the mallocs: 6096
out w0: 0:0 1:65536 2:131072 3:196608 4:262144 5:16 6:65568 7:131136
out w0: 8:196736 9:262400 10:32 11:65600 12:131200 13:196864 14:262656 15:48
out w0: 16:65632 17:131264 18:196992 19:262912 20:64 21:65664 22:131328 23:197120
out w0: 24:263168 25:80 26:65696 27:131392 28:197248 29:263424 30:96 31:65728
out w1: 0:4259840 1:4325376 2:4390912 3:4456448 4:4194304 5:4259872 6:4325440 7:4391040
out w1: 8:4456704 9:4194320 10:4259904 11:4325504 12:4391168 13:4456960 14:4194336 15:4259936
out w1: 16:4325568 17:4391296 18:4457216 19:4194352 20:4259968 21:4325632 22:4391424 23:4457472
out w1: 24:4194368 25:4260000 26:4325696 27:4391552 28:4457728 29:4194384 30:4260032 31:4325760
events:
  [s1 w1 d1 i1] C64.0a1g1t6 G0x6 M4:4194304+16s M9:4194320+16s M14:4194336+16s M19:4194352+16s M24:4194368+16s M29:4194384+16s
  [s0 w0 d0 i0] C0.0a1g1t7 G0x7 M0:0+16s M5:16+16s M10:32+16s M15:48+16s M20:64+16s M25:80+16s
  [s0 w0 d0 i0] M30:96+16s
  [s1 w1 d1 i1] C65.0a1g1t7 G1x7 M0:4259840+32s M5:4259872+32s M10:4259904+32s M15:4259936+32s M20:4259968+32s M25:4260000+32s
  [s1 w1 d1 i1] M30:4260032+32s
  [s0 w0 d0 i0] C1.0a1g1t7 G1x7 M1:65536+32s M6:65568+32s M11:65600+32s M16:65632+32s M21:65664+32s M26:65696+32s
  [s0 w0 d0 i0] M31:65728+32s
  [s0 w0 d0 i0] C2.0a1g1t6 G2x6 M2:131072+64s M7:131136+64s M12:131200+64s M17:131264+64s M22:131328+64s M27:131392+64s
  [s1 w1 d1 i1] C66.0a1g1t7 G2x7 M1:4325376+64s M6:4325440+64s M11:4325504+64s M16:4325568+64s M21:4325632+64s M26:4325696+64s
  [s1 w1 d1 i1] M31:4325760+64s
  [s1 w1 d1 i1] C67.0a1g1t6 G3x6 M2:4390912+128s M7:4391040+128s M12:4391168+128s M17:4391296+128s M22:4391424+128s M27:4391552+128s
  [s1 w1 d1 i1] C68.0a1g1t6 G4x6 M3:4456448+256s M8:4456704+256s M13:4456960+256s M18:4457216+256s M23:4457472+256s M28:4457728+256s
  [s0 w0 d0 i0] C3.0a1g1t6 G3x6 M3:196608+128s M8:196736+128s M13:196864+128s M18:196992+128s M23:197120+128s M28:197248+128s
  [s0 w0 d0 i0] C4.0a1g1t6 G4x6 M4:262144+256s M9:262400+256s M14:262656+256s M19:262912+256s M24:263168+256s M29:263424+256s
  [s5 w5 d0 i0] F0:0-16 F1:65536-32 F2:131072-64 F3:196608-128 F4:262144-256 F5:16-16 F6:65568-32 F7:131136-64
  [s5 w5 d0 i0] F8:196736-128 F9:262400-256 F10:32-16 F11:65600-32 F12:131200-64 F13:196864-128 F14:262656-256 F15:48-16
  [s5 w5 d0 i0] F16:65632-32 F17:131264-64 F18:196992-128 F19:262912-256 F20:64-16 F21:65664-32 F22:131328-64 F23:197120-128
  [s5 w5 d0 i0] F24:263168-256 F25:80-16 F26:65696-32 F27:131392-64 F28:197248-128 F29:263424-256 F30:96-16 F31:65728-32
  [s0 w0 d1 i1] F0:4259840-32 F1:4325376-64 F2:4390912-128 F3:4456448-256 F4:4194304-16 F5:4259872-32 F6:4325440-64 F7:4391040-128
  [s0 w0 d1 i1] F8:4456704-256 F9:4194320-16 F10:4259904-32 F11:4325504-64 F12:4391168-128 F13:4456960-256 F14:4194336-16 F15:4259936-32
  [s0 w0 d1 i1] F16:4325568-64 F17:4391296-128 F18:4457216-256 F19:4194352-16 F20:4259968-32 F21:4325632-64 F22:4391424-128 F23:4457472-256
  [s0 w0 d1 i1] F24:4194368-16 F25:4260000-32 F26:4325696-64 F27:4391552-128 F28:4457728-256 F29:4194384-16 F30:4260032-32 F31:4325760-64
leaf 0: [15, 10, 0, 0, 54, 32, 32, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [15, 10, 0, 0, 54, 32, 32, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 0 | d1 spills [0, 0, 0] oversize 0 | local 64 peer 64
== slice block multi-segment oversize zero and idle lanes / Gallatin
steps: malloc 66 free 40
reserved after the mallocs: 764544
out w0: 0:0 1:1024 2:65536 3:917504 5:147456 6:131072 8:16 9:2048
out w0: 10:65600 11:458752 13:163840 14:131328 16:32 17:3072 18:65664 19:196608
out w0: 21:180224 22:131584 24:48 25:4096 26:65728 30:131840
out w1: 0:589824 1:590848 2:655360 3:786432 5:737280 6:720896 8:589840 9:591872
out w1: 10:655424 11:327680 13:753664 14:721152 16:589856 17:592896 18:655488 21:770048
out w1: 22:721408 24:589872 25:593920 26:655552 30:721664
events:
  [s0 w0 d0 i0] C0.0a1g1t4 G0x4 M0:0+16s M8:16+16s M16:32+16s M24:48+16s
  [s1 w1 d0 i0] C9.0a1g1t4 G0x4 M0:589824+16s M8:589840+16s M16:589856+16s M24:589872+16s
  [s1 w1 d0 i0] C10.0a1g1t4 G2x4 M2:655360+64s M10:655424+64s M18:655488+64s M26:655552+64s
  [s0 w0 d0 i0] C1.0a1g1t4 G2x4 M2:65536+64s M10:65600+64s M18:65664+64s M26:65728+64s
  [s0 w0 d0 i0] C2.0a1g1t4 G4x4 M6:131072+256s M14:131328+256s M22:131584+256s M30:131840+256s
  [s1 w1 d0 i0] C11.0a1g1t4 G4x4 M6:720896+256s M14:721152+256s M22:721408+256s M30:721664+256s
  [s0 w0 d0 i0] M*:1024+1024b M*:917504+131072L M*:147456+16384b
  [s1 w1 d0 i0] M*:590848+1024b M*:786432+131072L M*:737280+16384b
  [s0 w0 d0 i0] M*:2048+1024b M*:458752+131072L M*:163840+16384b
  [s1 w1 d0 i0] M*:591872+1024b M*:327680+131072L
  [s0 w0 d0 i0] M*:3072+1024b M*:196608+131072L M*:180224+16384b
  [s1 w1 d0 i0] M*:753664+16384b
  [s0 w0 d0 i0] M*:4096+1024b
  [s1 w1 d0 i0] M*:592896+1024b M*:770048+16384b M*:593920+1024b
  [s0 w0 d0 i0] F0:589824-16 F1:590848-1024 F2:655360-64 F3:786432-131072 F5:737280-16384
  [s5 w5 d0 i0] F0:0-16 F1:1024-1024 F2:65536-64 F3:917504-131072 F5:147456-16384
  [s0 w0 d0 i0] F6:720896-256 F8:589840-16 F9:591872-1024
  [s5 w5 d0 i0] F6:131072-256 F8:16-16 F9:2048-1024
  [s0 w0 d0 i0] F10:655424-64 F11:327680-131072 F13:753664-16384 F14:721152-256 F16:589856-16 F17:592896-1024
  [s5 w5 d0 i0] F10:65600-64 F11:458752-131072 F13:163840-16384 F14:131328-256 F16:32-16 F17:3072-1024 F18:65664-64 F19:196608-131072
  [s5 w5 d0 i0] F21:180224-16384 F22:131584-256 F24:48-16 F25:4096-1024 F26:65728-64 F30:131840-256
  [s0 w0 d0 i0] F18:655488-64 F21:770048-16384 F22:721408-256 F24:589872-16 F25:593920-1024 F26:655552-64 F30:721664-256
leaf 0: [46, 14, 0, 0, 36, 56, 43, 13, 0, 0, 0, 0, 0, 0]
pressure: none
== slice block multi-segment oversize zero and idle lanes / GallatinPool(3)
steps: malloc 74 free 44
reserved after the mallocs: 1190528
out w0: 0:0 1:1024 2:65536 3:917504 5:147456 6:131072 8:16 9:2048
out w0: 10:65600 11:786432 13:163840 14:131328 16:32 17:3072 18:65664 19:655360
out w0: 21:180224 22:131584 24:48 25:4096 26:65728 27:524288 29:196608 30:131840
out w1: 0:1900544 1:1901568 2:1966080 3:1769472 5:2048000 6:2031616 8:1900560 9:1902592
out w1: 10:1966144 11:1638400 13:2064384 14:2031872 16:1900576 17:1903616 18:1966208 19:1507328
out w1: 21:2080768 22:2032128 24:1900592 25:1904640 26:1966272 27:1376256 29:1048576 30:2032384
events:
  [s0 w0 d0 i0] C0.0a1g1t4 G0x4 M0:0+16s M8:16+16s M16:32+16s M24:48+16s
  [s1 w1 d0 i1] C29.0a1g1t4 G0x4 M0:1900544+16s M8:1900560+16s M16:1900576+16s M24:1900592+16s
  [s1 w1 d0 i1] C30.0a1g1t4 G2x4 M2:1966080+64s M10:1966144+64s M18:1966208+64s M26:1966272+64s
  [s0 w0 d0 i0] C1.0a1g1t4 G2x4 M2:65536+64s M10:65600+64s M18:65664+64s M26:65728+64s
  [s0 w0 d0 i0] C2.0a1g1t4 G4x4 M6:131072+256s M14:131328+256s M22:131584+256s M30:131840+256s
  [s1 w1 d0 i1] C31.0a1g1t4 G4x4 M6:2031616+256s M14:2031872+256s M22:2032128+256s M30:2032384+256s
  [s0 w0 d0 i0] M*:1024+1024b M*:917504+131072L M*:147456+16384b
  [s1 w1 d0 i1] M*:1901568+1024b M*:1769472+131072L M*:2048000+16384b
  [s0 w0 d0 i0] M*:2048+1024b M*:786432+131072L M*:163840+16384b
  [s1 w1 d0 i1] M*:1902592+1024b M*:1638400+131072L
  [s0 w0 d0 i0] M*:3072+1024b M*:655360+131072L M*:180224+16384b
  [s1 w1 d0 i1] M*:2064384+16384b
  [s0 w0 d0 i0] M*:4096+1024b M*:524288+131072L
  [s1 w1 d0 i1] M*:1903616+1024b M*:1507328+131072L M*:2080768+16384b M*:1904640+1024b M*:1376256+131072L M*:1048576+16384b
  [s0 w0 d0 i0] M*:196608+16384b
  [s0 w0 d0 i1] F0:1900544-16 F1:1901568-1024 F2:1966080-64 F3:1769472-131072 F5:2048000-16384
  [s5 w5 d0 i0] F0:0-16 F1:1024-1024 F2:65536-64 F3:917504-131072 F5:147456-16384
  [s0 w0 d0 i1] F6:2031616-256 F8:1900560-16 F9:1902592-1024
  [s5 w5 d0 i0] F6:131072-256 F8:16-16 F9:2048-1024
  [s0 w0 d0 i1] F10:1966144-64 F11:1638400-131072 F13:2064384-16384 F14:2031872-256 F16:1900576-16 F17:1903616-1024
  [s5 w5 d0 i0] F10:65600-64 F11:786432-131072 F13:163840-16384 F14:131328-256 F16:32-16 F17:3072-1024 F18:65664-64 F19:655360-131072
  [s5 w5 d0 i0] F21:180224-16384 F22:131584-256 F24:48-16 F25:4096-1024 F26:65728-64 F27:524288-131072 F29:196608-16384
  [s0 w0 d0 i1] F18:1966208-64 F19:1507328-131072 F21:2080768-16384
  [s5 w5 d0 i0] F30:131840-256
  [s0 w0 d0 i1] F22:2032128-256 F24:1900592-16 F25:1904640-1024 F26:1966272-64 F27:1376256-131072 F29:1048576-16384 F30:2032384-256
leaf 0: [26, 8, 0, 0, 18, 24, 24, 0, 1, 0, 0, 0, 0, 0]
leaf 1: [26, 8, 0, 0, 18, 24, 24, 0, 1, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 8
== slice block multi-segment oversize zero and idle lanes / DevicePool(2x3)
steps: malloc 74 free 44
reserved after the mallocs: 1190528
out w0: 0:0 1:1024 2:65536 3:917504 5:147456 6:131072 8:16 9:2048
out w0: 10:65600 11:786432 13:163840 14:131328 16:32 17:3072 18:65664 19:655360
out w0: 21:180224 22:131584 24:48 25:4096 26:65728 27:524288 29:196608 30:131840
out w1: 0:4194304 1:4195328 2:4259840 3:5111808 5:4341760 6:4325376 8:4194320 9:4196352
out w1: 10:4259904 11:4980736 13:4358144 14:4325632 16:4194336 17:4197376 18:4259968 19:4849664
out w1: 21:4374528 22:4325888 24:4194352 25:4198400 26:4260032 27:4718592 29:4390912 30:4326144
events:
  [s0 w0 d0 i0] C0.0a1g1t4 G0x4 M0:0+16s M8:16+16s M16:32+16s M24:48+16s
  [s1 w1 d1 i1] C64.0a1g1t4 G0x4 M0:4194304+16s M8:4194320+16s M16:4194336+16s M24:4194352+16s
  [s1 w1 d1 i1] C65.0a1g1t4 G2x4 M2:4259840+64s M10:4259904+64s M18:4259968+64s M26:4260032+64s
  [s0 w0 d0 i0] C1.0a1g1t4 G2x4 M2:65536+64s M10:65600+64s M18:65664+64s M26:65728+64s
  [s0 w0 d0 i0] C2.0a1g1t4 G4x4 M6:131072+256s M14:131328+256s M22:131584+256s M30:131840+256s
  [s1 w1 d1 i1] C66.0a1g1t4 G4x4 M6:4325376+256s M14:4325632+256s M22:4325888+256s M30:4326144+256s
  [s0 w0 d0 i0] M*:1024+1024b M*:917504+131072L M*:147456+16384b
  [s1 w1 d1 i1] M*:4195328+1024b M*:5111808+131072L M*:4341760+16384b
  [s0 w0 d0 i0] M*:2048+1024b M*:786432+131072L M*:163840+16384b
  [s1 w1 d1 i1] M*:4196352+1024b M*:4980736+131072L
  [s0 w0 d0 i0] M*:3072+1024b M*:655360+131072L M*:180224+16384b
  [s1 w1 d1 i1] M*:4358144+16384b
  [s0 w0 d0 i0] M*:4096+1024b M*:524288+131072L
  [s1 w1 d1 i1] M*:4197376+1024b M*:4849664+131072L M*:4374528+16384b M*:4198400+1024b M*:4718592+131072L M*:4390912+16384b
  [s0 w0 d0 i0] M*:196608+16384b
  [s0 w0 d1 i1] F0:4194304-16 F1:4195328-1024 F2:4259840-64 F3:5111808-131072 F5:4341760-16384
  [s5 w5 d0 i0] F0:0-16 F1:1024-1024 F2:65536-64 F3:917504-131072 F5:147456-16384
  [s0 w0 d1 i1] F6:4325376-256 F8:4194320-16 F9:4196352-1024
  [s5 w5 d0 i0] F6:131072-256 F8:16-16 F9:2048-1024
  [s0 w0 d1 i1] F10:4259904-64 F11:4980736-131072 F13:4358144-16384 F14:4325632-256 F16:4194336-16 F17:4197376-1024
  [s5 w5 d0 i0] F10:65600-64 F11:786432-131072 F13:163840-16384 F14:131328-256 F16:32-16 F17:3072-1024 F18:65664-64 F19:655360-131072
  [s5 w5 d0 i0] F21:180224-16384 F22:131584-256 F24:48-16 F25:4096-1024 F26:65728-64 F27:524288-131072 F29:196608-16384
  [s0 w0 d1 i1] F18:4259968-64 F19:4849664-131072 F21:4374528-16384
  [s5 w5 d0 i0] F30:131840-256
  [s0 w0 d1 i1] F22:4325888-256 F24:4194352-16 F25:4198400-1024 F26:4260032-64 F27:4718592-131072 F29:4390912-16384 F30:4326144-256
leaf 0: [26, 8, 0, 0, 18, 24, 24, 0, 1, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [26, 8, 0, 0, 18, 24, 24, 0, 1, 0, 0, 0, 0, 0]
leaf 5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 4 | d1 spills [0, 0, 0] oversize 4 | local 48 peer 48
== all lanes idle / Gallatin
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: none
== all lanes idle / GallatinPool(3)
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 0
== all lanes idle / DevicePool(2x3)
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 0 | d1 spills [0, 0, 0] oversize 0 | local 0 peer 0
== all lanes oversize / Gallatin
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 192, 0, 192, 0, 0, 0, 0, 0, 0]
pressure: none
== all lanes oversize / GallatinPool(3)
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 192
== all lanes oversize / DevicePool(2x3)
steps: malloc 6 free 6
reserved after the mallocs: 0
events:
leaf 0: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 96 | d1 spills [0, 0, 0] oversize 96 | local 0 peer 0
== three owners interleaved with NULLs freed from SM 5 / Gallatin
steps: malloc 51 free 20
reserved after the mallocs: 396960
out w0: 0:1024 1:196608 2:262272 3:1040 4:196640 5:262336 6:2048 7:655360
out w1: 0:200704 1:69632 2:589824 3:200736 4:69696 5:589840 6:591872 7:786432
out w2: 0:262144 1:0 2:198656 3:262208 4:16 5:198688 6:590848 7:917504
events:
  [s2 w2 d0 i0] C0.0a1g1t2 G0x2 M1:0+16s M4:16+16s
  [s0 w0 d0 i0] C0.1a1g1t2 G0x2 M0:1024+16s M3:1040+16s
  [s0 w0 d0 i0] C3.0a1g1t2 G1x2 M1:196608+32s M4:196640+32s
  [s2 w2 d0 i0] C3.1a1g1t2 G1x2 M2:198656+32s M5:198688+32s
  [s1 w1 d0 i0] C9.0a1g1t2 G0x2 M2:589824+16s M5:589840+16s
  [s2 w2 d0 i0] C4.0a1g1t2 G2x2 M0:262144+64s M3:262208+64s M*:590848+1024b M*:917504+131072L
  [s1 w1 d0 i0] C3.2a1g1t2 G1x2 M0:200704+32s M3:200736+32s
  [s1 w1 d0 i0] C1.1a1g1t2 G2x2 M1:69632+64s M4:69696+64s
  [s0 w0 d0 i0] C4.0a1g1t2 G2x2 M2:262272+64s M5:262336+64s
  [s1 w1 d0 i0] M*:591872+1024b M*:786432+131072L
  [s0 w0 d0 i0] M*:2048+1024b M*:655360+131072L
  [s5 w5 d0 i0] F0:1024-16 F1:200704-32 F2:262144-64 F4:69632-64 F5:0-16 F6:196608-32 F8:198656-32 F9:262272-64
  [s5 w5 d0 i0] F10:589824-16 F12:1040-16 F13:200736-32 F14:262208-64 F16:69696-64 F17:16-16 F18:196640-32 F20:198688-32
  [s5 w5 d0 i0] F21:262336-64 F22:589840-16 F24:2048-1024 F25:591872-1024 F26:590848-1024 F28:786432-131072 F29:917504-131072 F30:655360-131072
leaf 0: [29, 14, 0, 0, 19, 24, 24, 0, 0, 0, 0, 0, 0, 0]
pressure: none
== three owners interleaved with NULLs freed from SM 5 / GallatinPool(3)
steps: malloc 57 free 21
reserved after the mallocs: 396960
out w0: 0:0 1:65536 2:131072 3:16 4:65568 5:131136 6:1024 7:917504
out w1: 0:1966080 1:2031616 2:1900544 3:1966112 4:2031680 5:1900560 6:1901568 7:1769472
out w2: 0:2228224 1:2097152 2:2162688 3:2228288 4:2097168 5:2162720 6:2098176 7:3014656
events:
  [s0 w0 d0 i0] C0.0a1g1t2 G0x2 M0:0+16s M3:16+16s
  [s2 w2 d0 i2] C32.0a1g1t2 G0x2 M1:2097152+16s M4:2097168+16s
  [s2 w2 d0 i2] C33.0a1g1t2 G1x2 M2:2162688+32s M5:2162720+32s
  [s1 w1 d0 i1] C29.0a1g1t2 G0x2 M2:1900544+16s M5:1900560+16s
  [s0 w0 d0 i0] C1.0a1g1t2 G1x2 M1:65536+32s M4:65568+32s
  [s2 w2 d0 i2] C34.0a1g1t2 G2x2 M0:2228224+64s M3:2228288+64s M*:2098176+1024b M*:3014656+131072L
  [s0 w0 d0 i0] C2.0a1g1t2 G2x2 M2:131072+64s M5:131136+64s
  [s1 w1 d0 i1] C30.0a1g1t2 G1x2 M0:1966080+32s M3:1966112+32s
  [s0 w0 d0 i0] M*:1024+1024b M*:917504+131072L
  [s1 w1 d0 i1] C31.0a1g1t2 G2x2 M1:2031616+64s M4:2031680+64s M*:1901568+1024b M*:1769472+131072L
  [s5 w5 d0 i0] F0:0-16 F6:65536-32 F9:131072-64 F12:16-16 F18:65568-32 F21:131136-64 F24:1024-1024 F30:917504-131072
  [s5 w5 d0 i1] F1:1966080-32 F4:2031616-64 F10:1900544-16 F13:1966112-32 F16:2031680-64 F22:1900560-16 F25:1901568-1024 F28:1769472-131072
  [s5 w5 d0 i2] F2:2228224-64 F5:2097152-16 F8:2162688-32 F14:2228288-64 F17:2097168-16 F20:2162720-32 F26:2098176-1024 F29:3014656-131072
leaf 0: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
pressure: spills [0, 0, 0] oversize 0
== three owners interleaved with NULLs freed from SM 5 / DevicePool(2x3)
steps: malloc 57 free 21
reserved after the mallocs: 396960
out w0: 0:0 1:65536 2:131072 3:16 4:65568 5:131136 6:1024 7:917504
out w1: 0:4259840 1:4325376 2:4194304 3:4259872 4:4325440 5:4194320 6:4195328 7:5111808
out w2: 0:2228224 1:2097152 2:2162688 3:2228288 4:2097168 5:2162720 6:2098176 7:3014656
events:
  [s0 w0 d0 i0] C0.0a1g1t2 G0x2 M0:0+16s M3:16+16s
  [s2 w2 d0 i2] C32.0a1g1t2 G0x2 M1:2097152+16s M4:2097168+16s
  [s2 w2 d0 i2] C33.0a1g1t2 G1x2 M2:2162688+32s M5:2162720+32s
  [s1 w1 d1 i1] C64.0a1g1t2 G0x2 M2:4194304+16s M5:4194320+16s
  [s0 w0 d0 i0] C1.0a1g1t2 G1x2 M1:65536+32s M4:65568+32s
  [s2 w2 d0 i2] C34.0a1g1t2 G2x2 M0:2228224+64s M3:2228288+64s M*:2098176+1024b M*:3014656+131072L
  [s0 w0 d0 i0] C2.0a1g1t2 G2x2 M2:131072+64s M5:131136+64s
  [s1 w1 d1 i1] C65.0a1g1t2 G1x2 M0:4259840+32s M3:4259872+32s
  [s0 w0 d0 i0] M*:1024+1024b M*:917504+131072L
  [s1 w1 d1 i1] C66.0a1g1t2 G2x2 M1:4325376+64s M4:4325440+64s M*:4195328+1024b M*:5111808+131072L
  [s5 w5 d0 i0] F0:0-16 F6:65536-32 F9:131072-64 F12:16-16 F18:65568-32 F21:131136-64 F24:1024-1024 F30:917504-131072
  [s5 w5 d0 i2] F2:2228224-64 F5:2097152-16 F8:2162688-32 F14:2228288-64 F17:2097168-16 F20:2162720-32 F26:2098176-1024 F29:3014656-131072
  [s5 w5 d1 i1] F1:4259840-32 F4:4325376-64 F10:4194304-16 F13:4259872-32 F16:4325440-64 F22:4194320-16 F25:4195328-1024 F28:5111808-131072
leaf 0: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 2: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 3: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
leaf 4: [11, 6, 0, 0, 6, 8, 8, 0, 0, 0, 0, 0, 0, 0]
leaf 5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
pressure: cross [0, 0] | d0 spills [0, 0, 0] oversize 0 | d1 spills [0, 0, 0] oversize 0 | local 32 peer 16
== a hot home spilling on a tight pool / Gallatin
steps: malloc 16 free 8
reserved after the mallocs: 32
out w0: 0:0
out w3: 0:65536
events:
  [s3 w3 d0 i0] C1.0a1g1t1 G0x1 M0:65536+16s
  [s0 w0 d0 i0] C0.0a1g1t1 G0x1 M0:0+16s
  [s2 w2 d0 i0] F0:65536-16
  [s5 w5 d0 i0] F0:0-16
leaf 0: [6, 4, 0, 0, 0, 64, 2, 62, 0, 0, 0, 0, 0, 0]
pressure: none
== a hot home spilling on a tight pool / GallatinPool(3)
steps: malloc 36 free 12
reserved after the mallocs: 224
out w0: 0:65536 1:131072 2:262144
out w3: 0:0 1:133120 2:327680
events:
  [s3 w3 d0 i0] C0.0a1g1t1 G0x1 M0:0+16s
  [s0 w0 d0 i0] C1.0a1g1t1 G0x1 M0:65536+16s
  [s3 w3 d0 i1] C2.1a1g1t1 G1x1 M1:133120+32s
  [s0 w0 d0 i1] C2.0a1g1t1 G1x1 M1:131072+32s
  [s0 w0 d0 i2] C4.0a1g1t1 G2x1 M2:262144+64s
  [s3 w3 d0 i2] C5.0a1g1t1 G2x1 M2:327680+64s
  [s2 w2 d0 i0] F0:0-16
  [s5 w5 d0 i0] F0:65536-16
  [s5 w5 d0 i1] F1:131072-32
  [s2 w2 d0 i1] F1:133120-32
  [s5 w5 d0 i2] F2:262144-64
  [s2 w2 d0 i2] F2:327680-64
leaf 0: [6, 4, 0, 0, 0, 64, 2, 62, 0, 0, 0, 0, 0, 0]
leaf 1: [6, 4, 0, 0, 0, 62, 2, 60, 0, 0, 0, 0, 0, 0]
leaf 2: [6, 4, 0, 0, 0, 60, 2, 58, 0, 0, 0, 0, 0, 0]
pressure: spills [4, 0, 0] oversize 0
== a hot home spilling on a tight pool / DevicePool(2x3)
steps: malloc 90 free 46
reserved after the mallocs: 262624
out w0: 0:0 1:65536 2:131072 3:196608 4:262144 5:278528 6:294912 7:311296
out w0: 8:327680 9:344064 10:360448 11:376832 12:737280
out w3: 0:393216 1:458752 2:524288 3:589824 4:655360 5:671744 6:688128 7:704512
out w3: 8:720896 9:753664 10:770048
events:
  [s3 w3 d1 i0] C6.0a1g1t1 G0x1 M0:393216+16s
  [s0 w0 d0 i0] C0.0a1g1t1 G0x1 M0:0+16s
  [s3 w3 d1 i0] C7.0a1g1t1 G1x1 M1:458752+32s
  [s0 w0 d0 i0] C1.0a1g1t1 G1x1 M1:65536+32s
  [s0 w0 d0 i1] C2.0a1g1t1 G2x1 M2:131072+64s
  [s3 w3 d1 i1] C8.0a1g1t1 G2x1 M2:524288+64s
  [s0 w0 d0 i1] C3.0a1g1t1 G3x1 M3:196608+128s
  [s0 w0 d0 i2] M*:262144+16384b
  [s3 w3 d1 i1] C9.0a1g1t1 G3x1 M3:589824+128s
  [s0 w0 d0 i2] M*:278528+16384b
  [s3 w3 d1 i2] M*:655360+16384b
  [s0 w0 d0 i2] M*:294912+16384b
  [s3 w3 d1 i2] M*:671744+16384b M*:688128+16384b
  [s0 w0 d0 i2] M*:311296+16384b M*:327680+16384b
  [s3 w3 d1 i2] M*:704512+16384b
  [s0 w0 d0 i2] M*:344064+16384b M*:360448+16384b M*:376832+16384b
  [s3 w3 d1 i2] M*:720896+16384b M*:753664+16384b
  [s0 w0 d1 i2] M*:737280+16384b
  [s3 w3 d1 i2] M*:770048+16384b
  [s2 w2 d1 i0] F0:393216-16 F1:458752-32
  [s5 w5 d0 i0] F0:0-16 F1:65536-32
  [s5 w5 d0 i1] F2:131072-64 F3:196608-128
  [s5 w5 d0 i2] F4:262144-16384
  [s2 w2 d1 i1] F2:524288-64 F3:589824-128
  [s2 w2 d1 i2] F4:655360-16384
  [s5 w5 d0 i2] F5:278528-16384
  [s2 w2 d1 i2] F5:671744-16384
  [s5 w5 d0 i2] F6:294912-16384
  [s2 w2 d1 i2] F6:688128-16384
  [s5 w5 d0 i2] F7:311296-16384 F8:327680-16384 F9:344064-16384 F10:360448-16384 F11:376832-16384
  [s2 w2 d1 i2] F7:704512-16384
  [s5 w5 d1 i2] F12:737280-16384
  [s2 w2 d1 i2] F8:720896-16384 F9:753664-16384 F10:770048-16384
leaf 0: [6, 4, 0, 0, 0, 53, 2, 51, 0, 0, 0, 0, 0, 0]
leaf 1: [6, 4, 0, 0, 0, 51, 2, 49, 0, 0, 0, 0, 0, 0]
leaf 2: [18, 4, 0, 0, 0, 49, 8, 41, 2, 0, 0, 0, 0, 0]
leaf 3: [6, 4, 0, 0, 0, 52, 2, 50, 0, 0, 0, 0, 0, 0]
leaf 4: [6, 4, 0, 0, 0, 50, 2, 48, 0, 0, 0, 0, 0, 0]
leaf 5: [18, 4, 0, 0, 0, 48, 8, 40, 2, 0, 0, 0, 0, 0]
pressure: cross [1, 0] | d0 spills [10, 0, 0] oversize 0 | d1 spills [10, 0, 0] oversize 0 | local 24 peer 24
";
