//! The warp-collective path pinned from outside: what `warp_malloc` and
//! `warp_free` hand out, count and emit for sparse, full, mixed and
//! empty warps on a lone [`Gallatin`], a 3-instance [`GallatinPool`] and
//! a 2×3 [`DevicePool`], as a recorded document (`fixtures/collective_
//! golden.txt`) — plus a property test against the lane-loop oracle.
//!
//! Group order is part of the schedule: slice classes ascending, then
//! block classes ascending (lanes ascending inside a class), then
//! multi-segment lanes; on a free, children ascending, and inside a leaf
//! whole-block runs by leader, then slice groups by leader. A regrouping
//! that serves the same lanes in another order issues its CASes in
//! another order, and every pointer, `sim_*` step count and trace byte
//! downstream moves with it. The document is what notices.
//!
//! Re-recording (only when the schedule moves on purpose): a failing run
//! writes what it saw to `$CARGO_TARGET_TMPDIR/collective_golden.actual`;
//! that file replaces the fixture.

use gallatin::{DevicePool, Gallatin, GallatinConfig, GallatinPool};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::trace::{self, AllocTier, TraceEvent, TraceRecord, TraceSink, LANE_NONE};
use gpu_sim::{
    cases, launch_warps_counted, AllocStats, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx,
};
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

fn pool_pressure(s: &AllocStats) -> String {
    let spills: Vec<u64> = s.children.iter().map(|i| i.spills).collect();
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
        pool_pressure(&self.stats())
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
        let (s, m) = (self.stats(), self.metrics().unwrap().snapshot());
        let cross: Vec<u64> = s.children.iter().map(|d| d.spills).collect();
        format!(
            "cross {cross:?} | d0 {} | d1 {} | local {} peer {}",
            pool_pressure(&s.children[0]),
            pool_pressure(&s.children[1]),
            m.local_accesses,
            m.peer_accesses
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

/// What [`run`] printed for every scenario and subject when last recorded.
const GOLDEN: &str = include_str!("fixtures/collective_golden.txt");

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
            "collective output differs from the fixture at line {}:\n  saw      {:?}\n  expected \
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

/// The collective malloc as a lane loop: every lane slot per slice class
/// as one call, then every whole-block lane alone — block classes
/// ascending, lanes ascending inside a class — then the multi-segment and
/// oversize lanes alone; each issued to `alloc` as a call of its own,
/// which is what makes the order observable from outside. On a router
/// the groups of one warp reach a sibling interleaved differently than in
/// one call, but every *leaf* sees its requests in the same order, and
/// leaves share nothing.
fn oracle_malloc<A: Subject>(
    alloc: &A,
    heap: u64,
    warp: &WarpCtx,
    sizes: &[Option<u64>],
) -> Vec<DevicePtr> {
    let geo = GallatinConfig::small_test(heap).geometry();
    let k = sizes.len();
    let mut out = vec![DevicePtr::NULL; k];
    let slice = |lane: usize| sizes[lane].and_then(|sz| geo.slice_class(sz.max(1)));
    for class in 0..geo.num_classes {
        let mut part = vec![None; k];
        for lane in 0..k {
            if slice(lane) == Some(class) {
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
    // Block classes ascending; `None` — multi-segment, oversize — sorts last.
    let block = |lane: usize| sizes[lane].and_then(|sz| geo.block_class(sz)).unwrap_or(usize::MAX);
    let mut alone: Vec<_> = (0..k).filter(|&l| sizes[l].is_some() && slice(l).is_none()).collect();
    alone.sort_by_key(|&lane| (block(lane), lane));
    for lane in alone {
        out[lane] = alloc.malloc(&warp.lane(lane), sizes[lane].unwrap());
    }
    out
}

/// The whole-block lanes of one call, a run per segment in order of its
/// leader: the lanes that share a ring ticket, a bitmap RMW per word and a
/// set-bit, on the malloc that served them and on the free that returns them.
fn block_runs(heap: u64, sizes: &[Option<u64>], ptrs: &[DevicePtr]) -> Vec<Vec<usize>> {
    let geo = GallatinConfig::small_test(heap).geometry();
    let whole = |sz: u64| sz > geo.max_slice() && geo.block_class(sz).is_some();
    let mut runs: Vec<(u64, Vec<usize>)> = Vec::new();
    for lane in (0..ptrs.len()).filter(|&l| sizes[l].is_some_and(whole) && !ptrs[l].is_null()) {
        let seg = geo.segment_of(ptrs[lane].0);
        match runs.iter_mut().find(|(s, _)| *s == seg) {
            Some((_, lanes)) => lanes.push(lane),
            None => runs.push((seg, vec![lane])),
        }
    }
    runs.into_iter().map(|(_, lanes)| lanes).collect()
}

/// Add to `saved` the `atomic_rmw` a lane loop spends and the collective
/// call does not, per leaf: the counted ring RMW of every lane of a run
/// beyond its first (shared bitmap RMWs and set-bits count on neither side).
fn share_tickets(saved: &mut [u64], heap: u64, sizes: &[Option<u64>], ptrs: &[DevicePtr]) {
    for run in block_runs(heap, sizes, ptrs) {
        saved[(ptrs[run[0]].0 / heap) as usize] += run.len() as u64 - 1;
    }
}

/// The collective free as a lane loop: every owning leaf in turn
/// (`ptr / heap`: nothing is donated here) zero-fills a warp-wide vector
/// and rescans all lanes for its slice and multi-segment pointers, then
/// returns its whole blocks one call a lane, in run order. (A leaf does the
/// runs first; one warp's events and counters cannot tell, the steps do.)
fn oracle_free<A: Subject>(
    alloc: &A,
    heap: u64,
    warp: &WarpCtx,
    sizes: &[Option<u64>],
    ptrs: &[DevicePtr],
) {
    let runs = block_runs(heap, sizes, ptrs);
    let whole = |lane: usize| runs.iter().any(|run| run.contains(&lane));
    let null = vec![DevicePtr::NULL; ptrs.len()];
    for leaf in 0..alloc.leaves().len() as u64 {
        let mine = |lane: usize| !ptrs[lane].is_null() && ptrs[lane].0 / heap == leaf;
        let mut local = null.clone();
        for lane in (0..ptrs.len()).filter(|&l| mine(l) && !whole(l)) {
            local[lane] = ptrs[lane];
        }
        if local != null {
            alloc.warp_free(warp, &local);
        }
        for &lane in runs.iter().flatten().filter(|&&l| mine(l)) {
            let mut one = null.clone();
            one[lane] = ptrs[lane];
            alloc.warp_free(warp, &one);
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

fn check_against_oracle<A: Subject>(sm: u32, active: usize, idle: u32, draws: &[u32]) {
    let (real, twin) = (A::build(TIGHT), A::build(TIGHT));
    let (real_sink, twin_sink) = (Arc::new(TraceSink::new()), Arc::new(TraceSink::new()));
    let warp = WarpCtx { warp_id: sm as u64, sm_id: sm, base_tid: 0, active: active as u32 };
    let foreign = WarpCtx { warp_id: 9, sm_id: sm + 1, base_tid: 9 * 32, active: active as u32 };
    let mut held = Vec::new();
    // What the twin's lane loop has spent in `atomic_rmw` over `real`, a leaf.
    let mut saved = vec![0u64; real.leaves().len()];
    let minus_saved = |twin: &A, saved: &[u64]| {
        let mut counts = leaf_counters(twin);
        counts.iter_mut().zip(saved).for_each(|(c, s)| c[0] -= s);
        counts
    };
    for round in draws.chunks(active) {
        let mut sizes: Vec<_> = round.iter().map(|&d| request(d, idle)).collect();
        sizes.resize(active, None);
        let mut out = vec![DevicePtr(7); active];
        trace::with_sink(real_sink.clone(), || real.warp_malloc(&warp, &sizes, &mut out));
        let expect =
            trace::with_sink(twin_sink.clone(), || oracle_malloc(&twin, TIGHT, &warp, &sizes));
        assert_eq!(&out, &expect, "served set and pointers, sizes {:?}", sizes);
        share_tickets(&mut saved, TIGHT, &sizes, &out);
        held.push((sizes, out));
    }
    assert_eq!(events_by_leaf(&real_sink), events_by_leaf(&twin_sink), "group order");
    assert_eq!(leaf_counters(&real), minus_saved(&twin, &saved), "counts after the mallocs");
    assert_eq!(real.pressure(), twin.pressure(), "spills and denials");
    let coalesced = |a: &A| leaf_counters(a).iter().map(|c| c[4]).sum::<u64>();
    let before = coalesced(&real);
    let mut saved_adds = 0;
    for (sizes, ptrs) in &held {
        trace::with_sink(real_sink.clone(), || real.warp_free(&foreign, ptrs));
        trace::with_sink(twin_sink.clone(), || oracle_free(&twin, TIGHT, &foreign, sizes, ptrs));
        saved_adds += coalesced_frees(TIGHT, sizes, ptrs);
        share_tickets(&mut saved, TIGHT, sizes, ptrs);
    }
    assert_eq!(coalesced(&real) - before, saved_adds, "one fetch_add a block on the free");
    assert_eq!(events_by_leaf(&real_sink), events_by_leaf(&twin_sink), "free order");
    assert_eq!(leaf_counters(&real), minus_saved(&twin, &saved), "counts after the frees");
    assert_eq!(real.pressure(), twin.pressure(), "tariff after the frees");
    for a in [&real, &twin] {
        assert_eq!(a.stats().reserved_bytes, 0);
        a.check_invariants().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Random sparse warps from one hot SM on two-segment leaves: the
/// collective call and the lane-loop oracle serve the same lanes the
/// same pointers, in the same order per leaf, for the same counters.
#[test]
fn sparse_warps_match_the_lane_loop_oracle() {
    cases("sparse_warps_match_the_lane_loop_oracle", 96, |rng| {
        let (subject, sm, active, idle) = (
            rng.below(3),
            rng.below(SMS.into()) as u32,
            1 + rng.below(LANES as u64) as usize,
            rng.below(950) as u32,
        );
        let draws: Vec<u32> =
            (0..1 + rng.below(6 * LANES as u64 - 1)).map(|_| rng.below(1000) as u32).collect();
        match subject {
            0 => check_against_oracle::<Gallatin>(sm, active, idle, &draws),
            1 => check_against_oracle::<GallatinPool>(sm, active, idle, &draws),
            _ => check_against_oracle::<DevicePool>(sm, active, idle, &draws),
        }
    });
}
