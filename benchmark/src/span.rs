//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: `unit` → `launch` → `warp` → {`gen`, `core.<tier>.malloc`,
//! `mem.stamp`, `mem.verify`, `core.<tier>.free`, `graph.*`}.
//!
//! Every span has a name, start, end, the span that caused it and the
//! unit it belongs to. Spans are reduced as they arrive to per-name
//! counts, self-time sums and duration histograms (constant memory);
//! the raw spans of the first units are kept and written in Chrome
//! `trace_event` form when the run ends.

use crate::stats::Hist;
use gpu_sim::{DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics, WarpCtx};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names; the discriminant indexes [`Reduced::by_name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Name {
    Unit,
    Launch,
    Warp,
    Gen,
    Stamp,
    Verify,
    GraphInsert,
    GraphDelete,
    SliceMalloc,
    BlockMalloc,
    SegmentMalloc,
    SliceFree,
    BlockFree,
    SegmentFree,
}

/// Number of [`Name`] variants.
pub const N_NAMES: usize = 14;

impl Name {
    /// The name written to the trace file and used in the README.
    pub fn label(self) -> &'static str {
        match self {
            Name::Unit => "unit",
            Name::Launch => "launch",
            Name::Warp => "warp",
            Name::Gen => "gen",
            Name::Stamp => "mem.stamp",
            Name::Verify => "mem.verify",
            Name::GraphInsert => "graph.insert",
            Name::GraphDelete => "graph.delete",
            Name::SliceMalloc => "core.slice.malloc",
            Name::BlockMalloc => "core.block.malloc",
            Name::SegmentMalloc => "core.segment.malloc",
            Name::SliceFree => "core.slice.free",
            Name::BlockFree => "core.block.free",
            Name::SegmentFree => "core.segment.free",
        }
    }

    /// Whether the span is time inside the allocator under test.
    pub fn is_core(self) -> bool {
        self as u8 >= Name::SliceMalloc as u8
    }
}

/// Which of Gallatin's three tiers serves a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Tier {
    Slice = 1,
    Block = 2,
    Segment = 3,
}

impl Tier {
    fn malloc_name(self) -> Name {
        match self {
            Tier::Slice => Name::SliceMalloc,
            Tier::Block => Name::BlockMalloc,
            Tier::Segment => Name::SegmentMalloc,
        }
    }

    fn free_name(self) -> Name {
        match self {
            Tier::Slice => Name::SliceFree,
            Tier::Block => Name::BlockFree,
            Tier::Segment => Name::SegmentFree,
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a unit.
    pub parent: u32,
    /// What the span measures.
    pub name: Name,
    /// The unit the span belongs to: spans of one unit share it.
    pub unit: u32,
    /// Warp that ran the span (0 for driver-thread spans).
    pub warp: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Requests the span served (lanes of a warp call; 0 if not a call).
    pub lanes: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval). Children may overlap one another —
/// warps of one launch run in parallel.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover.
pub fn self_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_ns(start, end, children)
}

/// Per-name reduction of every span of a run.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Requests those spans served.
    pub lanes: u64,
    /// Sum of durations.
    pub dur_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Histogram of duration ÷ requests (ns per request) for calls, of
    /// duration otherwise.
    pub per_request: Hist,
}

/// The reduced form of a traced pass.
#[derive(Clone, Debug)]
pub struct Reduced {
    /// Indexed by `Name as usize`.
    pub by_name: Vec<NameStats>,
    /// Raw spans of the first units, for the trace file.
    pub raw: Vec<Span>,
}

impl Reduced {
    /// The reduction for one name.
    pub fn get(&self, name: Name) -> &NameStats {
        &self.by_name[name as usize]
    }

    /// Sum of self times over the names `pick` selects.
    pub fn self_sum(&self, pick: impl Fn(Name) -> bool) -> u64 {
        ALL_NAMES.iter().filter(|n| pick(**n)).map(|n| self.get(*n).self_ns).sum()
    }
}

/// Every name, in discriminant order.
pub const ALL_NAMES: [Name; N_NAMES] = [
    Name::Unit,
    Name::Launch,
    Name::Warp,
    Name::Gen,
    Name::Stamp,
    Name::Verify,
    Name::GraphInsert,
    Name::GraphDelete,
    Name::SliceMalloc,
    Name::BlockMalloc,
    Name::SegmentMalloc,
    Name::SliceFree,
    Name::BlockFree,
    Name::SegmentFree,
];

const STRIPES: usize = 16;
/// No unit is open: calls made now (filling the ring before a pass,
/// draining it after) are not part of any unit and are not recorded.
const NO_UNIT: u32 = u32::MAX;
/// Raw spans are kept for the first units of a traced pass …
pub const RAW_UNITS: u32 = 200;
/// … up to this many spans, so a trace file stays loadable.
pub const RAW_SPAN_BUDGET: i64 = 100_000;

#[derive(Default)]
struct Stripe {
    by_name: Vec<NameStats>,
    raw: Vec<Span>,
    /// `(start, end)` of the warps of the launch in flight.
    launch_warps: Vec<(u64, u64)>,
}

thread_local! {
    /// `(parent span id, unit)` for spans the [`Probe`] records on this
    /// thread; `(0, NO_UNIT)` outside any scope.
    static SCOPE: Cell<(u32, u32)> = const { Cell::new((0, NO_UNIT)) };
    /// Nanoseconds of child spans recorded on this thread since the
    /// enclosing scope last read it.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Collects spans from the driver thread and from every warp.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    raw_budget: AtomicI64,
    /// Unit in flight, for spans recorded outside any warp scope (the
    /// serving engine's launches, which the benchmark does not write);
    /// `NO_UNIT` between units, when the probe records nothing.
    current_unit: AtomicU32,
    /// Summed duration of the launches of the unit in flight, which the
    /// unit's self time leaves out.
    launches_ns: AtomicU64,
    stripes: Vec<Mutex<Stripe>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            raw_budget: AtomicI64::new(RAW_SPAN_BUDGET),
            current_unit: AtomicU32::new(NO_UNIT),
            launches_ns: AtomicU64::new(0),
            stripes: (0..STRIPES)
                .map(|_| {
                    Mutex::new(Stripe {
                        by_name: vec![NameStats::default(); N_NAMES],
                        ..Default::default()
                    })
                })
                .collect(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ids(&self, n: u32) -> u32 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    fn stripe(&self, warp: u32) -> std::sync::MutexGuard<'_, Stripe> {
        self.stripes[warp as usize % STRIPES].lock().expect("span stripe lock")
    }

    fn push(stripe: &mut Stripe, budget: &AtomicI64, span: Span, self_ns: u64) {
        let st = &mut stripe.by_name[span.name as usize];
        st.count += 1;
        st.lanes += span.lanes as u64;
        st.dur_ns += span.dur();
        st.self_ns += self_ns;
        st.per_request.add(span.dur() / span.lanes.max(1) as u64);
        if span.unit < RAW_UNITS && budget.fetch_sub(1, Ordering::Relaxed) > 0 {
            stripe.raw.push(span);
        }
    }

    /// Open a unit on the driver thread; returns its span id.
    pub fn begin_unit(&self, unit: u32) -> u32 {
        self.current_unit.store(unit, Ordering::Relaxed);
        self.ids(1)
    }

    /// Open a launch on the driver thread; returns its span id and start.
    pub fn begin_launch(&self) -> (u32, u64) {
        (self.ids(1), self.now())
    }

    /// Close the launch `begin_launch` opened, under unit span `unit_id`.
    /// Its children are the warps recorded since it began; they run in
    /// parallel, so its self time is what the union of their intervals
    /// leaves uncovered (thread spawn and join).
    pub fn end_launch(&self, (id, start_ns): (u32, u64), unit_id: u32, unit: u32) {
        let end_ns = self.now();
        let mut warps = Vec::new();
        for s in &self.stripes {
            warps.append(&mut s.lock().expect("span stripe lock").launch_warps);
        }
        let span = Span {
            id,
            parent: unit_id,
            name: Name::Launch,
            unit,
            warp: 0,
            start_ns,
            end_ns,
            lanes: 0,
        };
        self.launches_ns.fetch_add(span.dur(), Ordering::Relaxed);
        let uncovered = self_ns(start_ns, end_ns, &mut warps);
        Self::push(&mut self.stripe(0), &self.raw_budget, span, uncovered);
    }

    /// Close unit `unit`, opened by `begin_unit` as span `id` at
    /// `start_ns`; its self time is what its launches do not cover.
    pub fn end_unit(&self, id: u32, unit: u32, start_ns: u64) {
        let end_ns = self.now();
        let span =
            Span { id, parent: 0, name: Name::Unit, unit, warp: 0, start_ns, end_ns, lanes: 0 };
        let launches = self.launches_ns.swap(0, Ordering::Relaxed);
        self.current_unit.store(NO_UNIT, Ordering::Relaxed);
        Self::push(
            &mut self.stripe(0),
            &self.raw_budget,
            span,
            span.dur().saturating_sub(launches),
        );
    }

    /// Merge the stripes into the pass's reduction.
    pub fn reduce(&self) -> Reduced {
        let mut by_name = vec![NameStats::default(); N_NAMES];
        let mut raw = Vec::new();
        for s in &self.stripes {
            let s = s.lock().expect("span stripe lock");
            for (into, from) in by_name.iter_mut().zip(&s.by_name) {
                into.count += from.count;
                into.lanes += from.lanes;
                into.dur_ns += from.dur_ns;
                into.self_ns += from.self_ns;
                into.per_request.merge(&from.per_request);
            }
            raw.extend_from_slice(&s.raw);
        }
        raw.sort_by_key(|s| (s.start_ns, s.id));
        Reduced { by_name, raw }
    }
}

/// The spans of one warp of one of the benchmark's kernels. Leaves are
/// recorded as the kernel runs; `finish` records the warp span itself
/// with its self time and hands everything to the recorder under one
/// lock.
pub struct WarpSpans<'r> {
    rec: &'r Recorder,
    id: u32,
    launch: u32,
    unit: u32,
    warp: u32,
    start_ns: u64,
    leaves: Vec<(Span, u64)>,
    children_ns: u64,
    outer_scope: (u32, u32),
}

impl<'r> WarpSpans<'r> {
    /// Begin the warp span; calls the [`Probe`] makes on this thread
    /// from now on are its children.
    pub fn begin(rec: &'r Recorder, unit: u32, launch: u32, warp: &WarpCtx) -> Self {
        let id = rec.ids(1);
        CHILD_NS.with(|c| c.set(0));
        let outer_scope = SCOPE.with(|s| s.replace((id, unit)));
        WarpSpans {
            rec,
            id,
            launch,
            unit,
            warp: warp.warp_id as u32,
            start_ns: rec.now(),
            leaves: Vec::with_capacity(4),
            children_ns: 0,
            outer_scope,
        }
    }

    /// Run `f` as a leaf span named `name` serving `lanes` requests.
    /// Allocator calls inside `f` become children of the leaf.
    pub fn leaf<R>(&mut self, name: Name, lanes: u32, f: impl FnOnce() -> R) -> R {
        let id = self.rec.ids(1);
        let before = CHILD_NS.with(|c| c.get());
        SCOPE.with(|s| s.set((id, self.unit)));
        let start_ns = self.rec.now();
        let out = f();
        let end_ns = self.rec.now();
        SCOPE.with(|s| s.set((self.id, self.unit)));
        // What the probe added while the leaf ran is the leaf's child
        // time, not the warp's: take it back out of the accumulator.
        let inside = CHILD_NS.with(|c| c.replace(before)) - before;
        let span = Span {
            id,
            parent: self.id,
            name,
            unit: self.unit,
            warp: self.warp,
            start_ns,
            end_ns,
            lanes,
        };
        self.leaves.push((span, span.dur().saturating_sub(inside)));
        self.children_ns += span.dur();
        out
    }

    /// End the warp span and hand the warp's spans to the recorder.
    pub fn finish(self) {
        let end_ns = self.rec.now();
        let direct = CHILD_NS.with(|c| c.replace(0));
        SCOPE.with(|s| s.set(self.outer_scope));
        let span = Span {
            id: self.id,
            parent: self.launch,
            name: Name::Warp,
            unit: self.unit,
            warp: self.warp,
            start_ns: self.start_ns,
            end_ns,
            lanes: 0,
        };
        let self_ns = span.dur().saturating_sub(self.children_ns + direct);
        let mut stripe = self.rec.stripe(self.warp);
        stripe.launch_warps.push((self.start_ns, end_ns));
        Recorder::push(&mut stripe, &self.rec.raw_budget, span, self_ns);
        for (leaf, leaf_self) in self.leaves {
            Recorder::push(&mut stripe, &self.rec.raw_budget, leaf, leaf_self);
        }
    }
}

/// How a request's size maps to the tier that serves it, and how a
/// pointer is recognised at free time.
#[derive(Clone, Copy, Debug)]
pub struct TierRule {
    /// Largest size the slice tier serves.
    pub max_slice: u64,
    /// Largest size the block tier serves.
    pub max_block: u64,
    /// Smallest block size: every non-slice allocation is aligned to it.
    pub min_block: u64,
    /// Bytes the allocator manages (pointer range).
    pub heap_bytes: u64,
}

impl TierRule {
    /// The rule for a Gallatin geometry over `heap_bytes` of pointers.
    pub fn of(geo: &gallatin::Geometry, heap_bytes: u64) -> Self {
        TierRule {
            max_slice: geo.max_slice(),
            max_block: geo.block_size(geo.num_classes - 1),
            min_block: geo.block_size(0),
            heap_bytes,
        }
    }

    /// The tier that serves a request of `size` bytes.
    pub fn tier_of(&self, size: u64) -> Tier {
        if size <= self.max_slice {
            Tier::Slice
        } else if size <= self.max_block {
            Tier::Block
        } else {
            Tier::Segment
        }
    }
}

/// A `DeviceAllocator` that forwards to `inner` and records one span per
/// call into it, named by the tier that serves the call. A warp call
/// mixing tiers is issued as one call per tier so each is timed on its
/// own. Only the traced pass uses it; the timed passes call the
/// allocator directly.
pub struct Probe<'r, A> {
    inner: A,
    rec: &'r Recorder,
    rule: TierRule,
    /// Tier of the live non-slice allocation starting at each
    /// `min_block`-aligned offset (0: none), so a free can be named
    /// without a lock.
    tags: Vec<AtomicU8>,
}

impl<'r, A: DeviceAllocator> Probe<'r, A> {
    /// Wrap `inner`.
    pub fn new(inner: A, rec: &'r Recorder, rule: TierRule) -> Self {
        let n = rule.heap_bytes.div_ceil(rule.min_block) as usize;
        Probe { inner, rec, rule, tags: (0..n).map(|_| AtomicU8::new(0)).collect() }
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn tag(&self, ptr: DevicePtr) -> Option<&AtomicU8> {
        ptr.0
            .is_multiple_of(self.rule.min_block)
            .then(|| self.tags.get((ptr.0 / self.rule.min_block) as usize))
            .flatten()
    }

    fn note_malloc(&self, tier: Tier, ptr: DevicePtr) {
        if tier != Tier::Slice && !ptr.is_null() {
            if let Some(t) = self.tag(ptr) {
                t.store(tier as u8, Ordering::Relaxed);
            }
        }
    }

    /// Tier of a pointer being freed; clears its tag.
    fn take_tier(&self, ptr: DevicePtr) -> Tier {
        match self.tag(ptr).map(|t| t.swap(0, Ordering::Relaxed)) {
            Some(2) => Tier::Block,
            Some(3) => Tier::Segment,
            _ => Tier::Slice,
        }
    }

    fn record<R>(&self, name: Name, warp: u32, lanes: u32, f: impl FnOnce() -> R) -> R {
        let (parent, unit) = SCOPE.with(|s| s.get());
        let unit =
            if unit == NO_UNIT { self.rec.current_unit.load(Ordering::Relaxed) } else { unit };
        if unit == NO_UNIT {
            return f();
        }
        let start_ns = self.rec.now();
        let out = f();
        let end_ns = self.rec.now();
        let span = Span { id: self.rec.ids(1), parent, name, unit, warp, start_ns, end_ns, lanes };
        CHILD_NS.with(|c| c.set(c.get() + span.dur()));
        Recorder::push(&mut self.rec.stripe(warp), &self.rec.raw_budget, span, span.dur());
        out
    }
}

impl<A: DeviceAllocator> DeviceAllocator for Probe<'_, A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn memory(&self) -> &DeviceMemory {
        self.inner.memory()
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        let tier = self.rule.tier_of(size);
        let ptr = self.record(tier.malloc_name(), ctx.warp.warp_id as u32, 1, || {
            self.inner.malloc(ctx, size)
        });
        self.note_malloc(tier, ptr);
        ptr
    }

    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr) {
        let tier = self.take_tier(ptr);
        self.record(tier.free_name(), ctx.warp.warp_id as u32, 1, || self.inner.free(ctx, ptr));
    }

    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        let active = warp.active as usize;
        for p in out.iter_mut() {
            *p = DevicePtr::NULL;
        }
        for tier in [Tier::Slice, Tier::Block, Tier::Segment] {
            let mut part = [None::<u64>; gpu_sim::WARP_SIZE];
            let mut lanes = 0;
            for lane in 0..active {
                if let Some(sz) = sizes[lane].filter(|&sz| self.rule.tier_of(sz) == tier) {
                    part[lane] = Some(sz);
                    lanes += 1;
                }
            }
            if lanes == 0 {
                continue;
            }
            let mut got = [DevicePtr::NULL; gpu_sim::WARP_SIZE];
            self.record(tier.malloc_name(), warp.warp_id as u32, lanes, || {
                self.inner.warp_malloc(warp, &part[..active], &mut got[..active])
            });
            for lane in 0..active {
                if part[lane].is_some() {
                    out[lane] = got[lane];
                    self.note_malloc(tier, got[lane]);
                }
            }
        }
    }

    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        let active = warp.active as usize;
        let mut tiers = [None::<Tier>; gpu_sim::WARP_SIZE];
        for lane in 0..active {
            if !ptrs[lane].is_null() {
                tiers[lane] = Some(self.take_tier(ptrs[lane]));
            }
        }
        for tier in [Tier::Slice, Tier::Block, Tier::Segment] {
            let mut part = [DevicePtr::NULL; gpu_sim::WARP_SIZE];
            let mut lanes = 0;
            for lane in 0..active {
                if tiers[lane] == Some(tier) {
                    part[lane] = ptrs[lane];
                    lanes += 1;
                }
            }
            if lanes > 0 {
                self.record(tier.free_name(), warp.warp_id as u32, lanes, || {
                    self.inner.warp_free(warp, &part[..active])
                });
            }
        }
    }

    fn reset(&self) {
        self.inner.reset()
    }

    fn heap_bytes(&self) -> u64 {
        self.inner.heap_bytes()
    }

    fn supports_size(&self, size: u64) -> bool {
        self.inner.supports_size(size)
    }

    fn metrics(&self) -> Option<&Metrics> {
        self.inner.metrics()
    }

    fn device_count(&self) -> u32 {
        self.inner.device_count()
    }

    fn device_of(&self, ptr: DevicePtr) -> u32 {
        self.inner.device_of(ptr)
    }

    fn affinity_device(&self, sm: u32) -> u32 {
        self.inner.affinity_device(sm)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }

    fn stats(&self) -> gpu_sim::AllocStats {
        self.inner.stats()
    }
}

/// Render spans as Chrome `trace_event` JSON ("X" complete events, one
/// track per warp residue so concurrent warps never share a track),
/// loadable in Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(160 * spans.len() + 64);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        // Driver spans on track 0; a warp's spans on 1 + warp mod 32
        // (workers take consecutive warp ids, so warps in flight at the
        // same time differ in that residue).
        let tid = match s.name {
            Name::Unit | Name::Launch => 0,
            _ => 1 + s.warp % 32,
        };
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"unit\": {}, \
             \"warp\": {}, \"lanes\": {}}}}}{}\n",
            s.name.label(),
            tid,
            s.start_ns as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            s.parent,
            s.unit,
            s.warp,
            s.lanes,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}
