//! One routing level over a shared arena, stacked to make the pools.
//!
//! The paper's allocator is a single shared heap; under extreme SM
//! counts even its coalesced atomics contend on the shared trees, and a
//! production deployment spans several devices. A [`Router`] shards a
//! span of segments over `n` children that all see the *whole* arena and
//! the *shared* [`MemoryTable`] (one metadata row per segment), so
//! steady-state traffic from different SM groups touches different
//! trees, rings and claim words, while a segment can be *re-homed*
//! without copying anything: ownership is tree membership plus one row
//! in each level's routing table (see `crate::elastic`).
//!
//! A child is anything implementing [`Level`]: a [`crate::Gallatin`], or
//! another `Router`. `GallatinPool = Router<Gallatin>` (instances of one
//! device) and `DevicePool = Router<GallatinPool>` (devices of one
//! topology), so every mechanism below exists once and runs at both
//! levels:
//!
//! * **Placement** is SM-affine: a warp on SM `s` allocates from its
//!   *home* child `s % n` — device `s % d` and, inside it, instance
//!   `s % n`.
//! * **Overflow spills, strictly layered** ([`Level::malloc_lanes`]): an
//!   exhausted home first adopts headroom parked on the level's free
//!   list and retries, then the request walks the siblings (`home+1,
//!   home+2, …` mod `n`). A spill is charged to the home — *only* when a
//!   sibling actually serves it; a walk every sibling denies is a failed
//!   malloc, not a spill. A child that is itself a router runs its whole
//!   walk before it reports a denial, so a request crosses the
//!   interconnect only after the home device is exhausted.
//! * **Frees route by segment ownership**: pointers are global offsets
//!   into the one arena, so `ptr / segment_bytes` names the segment and
//!   each level's `seg_owner` row names the child that answers for it —
//!   any lane on any SM can free any pointer, and the route stays correct
//!   across donations because donation updates the same tables.
//!
//! Requests larger than one leaf's shard (`stride`) are denied before
//! touching any tree. Three things differ between levels, each stated
//! once: the denial is counted by the *lowest* router on the home path
//! ([`Level::note_oversize`]); only a level built over a [`Topology`]
//! classifies accesses local/peer (host-side accounting, never a
//! scheduler preemption point — so a 1-device `DevicePool` replays a
//! `GallatinPool` bit-identically); and each routed call is trace-stamped
//! with the serving child at the child's depth ([`trace::with_level`]),
//! so the lifecycle ledger pairs mallocs with frees per
//! `(device, instance, ptr)` and a misrouted free surfaces as an
//! unmatched free instead of silent corruption.

use crate::config::GallatinConfig;
use crate::gallatin::invariant_report;
use crate::table::MemoryTable;
use gpu_sim::{
    trace, AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, LaneMask, Metrics,
    Topology, WarpCtx, WARP_SIZE,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use veb::VebTree;

/// `seg_owner` value for a segment no child of this level answers for:
/// parked on the level's free list, or foreign (another router's).
pub(crate) const UNOWNED: u32 = u32::MAX;

/// What every level of one hierarchy shares: the universe's geometry
/// (`full.heap_bytes` spans every leaf), the arena pointers are global
/// offsets into, and the per-segment metadata table laid out for it.
pub struct Arena {
    pub(crate) full: GallatinConfig,
    pub(crate) mem: DeviceMemory,
    pub(crate) table: Arc<MemoryTable>,
}

impl Arena {
    pub(crate) fn new(full: GallatinConfig, mem: DeviceMemory) -> Self {
        Arena { full, mem, table: Arc::new(MemoryTable::new(full.geometry())) }
    }
}

/// What a [`Router`] needs of a child beyond [`DeviceAllocator`]; the
/// last four are the hand-off steps of the elastic protocol
/// (`crate::elastic`). Implemented by [`crate::Gallatin`] (the leaf) and
/// by `Router` itself, which is what lets levels stack. Not re-exported:
/// taking a segment out of a leaf's tree is the routers' business only.
pub trait Level: DeviceAllocator + Sized {
    /// Routers between this level and the leaf; a parent stamps the calls
    /// it routes here at this [`trace`] level.
    const DEPTH: usize;

    /// Build over `arena`, owning segments `[first_seg, first_seg +
    /// num_segs)` of its universe. `shape` lists the fan-out of every
    /// router from here down (empty for a leaf).
    fn build(shape: &[usize], arena: &Arena, first_seg: u64, num_segs: u64) -> Self;

    /// Serve exactly the lanes of `live` (each `Some(size)` in `sizes`),
    /// writing each served lane's pointer to `out[lane]` and no other entry
    /// of `out`; return the lanes served. The warp's one ballot travels
    /// down as `live`: children get the same `sizes` and `out`.
    fn malloc_lanes(
        &self,
        sm_id: u32,
        live: LaneMask,
        sizes: &[Option<u64>],
        out: &mut [DevicePtr],
    ) -> LaneMask;

    /// Free what the lanes of `live` name in `ptrs`.
    fn free_lanes(&self, sm_id: u32, live: LaneMask, ptrs: &[DevicePtr]);

    /// Everything [`DeviceAllocator::reset`] restores except the shared
    /// memory table, which the root resets exactly once.
    fn reset_local(&self);

    /// Structural and ownership errors from here down, auditing exactly
    /// the segments `routed_here` (the parent's routing table) sends
    /// here; without the ledger pass, which the root runs once.
    fn local_errors(&self, routed_here: &dyn Fn(u64) -> bool) -> Vec<String>;

    /// Count `lanes` oversize denials from SM `sm_id` if this level keeps
    /// such a counter; `false` hands the count back to the caller.
    fn note_oversize(&self, sm_id: u32, lanes: u64) -> bool;

    /// Claim-unreachable: take one free segment out, so nothing below can
    /// allocate from it. Routing rows still name where it came from.
    fn withdraw(&self) -> Option<u64>;

    /// Undo [`Level::withdraw`]: put `seg` back exactly where it was.
    fn restore(&self, seg: u64);

    /// Commit a withdrawal: stop answering for `seg`. A leaf has nothing
    /// to forget — the withdrawn tree bit was its whole claim.
    fn release(&self, _seg: u64) {}

    /// Answer for `seg` from now on: route it (the `nth` accepted segment
    /// spreads round-robin over children), then publish it to a leaf's
    /// tree — the very next malloc may claim it.
    fn accept(&self, seg: u64, nth: u64);
}

/// What a router is called and what it calls one child, per routing
/// level (indexed by the children's [`Level::DEPTH`]).
const LEVEL_NAMES: [(&str, &str); trace::LEVELS] =
    [("GallatinPool", "instance"), ("DevicePool", "device")];

/// `n` children over one arena and one shared memory table, with
/// SM-affine placement, spill to siblings, ownership-routed frees, and
/// elastic segment migration. See the module docs.
///
/// The routing state is crate-visible for `crate::elastic`, which moves
/// segments between `seg_owner`, `parked` and the children; nothing else
/// writes it.
pub struct Router<C: Level> {
    mem: DeviceMemory,
    pub(crate) children: Vec<C>,
    pub(crate) table: Arc<MemoryTable>,
    /// One leaf's nominal heap in bytes: the largest servable request.
    stride: u64,
    pub(crate) segment_bytes: u64,
    /// The span `[first, first + count)` sharded evenly over the children
    /// at construction (reset restores this).
    span: (u64, u64),
    /// Segments this router is *responsible* for: owned by a child or
    /// parked. Moves only when the level above re-homes a segment across
    /// routers. The ownership audit balances against this so a segment no
    /// router accounts for stays loud even though foreign segments are
    /// legitimately unowned.
    pub(crate) resp_len: AtomicU64,
    /// The routing table, one row per segment of the universe: the owning
    /// child, or [`UNOWNED`]. Donation and shrink update this *before*
    /// the new owner can touch the segment.
    pub(crate) seg_owner: Vec<AtomicU32>,
    /// Level free list: whole segments returned by shrink, claimable by
    /// any child (`grow`, or the walk's adopt-before-spill).
    pub(crate) parked: VebTree,
    /// Allocations child `i` could not serve and a sibling absorbed.
    spills: Vec<AtomicU64>,
    /// Requests denied up front for exceeding the stride (counted here
    /// only when no router below keeps the count).
    pub(crate) oversize_denials: AtomicU64,
    /// Segments re-homed child-to-child (elastic donation).
    pub(crate) donations: AtomicU64,
    /// Segments returned to the level free list (shrink).
    pub(crate) returned: AtomicU64,
    /// Segments adopted out of the level free list (grow).
    pub(crate) adopted: AtomicU64,
    /// The access tariff, on the one level with an interconnect below it:
    /// every served access is classified local/peer against the issuing
    /// SM's affinity device into these counters.
    pub(crate) tariff: Option<(Topology, Metrics)>,
}

impl<C: Level> Router<C> {
    /// [`DeviceAllocator::name`] of this router. Evaluated per
    /// instantiation: stacking deeper than [`trace`] has stamp levels
    /// fails to compile rather than mis-stamping.
    const NAME: &'static str = LEVEL_NAMES[C::DEPTH].0;
    /// What this router calls one child in reports.
    pub(crate) const CHILD: &'static str = LEVEL_NAMES[C::DEPTH].1;

    /// A root router: `shape` lists the fan-out per level, every leaf is
    /// configured by `cfg` (so `cfg.heap_bytes` is the *per-leaf* shard),
    /// and the arena is `topo`'s reservation when the level has one.
    pub(crate) fn root(shape: &[usize], cfg: GallatinConfig, topo: Option<Topology>) -> Self {
        let total = shape
            .iter()
            .try_fold(cfg.geometry().heap_bytes, |bytes, &n| bytes.checked_mul(n as u64))
            .expect("pool size overflow");
        // One full-universe geometry: every leaf sees every segment,
        // ownership is expressed through tree membership + `seg_owner`.
        let full = GallatinConfig { heap_bytes: total, ..cfg };
        let mem = match &topo {
            Some(t) => t.memory().clone_view(),
            None => DeviceMemory::new(total as usize),
        };
        let mut root = Self::build(shape, &Arena::new(full, mem), 0, full.geometry().num_segments);
        root.tariff = topo.map(|t| (t, Metrics::new()));
        root
    }

    /// Number of children.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    /// One leaf's nominal heap size in bytes (the initial shard and the
    /// largest servable request).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Allocations whose home was child `i` but that a sibling served
    /// (charged to the *home*, only on successful placement).
    pub fn spill_count(&self, i: usize) -> u64 {
        self.spills[i].load(Ordering::Relaxed)
    }

    /// Total spills at this level, across all home children.
    pub fn total_spills(&self) -> u64 {
        self.spills.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// The child that currently answers for `seg`, or `None` if the
    /// segment is parked, foreign, or beyond the universe.
    pub fn owner_of_segment(&self, seg: u64) -> Option<usize> {
        match self.seg_owner.get(seg as usize)?.load(Ordering::Acquire) {
            UNOWNED => None,
            o => Some(o as usize),
        }
    }

    /// The home child for a warp running on `sm_id`.
    #[inline]
    fn home(&self, sm_id: u32) -> usize {
        sm_id as usize % self.children.len()
    }

    /// Owning child of a pointer (global offset), via the routing table.
    #[inline]
    pub(crate) fn owner_of(&self, ptr: DevicePtr) -> usize {
        let owner = self.owner_of_segment(ptr.0 >> self.segment_bytes.trailing_zeros());
        owner.unwrap_or_else(|| panic!("free of foreign pointer {} (no child owns it)", ptr.0))
    }

    /// Run `f` — a call routed to child `i` — under `i`'s trace stamp.
    #[inline]
    pub(crate) fn enter<R>(i: usize, f: impl FnOnce() -> R) -> R {
        trace::with_level(C::DEPTH, i as u32, f)
    }

    /// Account a warp's served accesses (the non-null `ptrs`) against the
    /// tariff, if this level has one.
    #[inline]
    fn classify(&self, sm_id: u32, ptrs: impl Iterator<Item = DevicePtr>) {
        if let Some((topo, metrics)) = &self.tariff {
            topo.classify_accesses(sm_id, ptrs, metrics);
        }
    }

    /// The single definition of the initial routing state: the span
    /// sharded evenly over the children, nothing parked, counters zero.
    fn restore_initial_routing(&self) {
        let (first, count) = self.span;
        let per = count / self.children.len() as u64;
        for (s, o) in self.seg_owner.iter().enumerate() {
            let owner = match (s as u64).checked_sub(first) {
                Some(d) if d < count => (d / per) as u32,
                _ => UNOWNED,
            };
            o.store(owner, Ordering::Relaxed);
        }
        self.resp_len.store(count, Ordering::Relaxed);
        self.parked.clear();
        let counters = [&self.oversize_denials, &self.donations, &self.returned, &self.adopted];
        for c in self.spills.iter().chain(counters) {
            c.store(0, Ordering::Relaxed);
        }
        if let Some((_, metrics)) = &self.tariff {
            metrics.reset();
        }
    }

    /// This level's share of the invariant check: the routing table, the
    /// free list, the shared table and the level above (`routed_here`)
    /// must tell one story — this router answers for exactly the segments
    /// routed to it, parked ⇒ unowned and quiescent free, and the
    /// responsibility balance holds: child-owned plus parked segments
    /// equal `resp_len`. The balance is what keeps a dropped segment
    /// loud: losing one from both the routing table and the free list
    /// leaves `owned + parked` one short.
    fn ownership_audit(&self, routed_here: &dyn Fn(u64) -> bool, errors: &mut Vec<String>) {
        let child = Self::CHILD;
        let n = self.children.len() as u32;
        let (mut owned, mut parked_count) = (0u64, 0u64);
        for (seg, row) in self.seg_owner.iter().enumerate() {
            let seg = seg as u64;
            let o = row.load(Ordering::Acquire);
            let parked = self.parked.contains(seg);
            match (o != UNOWNED || parked, routed_here(seg)) {
                (true, false) => errors.push(format!(
                    "segment {seg} is claimed here (owned or parked) but routed elsewhere above"
                )),
                (false, true) => errors.push(format!(
                    "segment {seg} is routed here but nothing answers for it (no owning \
                     {child}, not parked)"
                )),
                _ => {}
            }
            if o != UNOWNED {
                owned += 1;
                if o >= n {
                    errors.push(format!("segment {seg} is routed to nonexistent {child} {o}"));
                }
                if parked {
                    errors.push(format!(
                        "segment {seg} is owned by {child} {o} but also on the free list"
                    ));
                }
            } else if parked {
                parked_count += 1;
                if !self.table.seg(seg).is_quiescent_free() {
                    errors
                        .push(format!("segment {seg} is on the free list but not quiescent-free"));
                }
            }
        }
        let resp = self.resp_len.load(Ordering::Relaxed);
        if owned + parked_count != resp {
            errors.push(format!(
                "responsibility leak: {child}s own {owned} + {parked_count} parked != {resp} \
                 segments this {} answers for",
                Self::NAME
            ));
        }
    }
}

impl<C: Level> Level for Router<C> {
    const DEPTH: usize = C::DEPTH + 1;

    fn build(shape: &[usize], arena: &Arena, first_seg: u64, num_segs: u64) -> Self {
        let (&n, below) = shape.split_first().expect("one fan-out per routing level");
        assert!(n > 0, "a {} needs at least one {}", Self::NAME, Self::CHILD);
        let geo = arena.full.geometry();
        assert!(first_seg + num_segs <= geo.num_segments, "router span exceeds the universe");
        assert!(
            num_segs > 0 && num_segs.is_multiple_of(n as u64),
            "{num_segs} segments do not shard evenly over {n} {}s",
            Self::CHILD
        );
        let per = num_segs / n as u64;
        let leaves: u64 = shape.iter().map(|&w| w as u64).product();
        let router = Router {
            mem: arena.mem.clone_view(),
            children: (0..n as u64)
                .map(|i| C::build(below, arena, first_seg + i * per, per))
                .collect(),
            table: Arc::clone(&arena.table),
            stride: num_segs / leaves * geo.segment_bytes,
            segment_bytes: geo.segment_bytes,
            span: (first_seg, num_segs),
            resp_len: AtomicU64::new(0),
            seg_owner: (0..geo.num_segments).map(|_| AtomicU32::new(UNOWNED)).collect(),
            parked: VebTree::new(geo.num_segments),
            spills: (0..n).map(|_| AtomicU64::new(0)).collect(),
            oversize_denials: AtomicU64::new(0),
            donations: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            adopted: AtomicU64::new(0),
            tariff: None,
        };
        router.restore_initial_routing();
        router
    }

    /// The only oversize filter and spill walk (module docs): each child
    /// sees the lanes still unserved as one coalesced group; a warp with
    /// none left — idle or all-oversize — enters no child.
    fn malloc_lanes(
        &self,
        sm_id: u32,
        live: LaneMask,
        sizes: &[Option<u64>],
        out: &mut [DevicePtr],
    ) -> LaneMask {
        let fits = live.keep(|lane| sizes[lane].is_some_and(|sz| sz <= self.stride));
        if fits != live {
            self.note_oversize(sm_id, live.without(fits).count() as u64);
        }
        let (n, home) = (self.children.len(), self.home(sm_id));
        let (mut left, mut step, mut may_adopt) = (fits, 0, true);
        while step < n && !left.is_empty() {
            let i = (home + step) % n;
            let served = Self::enter(i, || self.children[i].malloc_lanes(sm_id, left, sizes, out));
            self.classify(sm_id, served.map(|lane| out[lane]));
            if step > 0 && !served.is_empty() {
                self.spills[home].fetch_add(served.count() as u64, Ordering::Relaxed);
            }
            left = left.without(served);
            // Home exhausted: adopt parked headroom for the unserved bytes
            // and retry the home once before spilling.
            if step == 0 && may_adopt && !left.is_empty() {
                let bytes: u64 = left.filter_map(|lane| sizes[lane]).sum();
                if self.grow(home, bytes.div_ceil(self.segment_bytes).max(1)) > 0 {
                    may_adopt = false;
                    continue;
                }
            }
            step += 1;
        }
        fits.without(left)
    }

    /// One pass resolves every lane's owner; then each owning child, in
    /// ascending order, frees its lanes as one collective, so the leaves'
    /// per-block coalescing survives every level of sharding.
    fn free_lanes(&self, sm_id: u32, mut live: LaneMask, ptrs: &[DevicePtr]) {
        let mut owner = [0u32; WARP_SIZE];
        for lane in live {
            owner[lane] = self.owner_of(ptrs[lane]) as u32;
        }
        self.classify(sm_id, live.map(|lane| ptrs[lane]));
        while let Some(i) = live.map(|lane| owner[lane]).min() {
            let mine = live.keep(|lane| owner[lane] == i);
            live = live.without(mine);
            Self::enter(i as usize, || self.children[i as usize].free_lanes(sm_id, mine, ptrs));
        }
    }

    fn reset_local(&self) {
        for c in &self.children {
            c.reset_local();
        }
        self.restore_initial_routing();
    }

    fn local_errors(&self, routed_here: &dyn Fn(u64) -> bool) -> Vec<String> {
        let mut errors: Vec<String> = Vec::new();
        for (i, c) in self.children.iter().enumerate() {
            let mine = |s: u64| self.seg_owner[s as usize].load(Ordering::Acquire) == i as u32;
            let prefixed = |e| format!("{} {i}: {e}", Self::CHILD);
            errors.extend(c.local_errors(&mine).into_iter().map(prefixed));
        }
        self.ownership_audit(routed_here, &mut errors);
        errors
    }

    fn note_oversize(&self, sm_id: u32, lanes: u64) -> bool {
        // The denial sinks to the lowest router on the home path: exactly
        // what a standalone pool of that device would count.
        if !self.children[self.home(sm_id)].note_oversize(sm_id, lanes) {
            self.oversize_denials.fetch_add(lanes, Ordering::Relaxed);
        }
        true
    }

    fn withdraw(&self) -> Option<u64> {
        // Parked segments first (already child-free), then the children.
        let parked = self.parked.claim_first_ge(0);
        parked.or_else(|| self.children.iter().find_map(|c| c.withdraw()))
    }

    fn restore(&self, seg: u64) {
        match self.owner_of_segment(seg) {
            Some(i) => self.children[i].restore(seg),
            None => {
                self.parked.insert(seg);
            }
        }
    }

    fn release(&self, seg: u64) {
        let o = self.seg_owner[seg as usize].swap(UNOWNED, Ordering::AcqRel);
        if o != UNOWNED {
            self.children[o as usize].release(seg);
        }
        self.resp_len.fetch_sub(1, Ordering::Relaxed);
    }

    fn accept(&self, seg: u64, nth: u64) {
        // Responsibility and routing first, publish (at the leaf) last: a
        // free targeting the segment must route to the new owner from
        // the instant it can hand out pointers.
        let n = self.children.len() as u64;
        self.resp_len.fetch_add(1, Ordering::Relaxed);
        self.seg_owner[seg as usize].store((nth % n) as u32, Ordering::Release);
        self.children[(nth % n) as usize].accept(seg, nth / n);
    }
}

impl<C: Level> DeviceAllocator for Router<C> {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        let mut p = [DevicePtr::NULL];
        self.malloc_lanes(ctx.sm_id(), LaneMask::lane(0), &[Some(size)], &mut p);
        p[0]
    }

    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr) {
        let i = self.owner_of(ptr);
        self.classify(ctx.sm_id(), std::iter::once(ptr));
        Self::enter(i, || self.children[i].free(ctx, ptr));
    }

    /// One ballot; `Level::malloc_lanes` walks the children.
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        debug_assert_eq!(sizes.len(), warp.active as usize);
        debug_assert_eq!(out.len(), warp.active as usize);
        out.fill(DevicePtr::NULL);
        self.malloc_lanes(warp.sm_id, LaneMask::ballot(sizes, Option::is_some), sizes, out);
    }

    /// One ballot; `Level::free_lanes` regroups by owning child.
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        debug_assert_eq!(ptrs.len(), warp.active as usize);
        self.free_lanes(warp.sm_id, LaneMask::ballot(ptrs, |p| !p.is_null()), ptrs);
    }

    fn reset(&self) {
        self.reset_local();
        // The table spans every leaf of every level: reset it exactly
        // once, here at the root.
        self.table.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.span.1 * self.segment_bytes
    }

    fn supports_size(&self, size: u64) -> bool {
        // Sharding trades the single heap's "any size" property for
        // isolation: nothing larger than one leaf's shard fits.
        size <= self.stride
    }

    fn metrics(&self) -> Option<&Metrics> {
        // Only the tariff's local/peer counters live here: per-leaf
        // allocator metrics are the point of sharding and stay on the
        // leaves (the E18 benchmark reads them individually).
        self.tariff.as_ref().map(|(_, metrics)| metrics)
    }

    fn device_count(&self) -> u32 {
        self.tariff.as_ref().map_or(1, |(topo, _)| topo.devices())
    }

    fn device_of(&self, ptr: DevicePtr) -> u32 {
        self.tariff.as_ref().map_or(0, |(topo, _)| topo.device_of(ptr))
    }

    fn affinity_device(&self, sm: u32) -> u32 {
        self.tariff.as_ref().map_or(0, |(topo, _)| topo.affinity_device(sm))
    }

    /// Verify every leaf's structural invariants over exactly the
    /// segments routed to it (each error prefixed with the path of
    /// children that owns it), every level's ownership audit, plus one
    /// lifecycle-ledger pass for the whole hierarchy — the ledger pairs
    /// per `(device, instance, ptr)`, so a free routed to the wrong child
    /// shows up as an unmatched free *and* a leak.
    fn check_invariants(&self) -> Result<(), String> {
        invariant_report(self.local_errors(&|_| true), "pool_invariant_failure")
    }

    /// This level's node: its routing counters and one node per child,
    /// each completed with what only this level knows of it — its
    /// initial shard, the segments routed to it and the spills charged
    /// to it as home.
    fn stats(&self) -> AllocStats {
        let mut owned = vec![0u64; self.children.len()];
        for o in &self.seg_owner {
            if let Some(n) = owned.get_mut(o.load(Ordering::Relaxed) as usize) {
                *n += 1;
            }
        }
        let shard = self.span.1 / self.children.len() as u64 * self.segment_bytes;
        let children: Vec<AllocStats> = (0..self.children.len())
            .map(|i| AllocStats {
                heap_bytes: shard,
                owned_segments: owned[i],
                spills: self.spill_count(i),
                ..self.children[i].stats()
            })
            .collect();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        AllocStats {
            heap_bytes: self.heap_bytes(),
            reserved_bytes: children.iter().map(|c| c.reserved_bytes).sum(),
            free_segments: children.iter().map(|c| c.free_segments).sum(),
            owned_segments: load(&self.resp_len),
            spills: self.total_spills(),
            oversize_denials: load(&self.oversize_denials),
            donated_segments: load(&self.donations),
            returned_segments: load(&self.returned),
            adopted_segments: load(&self.adopted),
            pool_free_segments: self.parked.count(),
            children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DevicePool, GallatinPool};

    fn pool(n: usize) -> GallatinPool {
        GallatinPool::new(n, GallatinConfig::small_test(1 << 20)) // 16 segments each
    }

    fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
        WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
    }

    #[test]
    fn sm_affinity_places_on_the_home_instance() {
        let p = pool(2);
        let a = p.malloc(&warp_on(0, 1).lane(0), 16);
        let b = p.malloc(&warp_on(1, 1).lane(0), 16);
        assert!(!a.is_null() && !b.is_null());
        assert!(a.0 < p.stride(), "SM 0 allocates from instance 0");
        assert!(b.0 >= p.stride(), "SM 1 allocates from instance 1");
        p.free(&warp_on(5, 1).lane(0), a); // any lane may free
        p.free(&warp_on(0, 1).lane(0), b);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after cross-instance frees");
    }

    #[test]
    fn exhausted_home_spills_to_a_sibling_and_counts_it() {
        let p = pool(2);
        let l0 = warp_on(0, 1);
        // Exhaust instance 0 wholesale: 16 segment-sized allocations.
        let seg = p.instance(0).geometry().segment_bytes;
        let held: Vec<_> = (0..16).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert!(held.iter().all(|q| q.0 < p.stride()), "all from home");
        assert_eq!(p.spill_count(0), 0);
        // The 17th spills to instance 1 and is charged to home 0.
        let spilled = p.malloc(&l0.lane(0), seg);
        assert!(!spilled.is_null());
        assert!(spilled.0 >= p.stride(), "served by the sibling");
        assert_eq!(p.spill_count(0), 1);
        assert_eq!(p.spill_count(1), 0);
        // Frees route home by ownership regardless of the freeing SM.
        p.free(&warp_on(1, 1).lane(0), spilled);
        for q in held {
            p.free(&warp_on(3, 1).lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after spill + routed frees");
    }

    #[test]
    fn spills_are_charged_only_on_successful_sibling_placement() {
        // The PR 5 pressure case: 24 segment-sized claims against a
        // 16-segment home. Exactly the 8 overflow claims are spills…
        let p = pool(2);
        let l0 = warp_on(0, 1);
        let seg = p.instance(0).geometry().segment_bytes;
        let held: Vec<_> = (0..24).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(0), 8, "24 claims vs a 16-segment home: 8 spills");
        // …filling the sibling's remainder keeps charging placements…
        let rest: Vec<_> = (0..8).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(rest.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(0), 16);
        // …but pushing past total pool capacity adds zero further spills:
        // a walk every sibling denies is a failed malloc, not a spill.
        for _ in 0..5 {
            assert!(p.malloc(&l0.lane(0), seg).is_null());
        }
        assert_eq!(p.spill_count(0), 16, "denied walks must not be charged as spills");
        assert_eq!(p.total_spills(), 16);
        for q in held.into_iter().chain(rest) {
            p.free(&l0.lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after capacity stress");
    }

    #[test]
    fn oversized_requests_fail_without_walking_siblings() {
        let p = pool(4);
        assert!(!p.supports_size(p.stride() + 1));
        assert_eq!(p.heap_bytes(), 4 * p.stride());
        // The denial must be decided before any instance is consulted:
        // zero atomic traffic (no CAS, no RMW, not even a counted failed
        // malloc) on every instance, scalar and collective path alike.
        let before: Vec<_> = (0..4).map(|i| p.instance(i).metrics().unwrap().snapshot()).collect();
        let q = p.malloc(&warp_on(2, 1).lane(0), p.stride() + 1);
        assert!(q.is_null());
        let w = warp_on(2, 32);
        let sizes = vec![Some(p.stride() + 1); 32];
        let mut out = vec![DevicePtr(7); 32];
        p.warp_malloc(&w, &sizes, &mut out);
        assert!(out.iter().all(|q| q.is_null()), "oversize lanes must come back NULL");
        for (i, before) in before.iter().enumerate() {
            let after = p.instance(i).metrics().unwrap().snapshot();
            assert_eq!(after, *before, "instance {i} saw traffic for an unservable size");
        }
        assert_eq!(p.total_spills(), 0, "an unservable size is not a spill");
        assert_eq!(p.stats().oversize_denials, 33, "1 scalar + 32 collective lanes");
        p.reset();
        assert_eq!(p.stats().oversize_denials, 0, "reset clears the denial counter");
    }

    #[test]
    fn mixed_warp_serves_eligible_lanes_and_denies_oversize_ones() {
        let p = pool(2);
        let w = warp_on(0, 32);
        // Even lanes ask for a servable size, odd lanes for an impossible
        // one: the eligible half must still be served as one group.
        let sizes: Vec<Option<u64>> =
            (0..32).map(|l| Some(if l % 2 == 0 { 64 } else { p.stride() + 1 })).collect();
        let mut out = vec![DevicePtr::NULL; 32];
        p.warp_malloc(&w, &sizes, &mut out);
        for (lane, q) in out.iter().enumerate() {
            if lane % 2 == 0 {
                assert!(!q.is_null(), "eligible lane {lane} must be served");
            } else {
                assert!(q.is_null(), "oversize lane {lane} must be denied");
            }
        }
        assert_eq!(p.stats().oversize_denials, 16);
        p.warp_free(&w, &out);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after mixed warp");
    }

    #[test]
    fn warp_collectives_split_by_owning_child_at_both_levels() {
        let levels: [Box<dyn DeviceAllocator>; 2] = [
            Box::new(pool(2)),
            Box::new(DevicePool::new(2, 1, GallatinConfig::small_test(1 << 20))),
        ];
        for p in &levels {
            // SM 0 homes on child 0 (the low half of the arena), SM 1 on
            // child 1: instances of the pool, devices of the topology.
            let half = p.heap_bytes() / 2;
            let w0 = warp_on(0, 32);
            let w1 = warp_on(1, 32);
            let sizes = vec![Some(16u64); 32];
            let mut a = vec![DevicePtr::NULL; 32];
            let mut b = vec![DevicePtr::NULL; 32];
            p.warp_malloc(&w0, &sizes, &mut a);
            p.warp_malloc(&w1, &sizes, &mut b);
            assert!(a.iter().all(|q| !q.is_null() && q.0 < half), "{}", p.name());
            assert!(b.iter().all(|q| !q.is_null() && q.0 >= half), "{}", p.name());
            // Interleave the two children's pointers in one warp free:
            // each child receives its half as one coalesced group.
            let mixed: Vec<DevicePtr> =
                (0..32).map(|l| if l % 2 == 0 { a[l] } else { b[l] }).collect();
            let rest: Vec<DevicePtr> =
                (0..32).map(|l| if l % 2 == 0 { b[l] } else { a[l] }).collect();
            p.warp_free(&w0, &mixed);
            p.warp_free(&w1, &rest);
            assert_eq!(p.stats().reserved_bytes, 0, "{}", p.name());
            p.check_invariants().expect("clean after interleaved collective frees");
        }
    }

    #[test]
    fn reset_restores_every_instance_and_spill_counter() {
        let p = pool(2);
        let l0 = warp_on(0, 1);
        let seg = p.instance(0).geometry().segment_bytes;
        for _ in 0..17 {
            assert!(!p.malloc(&l0.lane(0), seg).is_null());
        }
        assert_eq!(p.spill_count(0), 1);
        p.reset();
        assert_eq!(p.total_spills(), 0);
        assert_eq!(p.stats().reserved_bytes, 0);
        for i in 0..2 {
            assert_eq!(p.instance(i).free_segments(), 16);
            assert_eq!(p.stats().children[i].owned_segments, 16);
        }
        p.check_invariants().expect("clean after reset");
    }

    #[test]
    fn foreign_pointer_free_panics_at_both_levels() {
        let levels: [Box<dyn DeviceAllocator>; 2] = [
            Box::new(pool(2)),
            Box::new(DevicePool::new(2, 1, GallatinConfig::small_test(1 << 20))),
        ];
        for p in &levels {
            let foreign = DevicePtr(p.heap_bytes() + 64);
            let free = std::panic::AssertUnwindSafe(|| p.free(&warp_on(0, 1).lane(0), foreign));
            let panic = std::panic::catch_unwind(free).expect_err("a foreign free must panic");
            let msg = panic.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("foreign pointer"), "{}: {msg}", p.name());
        }
    }

    #[test]
    fn invariant_check_names_the_path_to_the_corrupt_leaf() {
        let p = pool(2);
        // Segment 19 is instance 1's (segments 16..32): claim its tree_id
        // without removing it from the segment tree or formatting it.
        p.instance(1).table().seg(19).tree_id.store(0, Ordering::SeqCst);
        let err = p.check_invariants().unwrap_err();
        assert!(err.contains("instance 1: segment 19"), "unexpected report: {err}");
        // One level up the prefix grows by the device: segment 17 is
        // device 1's (its only instance owns segments 16..32).
        let t = DevicePool::new(2, 1, GallatinConfig::small_test(1 << 20));
        t.pool(1).instance(0).table().seg(17).tree_id.store(0, Ordering::SeqCst);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("device 1: instance 0: segment 17"), "unexpected report: {err}");
    }
}
