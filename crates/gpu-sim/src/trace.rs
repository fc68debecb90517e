//! Allocation-lifecycle tracing: replayable, exportable event streams.
//!
//! The aggregate counters in [`crate::metrics`] say *how much* contended
//! work an allocator did; they cannot say *in what order*. Gallatin's
//! behaviour — and every bug class the deterministic scheduler exists to
//! catch — is defined by the order of atomic events: segment grabs, block
//! ring pushes/pops, batched slice-claim CAS loops, reclaim phases. This
//! module records that order as a stream of typed [`TraceEvent`]s, each
//! stamped with `(step, sm, warp, lane)`:
//!
//! * **step** — a global emission ticket (unique, monotonically drawn at
//!   each event). Under [`crate::launch::ExecMode::Deterministic`] exactly
//!   one warp runs at any instant, so the step order *is* the schedule
//!   order and a fixed `GALLATIN_SCHED_SEED` reproduces a byte-identical
//!   trace. Under pool mode steps still totally order the events, but the
//!   order is whatever the OS raced.
//! * **sm / warp / lane** — where the event happened, installed per warp
//!   by the launch machinery (see [`in_warp`]); host-side emissions carry
//!   `(0, 0)` and [`LANE_NONE`].
//!
//! # Cost model
//!
//! Recording is **off unless a sink is installed** for the current thread
//! ([`with_sink`]); the disabled path is one flag test and
//! the event payload is built inside a closure that never runs, so
//! tracing adds *zero* atomic operations and zero preemption points to an
//! untraced run — schedules and the E16 atomic-count gate are unaffected.
//! Enabled, events land in per-SM cache-line-padded stripes, so tracing
//! warps contend only within an SM.
//!
//! # Artifacts
//!
//! * [`chrome_trace_json`] renders a record slice as Chrome
//!   `trace_event` JSON (open in `chrome://tracing` or
//!   <https://ui.perfetto.dev>): `ts` = step, `pid` = SM, `tid` = warp,
//!   event fields in `args`.
//! * [`Ledger`](crate::ledger::Ledger) is the post-mortem analysis: it
//!   pairs mallocs with frees to report leaks, double frees, cross-warp
//!   free traffic, a free latency histogram (in schedule steps), and
//!   peak live bytes.
//! * [`auto_dump`] writes the current sink's trace to
//!   `$GALLATIN_TRACE_DIR` (default `target/traces`) with a
//!   seed-stamped, deterministic filename — invoked by `gallatin-core`
//!   when an invariant check fails, so every failing seed leaves a
//!   self-contained, diffable artifact behind.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable naming the directory [`auto_dump`] writes traces
/// to. Defaults to `target/traces` (relative to the process working
/// directory) when unset.
pub const TRACE_DIR_ENV: &str = "GALLATIN_TRACE_DIR";

/// Environment variable that, when set (to anything), asks the allocator
/// to [`auto_dump`] a trace whenever a segment-reclaim attempt aborts at
/// its quiesce re-verify. Off by default: aborts are a legitimate outcome
/// under contention, not an error, so unconditional dumping would bury
/// the interesting traces.
pub const TRACE_ABORT_DUMP_ENV: &str = "GALLATIN_TRACE_DUMP_ON_ABORT";

/// Lane stamp for events emitted outside any particular lane (warp-level
/// protocol steps, host-side calls).
pub const LANE_NONE: u32 = u32::MAX;

/// Number of event stripes; SM ids map onto stripes with a mask.
const STRIPES: usize = 16;

/// Default per-stripe event capacity. Generous for every workload in this
/// workspace; overflow is counted, never silently discarded (see
/// [`TraceSink::dropped`]).
const DEFAULT_STRIPE_CAPACITY: usize = 1 << 20;

/// Which allocation pipeline served a request (paper Figure 3 routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocTier {
    /// Slice pipeline: coalesced sub-block allocations (Algorithm 3).
    Slice,
    /// Block pipeline: whole-block allocations (Algorithm 2).
    Block,
    /// Segment pipeline: multi-segment large allocations (Algorithm 1).
    Large,
}

impl AllocTier {
    /// Stable lowercase label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            AllocTier::Slice => "slice",
            AllocTier::Block => "block",
            AllocTier::Large => "large",
        }
    }
}

/// Phase of a segment-reclamation attempt (the two-phase verify described
/// in `gallatin-core`'s table module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReclaimPhase {
    /// Phase 1 entered: the segment was removed from its block tree.
    Attempt,
    /// The quiesce re-verify failed; the segment stays formatted.
    Abort,
    /// The segment was handed back to the segment tree.
    Publish,
}

impl ReclaimPhase {
    /// Stable lowercase label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            ReclaimPhase::Attempt => "attempt",
            ReclaimPhase::Abort => "abort",
            ReclaimPhase::Publish => "publish",
        }
    }
}

/// One typed allocator event. Payload fields are plain integers so
/// records are `Copy`-cheap and export losslessly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A successful allocation: `ptr` is the device offset handed out.
    Malloc {
        /// Bytes reserved (size-class rounded).
        size: u64,
        /// Which pipeline served the request.
        tier: AllocTier,
        /// Device offset of the allocation.
        ptr: u64,
    },
    /// A free request entering the allocator.
    Free {
        /// Device offset being returned.
        ptr: u64,
        /// Bytes the allocator recorded as released (size-class rounded,
        /// matching the paired `Malloc`). `0` means unknown — hand-built
        /// records, legacy traces, or a free the allocator could not
        /// size (e.g. a raced large free) — and skips the
        /// [`Ledger`](crate::ledger::Ledger)'s malloc/free size cross-check.
        size: u64,
    },
    /// A segment was claimed from the segment tree for a block class.
    SegmentGrab {
        /// Segment id.
        seg: u64,
        /// Destination slice class.
        class: u32,
    },
    /// A segment finished formatting (ring rebuilt, counters zeroed).
    SegmentReformat {
        /// Segment id.
        seg: u64,
        /// Class the segment now serves.
        class: u32,
        /// Spin iterations the straggler drain took.
        drain_spins: u64,
    },
    /// A segment-reclamation attempt crossed a protocol phase.
    SegmentReclaim {
        /// Segment id.
        seg: u64,
        /// Class the segment was formatted for.
        class: u32,
        /// Which phase was crossed.
        phase: ReclaimPhase,
    },
    /// A block was pushed home onto its segment's ring (cell published).
    RingPush {
        /// Segment id (the ring's tag).
        seg: u64,
        /// Block id pushed.
        block: u64,
    },
    /// A block was popped from its segment's ring (ticket CAS won).
    RingPop {
        /// Segment id (the ring's tag).
        seg: u64,
        /// Block id popped.
        block: u64,
    },
    /// A batched slice claim resolved (Algorithm 3's one-RMW group
    /// reservation).
    ClaimCas {
        /// Segment id.
        seg: u64,
        /// Block index within the segment.
        block: u64,
        /// CAS attempts issued (0: resolved without a CAS — stale
        /// generation or exhausted block).
        attempts: u32,
        /// Claim-word generation the caller held.
        gen: u32,
        /// Slices reserved (0: stale generation or block exhausted).
        taken: u32,
    },
    /// A coalesced same-class group was served by one leader atomic.
    CoalesceGroup {
        /// Slice class.
        class: u32,
        /// Lanes served by the single claim.
        lanes: u32,
    },
    /// A block entered an empty per-SM buffer slot.
    BufferInstall {
        /// Slot index within the class's buffer.
        slot: u32,
        /// Raw block handle installed.
        block: u64,
    },
    /// An exhausted buffered block was swapped for a fresh one.
    BufferReplace {
        /// Slot index within the class's buffer.
        slot: u32,
        /// Raw block handle evicted.
        old: u64,
        /// Raw block handle installed.
        new: u64,
    },
    /// A quiescent free segment was re-homed from one pool instance to
    /// another (elastic `GallatinPool::donate`). Emitted after the
    /// routing table switched the owner and before the recipient can
    /// claim the segment.
    SegmentDonate {
        /// Donor instance.
        from: u32,
        /// Recipient instance.
        to: u32,
        /// Segment id (global across the pool).
        seg: u64,
    },
}

impl TraceEvent {
    /// Stable event name used in exported traces.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Malloc { .. } => "malloc",
            TraceEvent::Free { .. } => "free",
            TraceEvent::SegmentGrab { .. } => "segment_grab",
            TraceEvent::SegmentReformat { .. } => "segment_reformat",
            TraceEvent::SegmentReclaim { .. } => "segment_reclaim",
            TraceEvent::RingPush { .. } => "ring_push",
            TraceEvent::RingPop { .. } => "ring_pop",
            TraceEvent::ClaimCas { .. } => "claim_cas",
            TraceEvent::CoalesceGroup { .. } => "coalesce_group",
            TraceEvent::BufferInstall { .. } => "buffer_install",
            TraceEvent::BufferReplace { .. } => "buffer_replace",
            TraceEvent::SegmentDonate { .. } => "segment_donate",
        }
    }
}

/// One recorded event with its `(step, sm, warp, lane)` stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emission ticket; totally orders the trace.
    pub step: u64,
    /// SM the emitting warp was resident on.
    pub sm: u32,
    /// Warp id of the emitter.
    pub warp: u64,
    /// Lane within the warp, or [`LANE_NONE`] for warp-/host-level events.
    pub lane: u32,
    /// Device the event belongs to. `0` on a single-device topology; a
    /// multi-device pool wraps each routed call in [`with_level`] at
    /// [`DEVICE`] so topology-mode traces and ledger anomalies name the
    /// owning device. Generalizes `instance` the same way `instance`
    /// generalized the pre-pool single-allocator stamp: the full scope
    /// of an event is `(device, instance)`.
    pub device: u32,
    /// Allocator instance the event belongs to. `0` for a standalone
    /// allocator; a `GallatinPool` wraps each instance's calls in
    /// [`with_level`] at [`INSTANCE`] so pool-mode traces and ledger
    /// anomalies name the owning instance.
    pub instance: u32,
    /// The event payload.
    pub event: TraceEvent,
}

/// One stripe's event buffer, padded so stripes never share a cache line
/// (the mutex word and the Vec header fit well inside 128 bytes).
#[repr(align(128))]
struct TraceStripe {
    buf: Mutex<Vec<TraceRecord>>,
    dropped: AtomicU64,
}

/// A bounded, striped event sink. Install one for the current thread with
/// [`with_sink`]; launches propagate it to every warp they run.
pub struct TraceSink {
    stripes: Vec<TraceStripe>,
    step: AtomicU64,
    capacity: usize,
    leak_check: AtomicBool,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A sink with the default per-stripe capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_STRIPE_CAPACITY)
    }

    /// A sink holding at most `per_stripe` records per stripe; overflow
    /// increments the drop counter instead of growing without bound.
    pub fn with_capacity(per_stripe: usize) -> Self {
        assert!(per_stripe > 0);
        TraceSink {
            stripes: (0..STRIPES)
                .map(|_| TraceStripe { buf: Mutex::new(Vec::new()), dropped: AtomicU64::new(0) })
                .collect(),
            step: AtomicU64::new(0),
            capacity: per_stripe,
            leak_check: AtomicBool::new(false),
        }
    }

    /// Arm the teardown leak check: with this set, the allocator's
    /// invariant checker treats any allocation still live in the ledger
    /// as a violation (see `Gallatin::check_invariants`). Arm it only at
    /// a point where every allocation is expected to have been freed.
    pub fn set_leak_check(&self, on: bool) {
        self.leak_check.store(on, Ordering::Release);
    }

    /// Whether the teardown leak check is armed.
    pub fn leak_check_enabled(&self) -> bool {
        self.leak_check.load(Ordering::Acquire)
    }

    /// Record one event with the given stamp. Draws the next step ticket;
    /// called by [`emit_lane`] — instrumented code does not use this
    /// directly.
    pub fn record(
        &self,
        sm: u32,
        warp: u64,
        lane: u32,
        device: u32,
        instance: u32,
        event: TraceEvent,
    ) {
        let step = self.step.fetch_add(1, Ordering::Relaxed);
        let stripe = &self.stripes[sm as usize & (STRIPES - 1)];
        let mut buf = stripe.buf.lock().unwrap();
        if buf.len() < self.capacity {
            buf.push(TraceRecord { step, sm, warp, lane, device, instance, event });
        } else {
            stripe.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped to the capacity bound, across all stripes. A
    /// nonzero value means the trace is a prefix, not the full run —
    /// analyses should refuse or warn.
    pub fn dropped(&self) -> u64 {
        self.stripes.iter().map(|s| s.dropped.load(Ordering::Relaxed)).sum()
    }

    /// Records currently held, across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.buf.lock().unwrap().len()).sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge all stripes into one stream ordered by step. Steps are
    /// unique (one ticket per event), so the order — and any export built
    /// from it — is independent of stripe layout and deterministic
    /// whenever the emission order was.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = Vec::with_capacity(self.len());
        for s in &self.stripes {
            out.extend(s.buf.lock().unwrap().iter().copied());
        }
        out.sort_by_key(|r| r.step);
        out
    }

    /// Discard all records and drop counts; the step counter keeps
    /// advancing so step values never repeat within one sink.
    pub fn clear(&self) {
        for s in &self.stripes {
            s.buf.lock().unwrap().clear();
            s.dropped.store(0, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// Whether `CURRENT_SINK` holds a sink, kept by [`with_sink`]: a
    /// destructor-free `const` TLS load is all a dormant emit costs.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    /// Sink receiving this thread's emissions; `None` (the default) makes
    /// every emit a no-op.
    static CURRENT_SINK: RefCell<Option<Arc<TraceSink>>> = const { RefCell::new(None) };
    /// `(sm, warp)` stamp for this thread's emissions. Installed per warp
    /// by the launch machinery; `(0, 0)` on host threads.
    static CURRENT_CTX: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
    /// Routing-scope stamp for this thread's emissions, one id per
    /// routing level ([`INSTANCE`], [`DEVICE`]). All `0` (the default)
    /// for a standalone allocator; a router scopes each call it routes
    /// to a child with [`with_level`].
    static CURRENT_SCOPE: [Cell<u32>; LEVELS] = const { [Cell::new(0), Cell::new(0)] };
}

/// Routing levels a trace record is stamped with: the full scope of an
/// event is `(device, instance)`.
pub const LEVELS: usize = 2;
/// The innermost routing level: which allocator instance of a pool.
pub const INSTANCE: usize = 0;
/// The routing level above [`INSTANCE`]: which device of a topology.
pub const DEVICE: usize = 1;

/// Stamp every event emitted during `f` with `id` at routing `level`
/// (restored afterwards, also on panic). A router scopes each call it
/// routes to a child this way, so traces and ledger anomalies name the
/// child that served it; scopes of different levels nest, and a nested
/// scope of the same level restores the outer id.
///
/// # Panics
/// Panics if `level >= LEVELS`.
pub fn with_level<R>(level: usize, id: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(usize, u32);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SCOPE.with(|c| c[self.0].set(self.1));
        }
    }
    let _restore = CURRENT_SCOPE.with(|c| Restore(level, c[level].replace(id)));
    f()
}

/// The id currently installed for this thread at routing `level`.
pub fn current_level(level: usize) -> u32 {
    CURRENT_SCOPE.with(|c| c[level].get())
}

/// Install `sink` as the current thread's trace sink for the duration of
/// `f` (restoring the previous sink afterwards, also on panic). Launches
/// started inside `f` propagate the sink to every warp they run.
pub fn with_sink<R>(sink: Arc<TraceSink>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<TraceSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TRACING.set(self.0.is_some());
            CURRENT_SINK.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT_SINK.with(|c| c.borrow_mut().replace(sink));
    TRACING.set(true);
    let _restore = Restore(prev);
    f()
}

/// The sink installed for the current thread, if any.
pub fn current_sink() -> Option<Arc<TraceSink>> {
    CURRENT_SINK.with(|c| c.borrow().clone())
}

/// Run `f` with the `(sm, warp)` stamp installed for the current thread —
/// the launch machinery wraps each warp's kernel invocation in this so
/// emissions are attributed to the warp that made them.
pub fn in_warp<R>(sm: u32, warp: u64, f: impl FnOnce() -> R) -> R {
    struct Restore((u32, u64));
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_CTX.set(self.0);
        }
    }
    let _restore = Restore(CURRENT_CTX.replace((sm, warp)));
    f()
}

/// The thread-locals that belong to a warp, not its thread: the `(sm,
/// warp)` stamp and the routing scope are live across preemption points
/// (a router holds [`with_level`] around a child's `malloc`), so the
/// deterministic engine, all of whose warps share a thread, swaps them.
pub(crate) type WarpLocals = ((u32, u64), [u32; LEVELS]);

/// The current thread's [`WarpLocals`].
pub(crate) fn warp_locals() -> WarpLocals {
    (CURRENT_CTX.get(), CURRENT_SCOPE.with(|scope| scope.each_ref().map(Cell::get)))
}

/// Install `locals` as the current thread's [`WarpLocals`].
pub(crate) fn set_warp_locals((ctx, scope): WarpLocals) {
    CURRENT_CTX.set(ctx);
    CURRENT_SCOPE.with(|cells| cells.iter().zip(scope).for_each(|(cell, id)| cell.set(id)));
}

/// Emit an event from the current thread, attributed to `lane`. The
/// closure builds the payload only when a sink is installed: the disabled
/// path is one flag test — no atomics, no allocation, and no
/// preemption point, so tracing can never perturb a schedule.
#[inline]
pub fn emit_lane(lane: u32, event: impl FnOnce() -> TraceEvent) {
    if TRACING.get() {
        CURRENT_SINK.with(|c| {
            // A shared borrow, not a clone of the `Arc` (an RMW per event
            // on a line every warp shares). Shared borrows nest, so an
            // `event` that itself emits is fine; only `with_sink` borrows
            // mutably, and no event closure installs a sink.
            if let Some(sink) = c.borrow().as_deref() {
                let (sm, warp) = CURRENT_CTX.with(|ctx| ctx.get());
                let (device, instance) =
                    CURRENT_SCOPE.with(|c| (c[DEVICE].get(), c[INSTANCE].get()));
                sink.record(sm, warp, lane, device, instance, event());
            }
        });
    }
}

/// [`emit_lane`] for warp-level (or host-side) events with no specific
/// lane.
#[inline]
pub fn emit(event: impl FnOnce() -> TraceEvent) {
    emit_lane(LANE_NONE, event);
}

// =====================================================================
// Chrome trace_event export
// =====================================================================

/// Render records as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in an object), loadable by `chrome://tracing` and Perfetto:
/// instant events with `ts` = step, `pid` = SM, `tid` = warp, and the
/// typed payload (plus the lane) in `args`.
///
/// The rendering is a pure function of the record list — same records,
/// same bytes — which is what makes "byte-identical trace under a fixed
/// seed" a testable property.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(128 * records.len() + 64);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": {}, \
             \"tid\": {}, \"args\": {{{}}}}}",
            r.event.name(),
            r.step,
            r.sm,
            r.warp,
            event_args(r)
        ));
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

/// The `args` object body for one record: the lane first, then — only
/// for topology-mode records (nonzero device) — the owning device, then
/// — only for pool-mode records (nonzero instance) — the owning
/// allocator instance, then the event's payload fields in declaration
/// order. Omitting `"device"` for device 0 and `"instance"` for
/// instance 0 keeps single-device, single-instance exports
/// byte-identical to those of earlier trace versions (and to any run
/// without a pool), which the fixed-seed determinism tests assert.
fn event_args(r: &TraceRecord) -> String {
    let mut lane = format!("\"lane\": {}", r.lane);
    if r.device != 0 {
        lane.push_str(&format!(", \"device\": {}", r.device));
    }
    if r.instance != 0 {
        lane.push_str(&format!(", \"instance\": {}", r.instance));
    }
    let rest = match r.event {
        TraceEvent::Malloc { size, tier, ptr } => {
            format!("\"size\": {size}, \"tier\": \"{}\", \"ptr\": {ptr}", tier.label())
        }
        TraceEvent::Free { ptr, size } => format!("\"ptr\": {ptr}, \"size\": {size}"),
        TraceEvent::SegmentGrab { seg, class } => format!("\"seg\": {seg}, \"class\": {class}"),
        TraceEvent::SegmentReformat { seg, class, drain_spins } => {
            format!("\"seg\": {seg}, \"class\": {class}, \"drain_spins\": {drain_spins}")
        }
        TraceEvent::SegmentReclaim { seg, class, phase } => {
            format!("\"seg\": {seg}, \"class\": {class}, \"phase\": \"{}\"", phase.label())
        }
        TraceEvent::RingPush { seg, block } => format!("\"seg\": {seg}, \"block\": {block}"),
        TraceEvent::RingPop { seg, block } => format!("\"seg\": {seg}, \"block\": {block}"),
        TraceEvent::ClaimCas { seg, block, attempts, gen, taken } => format!(
            "\"seg\": {seg}, \"block\": {block}, \"attempts\": {attempts}, \"gen\": {gen}, \
             \"taken\": {taken}"
        ),
        TraceEvent::CoalesceGroup { class, lanes } => {
            format!("\"class\": {class}, \"lanes\": {lanes}")
        }
        TraceEvent::BufferInstall { slot, block } => {
            format!("\"slot\": {slot}, \"block\": {block}")
        }
        TraceEvent::BufferReplace { slot, old, new } => {
            format!("\"slot\": {slot}, \"old\": {old}, \"new\": {new}")
        }
        TraceEvent::SegmentDonate { from, to, seg } => {
            format!("\"from\": {from}, \"to\": {to}, \"seg\": {seg}")
        }
    };
    format!("{lane}, {rest}")
}

// =====================================================================
// Auto-dump
// =====================================================================

/// Write the current thread's sink as a Chrome trace to
/// `$GALLATIN_TRACE_DIR` (default `target/traces`), named
/// `trace_<label>_seed_<seed>.json` (seed from the active deterministic
/// schedule, `none` in pool mode) so reruns of the same failing seed
/// overwrite rather than accumulate. Returns the path written, or `None`
/// when no sink is installed or the write failed (diagnostics must never
/// turn into a second failure).
pub fn auto_dump(label: &str) -> Option<PathBuf> {
    let sink = current_sink()?;
    let records = sink.snapshot();
    let dir = std::env::var(TRACE_DIR_ENV).unwrap_or_else(|_| "target/traces".to_string());
    let seed = match crate::sched::current_sched_seed() {
        Some(s) => s.to_string(),
        None => "none".to_string(),
    };
    let path = PathBuf::from(dir).join(format!("trace_{label}_seed_{seed}.json"));
    std::fs::create_dir_all(path.parent()?).ok()?;
    std::fs::write(&path, chrome_trace_json(&records)).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, warp: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { step, sm: 0, warp, lane: 0, device: 0, instance: 0, event }
    }

    #[test]
    fn emit_without_sink_is_a_noop_and_builds_no_payload() {
        let built = std::cell::Cell::new(false);
        emit(|| {
            built.set(true);
            TraceEvent::Free { ptr: 1, size: 0 }
        });
        assert!(!built.get(), "payload closure must not run without a sink");
    }

    #[test]
    fn the_dormant_flag_follows_the_sink_through_nesting_and_unwind() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let free = |ptr| emit(move || TraceEvent::Free { ptr, size: 0 });
        let (outer, inner) = (Arc::new(TraceSink::new()), Arc::new(TraceSink::new()));
        with_sink(outer.clone(), || {
            with_sink(inner.clone(), || free(1));
            // Leaving the nested sink restores the outer one, still live.
            assert!(TRACING.get());
            free(2);
            let nested = || with_sink(inner.clone(), || panic!("mid-trace"));
            assert!(catch_unwind(AssertUnwindSafe(nested)).is_err());
            assert!(TRACING.get());
            // An event that itself emits records through a nested borrow.
            emit(|| {
                free(3);
                TraceEvent::Free { ptr: 4, size: 0 }
            });
        });
        assert!(!TRACING.get());
        assert!(catch_unwind(|| with_sink(Arc::default(), || panic!("mid-trace"))).is_err());
        assert!(!TRACING.get(), "an unwinding sink must not leave the thread tracing");
        emit_lane(0, || unreachable!("a dormant emit builds no payload"));
        let freed = |sink: &TraceSink| -> Vec<TraceEvent> {
            sink.snapshot().iter().map(|r| r.event).collect()
        };
        assert_eq!(freed(&inner), [TraceEvent::Free { ptr: 1, size: 0 }]);
        assert_eq!(freed(&outer), [2, 3, 4].map(|ptr| TraceEvent::Free { ptr, size: 0 }));
    }

    #[test]
    fn sink_records_in_step_order_across_stripes() {
        let sink = Arc::new(TraceSink::new());
        with_sink(sink.clone(), || {
            for i in 0..20u64 {
                // Rotate the SM stamp so records land in many stripes.
                in_warp((i % 5) as u32, i, || {
                    emit_lane(i as u32, || TraceEvent::Free { ptr: i, size: 0 });
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 20);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.step, i as u64, "snapshot must be step-ordered");
            assert_eq!(r.event, TraceEvent::Free { ptr: i as u64, size: 0 });
            assert_eq!(r.sm, (i % 5) as u32);
        }
        // Outside with_sink, emission stops.
        emit(|| TraceEvent::Free { ptr: 99, size: 0 });
        assert_eq!(sink.len(), 20);
    }

    #[test]
    fn capacity_overflow_is_counted_not_silent() {
        let sink = Arc::new(TraceSink::with_capacity(4));
        with_sink(sink.clone(), || {
            for i in 0..10u64 {
                emit(|| TraceEvent::Free { ptr: i, size: 0 });
            }
        });
        assert_eq!(sink.len(), 4, "one stripe (sm 0), capacity 4");
        assert_eq!(sink.dropped(), 6);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn instance_tag_exports_only_when_nonzero() {
        let r0 = rec(0, 0, TraceEvent::Free { ptr: 7, size: 0 });
        let r1 = TraceRecord { instance: 2, ..r0 };
        let single = chrome_trace_json(&[r0]);
        assert!(
            !single.contains("instance"),
            "instance-0 exports must stay byte-identical to pre-pool traces: {single}"
        );
        let pooled = chrome_trace_json(&[r1]);
        assert!(pooled.contains("\"lane\": 0, \"instance\": 2"), "export: {pooled}");
    }

    #[test]
    fn device_tag_exports_only_when_nonzero() {
        let r0 = rec(0, 0, TraceEvent::Free { ptr: 7, size: 0 });
        let single = chrome_trace_json(&[r0]);
        assert!(
            !single.contains("device"),
            "device-0 exports must stay byte-identical to pre-topology traces: {single}"
        );
        // Device alone, instance alone, and both together each render in
        // the fixed lane → device → instance order.
        let dev = chrome_trace_json(&[TraceRecord { device: 1, ..r0 }]);
        assert!(dev.contains("\"lane\": 0, \"device\": 1, \"ptr\""), "export: {dev}");
        let both = chrome_trace_json(&[TraceRecord { device: 1, instance: 2, ..r0 }]);
        assert!(both.contains("\"lane\": 0, \"device\": 1, \"instance\": 2"), "export: {both}");
    }

    #[test]
    fn with_level_stamps_and_restores_at_both_levels() {
        let sink = Arc::new(TraceSink::new());
        with_sink(sink.clone(), || {
            emit(|| TraceEvent::Free { ptr: 0, size: 0 });
            with_level(INSTANCE, 3, || {
                assert_eq!(current_level(INSTANCE), 3);
                emit(|| TraceEvent::Free { ptr: 1, size: 0 });
                with_level(INSTANCE, 1, || emit(|| TraceEvent::Free { ptr: 2, size: 0 }));
                // Nested scope restored the outer instance.
                emit(|| TraceEvent::Free { ptr: 3, size: 0 });
            });
            assert_eq!(current_level(INSTANCE), 0);
            with_level(DEVICE, 2, || {
                assert_eq!(current_level(DEVICE), 2);
                emit(|| TraceEvent::Free { ptr: 4, size: 0 });
                // Instance scopes nest inside device scopes: the full
                // stamp is (device, instance).
                with_level(INSTANCE, 5, || emit(|| TraceEvent::Free { ptr: 5, size: 0 }));
                with_level(DEVICE, 1, || emit(|| TraceEvent::Free { ptr: 6, size: 0 }));
                emit(|| TraceEvent::Free { ptr: 7, size: 0 });
            });
            assert_eq!(current_level(DEVICE), 0);
        });
        let stamps: Vec<(u32, u32)> =
            sink.snapshot().iter().map(|r| (r.device, r.instance)).collect();
        assert_eq!(stamps, vec![(0, 0), (0, 3), (0, 1), (0, 3), (2, 0), (2, 5), (1, 0), (2, 0)]);
    }

    #[test]
    fn chrome_export_is_deterministic_and_structured() {
        let records = vec![
            rec(0, 0, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 64 }),
            rec(1, 0, TraceEvent::ClaimCas { seg: 0, block: 1, attempts: 1, gen: 2, taken: 3 }),
            rec(2, 1, TraceEvent::SegmentReclaim { seg: 4, class: 0, phase: ReclaimPhase::Abort }),
        ];
        let a = chrome_trace_json(&records);
        let b = chrome_trace_json(&records);
        assert_eq!(a, b, "export must be a pure function of the records");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"name\": \"malloc\""));
        assert!(a.contains("\"tier\": \"slice\""));
        assert!(a.contains("\"phase\": \"abort\""));
        assert!(a.contains("\"ts\": 1"));
        // Crude structural check: brackets balance.
        let balance = |open: char, close: char| {
            a.chars().filter(|&c| c == open).count() == a.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
        assert!(chrome_trace_json(&[]).contains("\"traceEvents\": [\n]"));
    }

    #[test]
    fn leak_check_flag_toggles() {
        let sink = TraceSink::new();
        assert!(!sink.leak_check_enabled());
        sink.set_leak_check(true);
        assert!(sink.leak_check_enabled());
    }
}
