//! Post-mortem lifecycle ledger: malloc/free pairing over a trace.
//!
//! Split out of [`crate::trace`] (which records the raw event stream)
//! so recording and analysis evolve independently. The ledger pairs
//! `Malloc` events with `Free` events to report leaks, double frees,
//! cross-warp free traffic, a free-latency histogram (in schedule
//! steps), and the peak of live bytes. Pointers are paired per device and
//! allocator instance: in pool mode two instances legitimately hand out
//! the same local offset (and on a multi-device topology two devices'
//! pools may do the same), so the pairing key is
//! `(device, instance, ptr)` and every anomaly names the device and
//! instance it belongs to. That pairing is written once, in `walk`, and
//! the replay converter ([`crate::replay::ReplayScript::from_trace`])
//! folds over it too.

use crate::trace::{TraceEvent, TraceRecord};
use std::collections::HashMap;

/// What kind of unmatched free a [`Ledger`] saw. The two are
/// different bugs: a double free names an allocation whose lifetime
/// ended twice (a races-on-free or replayed-free defect), an
/// unknown-pointer free names a pointer this instance never handed out
/// (a routing or cross-instance defect in pool mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreeAnomalyKind {
    /// The `(device, instance, ptr)` key was allocated and already freed.
    DoubleFree,
    /// The `(device, instance, ptr)` key was never allocated in this
    /// trace.
    UnknownPtr,
}

/// What [`walk`] makes of one lifecycle record.
#[derive(Clone, Copy)]
pub(crate) enum Pairing<'a> {
    /// A `Malloc` record.
    Malloc(&'a TraceRecord),
    /// A `Free` record, after the live malloc it closes: the walk's
    /// `n`-th `Malloc`, counting from 0.
    Paired { n: usize, malloc: &'a TraceRecord, free: &'a TraceRecord },
    /// A `Free` record that closes no live malloc.
    Unmatched(FreeAnomalyKind, &'a TraceRecord),
}

/// The `(ptr, size)` of a `Malloc` or `Free` record; `(0, 0)` otherwise.
pub(crate) fn ptr_size(r: &TraceRecord) -> (u64, u64) {
    match r.event {
        TraceEvent::Malloc { ptr, size, .. } | TraceEvent::Free { ptr, size } => (ptr, size),
        _ => (0, 0),
    }
}

/// Pair a step-ordered trace's mallocs with its frees per
/// `(device, instance, ptr)`, handing each `Malloc` and `Free` record to
/// `visit` in trace order; other events are skipped. A key allocated
/// again while live pairs with its newer incarnation (its free was lost,
/// or the allocator handed the region out twice), so the older one stays
/// live. Returns the mallocs live at the end, in allocation order.
pub(crate) fn walk<'a>(
    records: &'a [TraceRecord],
    mut visit: impl FnMut(Pairing<'a>),
) -> Vec<TraceRecord> {
    let mut mallocs: Vec<Option<&TraceRecord>> = Vec::new();
    // Every key ever allocated, with the index of its live malloc: a key
    // with none is a double free, a key absent an unknown-pointer free.
    let mut keys: HashMap<(u32, u32, u64), Option<usize>> = HashMap::new();
    for r in records {
        let key = (r.device, r.instance, ptr_size(r).0);
        match r.event {
            TraceEvent::Malloc { .. } => {
                keys.insert(key, Some(mallocs.len()));
                mallocs.push(Some(r));
                visit(Pairing::Malloc(r));
            }
            TraceEvent::Free { .. } => visit(match keys.get_mut(&key).map(Option::take) {
                Some(Some(n)) => {
                    let malloc = mallocs[n].take().expect("a live key's malloc is live");
                    Pairing::Paired { n, malloc, free: r }
                }
                Some(None) => Pairing::Unmatched(FreeAnomalyKind::DoubleFree, r),
                None => Pairing::Unmatched(FreeAnomalyKind::UnknownPtr, r),
            }),
            _ => {}
        }
    }
    mallocs.into_iter().flatten().copied().collect()
}

/// Number of log₂ buckets in the free-latency histogram (bucket `i`
/// counts frees whose malloc→free step delta `d` has `⌊log₂(d+1)⌋ = i`,
/// with the last bucket absorbing the tail).
pub const LATENCY_BUCKETS: usize = 32;

/// Post-mortem lifecycle analysis of a trace: malloc/free pairing, leak
/// and double-free detection, cross-warp free traffic, free latency in
/// schedule steps, and peak occupancy. Anomalies are the trace's own
/// records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `Malloc` records never freed, in allocation order — leaks, if the
    /// trace covers the full lifetime of the workload.
    pub live: Vec<TraceRecord>,
    /// `Free` records with no live allocation to pair with, by kind.
    pub unmatched_frees: Vec<(FreeAnomalyKind, TraceRecord)>,
    /// `(malloc, free)` record pairs whose recorded sizes disagree: the
    /// lifetime is intact, but the allocator's accounting of the bytes
    /// that came back differs from the bytes that went out — a
    /// size-class routing or reservation-accounting defect.
    pub size_mismatches: Vec<(TraceRecord, TraceRecord)>,
    /// Total `Malloc` events seen.
    pub mallocs: u64,
    /// Total `Free` events seen.
    pub frees: u64,
    /// Frees issued by a different warp than the one that allocated.
    pub cross_warp_frees: u64,
    /// Free latency histogram: bucket `i` counts paired frees with
    /// `⌊log₂(steps + 1)⌋ = i` between malloc and free.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    /// Most bytes live at once, after any malloc or free.
    pub peak_live_bytes: u64,
    /// Sum of all `Malloc` event sizes (allocator-rounded bytes).
    pub total_alloc_bytes: u64,
}

/// The schedule-independent projection of a [`Ledger`]: counters that
/// must agree between a recorded run and any faithful replay of it, no
/// matter how the two schedules interleaved. Step-dependent figures
/// (peak occupancy, latency histogram, cross-warp traffic) deliberately
/// stay out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerOutcome {
    /// Total `Malloc` events.
    pub mallocs: u64,
    /// Total `Free` events.
    pub frees: u64,
    /// Allocations never freed.
    pub leaks: u64,
    /// Frees of an already-freed pointer.
    pub double_frees: u64,
    /// Frees of a never-allocated pointer.
    pub unknown_frees: u64,
    /// Paired frees whose recorded size disagreed with their malloc.
    pub size_mismatches: u64,
    /// Sum of allocator-rounded request bytes.
    pub alloc_bytes: u64,
}

impl Ledger {
    /// Build the ledger from a step-ordered record slice (as returned by
    /// [`crate::trace::TraceSink::snapshot`]). Non-lifecycle events are
    /// ignored. Pairing is per `(device, instance, ptr)`.
    pub fn build(records: &[TraceRecord]) -> Ledger {
        let mut ledger = Ledger::default();
        let mut live_bytes = 0u64;
        ledger.live = walk(records, |pairing| {
            match pairing {
                Pairing::Malloc(m) => {
                    ledger.mallocs += 1;
                    live_bytes += ptr_size(m).1;
                    ledger.total_alloc_bytes += ptr_size(m).1;
                }
                Pairing::Paired { malloc, free, .. } => {
                    ledger.frees += 1;
                    let (size, freed) = (ptr_size(malloc).1, ptr_size(free).1);
                    // A free of unknown size (0) skips the cross-check.
                    // Occupancy subtracts what the malloc added, so a
                    // mismatch is reported, never absorbed by a clamp.
                    if freed != 0 && freed != size {
                        ledger.size_mismatches.push((*malloc, *free));
                    }
                    live_bytes -= size;
                    ledger.cross_warp_frees += u64::from(malloc.warp != free.warp);
                    let delta = free.step - malloc.step;
                    let bucket = (u64::BITS - (delta + 1).leading_zeros() - 1) as usize;
                    ledger.latency_hist[bucket.min(LATENCY_BUCKETS - 1)] += 1;
                }
                Pairing::Unmatched(kind, free) => {
                    ledger.frees += 1;
                    ledger.unmatched_frees.push((kind, *free));
                }
            }
            ledger.peak_live_bytes = ledger.peak_live_bytes.max(live_bytes);
        });
        ledger
    }

    /// One line per anomaly — leaks, then unmatched frees, then size
    /// mismatches — each naming the device and instance it belongs to.
    /// The one rendering behind both [`Self::report`] and the allocators'
    /// `check_invariants`.
    pub fn anomaly_lines(&self) -> Vec<String> {
        let leaks = self.live.iter().map(|m| {
            let (ptr, size) = ptr_size(m);
            format!("leak: ptr {ptr} ({size} B) allocated {}", provenance(m))
        });
        let frees = self.unmatched_frees.iter().map(|(kind, f)| {
            let kind = match kind {
                FreeAnomalyKind::DoubleFree => "double free",
                FreeAnomalyKind::UnknownPtr => "unknown-ptr free",
            };
            format!("{kind}: ptr {} {}", ptr_size(f).0, provenance(f))
        });
        let sizes = self.size_mismatches.iter().map(|(m, f)| {
            let ((ptr, size), freed) = (ptr_size(m), ptr_size(f).1);
            format!(
                "size mismatch: ptr {ptr} malloc'd {size} B at step {}, freed as {freed} B at \
                 step {}{}",
                m.step,
                f.step,
                scope(f)
            )
        });
        leaks.chain(frees).chain(sizes).collect()
    }

    /// Human-readable summary; deterministic for a deterministic trace.
    /// Lines for instance-0 records are identical to pre-pool reports;
    /// pool-mode anomalies name their owning instance.
    pub fn report(&self) -> String {
        let mut out = format!(
            "lifecycle ledger: {} malloc(s), {} free(s), {} live at end, peak {} bytes live\n",
            self.mallocs,
            self.frees,
            self.live.len(),
            self.peak_live_bytes
        );
        for line in self.anomaly_lines() {
            out.push_str(&format!("  {line}\n"));
        }
        let paired = self.frees - self.unmatched_frees.len() as u64;
        out.push_str(&format!("  cross-warp frees: {} of {paired}\n", self.cross_warp_frees));
        out.push_str("  free latency (log2 step buckets): ");
        let last = self.latency_hist.iter().rposition(|&c| c > 0).map(|i| i + 1).unwrap_or(0);
        if last == 0 {
            out.push_str("(no paired frees)");
        } else {
            let cells: Vec<String> = self.latency_hist[..last]
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{i}:{c}"))
                .collect();
            out.push_str(&cells.join(" "));
        }
        out.push('\n');
        out
    }

    /// The replay-equivalence projection (see [`LedgerOutcome`]).
    pub fn outcome(&self) -> LedgerOutcome {
        let kind_count =
            |k: FreeAnomalyKind| self.unmatched_frees.iter().filter(|(kind, _)| *kind == k).count();
        LedgerOutcome {
            mallocs: self.mallocs,
            frees: self.frees,
            leaks: self.live.len() as u64,
            double_frees: kind_count(FreeAnomalyKind::DoubleFree) as u64,
            unknown_frees: kind_count(FreeAnomalyKind::UnknownPtr) as u64,
            size_mismatches: self.size_mismatches.len() as u64,
            alloc_bytes: self.total_alloc_bytes,
        }
    }
}

/// `"at step S (sm N warp W lane L<scope>)"`: where a record was emitted.
fn provenance(r: &TraceRecord) -> String {
    format!("at step {} (sm {} warp {} lane {}{})", r.step, r.sm, r.warp, r.lane, scope(r))
}

/// `" device D"` for a record off device 0, then `" instance I"` for one
/// off instance 0: single-device, single-instance reports read as they
/// did before pools and topologies existed.
fn scope(r: &TraceRecord) -> String {
    let mut out = String::new();
    if r.device != 0 {
        out.push_str(&format!(" device {}", r.device));
    }
    if r.instance != 0 {
        out.push_str(&format!(" instance {}", r.instance));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AllocTier;

    fn rec(step: u64, warp: u64, instance: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { step, sm: 0, warp, lane: 0, device: 0, instance, event }
    }

    #[test]
    fn ledger_pairs_mallocs_with_frees() {
        let m = |step, warp, ptr, size| {
            rec(step, warp, 0, TraceEvent::Malloc { size, tier: AllocTier::Slice, ptr })
        };
        let records = vec![
            m(0, 0, 100, 16),
            m(1, 0, 200, 16),
            m(2, 1, 300, 64),
            rec(3, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }), // same warp, delta 3
            rec(4, 2, 0, TraceEvent::Free { ptr: 300, size: 0 }), // cross warp
            rec(5, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }), // double free
        ];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.mallocs, 3);
        assert_eq!(ledger.frees, 3);
        assert_eq!(ledger.live, vec![records[1]], "ptr 200 leaks");
        assert_eq!(ledger.unmatched_frees, vec![(FreeAnomalyKind::DoubleFree, records[5])]);
        assert_eq!(ledger.cross_warp_frees, 1);
        assert_eq!(ledger.total_alloc_bytes, 96);
        assert_eq!(
            ledger.outcome(),
            LedgerOutcome {
                mallocs: 3,
                frees: 3,
                leaks: 1,
                double_frees: 1,
                unknown_frees: 0,
                size_mismatches: 0,
                alloc_bytes: 96,
            }
        );
        assert_eq!(ledger.peak_live_bytes, 96);
        assert_eq!(ledger.latency_hist.iter().sum::<u64>(), 2);
        let report = ledger.report();
        assert!(report.contains("leak: ptr 200"), "report: {report}");
        assert!(report.contains("double free: ptr 100"), "report: {report}");
        assert!(!report.contains("instance"), "single-instance report stays pre-pool: {report}");
    }

    #[test]
    fn pairing_is_per_instance() {
        let m = |step, instance, ptr| {
            rec(step, 0, instance, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr })
        };
        // Two instances hand out the same local offset; each free must
        // pair within its own instance.
        let records = vec![
            m(0, 0, 100),
            m(1, 1, 100),
            rec(2, 0, 1, TraceEvent::Free { ptr: 100, size: 0 }),
            // Instance 2 never allocated ptr 100: anomaly, not a pair.
            rec(3, 0, 2, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.live, vec![records[0]], "instance 0's allocation is still live");
        assert_eq!(
            ledger.unmatched_frees,
            vec![(FreeAnomalyKind::UnknownPtr, records[3])],
            "instance 2 never allocated ptr 100, so this is not a double free"
        );
        let report = ledger.report();
        assert!(report.contains("lane 0 instance 2"), "anomaly names its instance: {report}");
    }

    #[test]
    fn pairing_is_per_device() {
        let m = |step, device, ptr| TraceRecord {
            step,
            sm: 0,
            warp: 0,
            lane: 0,
            device,
            instance: 0,
            event: TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr },
        };
        let f = |step, device, ptr| TraceRecord {
            step,
            sm: 0,
            warp: 0,
            lane: 0,
            device,
            instance: 0,
            event: TraceEvent::Free { ptr, size: 0 },
        };
        // Two devices' pools hand out the same instance-0 local offset;
        // each free must pair within its own device.
        let records = vec![m(0, 0, 100), m(1, 1, 100), f(2, 1, 100), f(3, 3, 100)];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.live, vec![records[0]], "device 0's allocation is still live");
        assert_eq!(
            ledger.unmatched_frees,
            vec![(FreeAnomalyKind::UnknownPtr, records[3])],
            "device 3 never allocated ptr 100, so this is not a double free"
        );
        let report = ledger.report();
        assert!(report.contains("lane 0 device 3"), "anomaly names its device: {report}");
        // The report's anomaly lines are `anomaly_lines`, indented — the
        // rendering the allocators' invariant reports share.
        let lines = ledger.anomaly_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("leak: ptr 100 (16 B)") && !lines[0].contains("device"));
        assert!(
            lines[1].starts_with("unknown-ptr free: ptr 100") && lines[1].ends_with("device 3)")
        );
        assert!(lines.iter().all(|l| report.contains(&format!("  {l}\n"))), "{report}");
    }

    #[test]
    fn report_text_is_pinned_for_every_anomaly_and_suffix() {
        // One of each anomaly, at scope (0, 0) and at non-zero scopes, so
        // every line shape and both suffixes are pinned byte for byte.
        let r = |step, sm, warp, lane, (device, instance), event| TraceRecord {
            step,
            sm,
            warp,
            lane,
            device,
            instance,
            event,
        };
        let m = |size, ptr| TraceEvent::Malloc { size, tier: AllocTier::Block, ptr };
        let f = |ptr, size| TraceEvent::Free { ptr, size };
        let records = vec![
            r(0, 0, 0, 3, (0, 0), m(16, 100)),
            r(1, 1, 2, 7, (1, 2), m(32, 200)),
            r(2, 0, 0, 0, (0, 0), m(64, 300)),
            r(3, 1, 1, 0, (0, 0), TraceEvent::SegmentGrab { seg: 4, class: 1 }),
            r(5, 1, 3, 1, (0, 0), f(300, 0)),
            r(6, 0, 0, 2, (0, 0), f(300, 0)),
            r(10, 0, 4, 0, (2, 1), m(16, 400)),
            r(11, 0, 4, 0, (2, 1), f(400, 16)),
            r(20, 1, 5, 9, (2, 1), f(400, 0)),
            r(21, 0, 0, 0, (0, 4), f(999, 0)),
            r(22, 1, 1, 0, (3, 0), f(500, 0)),
            r(30, 1, 1, 0, (0, 0), m(32, 600)),
            r(31, 1, 1, 0, (0, 0), f(600, 64)),
            r(40, 0, 2, 0, (1, 1), m(128, 700)),
            r(47, 0, 6, 0, (1, 1), f(700, 256)),
        ];
        let ledger = Ledger::build(&records);
        let lines = [
            "leak: ptr 100 (16 B) allocated at step 0 (sm 0 warp 0 lane 3)",
            "leak: ptr 200 (32 B) allocated at step 1 (sm 1 warp 2 lane 7 device 1 instance 2)",
            "double free: ptr 300 at step 6 (sm 0 warp 0 lane 2)",
            "double free: ptr 400 at step 20 (sm 1 warp 5 lane 9 device 2 instance 1)",
            "unknown-ptr free: ptr 999 at step 21 (sm 0 warp 0 lane 0 instance 4)",
            "unknown-ptr free: ptr 500 at step 22 (sm 1 warp 1 lane 0 device 3)",
            "size mismatch: ptr 600 malloc'd 32 B at step 30, freed as 64 B at step 31",
            "size mismatch: ptr 700 malloc'd 128 B at step 40, freed as 256 B at step 47 \
             device 1 instance 1",
        ];
        assert_eq!(ledger.anomaly_lines(), lines);
        let mut report =
            "lifecycle ledger: 6 malloc(s), 8 free(s), 2 live at end, peak 176 bytes live\n"
                .to_string();
        lines.iter().for_each(|l| report.push_str(&format!("  {l}\n")));
        report.push_str("  cross-warp frees: 2 of 4\n");
        report.push_str("  free latency (log2 step buckets): 0:0 1:2 2:1 3:1\n");
        assert_eq!(ledger.report(), report);
        assert_eq!(
            ledger.outcome(),
            LedgerOutcome {
                mallocs: 6,
                frees: 8,
                leaks: 2,
                double_frees: 2,
                unknown_frees: 2,
                size_mismatches: 2,
                alloc_bytes: 288,
            }
        );
    }

    // Edge-case matrix: each malformed lifecycle is a *classified
    // violation*, never a panic, and the two anomaly kinds stay distinct.

    #[test]
    fn mismatched_free_size_is_a_typed_anomaly_not_a_clamp() {
        // Regression: a free recording a different size than its malloc
        // used to be silently absorbed by a `saturating_sub` clamp on
        // occupancy. It must surface as a typed anomaly, and occupancy
        // must subtract what the malloc added (no underflow, no phantom
        // residue).
        let records = vec![
            rec(0, 0, 0, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 100 }),
            rec(1, 0, 0, TraceEvent::Free { ptr: 100, size: 64 }),
        ];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.size_mismatches, vec![(records[0], records[1])]);
        assert_eq!(ledger.outcome().size_mismatches, 1);
        assert!(ledger.unmatched_frees.is_empty(), "the lifetime itself paired cleanly");
        assert!(ledger.live.is_empty(), "occupancy subtracts the malloc size");
        assert_eq!(ledger.peak_live_bytes, 16);
        assert!(
            ledger.report().contains("size mismatch: ptr 100 malloc'd 16 B at step 0"),
            "report: {}",
            ledger.report()
        );

        // A free of unknown size (0) skips the cross-check: hand-built
        // and legacy records stay anomaly-free.
        let unknown = vec![
            rec(0, 0, 0, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 100 }),
            rec(1, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        assert_eq!(Ledger::build(&unknown).outcome().size_mismatches, 0);

        // And a free recording the exact malloc size is no anomaly.
        let exact = vec![
            rec(0, 0, 0, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 100 }),
            rec(1, 0, 0, TraceEvent::Free { ptr: 100, size: 16 }),
        ];
        assert_eq!(Ledger::build(&exact).outcome().size_mismatches, 0);
    }

    #[test]
    fn free_without_malloc_is_an_unknown_ptr_anomaly() {
        let records = vec![rec(0, 0, 0, TraceEvent::Free { ptr: 640, size: 0 })];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.frees, 1);
        assert_eq!(ledger.unmatched_frees, vec![(FreeAnomalyKind::UnknownPtr, records[0])]);
        assert_eq!(ledger.outcome().unknown_frees, 1);
        assert_eq!(ledger.outcome().double_frees, 0);
        assert!(ledger.report().contains("unknown-ptr free: ptr 640"));
    }

    #[test]
    fn replayed_double_free_is_a_double_free_anomaly() {
        let records = vec![
            rec(0, 0, 0, TraceEvent::Malloc { size: 32, tier: AllocTier::Slice, ptr: 64 }),
            rec(1, 0, 0, TraceEvent::Free { ptr: 64, size: 0 }),
            // The same free replayed: the pointer *was* allocated once,
            // so this is classed as a double free, not an unknown ptr.
            rec(2, 1, 0, TraceEvent::Free { ptr: 64, size: 0 }),
            rec(3, 1, 0, TraceEvent::Free { ptr: 64, size: 0 }),
        ];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.unmatched_frees.len(), 2);
        assert!(ledger.unmatched_frees.iter().all(|d| d.0 == FreeAnomalyKind::DoubleFree));
        assert_eq!(ledger.outcome().double_frees, 2);
        assert_eq!(ledger.outcome().unknown_frees, 0);
        assert!(ledger.report().contains("double free: ptr 64"));
    }

    #[test]
    fn cross_instance_ptr_collision_classifies_both_sides() {
        // Pool mode: instance 0 and 1 both hand out local offset 128.
        // Instance 0's ptr is freed twice (double free on instance 0);
        // instance 1's ptr is freed once on the *wrong* instance — an
        // unknown ptr there, and a leak on instance 1.
        let m = |step, instance| {
            rec(
                step,
                0,
                instance,
                TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 128 },
            )
        };
        let records = vec![
            m(0, 0),
            m(1, 1),
            rec(2, 0, 0, TraceEvent::Free { ptr: 128, size: 0 }),
            rec(3, 0, 0, TraceEvent::Free { ptr: 128, size: 0 }), // double free, instance 0
            rec(4, 0, 2, TraceEvent::Free { ptr: 128, size: 0 }), // unknown ptr, instance 2
        ];
        let ledger = Ledger::build(&records);
        let out = ledger.outcome();
        assert_eq!((out.double_frees, out.unknown_frees, out.leaks), (1, 1, 1));
        assert_eq!(
            ledger.unmatched_frees,
            vec![
                (FreeAnomalyKind::DoubleFree, records[3]),
                (FreeAnomalyKind::UnknownPtr, records[4])
            ]
        );
        assert_eq!(ledger.live, vec![records[1]], "instance 1's allocation is the leak");
    }
}
