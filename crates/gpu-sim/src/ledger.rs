//! Post-mortem lifecycle ledger: malloc/free pairing over a trace.
//!
//! Split out of [`crate::trace`] (which records the raw event stream)
//! so recording and analysis evolve independently. The ledger pairs
//! `Malloc` events with `Free` events to report leaks, double frees,
//! cross-warp free traffic, a free-latency histogram (in schedule
//! steps), and a live-bytes timeline. Pointers are paired per device and
//! allocator instance: in pool mode two instances legitimately hand out
//! the same local offset (and on a multi-device topology two devices'
//! pools may do the same), so the pairing key is
//! `(device, instance, ptr)` and every anomaly names the device and
//! instance it belongs to.

use crate::trace::{TraceEvent, TraceRecord};

/// An allocation that was never freed, as seen by the [`Ledger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveAlloc {
    /// Device offset of the allocation.
    pub ptr: u64,
    /// Bytes reserved.
    pub size: u64,
    /// Step of the originating `Malloc` event.
    pub step: u64,
    /// SM that allocated it.
    pub sm: u32,
    /// Warp that allocated it.
    pub warp: u64,
    /// Lane that allocated it (or [`crate::trace::LANE_NONE`]).
    pub lane: u32,
    /// Device that served it (0 on a single-device topology).
    pub device: u32,
    /// Allocator instance that served it (0 outside pool mode).
    pub instance: u32,
}

/// What kind of unmatched free a [`FreeAnomaly`] is. The two are
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

/// A `Free` event with no matching live allocation: a double free, or a
/// free of a pointer the trace never saw allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeAnomaly {
    /// Which of the two anomaly classes this free falls into.
    pub kind: FreeAnomalyKind,
    /// Device offset freed.
    pub ptr: u64,
    /// Step of the offending `Free` event.
    pub step: u64,
    /// SM that issued it.
    pub sm: u32,
    /// Warp that issued it.
    pub warp: u64,
    /// Lane that issued it (or [`crate::trace::LANE_NONE`]).
    pub lane: u32,
    /// Device the free was routed to (0 on a single-device topology).
    pub device: u32,
    /// Allocator instance the free was routed to (0 outside pool mode).
    pub instance: u32,
}

/// A paired free whose recorded size disagrees with its malloc: the
/// allocation's lifetime is intact (one malloc, one free, same
/// `(instance, ptr)`), but the allocator's own accounting of how many
/// bytes came back differs from how many went out — a size-class
/// routing or reservation-accounting defect. Distinct from
/// [`FreeAnomaly`], which names frees with no pairing at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeMismatch {
    /// Device offset of the allocation.
    pub ptr: u64,
    /// Bytes the `Malloc` event recorded.
    pub malloc_size: u64,
    /// Bytes the `Free` event recorded.
    pub free_size: u64,
    /// Step of the originating `Malloc` event.
    pub malloc_step: u64,
    /// Step of the disagreeing `Free` event.
    pub step: u64,
    /// Device (0 on a single-device topology).
    pub device: u32,
    /// Allocator instance (0 outside pool mode).
    pub instance: u32,
}

/// Number of log₂ buckets in the free-latency histogram (bucket `i`
/// counts frees whose malloc→free step delta `d` has `⌊log₂(d+1)⌋ = i`,
/// with the last bucket absorbing the tail).
pub const LATENCY_BUCKETS: usize = 32;

/// Post-mortem lifecycle analysis of a trace: malloc/free pairing, leak
/// and double-free detection, cross-warp free traffic, free latency in
/// schedule steps, and a live-bytes (occupancy) timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// Allocations still live at the end of the trace — leaks, if the
    /// trace covers the full lifetime of the workload.
    pub live: Vec<LiveAlloc>,
    /// Frees with no live allocation to pair with.
    pub double_frees: Vec<FreeAnomaly>,
    /// Paired frees whose recorded size disagrees with their malloc.
    pub size_mismatches: Vec<SizeMismatch>,
    /// Total `Malloc` events seen.
    pub mallocs: u64,
    /// Total `Free` events seen.
    pub frees: u64,
    /// Frees issued by a different warp than the one that allocated.
    pub cross_warp_frees: u64,
    /// Free latency histogram: bucket `i` counts paired frees with
    /// `⌊log₂(steps + 1)⌋ = i` between malloc and free.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    /// `(step, live_bytes)` after every malloc/free, in step order — the
    /// occupancy timeline a fragmentation analysis plots.
    pub timeline: Vec<(u64, u64)>,
    /// Maximum of the timeline.
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
        use std::collections::{HashMap, HashSet};
        // Insertion-ordered live list + index map: reports come out in
        // allocation order, never hash order, keeping output diffable.
        let mut live: Vec<Option<LiveAlloc>> = Vec::new();
        let mut by_ptr: HashMap<(u32, u32, u64), usize> = HashMap::new();
        // Everything ever allocated, so an unmatched free can be classed
        // as a double free (seen before) vs a free of an unknown pointer.
        let mut ever: HashSet<(u32, u32, u64)> = HashSet::new();
        let mut ledger = Ledger {
            live: Vec::new(),
            double_frees: Vec::new(),
            size_mismatches: Vec::new(),
            mallocs: 0,
            frees: 0,
            cross_warp_frees: 0,
            latency_hist: [0; LATENCY_BUCKETS],
            timeline: Vec::new(),
            peak_live_bytes: 0,
            total_alloc_bytes: 0,
        };
        let mut live_bytes = 0u64;
        for r in records {
            match r.event {
                TraceEvent::Malloc { size, ptr, .. } => {
                    ledger.mallocs += 1;
                    let alloc = LiveAlloc {
                        ptr,
                        size,
                        step: r.step,
                        sm: r.sm,
                        warp: r.warp,
                        lane: r.lane,
                        device: r.device,
                        instance: r.instance,
                    };
                    // A ptr re-allocated while the ledger thinks it is
                    // live means its free was lost (or the allocator
                    // handed the region out twice); keep the newer
                    // incarnation live, the older one stays leaked.
                    by_ptr.insert((r.device, r.instance, ptr), live.len());
                    ever.insert((r.device, r.instance, ptr));
                    live.push(Some(alloc));
                    live_bytes += size;
                    ledger.total_alloc_bytes += size;
                }
                TraceEvent::Free { ptr, size } => {
                    ledger.frees += 1;
                    match by_ptr.remove(&(r.device, r.instance, ptr)).and_then(|i| live[i].take()) {
                        Some(alloc) => {
                            // A free whose recorded size disagrees with its
                            // malloc is an accounting defect in the
                            // allocator; surface it as a typed anomaly
                            // instead of clamping the timeline (the old
                            // `saturating_sub` silently absorbed exactly
                            // this class of bug). The timeline subtracts
                            // the *malloc* size, which is what was added,
                            // so occupancy never underflows.
                            if size != 0 && size != alloc.size {
                                ledger.size_mismatches.push(SizeMismatch {
                                    ptr,
                                    malloc_size: alloc.size,
                                    free_size: size,
                                    malloc_step: alloc.step,
                                    step: r.step,
                                    device: r.device,
                                    instance: r.instance,
                                });
                            }
                            live_bytes -= alloc.size;
                            if alloc.warp != r.warp {
                                ledger.cross_warp_frees += 1;
                            }
                            let delta = r.step - alloc.step;
                            let bucket = (u64::BITS - (delta + 1).leading_zeros() - 1) as usize;
                            ledger.latency_hist[bucket.min(LATENCY_BUCKETS - 1)] += 1;
                        }
                        None => ledger.double_frees.push(FreeAnomaly {
                            kind: if ever.contains(&(r.device, r.instance, ptr)) {
                                FreeAnomalyKind::DoubleFree
                            } else {
                                FreeAnomalyKind::UnknownPtr
                            },
                            ptr,
                            step: r.step,
                            sm: r.sm,
                            warp: r.warp,
                            lane: r.lane,
                            device: r.device,
                            instance: r.instance,
                        }),
                    }
                }
                _ => continue,
            }
            ledger.peak_live_bytes = ledger.peak_live_bytes.max(live_bytes);
            ledger.timeline.push((r.step, live_bytes));
        }
        ledger.live = live.into_iter().flatten().collect();
        ledger
    }

    /// One line per anomaly — leaks, then unmatched frees, then size
    /// mismatches — each naming the device and instance it belongs to.
    /// The one rendering behind both [`Self::report`] and the allocators'
    /// `check_invariants`.
    pub fn anomaly_lines(&self) -> Vec<String> {
        let leaks = self.live.iter().map(|l| {
            format!(
                "leak: ptr {} ({} B) allocated at step {} (sm {} warp {} lane {}{}{})",
                l.ptr,
                l.size,
                l.step,
                l.sm,
                l.warp,
                l.lane,
                device_suffix(l.device),
                instance_suffix(l.instance)
            )
        });
        let frees = self.double_frees.iter().map(|d| {
            format!(
                "{}: ptr {} at step {} (sm {} warp {} lane {}{}{})",
                match d.kind {
                    FreeAnomalyKind::DoubleFree => "double free",
                    FreeAnomalyKind::UnknownPtr => "unknown-ptr free",
                },
                d.ptr,
                d.step,
                d.sm,
                d.warp,
                d.lane,
                device_suffix(d.device),
                instance_suffix(d.instance)
            )
        });
        let sizes = self.size_mismatches.iter().map(|m| {
            format!(
                "size mismatch: ptr {} malloc'd {} B at step {}, freed as {} B at step {}{}{}",
                m.ptr,
                m.malloc_size,
                m.malloc_step,
                m.free_size,
                m.step,
                device_suffix(m.device),
                instance_suffix(m.instance)
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
        let paired = self.frees - self.double_frees.len() as u64;
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
            |k: FreeAnomalyKind| self.double_frees.iter().filter(|d| d.kind == k).count() as u64;
        LedgerOutcome {
            mallocs: self.mallocs,
            frees: self.frees,
            leaks: self.live.len() as u64,
            double_frees: kind_count(FreeAnomalyKind::DoubleFree),
            unknown_frees: kind_count(FreeAnomalyKind::UnknownPtr),
            size_mismatches: self.size_mismatches.len() as u64,
            alloc_bytes: self.total_alloc_bytes,
        }
    }
}

/// `" instance N"` for pool-mode records, empty for instance 0 — keeps
/// single-instance reports byte-identical to pre-pool output.
pub(crate) fn instance_suffix(instance: u32) -> String {
    if instance == 0 {
        String::new()
    } else {
        format!(" instance {instance}")
    }
}

/// `" device N"` for multi-device records, empty for device 0 — keeps
/// single-device reports byte-identical to pre-topology output.
pub(crate) fn device_suffix(device: u32) -> String {
    if device == 0 {
        String::new()
    } else {
        format!(" device {device}")
    }
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
        assert_eq!(ledger.live.len(), 1, "ptr 200 leaks");
        assert_eq!(ledger.live[0].ptr, 200);
        assert_eq!(ledger.live[0].step, 1);
        assert_eq!(ledger.double_frees.len(), 1);
        assert_eq!(ledger.double_frees[0].ptr, 100);
        assert_eq!(ledger.double_frees[0].kind, FreeAnomalyKind::DoubleFree);
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
        assert_eq!(ledger.timeline.last(), Some(&(5, 16)));
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
        assert_eq!(ledger.live.len(), 1, "instance 0's allocation is still live");
        assert_eq!((ledger.live[0].instance, ledger.live[0].ptr), (0, 100));
        assert_eq!(ledger.double_frees.len(), 1);
        assert_eq!(ledger.double_frees[0].instance, 2);
        assert_eq!(
            ledger.double_frees[0].kind,
            FreeAnomalyKind::UnknownPtr,
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
        assert_eq!(ledger.live.len(), 1, "device 0's allocation is still live");
        assert_eq!((ledger.live[0].device, ledger.live[0].ptr), (0, 100));
        assert_eq!(ledger.double_frees.len(), 1);
        assert_eq!(ledger.double_frees[0].device, 3);
        assert_eq!(
            ledger.double_frees[0].kind,
            FreeAnomalyKind::UnknownPtr,
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

    // Edge-case matrix: each malformed lifecycle is a *classified
    // violation*, never a panic, and the two anomaly kinds stay distinct.

    #[test]
    fn mismatched_free_size_is_a_typed_anomaly_not_a_clamp() {
        // Regression: a free recording a different size than its malloc
        // used to be silently absorbed by a `saturating_sub` clamp on the
        // occupancy timeline. It must surface as a typed anomaly, and the
        // timeline must subtract what the malloc added (no underflow, no
        // phantom residue).
        let records = vec![
            rec(0, 0, 0, TraceEvent::Malloc { size: 16, tier: AllocTier::Slice, ptr: 100 }),
            rec(1, 0, 0, TraceEvent::Free { ptr: 100, size: 64 }),
        ];
        let ledger = Ledger::build(&records);
        assert_eq!(ledger.size_mismatches.len(), 1);
        let m = ledger.size_mismatches[0];
        assert_eq!((m.ptr, m.malloc_size, m.free_size), (100, 16, 64));
        assert_eq!((m.malloc_step, m.step, m.instance), (0, 1, 0));
        assert_eq!(ledger.outcome().size_mismatches, 1);
        assert_eq!(ledger.double_frees.len(), 0, "the lifetime itself paired cleanly");
        assert_eq!(ledger.timeline, vec![(0, 16), (1, 0)], "timeline subtracts the malloc size");
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
        assert_eq!(ledger.double_frees.len(), 1);
        assert_eq!(ledger.double_frees[0].kind, FreeAnomalyKind::UnknownPtr);
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
        assert_eq!(ledger.double_frees.len(), 2);
        assert!(ledger.double_frees.iter().all(|d| d.kind == FreeAnomalyKind::DoubleFree));
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
        let double = &ledger.double_frees;
        assert_eq!((double[0].kind, double[0].instance), (FreeAnomalyKind::DoubleFree, 0));
        assert_eq!((double[1].kind, double[1].instance), (FreeAnomalyKind::UnknownPtr, 2));
        assert_eq!(ledger.live[0].instance, 1, "instance 1's allocation is the leak");
    }
}
