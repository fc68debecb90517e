//! Replay scripts: a recorded trace reduced to a re-issuable workload.
//!
//! A [`ReplayScript`] is the workload half of a [`crate::trace`] capture:
//! per-warp sequences of malloc/free operations that any harness can
//! re-issue against any [`crate::alloc_api::DeviceAllocator`]. Converting
//! a trace to a script ([`ReplayScript::from_trace`]) keeps the three
//! things that determine allocator behaviour — request sizes, lifetimes
//! (which earlier allocation each free targets), and SM placement (the
//! warp each operation runs on, which fixes `sm_id = warp_id % num_sms`)
//! — and drops everything schedule-dependent (steps, pointers).
//!
//! Pointers do not survive the round trip by design: a replayed run is
//! free to place allocations elsewhere. Frees therefore reference the
//! *slot* of the malloc they close — the per-warp index of that
//! allocation — so the script replays the same lifetime structure no
//! matter what addresses the target allocator hands out.
//!
//! ## Text format (`gallatin-replay-v1`)
//!
//! One line per operation, whitespace-separated, `#` starts a comment:
//!
//! ```text
//! # gallatin-replay-v1 sms=8 warps=32
//! m <warp> <lane> <slot> <size>
//! f <warp> <lane> <slot>
//! ```
//!
//! The header line is mandatory and fixes the device width (`sms`) and
//! warp count (`warps`). `m` allocates `size` bytes into per-warp slot
//! `slot` from `lane`; `f` frees the pointer held by slot `slot`. Slots
//! are assigned in malloc order within a warp (the `slot` field is
//! redundant but explicit, so scripts are greppable and hand-editable);
//! lines of different warps may be interleaved freely — per-warp order is
//! what matters, matching the execution model where warps are
//! independently scheduled.

use crate::ledger::{ptr_size, walk, Pairing};
use crate::trace::{TraceRecord, LANE_NONE};

/// One scripted operation within a warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// Allocate `size` bytes from `lane`, storing the pointer in the
    /// warp's `slot`.
    Malloc {
        /// Issuing lane, `0..32`.
        lane: u32,
        /// Per-warp pointer slot this allocation occupies.
        slot: u32,
        /// Request size in bytes.
        size: u64,
    },
    /// Free the pointer in `slot` from `lane`.
    Free {
        /// Issuing lane, `0..32`.
        lane: u32,
        /// Per-warp pointer slot to free.
        slot: u32,
    },
}

/// The operation sequence of one warp.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarpScript {
    /// Operations in program order for this warp.
    pub ops: Vec<ReplayOp>,
}

/// A complete replayable workload: one script per warp plus the device
/// width that fixes each warp's SM placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayScript {
    /// Streaming multiprocessors of the device the workload targets
    /// (`sm_id = warp_id % num_sms`, as in [`crate::launch()`]).
    pub num_sms: u32,
    /// Per-warp scripts; index is the warp id.
    pub warps: Vec<WarpScript>,
}

/// `LANE_NONE` (scalar/leader-only events) canonicalizes to lane 0.
fn canonical_lane(lane: u32) -> u32 {
    if lane == LANE_NONE {
        0
    } else {
        lane
    }
}

impl ReplayScript {
    /// Reduce a step-ordered trace (as returned by
    /// [`crate::trace::TraceSink::snapshot`]) to a replay script for a
    /// `num_sms`-wide device, folding over the
    /// [`crate::ledger::Ledger`]'s own pairing. Non-lifecycle events are
    /// ignored. Two kinds of free bend, and the ledger of the same records
    /// counts both: a free issued by another warp than the allocating one
    /// (`cross_warp_frees`) moves to the allocating warp, since scripts are
    /// per-warp programs with no cross-warp synchronization, and a free
    /// that pairs with no live malloc (`unmatched_frees`) cannot name a
    /// slot and is dropped. A re-allocated pointer pairs with its newer
    /// malloc, whose older slot is never freed, mirroring the ledger's leak.
    pub fn from_trace(records: &[TraceRecord], num_sms: u32) -> ReplayScript {
        let mut warps: Vec<WarpScript> = Vec::new();
        // Slots taken per warp, and each malloc's slot in the walk's order.
        let (mut taken, mut slots) = (Vec::<u32>::new(), Vec::<u32>::new());
        walk(records, |pairing| {
            let (Pairing::Malloc(r) | Pairing::Paired { free: r, .. } | Pairing::Unmatched(_, r)) =
                pairing;
            // The issuing warp stays in the script even when its free is
            // moved or dropped: it occupied an SM in the original launch,
            // and the warp count preserves the striping.
            let w = r.warp as usize;
            if warps.len() <= w {
                warps.resize_with(w + 1, WarpScript::default);
                taken.resize(w + 1, 0);
            }
            let lane = canonical_lane(r.lane);
            match pairing {
                Pairing::Malloc(m) => {
                    let (slot, size) = (taken[w], ptr_size(m).1);
                    slots.push(slot);
                    taken[w] += 1;
                    warps[w].ops.push(ReplayOp::Malloc { lane, slot, size });
                }
                Pairing::Paired { n, malloc, .. } => {
                    warps[malloc.warp as usize].ops.push(ReplayOp::Free { lane, slot: slots[n] });
                }
                Pairing::Unmatched(..) => {}
            }
        });
        ReplayScript { num_sms, warps }
    }

    /// Number of warps the script drives.
    pub fn num_warps(&self) -> u64 {
        self.warps.len() as u64
    }

    /// Total operations across all warps.
    pub fn total_ops(&self) -> u64 {
        self.warps.iter().map(|w| w.ops.len() as u64).sum()
    }

    /// Structural validation: lanes in range, every free references a
    /// slot an earlier malloc of the same warp filled, and no slot is
    /// freed twice or malloc'd twice. Returns the number of slots still
    /// live at script end (intentional leaks, or a truncated capture).
    pub fn validate(&self) -> Result<u64, String> {
        let mut live_at_end = 0u64;
        for (w, ws) in self.warps.iter().enumerate() {
            let mut filled: Vec<bool> = Vec::new();
            let mut live: Vec<bool> = Vec::new();
            for op in &ws.ops {
                match *op {
                    ReplayOp::Malloc { lane, slot, .. } => {
                        if lane >= 32 {
                            return Err(format!("warp {w}: malloc lane {lane} out of range"));
                        }
                        let s = slot as usize;
                        if s >= filled.len() {
                            filled.resize(s + 1, false);
                            live.resize(s + 1, false);
                        }
                        if filled[s] {
                            return Err(format!("warp {w}: slot {slot} malloc'd twice"));
                        }
                        filled[s] = true;
                        live[s] = true;
                    }
                    ReplayOp::Free { lane, slot } => {
                        if lane >= 32 {
                            return Err(format!("warp {w}: free lane {lane} out of range"));
                        }
                        let s = slot as usize;
                        if s >= live.len() || !filled[s] {
                            return Err(format!("warp {w}: free of never-filled slot {slot}"));
                        }
                        if !live[s] {
                            return Err(format!("warp {w}: slot {slot} freed twice"));
                        }
                        live[s] = false;
                    }
                }
            }
            live_at_end += live.iter().filter(|&&l| l).count() as u64;
        }
        Ok(live_at_end)
    }

    /// Render as `gallatin-replay-v1` text (see the module docs). Warps
    /// are emitted in id order, each warp's ops in program order, so the
    /// output is deterministic and diffable.
    pub fn render(&self) -> String {
        let mut out =
            format!("# gallatin-replay-v1 sms={} warps={}\n", self.num_sms, self.warps.len());
        for (w, ws) in self.warps.iter().enumerate() {
            for op in &ws.ops {
                match *op {
                    ReplayOp::Malloc { lane, slot, size } => {
                        out.push_str(&format!("m {w} {lane} {slot} {size}\n"));
                    }
                    ReplayOp::Free { lane, slot } => {
                        out.push_str(&format!("f {w} {lane} {slot}\n"));
                    }
                }
            }
        }
        out
    }

    /// Parse `gallatin-replay-v1` text. Inverse of
    /// [`ReplayScript::render`]; tolerates blank lines, comments, and
    /// interleaved warps.
    pub fn parse(text: &str) -> Result<ReplayScript, String> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                Some((_, l)) if l.trim().is_empty() => continue,
                Some((_, l)) => break l.trim(),
                None => return Err("empty replay script".to_string()),
            }
        };
        let rest = header
            .strip_prefix("# gallatin-replay-v1")
            .ok_or_else(|| format!("bad header {header:?}: expected `# gallatin-replay-v1 ...`"))?;
        let mut num_sms: Option<u32> = None;
        let mut num_warps: Option<usize> = None;
        for kv in rest.split_whitespace() {
            match kv.split_once('=') {
                Some(("sms", v)) => {
                    num_sms = Some(v.parse().map_err(|_| format!("bad sms value {v:?}"))?)
                }
                Some(("warps", v)) => {
                    num_warps = Some(v.parse().map_err(|_| format!("bad warps value {v:?}"))?)
                }
                _ => return Err(format!("unknown header field {kv:?}")),
            }
        }
        let num_sms = num_sms.ok_or("header missing sms=")?;
        let num_warps = num_warps.ok_or("header missing warps=")?;
        if num_sms == 0 {
            return Err("sms must be positive".to_string());
        }
        let mut warps = vec![WarpScript::default(); num_warps];
        for (no, line) in lines {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_whitespace();
            let kind = f.next().unwrap();
            let mut field = |name: &str| -> Result<u64, String> {
                f.next()
                    .ok_or_else(|| format!("line {}: missing {name}", no + 1))?
                    .parse::<u64>()
                    .map_err(|_| format!("line {}: bad {name}", no + 1))
            };
            let warp = field("warp")? as usize;
            if warp >= num_warps {
                return Err(format!("line {}: warp {warp} >= header warps={num_warps}", no + 1));
            }
            let lane = field("lane")? as u32;
            let slot = field("slot")? as u32;
            let op = match kind {
                "m" => ReplayOp::Malloc { lane, slot, size: field("size")? },
                "f" => ReplayOp::Free { lane, slot },
                other => return Err(format!("line {}: unknown op {other:?}", no + 1)),
            };
            if f.next().is_some() {
                return Err(format!("line {}: trailing fields", no + 1));
            }
            warps[warp].ops.push(op);
        }
        Ok(ReplayScript { num_sms, warps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocTier, TraceEvent};

    fn rec(step: u64, warp: u64, lane: u32, instance: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { step, sm: (warp % 4) as u32, warp, lane, device: 0, instance, event }
    }

    fn m(step: u64, warp: u64, lane: u32, ptr: u64, size: u64) -> TraceRecord {
        rec(step, warp, lane, 0, TraceEvent::Malloc { size, tier: AllocTier::Slice, ptr })
    }

    #[test]
    fn conversion_pairs_frees_to_slots() {
        let records = vec![
            m(0, 0, 0, 100, 16),
            m(1, 0, 1, 200, 32),
            m(2, 1, 0, 300, 64),
            rec(3, 0, 0, 0, TraceEvent::Free { ptr: 200, size: 0 }),
            rec(4, 1, LANE_NONE, 0, TraceEvent::Free { ptr: 300, size: 0 }),
            rec(5, 0, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        let script = ReplayScript::from_trace(&records, 4);
        assert_eq!(script.num_warps(), 2);
        assert_eq!(script.total_ops(), 6);
        assert_eq!(
            script.warps[0].ops,
            vec![
                ReplayOp::Malloc { lane: 0, slot: 0, size: 16 },
                ReplayOp::Malloc { lane: 1, slot: 1, size: 32 },
                ReplayOp::Free { lane: 0, slot: 1 },
                ReplayOp::Free { lane: 0, slot: 0 },
            ]
        );
        // LANE_NONE canonicalizes to lane 0.
        assert_eq!(script.warps[1].ops[1], ReplayOp::Free { lane: 0, slot: 0 });
        assert_eq!(script.validate(), Ok(0));
    }

    #[test]
    fn cross_warp_frees_are_reassigned_to_the_allocating_warp() {
        let records = vec![
            m(0, 0, 0, 100, 16),
            // Warp 1 frees warp 0's allocation: scripts have no cross-warp
            // channel, so the free moves to warp 0's program.
            rec(1, 1, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        let script = ReplayScript::from_trace(&records, 4);
        assert_eq!(script.warps[0].ops.len(), 2);
        assert!(script.warps[1].ops.is_empty());
        assert_eq!(script.validate(), Ok(0));
    }

    #[test]
    fn unmatched_frees_are_dropped() {
        let records = vec![
            m(0, 0, 0, 100, 16),
            rec(1, 0, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }),
            rec(2, 0, 0, 0, TraceEvent::Free { ptr: 100, size: 0 }), // double free
            rec(3, 0, 0, 0, TraceEvent::Free { ptr: 999, size: 0 }), // never allocated
            // Same local offset, different instance: pairing is per
            // (instance, ptr), so this one is also unmatched.
            rec(4, 0, 0, 7, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        let script = ReplayScript::from_trace(&records, 4);
        let ops =
            [ReplayOp::Malloc { lane: 0, slot: 0, size: 16 }, ReplayOp::Free { lane: 0, slot: 0 }];
        assert_eq!(script.warps, vec![WarpScript { ops: ops.to_vec() }]);
    }

    #[test]
    fn text_format_round_trips() {
        let records = vec![
            m(0, 0, 3, 100, 16),
            m(1, 2, 0, 300, 1024),
            rec(2, 0, 3, 0, TraceEvent::Free { ptr: 100, size: 0 }),
        ];
        let script = ReplayScript::from_trace(&records, 8);
        let text = script.render();
        assert!(text.starts_with("# gallatin-replay-v1 sms=8 warps=3\n"), "{text}");
        assert_eq!(ReplayScript::parse(&text), Ok(script.clone()));
        // Comments, blank lines, and interleaving are tolerated.
        let shuffled =
            "\n# gallatin-replay-v1 sms=8 warps=3\nm 2 0 0 1024 # big\n\nm 0 3 0 16\nf 0 3 0\n";
        assert_eq!(ReplayScript::parse(shuffled), Ok(script));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(ReplayScript::parse("").is_err());
        assert!(ReplayScript::parse("m 0 0 0 16\n").is_err(), "missing header");
        assert!(ReplayScript::parse("# gallatin-replay-v1 sms=4\n").is_err(), "missing warps");
        assert!(ReplayScript::parse("# gallatin-replay-v1 sms=0 warps=1\n").is_err());
        let hdr = "# gallatin-replay-v1 sms=4 warps=1\n";
        assert!(ReplayScript::parse(&format!("{hdr}m 1 0 0 16\n")).is_err(), "warp out of range");
        assert!(ReplayScript::parse(&format!("{hdr}m 0 0 0\n")).is_err(), "missing size");
        assert!(ReplayScript::parse(&format!("{hdr}x 0 0 0\n")).is_err(), "unknown op");
        assert!(ReplayScript::parse(&format!("{hdr}f 0 0 0 9\n")).is_err(), "trailing field");
        assert!(ReplayScript::parse(&format!("{hdr}m 0 zero 0 16\n")).is_err(), "bad number");
    }

    #[test]
    fn validate_flags_bad_lifetimes() {
        let ok = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript { ops: vec![ReplayOp::Malloc { lane: 0, slot: 0, size: 16 }] }],
        };
        assert_eq!(ok.validate(), Ok(1), "one slot intentionally live at end");
        let double = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript {
                ops: vec![
                    ReplayOp::Malloc { lane: 0, slot: 0, size: 16 },
                    ReplayOp::Free { lane: 0, slot: 0 },
                    ReplayOp::Free { lane: 0, slot: 0 },
                ],
            }],
        };
        assert!(double.validate().unwrap_err().contains("freed twice"));
        let unfilled = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript { ops: vec![ReplayOp::Free { lane: 0, slot: 3 }] }],
        };
        assert!(unfilled.validate().unwrap_err().contains("never-filled"));
        let lane = ReplayScript {
            num_sms: 1,
            warps: vec![WarpScript { ops: vec![ReplayOp::Malloc { lane: 40, slot: 0, size: 16 }] }],
        };
        assert!(lane.validate().unwrap_err().contains("out of range"));
    }
}
