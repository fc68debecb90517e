//! Property test: the Chrome `trace_event` exporter in
//! `gpu_sim::trace` loses nothing. Arbitrary well-formed record lists,
//! rendered with [`chrome_trace_json`] and re-read with the bench
//! crate's own JSON parser, decode back to the original records —
//! names, coordinates, and every typed payload field.
//!
//! Values stay below 2^32 because the hand-rolled parser goes through
//! `f64` (exact only up to 2^53); the allocator never produces offsets
//! anywhere near that in simulation.

use bench::report::json::{self, Value};
use gpu_sim::trace::{
    chrome_trace_json, AllocTier, ReclaimPhase, TraceEvent, TraceRecord, LANE_NONE,
};
use gpu_sim::{cases, SplitMix64};

/// Exclusive bound keeping every numeric field exactly representable
/// after a trip through the parser's `f64`.
const B: u64 = 1 << 32;
const B32: u32 = u32::MAX;

/// A draw from `0..B`.
fn b(rng: &mut SplitMix64) -> u64 {
    rng.below(B)
}

/// A draw from `0..B32`.
fn b32(rng: &mut SplitMix64) -> u32 {
    rng.below(B32.into()) as u32
}

fn event(rng: &mut SplitMix64) -> TraceEvent {
    let tiers = [AllocTier::Slice, AllocTier::Block, AllocTier::Large];
    let phases = [ReclaimPhase::Attempt, ReclaimPhase::Abort, ReclaimPhase::Publish];
    match rng.below(11) {
        0 => TraceEvent::Malloc { size: b(rng), tier: tiers[rng.below(3) as usize], ptr: b(rng) },
        1 => TraceEvent::Free { ptr: b(rng), size: b(rng) },
        2 => TraceEvent::SegmentGrab { seg: b(rng), class: b32(rng) },
        3 => TraceEvent::SegmentReformat { seg: b(rng), class: b32(rng), drain_spins: b(rng) },
        4 => TraceEvent::SegmentReclaim {
            seg: b(rng),
            class: b32(rng),
            phase: phases[rng.below(3) as usize],
        },
        5 => TraceEvent::RingPush { seg: b(rng), block: b(rng) },
        6 => TraceEvent::RingPop { seg: b(rng), block: b(rng) },
        7 => TraceEvent::ClaimCas {
            seg: b(rng),
            block: b(rng),
            attempts: b32(rng),
            gen: b32(rng),
            taken: b32(rng),
        },
        8 => TraceEvent::CoalesceGroup { class: b32(rng), lanes: b32(rng) },
        9 => TraceEvent::BufferInstall { slot: b32(rng), block: b(rng) },
        _ => TraceEvent::BufferReplace { slot: b32(rng), old: b(rng), new: b(rng) },
    }
}

/// Device and pool instance ids, half of them 0 so both exporter
/// branches run: id 0 is *omitted* from the JSON (single-device and
/// single-instance traces stay byte-identical to the formats before
/// topologies and pools) and must decode back as the default.
fn id(rng: &mut SplitMix64) -> u32 {
    match rng.below(2) {
        0 => 0,
        _ => 1 + rng.below(B32 as u64 - 1) as u32,
    }
}

fn record(rng: &mut SplitMix64) -> TraceRecord {
    let (sm, warp, lane) = (b32(rng), b(rng), rng.below(33) as u32);
    TraceRecord {
        step: 0, // assigned from the index below, like the real sink's ticket
        sm,
        warp,
        lane: if lane == 32 { LANE_NONE } else { lane },
        device: id(rng),
        instance: id(rng),
        event: event(rng),
    }
}

fn field(args: &Value, key: &str) -> u64 {
    args.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("args missing numeric {key}: {args:?}")) as u64
}

/// An optional numeric field the exporter elides at its default (the
/// pool instance id).
fn opt_field(args: &Value, key: &str, default: u64) -> u64 {
    args.get(key).and_then(Value::as_f64).map(|v| v as u64).unwrap_or(default)
}

fn label<'v>(args: &'v Value, key: &str) -> &'v str {
    args.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("args missing string {key}: {args:?}"))
}

/// The one of `all` whose exported label is `s`.
fn from_label<T: Copy>(all: &[T], to_label: fn(T) -> &'static str, s: &str) -> T {
    *all.iter().find(|&&t| to_label(t) == s).unwrap_or_else(|| panic!("unknown label {s:?}"))
}

/// Decode one `traceEvents` entry back into a [`TraceRecord`].
fn decode(entry: &Value) -> TraceRecord {
    let name = entry.get("name").and_then(Value::as_str).expect("name");
    let args = entry.get("args").expect("args");
    let event = match name {
        "malloc" => TraceEvent::Malloc {
            size: field(args, "size"),
            tier: from_label(
                &[AllocTier::Slice, AllocTier::Block, AllocTier::Large],
                AllocTier::label,
                label(args, "tier"),
            ),
            ptr: field(args, "ptr"),
        },
        "free" => TraceEvent::Free { ptr: field(args, "ptr"), size: field(args, "size") },
        "segment_grab" => {
            TraceEvent::SegmentGrab { seg: field(args, "seg"), class: field(args, "class") as u32 }
        }
        "segment_reformat" => TraceEvent::SegmentReformat {
            seg: field(args, "seg"),
            class: field(args, "class") as u32,
            drain_spins: field(args, "drain_spins"),
        },
        "segment_reclaim" => TraceEvent::SegmentReclaim {
            seg: field(args, "seg"),
            class: field(args, "class") as u32,
            phase: from_label(
                &[ReclaimPhase::Attempt, ReclaimPhase::Abort, ReclaimPhase::Publish],
                ReclaimPhase::label,
                label(args, "phase"),
            ),
        },
        "ring_push" => {
            TraceEvent::RingPush { seg: field(args, "seg"), block: field(args, "block") }
        }
        "ring_pop" => TraceEvent::RingPop { seg: field(args, "seg"), block: field(args, "block") },
        "claim_cas" => TraceEvent::ClaimCas {
            seg: field(args, "seg"),
            block: field(args, "block"),
            attempts: field(args, "attempts") as u32,
            gen: field(args, "gen") as u32,
            taken: field(args, "taken") as u32,
        },
        "coalesce_group" => TraceEvent::CoalesceGroup {
            class: field(args, "class") as u32,
            lanes: field(args, "lanes") as u32,
        },
        "buffer_install" => TraceEvent::BufferInstall {
            slot: field(args, "slot") as u32,
            block: field(args, "block"),
        },
        "buffer_replace" => TraceEvent::BufferReplace {
            slot: field(args, "slot") as u32,
            old: field(args, "old"),
            new: field(args, "new"),
        },
        other => panic!("unknown event name {other}"),
    };
    TraceRecord {
        step: field(entry, "ts"),
        sm: field(entry, "pid") as u32,
        warp: field(entry, "tid"),
        lane: field(args, "lane") as u32,
        device: opt_field(args, "device", 0) as u32,
        instance: opt_field(args, "instance", 0) as u32,
        event,
    }
}

#[test]
fn chrome_export_roundtrips() {
    cases("chrome_export_roundtrips", 64, |rng| {
        let mut records: Vec<TraceRecord> = (0..rng.below(40)).map(|_| record(rng)).collect();
        for (i, r) in records.iter_mut().enumerate() {
            r.step = i as u64;
        }
        let text = chrome_trace_json(&records);
        let doc =
            json::parse(&text).unwrap_or_else(|e| panic!("exporter produced invalid JSON: {e}"));
        assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
        let events =
            doc.get("traceEvents").and_then(Value::as_array).expect("missing traceEvents array");
        assert_eq!(events.len(), records.len());
        for (entry, original) in events.iter().zip(&records) {
            assert_eq!(entry.get("ph").and_then(Value::as_str), Some("i"));
            assert_eq!(decode(entry), *original);
        }
    });
}
