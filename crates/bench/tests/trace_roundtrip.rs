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
use proptest::prelude::*;

/// Exclusive bound keeping every numeric field exactly representable
/// after a trip through the parser's `f64`.
const B: u64 = 1 << 32;
const B32: u32 = u32::MAX;

fn tier_strategy() -> impl Strategy<Value = AllocTier> {
    prop_oneof![Just(AllocTier::Slice), Just(AllocTier::Block), Just(AllocTier::Large)]
}

fn phase_strategy() -> impl Strategy<Value = ReclaimPhase> {
    prop_oneof![Just(ReclaimPhase::Attempt), Just(ReclaimPhase::Abort), Just(ReclaimPhase::Publish),]
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0..B, tier_strategy(), 0..B).prop_map(|(size, tier, ptr)| TraceEvent::Malloc {
            size,
            tier,
            ptr
        }),
        (0..B, 0..B).prop_map(|(ptr, size)| TraceEvent::Free { ptr, size }),
        (0..B, 0..B32).prop_map(|(seg, class)| TraceEvent::SegmentGrab { seg, class }),
        (0..B, 0..B32, 0..B).prop_map(|(seg, class, drain_spins)| {
            TraceEvent::SegmentReformat { seg, class, drain_spins }
        }),
        (0..B, 0..B32, phase_strategy())
            .prop_map(|(seg, class, phase)| TraceEvent::SegmentReclaim { seg, class, phase }),
        (0..B, 0..B).prop_map(|(seg, block)| TraceEvent::RingPush { seg, block }),
        (0..B, 0..B).prop_map(|(seg, block)| TraceEvent::RingPop { seg, block }),
        (0..B, 0..B, 0..B32, 0..B32, 0..B32).prop_map(|(seg, block, attempts, gen, taken)| {
            TraceEvent::ClaimCas { seg, block, attempts, gen, taken }
        }),
        (0..B32, 0..B32).prop_map(|(class, lanes)| TraceEvent::CoalesceGroup { class, lanes }),
        (0..B32, 0..B).prop_map(|(slot, block)| TraceEvent::BufferInstall { slot, block }),
        (0..B32, 0..B, 0..B).prop_map(|(slot, old, new)| TraceEvent::BufferReplace {
            slot,
            old,
            new
        }),
    ]
}

/// Pool instance ids, weighted toward 0 so both exporter branches run:
/// instance 0 is *omitted* from the JSON (single-instance traces stay
/// byte-identical to the pre-pool format) and must decode back as the
/// default.
fn instance_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), 1..B32]
}

/// Device ids, weighted toward 0 for the same reason: device 0 is
/// omitted from the JSON (single-device traces stay byte-identical to
/// the pre-topology format) and must decode back as the default.
fn device_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), 1..B32]
}

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (0..B32, 0..B, 0u32..33, device_strategy(), instance_strategy(), event_strategy()).prop_map(
        |(sm, warp, lane, device, instance, event)| TraceRecord {
            step: 0, // assigned from the index below, like the real sink's ticket
            sm,
            warp,
            lane: if lane == 32 { LANE_NONE } else { lane },
            device,
            instance,
            event,
        },
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chrome_export_roundtrips(mut records in prop::collection::vec(record_strategy(), 0..40)) {
        for (i, r) in records.iter_mut().enumerate() {
            r.step = i as u64;
        }
        let text = chrome_trace_json(&records);
        let doc = json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("exporter produced invalid JSON: {e}")))?;
        prop_assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ns")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or_else(|| TestCaseError::fail("missing traceEvents array"))?;
        prop_assert_eq!(events.len(), records.len());
        for (entry, original) in events.iter().zip(&records) {
            prop_assert_eq!(entry.get("ph").and_then(Value::as_str), Some("i"));
            prop_assert_eq!(decode(entry), *original);
        }
    }
}
