//! The allocator roster benchmarked by every experiment.

use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::DeviceAllocator;
use std::sync::Arc;

/// Gallatin configured for the harness's heap and SM count.
pub fn gallatin(heap_bytes: u64, num_sms: u32) -> Gallatin {
    Gallatin::new(GallatinConfig { heap_bytes, num_sms, ..GallatinConfig::default() })
}

/// The display names of the full roster — Gallatin first, then every
/// survey baseline, in the order the paper's figures list them —
/// without constructing any allocator.
pub fn roster_names() -> Vec<&'static str> {
    std::iter::once("Gallatin").chain(allocators::baseline_names()).collect()
}

/// The roster for the graph *expansion* test: every [`roster_names`]
/// allocator, except the Ouroboros variants carry a CUDA-heap
/// reserve scaled the way the paper describes deployed allocators
/// (≈50 MB beside an 8 GB benchmark heap, i.e. under 1% — `heap/256`
/// here). With the default quarter-heap reserve the scaled-down workload
/// could never overflow it, and the experiment would lose the failure
/// mode it exists to show (§6.12: skewed hub edge lists outgrow the
/// fixed reserve).
pub fn expansion_roster(heap_bytes: u64, num_sms: u32) -> Vec<Arc<dyn DeviceAllocator>> {
    use allocators::Ouroboros;
    let reserve = (heap_bytes / 256).max(1 << 20);
    roster_names()
        .into_iter()
        .map(|name| -> Arc<dyn DeviceAllocator> {
            match Ouroboros::parse_name(name) {
                Some(kind) => Arc::new(Ouroboros::with_reserve(heap_bytes, kind, reserve)),
                None => build_by_name(name, heap_bytes, num_sms).expect("a listed roster name"),
            }
        })
        .collect()
}

/// Construct a single allocator by its display name (used by the init
/// benchmark to time construction individually).
pub fn build_by_name(
    name: &str,
    heap_bytes: u64,
    num_sms: u32,
) -> Option<Arc<dyn DeviceAllocator>> {
    if name == "Gallatin" {
        // Gallatin's heap must be segment-aligned.
        let gall_heap = (heap_bytes / (16 << 20) * (16 << 20)).max(16 << 20);
        return Some(Arc::new(gallatin(gall_heap, num_sms)));
    }
    allocators::baseline_by_name(name, heap_bytes)
}

/// A reduced roster for quick runs: Gallatin plus one representative of
/// each design family, in [`roster_names`] order.
pub fn quick_roster(heap_bytes: u64, num_sms: u32) -> Vec<Arc<dyn DeviceAllocator>> {
    let names = [
        "Gallatin",
        "CUDA",
        "Ouroboros-C",
        "Ouroboros-P",
        "RegEff-AW",
        "RegEff-CFM",
        "ScatterAlloc",
        "XMalloc",
    ];
    names
        .into_iter()
        .map(|name| build_by_name(name, heap_bytes, num_sms).expect("a listed roster name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch_warps_counted, DeviceConfig, DevicePtr};
    use std::sync::Mutex;

    fn build(name: &str) -> Arc<dyn DeviceAllocator> {
        build_by_name(name, 64 << 20, 16).expect("a listed roster name")
    }

    #[test]
    fn full_roster_has_gallatin_and_all_baselines() {
        let r: Vec<_> = roster_names().into_iter().map(build).collect();
        assert_eq!(r.len(), 12);
        assert_eq!(r[0].name(), "Gallatin");
    }

    #[test]
    fn names_and_builds_share_one_order() {
        let names = roster_names();
        assert_eq!(names.len(), 12);
        for name in &names {
            assert_eq!(build(name).name(), *name);
        }
        let exp = expansion_roster(64 << 20, 16);
        assert_eq!(exp.iter().map(|a| a.name()).collect::<Vec<_>>(), names);
        assert!(build_by_name("Ouroboros-C-", 64 << 20, 16).is_none());
    }

    #[test]
    fn quick_roster_is_a_subset() {
        let q: Vec<_> = quick_roster(64 << 20, 16).iter().map(|a| a.name().to_string()).collect();
        assert_eq!(q.len(), 8);
        assert_eq!(q[0], "Gallatin");
        let in_order: Vec<_> =
            roster_names().into_iter().filter(|n| q.iter().any(|x| x == n)).collect();
        assert_eq!(in_order, q, "quick_roster keeps roster order");
    }

    /// What the step clock sees of one seeded churn on `name`: schedule
    /// steps, every pointer in the order handed out, and the counters.
    fn churn(name: &str) -> impl PartialEq {
        let a = build_by_name(name, 4 << 20, 4).expect("a listed roster name");
        let device = DeviceConfig::with_sms(4).seeded(7);
        let free = |order: Vec<DevicePtr>| {
            launch_warps_counted(device, order.len() as u64, |warp| {
                for lane in warp.lanes() {
                    let l = warp.lane(lane);
                    let p = order[l.global_tid() as usize];
                    if !p.is_null() {
                        a.free(&l, p);
                    }
                }
            })
        };
        // Each launch frees the first half of what it got in reverse
        // order, so the next one reuses holes; the rest go forward last.
        let (mut steps, mut ptrs, mut kept) = (0, Vec::new(), Vec::new());
        for launch in 0..3 {
            let got = Mutex::new(Vec::new());
            steps += launch_warps_counted(device, 8 * 32, |warp| {
                for lane in warp.lanes() {
                    let l = warp.lane(lane);
                    let p = a.malloc(&l, 16 << ((l.global_tid() + launch) % 9));
                    got.lock().unwrap().push(p);
                }
            });
            let got = got.into_inner().unwrap();
            let (back, front) = got.split_at(got.len() / 2);
            steps += free(back.iter().rev().copied().collect());
            kept.extend_from_slice(front);
            ptrs.extend(got);
        }
        steps += free(kept);
        (steps, ptrs, a.metrics().map(|m| m.snapshot()))
    }

    /// Every row is a design the step clock can tell apart from every
    /// other: steps, pointers or counters differ for each pair.
    #[test]
    fn every_roster_row_is_distinguishable() {
        let names = roster_names();
        let runs: Vec<_> = names.iter().map(|name| churn(name)).collect();
        for (name, run) in names.iter().zip(&runs) {
            assert!(churn(name) == *run, "{name}'s churn does not replay");
        }
        let mut same = Vec::new();
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                if runs[i] == runs[j] {
                    same.push(format!("{} = {}", names[i], names[j]));
                }
            }
        }
        assert!(same.is_empty(), "rows the step clock cannot tell apart: {}", same.join(", "));
    }
}
