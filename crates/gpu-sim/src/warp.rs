//! Warps, lanes, and cooperative-groups collectives.
//!
//! A warp is the GPU's unit of lockstep execution: 32 lanes that can
//! exchange values without touching memory. Gallatin's headline trick —
//! opportunistic request coalescing (paper §4.3, Algorithm 3) — is built
//! on the CUDA cooperative-groups API: `coalesced_threads()` groups the
//! currently-active lanes, `ballot` finds lanes making the same request,
//! an elected leader performs one atomic on behalf of the group, and the
//! result is distributed with broadcast + exclusive scan.
//!
//! The simulator executes a warp as a unit (one closure invocation per
//! warp; see [`mod@crate::launch`]), so a collective has exact lane
//! visibility and its result is a plain value: a [`LaneMask`], the word
//! `__ballot_sync` returns. The allocators' collective entry points
//! ballot once and from then on revisit set lanes only — an idle lane
//! costs nothing, as on hardware. None of it is a scheduler preemption
//! point: a group forms between two atomics, never across one.

/// Number of lanes in a warp, fixed at the CUDA value.
pub const WARP_SIZE: usize = 32;

/// A set of lanes of one warp: a ballot's result, and a coalesced group
/// once a leader acts for it. Iterating pops lanes in ascending order
/// (`trailing_zeros`, clear the lowest bit), so a pass costs the lanes
/// set, not the warp's width, and a lane's place in the walk is its rank
/// (Algorithm 3's exclusive scan). The type is `Copy`: `for lane in mask`
/// walks a copy and leaves `mask` whole; `mask.by_ref()` drains it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneMask(u32);

impl LaneMask {
    /// No lane.
    pub const EMPTY: LaneMask = LaneMask(0);

    /// The group of `lane` alone: a scalar call seen as a collective one.
    #[inline]
    pub fn lane(lane: usize) -> Self {
        LaneMask(1 << lane)
    }

    /// `__ballot_sync`: the lanes whose entry of `values` (one per active
    /// lane) satisfies `pred`, in one pass.
    #[inline]
    pub fn ballot<T>(values: &[T], mut pred: impl FnMut(&T) -> bool) -> Self {
        debug_assert!(values.len() <= WARP_SIZE);
        LaneMask(values.iter().enumerate().fold(0, |m, (lane, v)| m | (pred(v) as u32) << lane))
    }

    /// The ballot of `pred` among this group's lanes alone.
    #[inline]
    pub fn keep(self, mut pred: impl FnMut(usize) -> bool) -> Self {
        LaneMask(self.fold(0, |m, lane| m | (pred(lane) as u32) << lane))
    }

    /// Add `lane` to the group.
    #[inline]
    pub fn insert(&mut self, lane: usize) {
        self.0 |= 1 << lane;
    }

    /// This group without the lanes of `other`.
    #[inline]
    pub fn without(self, other: LaneMask) -> Self {
        LaneMask(self.0 & !other.0)
    }

    /// Whether no lane is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The group's leader: its lowest lane (CUDA's
    /// `coalesced_group::thread_rank() == 0`).
    #[inline]
    pub fn lowest(mut self) -> Option<usize> {
        self.next()
    }
}

impl Iterator for LaneMask {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }

    /// The group's size, by popcount.
    #[inline]
    fn count(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Execution context of one warp.
///
/// `active` is the number of live lanes (the last warp of a launch may be
/// partial, like a partially-full warp at the tail of a CUDA grid).
#[derive(Clone, Copy, Debug)]
pub struct WarpCtx {
    /// Global warp index within the launch.
    pub warp_id: u64,
    /// Streaming multiprocessor this warp is resident on. Gallatin's block
    /// buffers are indexed by SM (paper §4.3 "Faster access to blocks").
    pub sm_id: u32,
    /// Global thread id of lane 0.
    pub base_tid: u64,
    /// Number of active lanes, `1..=WARP_SIZE`.
    pub active: u32,
}

impl WarpCtx {
    /// Iterator over active lane indices.
    #[inline]
    pub fn lanes(&self) -> impl Iterator<Item = usize> {
        0..self.active as usize
    }

    /// Per-lane context for scalar (non-collective) calls.
    #[inline]
    pub fn lane(&self, lane: usize) -> LaneCtx<'_> {
        debug_assert!(lane < self.active as usize);
        LaneCtx { warp: self, lane: lane as u32 }
    }
}

/// Execution context of a single lane (thread) inside a warp.
#[derive(Clone, Copy, Debug)]
pub struct LaneCtx<'a> {
    /// The warp this lane belongs to.
    pub warp: &'a WarpCtx,
    /// Lane index, `0..warp.active`.
    pub lane: u32,
}

impl LaneCtx<'_> {
    /// Global thread id of this lane within the launch.
    #[inline]
    pub fn global_tid(&self) -> u64 {
        self.warp.base_tid + self.lane as u64
    }

    /// SM the lane executes on.
    #[inline]
    pub fn sm_id(&self) -> u32 {
        self.warp.sm_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_sets_matching_lanes_and_the_leader_is_the_lowest() {
        let mask = LaneMask::ballot(&[true, false, true, true], |&p| p);
        assert_eq!(mask, LaneMask(0b1101));
        assert_eq!((mask.lowest(), mask.count(), mask.is_empty()), (Some(0), 3, false));
        assert_eq!(LaneMask(0b1100).lowest(), Some(2));
        let none = LaneMask::ballot(&[None::<u64>; 32], Option::is_some);
        assert_eq!((none, none.lowest(), none.count()), (LaneMask::EMPTY, None, 0));
        assert_eq!(LaneMask::ballot(&[7u8; 32], |&v| v == 7).count(), 32);
    }

    #[test]
    fn iteration_visits_set_lanes_ascending_and_drains_by_ref() {
        let mask = LaneMask(0b1000_0000_0000_0000_1011_0100_0000_0001);
        assert_eq!(mask.collect::<Vec<_>>(), [0, 10, 12, 13, 15, 31]);
        // Lane i of the walk has rank i: the exclusive scan of Algorithm 3.
        let mut rest = mask;
        assert_eq!(rest.by_ref().take(2).collect::<Vec<_>>(), [0, 10]);
        assert_eq!(rest, LaneMask(0b1000_0000_0000_0000_1011_0000_0000_0000));
        assert_eq!(mask.without(rest), LaneMask(0b100_0000_0001));
    }

    #[test]
    fn keep_ballots_among_the_group_only() {
        let keys = [16u64, 32, 16, 99, 32, 16];
        let mut group = LaneMask::ballot(&keys, |&k| k != 99);
        let mut visited = 0;
        let same = group.keep(|lane| {
            visited += 1;
            keys[lane] == keys[0]
        });
        assert_eq!((same, visited), (LaneMask(0b100101), 5));
        group.insert(3);
        assert_eq!(group.without(same), LaneMask(0b011010));
        assert_eq!(LaneMask::lane(31).lowest(), Some(31));
    }

    #[test]
    fn lane_ctx_global_tid() {
        let w = WarpCtx { warp_id: 7, sm_id: 3, base_tid: 7 * 32, active: 32 };
        assert_eq!(w.lane(5).global_tid(), 7 * 32 + 5);
        assert_eq!(w.lane(5).sm_id(), 3);
    }
}
