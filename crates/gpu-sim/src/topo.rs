//! Multi-device topology: N device arenas joined by an interconnect.
//!
//! The rest of the workspace grew up on one implicit device — one
//! [`DeviceMemory`] arena, pointers that are plain offsets, a trace
//! `instance` field. A production deployment (ROADMAP item 4) spans
//! several GPUs whose memories are distinct but mutually reachable over
//! an interconnect with asymmetric cost: an access served by the issuing
//! SM's own device is cheap, one that crosses to a peer is not (the
//! MGSim/MGMark model). This module makes that explicit:
//!
//! * [`Topology`] — one contiguous reservation carved into N equal
//!   per-device windows. Pointers stay *global* offsets into the parent
//!   arena, so every existing allocator keeps working unchanged; the
//!   device holding a pointer is recovered by integer division
//!   ([`DevicePtr::device_of`]), the same derivation Gallatin uses for
//!   segment ids one level down.
//! * [`InterconnectCost`] — the per-access step tariff. The default is
//!   `{local: 0, peer: 40}`: local accesses charge nothing (keeping
//!   single-device step counts bit-identical to the pre-topology
//!   simulator), peer accesses charge roughly the local/remote latency
//!   ratio NVLink-class fabrics exhibit.
//! * [`Topology::classify_accesses`] — the accounting hook: given the
//!   issuing SM and the pointers a warp touched, bump the local/peer
//!   counters on a [`Metrics`] and return the step cost to charge on a
//!   [`crate::clock::StepClock`]. Deliberately *not* a scheduler
//!   preemption point: traffic accounting must never perturb the
//!   deterministic schedule (see `crate::metrics::Metrics::count_local_access`).
//!
//! SM→device affinity is static and round-robin (`sm % devices`),
//! mirroring how the launch machinery assigns SM ids to warps; the
//! topology-aware pool uses the same mapping for placement so "the SM's
//! own device" and "where affinity placed the allocation" agree.

use crate::mem::{DeviceMemory, DevicePtr};
use crate::metrics::Metrics;

/// Per-access step tariff of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterconnectCost {
    /// Steps charged for an access served by the issuing SM's device.
    /// 0 by default so single-device topologies add no cost at all.
    pub local_steps: u64,
    /// Steps charged for an access that crosses to a peer device.
    pub peer_steps: u64,
}

impl Default for InterconnectCost {
    fn default() -> Self {
        // ~40:1 remote:local, the order of magnitude NVLink-class
        // fabrics show for fine-grained peer access.
        InterconnectCost { local_steps: 0, peer_steps: 40 }
    }
}

impl InterconnectCost {
    /// A free interconnect: peer access costs the same as local (both 0).
    /// Useful for isolating routing behaviour from latency modeling.
    pub fn free() -> Self {
        InterconnectCost { local_steps: 0, peer_steps: 0 }
    }
}

/// N device arenas carved from one reservation, plus the interconnect
/// joining them.
///
/// ```
/// use gpu_sim::topo::Topology;
/// use gpu_sim::DevicePtr;
///
/// let topo = Topology::new(4, 16 << 20);
/// assert_eq!(topo.devices(), 4);
/// assert_eq!(topo.device_stride(), 16 << 20);
/// // A pointer in the second window belongs to device 1.
/// assert_eq!(topo.device_of(DevicePtr(topo.device_stride() + 8)), 1);
/// // SM 5 on a 4-device topology has affinity to device 1.
/// assert_eq!(topo.affinity_device(5), 1);
/// ```
#[derive(Debug)]
pub struct Topology {
    mem: DeviceMemory,
    windows: Vec<DeviceMemory>,
    device_stride: u64,
    cost: InterconnectCost,
}

impl Topology {
    /// A topology of `devices` arenas of `bytes_per_device` each, with
    /// the default interconnect tariff.
    ///
    /// # Panics
    /// Panics if `devices == 0` or `bytes_per_device == 0`.
    pub fn new(devices: u32, bytes_per_device: u64) -> Self {
        Self::with_cost(devices, bytes_per_device, InterconnectCost::default())
    }

    /// A topology with an explicit interconnect tariff.
    pub fn with_cost(devices: u32, bytes_per_device: u64, cost: InterconnectCost) -> Self {
        assert!(devices > 0, "a topology needs at least one device");
        assert!(bytes_per_device > 0, "devices need non-empty arenas");
        let total = bytes_per_device.checked_mul(devices as u64).expect("topology size overflow");
        let mem = DeviceMemory::new(total as usize);
        let windows = mem.split(devices as usize);
        Topology { mem, windows, device_stride: bytes_per_device, cost }
    }

    /// Number of devices.
    #[inline]
    pub fn devices(&self) -> u32 {
        self.windows.len() as u32
    }

    /// Bytes per device window — the pointer-routing divisor.
    #[inline]
    pub fn device_stride(&self) -> u64 {
        self.device_stride
    }

    /// The interconnect tariff.
    #[inline]
    pub fn cost(&self) -> InterconnectCost {
        self.cost
    }

    /// The whole reservation: every device's bytes, global offsets. This
    /// is the view a topology-spanning allocator hands pointers into.
    #[inline]
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Device `d`'s window (local offsets starting at 0).
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[inline]
    pub fn window(&self, d: u32) -> &DeviceMemory {
        &self.windows[d as usize]
    }

    /// The device whose arena holds `ptr`'s bytes.
    ///
    /// # Panics
    /// Panics (debug) if `ptr` is null; panics if `ptr` is beyond the
    /// reservation.
    #[inline]
    pub fn device_of(&self, ptr: DevicePtr) -> u32 {
        let d = ptr.device_of(self.device_stride);
        assert!(
            (d as usize) < self.windows.len(),
            "pointer {} beyond the {}-device reservation",
            ptr.0,
            self.windows.len()
        );
        d
    }

    /// Static SM→device affinity: round-robin over devices, matching the
    /// launch machinery's SM assignment so consecutive SMs spread evenly.
    #[inline]
    pub fn affinity_device(&self, sm: u32) -> u32 {
        sm % self.devices()
    }

    /// Steps an access from `sm` to `ptr` costs on this topology.
    #[inline]
    pub fn access_steps(&self, sm: u32, ptr: DevicePtr) -> u64 {
        if self.device_of(ptr) == self.affinity_device(sm) {
            self.cost.local_steps
        } else {
            self.cost.peer_steps
        }
    }

    /// Account a warp's accesses from `sm` to the non-null `ptrs` in one
    /// pass: one bump of the local and one of the peer counter on
    /// `metrics`, and the step cost for the caller to charge on its
    /// [`crate::clock::StepClock`]. Not a preemption point.
    #[inline]
    pub fn classify_accesses(
        &self,
        sm: u32,
        ptrs: impl IntoIterator<Item = DevicePtr>,
        metrics: &Metrics,
    ) -> u64 {
        let home = self.affinity_device(sm);
        let (mut served, mut peer) = (0u64, 0u64);
        for p in ptrs.into_iter().filter(|p| !p.is_null()) {
            served += 1;
            peer += u64::from(self.device_of(p) != home);
        }
        let local = served - peer;
        metrics.count_local_access(local);
        metrics.count_peer_access(peer);
        local * self.cost.local_steps + peer * self.cost.peer_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_reservation() {
        let topo = Topology::new(4, 1 << 20);
        assert_eq!(topo.devices(), 4);
        assert_eq!(topo.memory().len(), 4 << 20);
        for d in 0..4 {
            assert_eq!(topo.window(d).len(), 1 << 20);
            // Offset 0 of window d aliases global offset d * stride.
            topo.window(d).store_u64(0, 100 + d as u64);
            assert_eq!(topo.memory().load_u64(d as u64 * (1 << 20)), 100 + d as u64);
        }
    }

    #[test]
    fn pointer_routing_and_affinity() {
        let topo = Topology::new(2, 1 << 16);
        assert_eq!(topo.device_of(DevicePtr(0)), 0);
        assert_eq!(topo.device_of(DevicePtr(1 << 16)), 1);
        assert_eq!(topo.affinity_device(0), 0);
        assert_eq!(topo.affinity_device(1), 1);
        assert_eq!(topo.affinity_device(2), 0);
        // Single device: every SM maps to device 0, everything is local.
        let one = Topology::new(1, 1 << 16);
        assert_eq!(one.affinity_device(13), 0);
        assert_eq!(one.access_steps(13, DevicePtr(64)), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the 2-device reservation")]
    fn out_of_reservation_pointer_is_loud() {
        let topo = Topology::new(2, 1 << 16);
        topo.device_of(DevicePtr(2 << 16));
    }

    #[test]
    fn classify_accesses_counts_and_charges() {
        let topo =
            Topology::with_cost(2, 1 << 16, InterconnectCost { local_steps: 1, peer_steps: 40 });
        let m = Metrics::new();
        let (near, far) = (DevicePtr(8), DevicePtr((1 << 16) + 8));
        // SM 0's warp: one device-0 pointer (local), one device-1 pointer
        // (peer), and an idle lane that is not an access at all.
        assert_eq!(topo.classify_accesses(0, [near, DevicePtr::NULL, far], &m), 41);
        // SM 1 → device 1 pointer: local again.
        assert_eq!(topo.classify_accesses(1, [far], &m), 1);
        let s = m.snapshot();
        assert_eq!((s.local_accesses, s.peer_accesses), (2, 1));
        assert!((s.peer_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn default_tariff_keeps_local_free() {
        let c = InterconnectCost::default();
        assert_eq!(c.local_steps, 0, "single-device step counts must not change");
        assert!(c.peer_steps > 0);
        assert_eq!(InterconnectCost::free(), InterconnectCost { local_steps: 0, peer_steps: 0 });
    }
}
