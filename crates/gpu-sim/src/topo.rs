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
//! * [`PEER_STEPS`] — the one tariff: the schedule steps a report prices
//!   a peer access at (E23's cascade cell). No clock is charged, so step
//!   counts are those of the pre-topology simulator.
//! * [`Topology::classify_accesses`] — the accounting hook: given the
//!   issuing SM and the pointers a warp touched, bump the local/peer
//!   counters on a [`Metrics`]. Deliberately *not* a scheduler
//!   preemption point: traffic accounting must never perturb the
//!   deterministic schedule (see `crate::metrics::Metrics::count_local_access`).
//!
//! SM→device affinity is static and round-robin (`sm % devices`),
//! mirroring how the launch machinery assigns SM ids to warps; the
//! topology-aware pool uses the same mapping for placement so "the SM's
//! own device" and "where affinity placed the allocation" agree.

use crate::mem::{DeviceMemory, DevicePtr};
use crate::metrics::Metrics;

/// Schedule steps a peer-device access is priced at where a report
/// converts [`Metrics`]' peer count to time: ~40:1 remote:local, the order
/// of magnitude NVLink-class fabrics show for fine-grained peer access (a
/// local access is free).
pub const PEER_STEPS: u64 = 40;

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
    devices: u32,
    device_stride: u64,
}

impl Topology {
    /// A topology of `devices` arenas of `bytes_per_device` each.
    ///
    /// # Panics
    /// Panics if `devices == 0` or `bytes_per_device == 0`.
    pub fn new(devices: u32, bytes_per_device: u64) -> Self {
        assert!(devices > 0, "a topology needs at least one device");
        assert!(bytes_per_device > 0, "devices need non-empty arenas");
        let total = bytes_per_device.checked_mul(devices as u64).expect("topology size overflow");
        let mem = DeviceMemory::new(total as usize);
        Topology { mem, devices, device_stride: bytes_per_device }
    }

    /// Number of devices.
    #[inline]
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Bytes per device window — the pointer-routing divisor.
    #[inline]
    pub fn device_stride(&self) -> u64 {
        self.device_stride
    }

    /// The whole reservation: every device's bytes, global offsets. This
    /// is the view a topology-spanning allocator hands pointers into.
    #[inline]
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The device whose arena holds `ptr`'s bytes.
    ///
    /// # Panics
    /// Panics (debug) if `ptr` is null; panics if `ptr` is beyond the
    /// reservation.
    #[inline]
    pub fn device_of(&self, ptr: DevicePtr) -> u32 {
        let (d, n) = (ptr.device_of(self.device_stride), self.devices);
        assert!(d < n, "pointer {} beyond the {n}-device reservation", ptr.0);
        d
    }

    /// Static SM→device affinity: round-robin over devices, matching the
    /// launch machinery's SM assignment so consecutive SMs spread evenly.
    #[inline]
    pub fn affinity_device(&self, sm: u32) -> u32 {
        sm % self.devices()
    }

    /// Account a warp's accesses from `sm` to the non-null `ptrs` in one
    /// pass: one bump of the local and one of the peer counter on
    /// `metrics`. Not a preemption point.
    #[inline]
    pub fn classify_accesses(
        &self,
        sm: u32,
        ptrs: impl IntoIterator<Item = DevicePtr>,
        metrics: &Metrics,
    ) {
        let home = self.affinity_device(sm);
        let (mut served, mut peer) = (0u64, 0u64);
        for p in ptrs.into_iter().filter(|p| !p.is_null()) {
            served += 1;
            peer += u64::from(self.device_of(p) != home);
        }
        metrics.count_local_access(served - peer);
        metrics.count_peer_access(peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_routing_and_affinity() {
        let topo = Topology::new(2, 1 << 16);
        assert_eq!((topo.devices(), topo.memory().len()), (2, 2 << 16));
        assert_eq!(topo.device_of(DevicePtr(0)), 0);
        assert_eq!(topo.device_of(DevicePtr(1 << 16)), 1);
        assert_eq!(topo.affinity_device(0), 0);
        assert_eq!(topo.affinity_device(1), 1);
        assert_eq!(topo.affinity_device(2), 0);
        // Single device: every SM maps to device 0.
        assert_eq!(Topology::new(1, 1 << 16).affinity_device(13), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the 2-device reservation")]
    fn out_of_reservation_pointer_is_loud() {
        let topo = Topology::new(2, 1 << 16);
        topo.device_of(DevicePtr(2 << 16));
    }

    #[test]
    fn classify_accesses_counts_local_and_peer() {
        let topo = Topology::new(2, 1 << 16);
        let m = Metrics::new();
        let (near, far) = (DevicePtr(8), DevicePtr((1 << 16) + 8));
        // SM 0's warp: one device-0 pointer (local), one device-1 pointer
        // (peer), and an idle lane that is not an access at all.
        topo.classify_accesses(0, [near, DevicePtr::NULL, far], &m);
        // SM 1 → device 1 pointer: local again.
        topo.classify_accesses(1, [far], &m);
        let s = m.snapshot();
        assert_eq!((s.local_accesses, s.peer_accesses), (2, 1));
        assert!((s.peer_share() - 1.0 / 3.0).abs() < 1e-12);
    }
}
