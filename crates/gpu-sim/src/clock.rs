//! A virtual clock counting *schedule steps*, the simulator's time unit.
//!
//! Wall clock is meaningless inside gpu-sim: a deterministic launch runs
//! serialized on host threads, so elapsed nanoseconds measure the host,
//! not the modeled device. The unit that *is* meaningful — and exactly
//! reproducible per `GALLATIN_SCHED_SEED` — is the scheduler's turn
//! grant: one step per preemption-point crossing (see
//! [`crate::sched::run_tasks`]). [`StepClock`] keeps a monotone cursor
//! in that unit so a host-side layer (e.g. the bench crate's serving
//! front end) can stamp requests on arrival, advance by each kernel
//! launch's reported step count ([`crate::launch_warps_counted`]), and
//! measure queueing + service delay as step deltas that replay
//! identically for identical seeds.

/// A monotone virtual clock in schedule steps.
///
/// ```
/// use gpu_sim::clock::StepClock;
///
/// let mut clock = StepClock::new();
/// let arrived = clock.now();            // stamp a request
/// clock.advance(40);                    // a kernel launch took 40 steps
/// assert_eq!(clock.now() - arrived, 40, "queueing+service delay in steps");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepClock {
    now: u64,
}

impl StepClock {
    /// A clock at step 0.
    pub fn new() -> Self {
        StepClock { now: 0 }
    }

    /// The current step.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance by `steps` and return the new time.
    pub fn advance(&mut self, steps: u64) -> u64 {
        self.now = self.now.checked_add(steps).expect("step clock overflow");
        self.now
    }

    /// Move forward to `step` if it is in the future (idle skip to the
    /// next event); a past `step` leaves the clock unchanged — the clock
    /// never runs backwards.
    pub fn advance_to(&mut self, step: u64) -> u64 {
        self.now = self.now.max(step);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = StepClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(7), 7);
        assert_eq!(c.advance_to(5), 7, "advance_to never rewinds");
        assert_eq!(c.advance_to(30), 30);
        assert_eq!(c.advance(0), 30);
    }

    #[test]
    #[should_panic(expected = "step clock overflow")]
    fn overflow_is_loud() {
        let mut c = StepClock::new();
        c.advance(u64::MAX);
        c.advance(1);
    }
}
