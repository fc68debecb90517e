//! Open-loop arrival generation for the serving benchmark (E20).
//!
//! A serving experiment is only meaningful under an *open-loop* driver:
//! requests arrive on their own clock whether or not the allocator has
//! kept up, so queueing delay compounds past saturation instead of being
//! hidden by a closed loop that waits for each reply. This module
//! pre-generates the full arrival schedule — step-stamped on the
//! scheduler's step clock, never wall clock — from a seed, so
//! a run is replayable byte-for-byte.
//!
//! Three arrival shapes share one mean offered load (so sweeps compare
//! burstiness at equal work):
//!
//! * [`ArrivalShape::Poisson`] — memoryless, the classic serving
//!   baseline;
//! * [`ArrivalShape::Bursty`] — an ON/OFF modulation (5× rate for a
//!   quarter of each period) that stresses queue depth and tail latency;
//! * [`ArrivalShape::Diurnal`] — a slow sinusoid over the horizon,
//!   modeling a day-night load curve.
//!
//! Shapes are realized by thinning a homogeneous Poisson process at the
//! peak rate, the standard construction for inhomogeneous processes:
//! candidates are drawn at `rate_max` and accepted with probability
//! `rate(t) / rate_max`, which preserves determinism because the draw
//! sequence depends only on the seed.

use super::tenant::TenantSpec;
use gpu_sim::SplitMix64;

/// Which inter-arrival process drives the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Memoryless arrivals at a constant mean rate.
    Poisson,
    /// ON/OFF modulation: 2.5× the mean rate for the first quarter of
    /// each [`BURST_PERIOD_STEPS`] window, 0.5× for the rest (mean 1×).
    Bursty,
    /// One sinusoidal "day" across the horizon, swinging between 0.25×
    /// and 1.75× the mean rate (mean 1×).
    Diurnal,
}

/// Length of one ON/OFF window for [`ArrivalShape::Bursty`].
pub const BURST_PERIOD_STEPS: u64 = 4096;

impl ArrivalShape {
    /// Stable label used in BENCH params and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalShape::Poisson => "poisson",
            ArrivalShape::Bursty => "bursty",
            ArrivalShape::Diurnal => "diurnal",
        }
    }

    /// Instantaneous rate multiplier at `step` (mean 1.0 over the
    /// horizon for every shape, so offered load is shape-independent).
    fn factor(self, step: u64, horizon: u64) -> f64 {
        match self {
            ArrivalShape::Poisson => 1.0,
            ArrivalShape::Bursty => {
                if step % BURST_PERIOD_STEPS < BURST_PERIOD_STEPS / 4 {
                    2.5
                } else {
                    0.5
                }
            }
            ArrivalShape::Diurnal => {
                let phase = step as f64 / horizon.max(1) as f64;
                0.25 + 0.75 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
            }
        }
    }

    /// Upper bound of [`Self::factor`], the thinning envelope.
    fn factor_max(self) -> f64 {
        match self {
            ArrivalShape::Poisson => 1.0,
            ArrivalShape::Bursty => 2.5,
            ArrivalShape::Diurnal => 1.75,
        }
    }
}

/// Configuration of one arrival schedule.
#[derive(Clone, Debug)]
pub struct ArrivalConfig {
    /// Inter-arrival process.
    pub shape: ArrivalShape,
    /// Seed for the generator; same seed ⇒ identical schedule.
    pub seed: u64,
    /// Mean offered load: requests per 1000 schedule steps.
    pub rate_per_kstep: u64,
    /// Steps over which arrivals are generated (requests in flight may
    /// complete after the horizon; the engine drains them).
    pub horizon_steps: u64,
}

/// One request in the open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Step-clock stamp at which the request enters the system.
    pub step: u64,
    /// Index into the tenant roster of the issuing tenant.
    pub tenant: usize,
    /// Requested bytes (log-uniform within the tenant's size band).
    pub size: u64,
    /// Steps between the malloc completing and the free being issued
    /// (exponential with the tenant's mean lifetime).
    pub lifetime: u64,
}

/// Exponential with mean 1 (inverse-CDF; `1 - u` avoids ln(0)).
fn exp1(rng: &mut SplitMix64) -> f64 {
    -(1.0 - rng.unit_f64()).ln()
}

/// Draw a tenant index by weight.
fn pick_tenant(rng: &mut SplitMix64, tenants: &[TenantSpec]) -> usize {
    let total: u64 = tenants.iter().map(|t| t.weight as u64).sum();
    debug_assert!(total > 0, "tenant weights must not all be zero");
    let mut ticket = rng.next_u64() % total;
    for (i, t) in tenants.iter().enumerate() {
        if ticket < t.weight as u64 {
            return i;
        }
        ticket -= t.weight as u64;
    }
    tenants.len() - 1
}

/// Log-uniform size in `[size_min, size_max]` — small requests dominate
/// by count, as in real allocation mixes, while large ones still appear.
fn pick_size(rng: &mut SplitMix64, t: &TenantSpec) -> u64 {
    if t.size_max <= t.size_min {
        return t.size_min;
    }
    let lo = (t.size_min as f64).ln();
    let hi = (t.size_max as f64).ln();
    let size = (lo + (hi - lo) * rng.unit_f64()).exp().round() as u64;
    size.clamp(t.size_min, t.size_max)
}

/// Generate the full step-stamped arrival schedule.
///
/// The returned vector is sorted by `step` (thinning emits candidates in
/// time order). Determinism: the output is a pure function of
/// `(cfg, tenants)`.
pub fn generate(cfg: &ArrivalConfig, tenants: &[TenantSpec]) -> Vec<Arrival> {
    assert!(!tenants.is_empty(), "serving needs at least one tenant");
    let base_rate = cfg.rate_per_kstep as f64 / 1000.0;
    if base_rate <= 0.0 || cfg.horizon_steps == 0 {
        return Vec::new();
    }
    let rate_max = base_rate * cfg.shape.factor_max();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += exp1(&mut rng) / rate_max;
        let step = t as u64;
        if step >= cfg.horizon_steps {
            break;
        }
        // Thinning: accept with probability rate(t)/rate_max. The
        // rejected draws still consume rng state, keeping the stream
        // deterministic.
        if rng.unit_f64() * cfg.shape.factor_max() > cfg.shape.factor(step, cfg.horizon_steps) {
            continue;
        }
        let tenant = pick_tenant(&mut rng, tenants);
        let spec = &tenants[tenant];
        let size = pick_size(&mut rng, spec);
        let lifetime = (exp1(&mut rng) * spec.mean_lifetime_steps as f64).round() as u64;
        out.push(Arrival { step, tenant, size, lifetime: lifetime.max(1) });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "a".into(),
                weight: 3,
                quota_bytes: 1 << 20,
                size_min: 16,
                size_max: 4096,
                mean_lifetime_steps: 64,
            },
            TenantSpec {
                name: "b".into(),
                weight: 1,
                quota_bytes: 1 << 20,
                size_min: 64,
                size_max: 64,
                mean_lifetime_steps: 8,
            },
        ]
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ArrivalConfig {
            shape: ArrivalShape::Bursty,
            seed: 42,
            rate_per_kstep: 80,
            horizon_steps: 20_000,
        };
        let a = generate(&cfg, &two_tenants());
        let b = generate(&cfg, &two_tenants());
        assert!(!a.is_empty());
        assert_eq!(a, b, "arrival schedule must replay from its seed");
        let c = generate(&ArrivalConfig { seed: 43, ..cfg }, &two_tenants());
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn arrivals_are_sorted_bounded_and_weighted() {
        let tenants = two_tenants();
        for shape in [ArrivalShape::Poisson, ArrivalShape::Bursty, ArrivalShape::Diurnal] {
            let cfg = ArrivalConfig { shape, seed: 7, rate_per_kstep: 100, horizon_steps: 50_000 };
            let arrivals = generate(&cfg, &tenants);
            assert!(arrivals.windows(2).all(|w| w[0].step <= w[1].step), "sorted by step");
            assert!(arrivals.iter().all(|a| a.step < cfg.horizon_steps));
            for a in &arrivals {
                let t = &tenants[a.tenant];
                assert!(a.size >= t.size_min && a.size <= t.size_max);
                assert!(a.lifetime >= 1);
            }
            // Mean load ≈ rate for every shape: 100/kstep × 50k steps
            // = 5000 expected. Allow ±20% for process variance.
            let n = arrivals.len() as f64;
            assert!((4000.0..=6000.0).contains(&n), "{}: got {n} arrivals", shape.label());
            // Weight-3 tenant should see roughly 3× the requests.
            let a_count = arrivals.iter().filter(|a| a.tenant == 0).count() as f64;
            let share = a_count / n;
            assert!((0.65..=0.85).contains(&share), "tenant share {share}");
        }
    }

    #[test]
    fn bursty_concentrates_in_on_windows() {
        let cfg = ArrivalConfig {
            shape: ArrivalShape::Bursty,
            seed: 9,
            rate_per_kstep: 100,
            horizon_steps: 8 * BURST_PERIOD_STEPS,
        };
        let arrivals = generate(&cfg, &two_tenants());
        let on = arrivals
            .iter()
            .filter(|a| a.step % BURST_PERIOD_STEPS < BURST_PERIOD_STEPS / 4)
            .count() as f64;
        let share = on / arrivals.len() as f64;
        // ON quarter carries 2.5/(2.5+1.5) = 62.5% of the load.
        assert!((0.5..=0.75).contains(&share), "ON-window share {share}");
    }
}
