//! Seeded, deterministic device-fault model.
//!
//! Real pools lose work two ways: **transient** kernel faults (an ECC
//! replay, a corrected-then-retried launch — the kernel reruns and the
//! device keeps going) and **sticky** device loss (Xid-class errors —
//! the device is gone for the rest of the run). Both are modeled here
//! as a [`FaultPlan`]: a per-device schedule of fault instants in
//! *simulated* milliseconds, derived entirely from a caller-provided
//! seed.
//!
//! Determinism is the whole point. The plan draws from an internal
//! splitmix64 generator — no global RNG, no entropy source, no wall
//! clock — so the same seed always yields the same fault schedule and
//! a "chaos" run is exactly as reproducible as a fault-free one. The
//! root `clippy.toml` host-clock ban (and a vendored `rand` with no `thread_rng`)
//! enforces that fault scheduling everywhere else routes through this
//! type instead of reaching for `thread_rng` or `Instant::now`.
//!
//! A `FaultPlan` only *describes* faults; it never injects them itself.
//! The pipeline's recovery layer consumes the schedule: transient
//! instants that land inside a job's executed device spans become
//! bounded retries, and a sticky loss instant fails the device in the
//! pool (`DevicePool::fail_device`), refunding its unexecuted work.

/// One device's deterministic fault schedule: a sorted list of
/// transient-fault instants plus an optional sticky loss instant, all
/// in simulated ms. Constructed from a seed, never from entropy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the schedule was derived from (0 for [`FaultPlan::none`]).
    seed: u64,
    /// Transient kernel-fault instants, ms, sorted ascending.
    transients: Vec<f64>,
    /// Sticky loss instant, ms: the device dies here and stays dead.
    lost_at_ms: Option<f64>,
}

/// splitmix64: tiny, seedable, full-period — the sanctioned
/// deterministic source for fault schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from one splitmix64 output (53 mantissa
/// bits, the standard bits-to-double construction).
fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A quiet plan: no transients, no loss. The fault-free baseline.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A seeded transient-fault schedule over `[0, horizon_ms)`:
    /// fault gaps are exponential with mean `mean_gap_ms` (a Poisson
    /// process, the textbook soft-error model), drawn from splitmix64
    /// seeded with `seed`. The same `(seed, horizon, gap)` triple
    /// always produces the same instants.
    pub fn seeded(seed: u64, horizon_ms: f64, mean_gap_ms: f64) -> FaultPlan {
        assert!(horizon_ms >= 0.0 && mean_gap_ms > 0.0, "degenerate plan");
        let mut state = seed;
        let mut transients = Vec::new();
        let mut t = 0.0;
        loop {
            // inverse-CDF exponential gap; u < 1 so ln(1-u) is finite
            let u = u01(&mut state);
            t += -mean_gap_ms * (1.0 - u).ln();
            if t >= horizon_ms {
                break;
            }
            transients.push(t);
        }
        FaultPlan {
            seed,
            transients,
            lost_at_ms: None,
        }
    }

    /// Add a sticky device loss at `at_ms`: the device executes
    /// nothing past this instant for the rest of the run.
    pub fn with_device_lost(mut self, at_ms: f64) -> FaultPlan {
        assert!(at_ms >= 0.0, "loss instant before t=0");
        self.lost_at_ms = Some(at_ms);
        self
    }

    /// Seed the schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The transient instants, ms, sorted ascending.
    pub fn transients(&self) -> &[f64] {
        &self.transients
    }

    /// Number of transient faults striking inside `[start_ms, end_ms)`
    /// — the count of kernel replays a span executed over that window
    /// absorbs.
    pub fn transients_in(&self, start_ms: f64, end_ms: f64) -> usize {
        self.transients
            .iter()
            .filter(|&&t| t >= start_ms && t < end_ms)
            .count()
    }

    /// Sticky loss instant, if the plan has one.
    pub fn lost_at_ms(&self) -> Option<f64> {
        self.lost_at_ms
    }

    /// True once the device is lost at simulated time `t_ms`.
    pub fn lost_by(&self, t_ms: f64) -> bool {
        self.lost_at_ms.is_some_and(|at| t_ms >= at)
    }

    /// True when the plan schedules nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.transients.is_empty() && self.lost_at_ms.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        let p = FaultPlan::none();
        assert!(p.is_quiet());
        assert_eq!(p.transients_in(0.0, 1e9), 0);
        assert!(!p.lost_by(1e9));
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let a = FaultPlan::seeded(42, 100.0, 7.0);
        let b = FaultPlan::seeded(42, 100.0, 7.0);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 100.0, 7.0);
        assert_ne!(a.transients(), c.transients(), "seed must matter");
    }

    #[test]
    fn transients_are_sorted_inside_horizon() {
        let p = FaultPlan::seeded(7, 500.0, 20.0);
        assert!(!p.transients().is_empty(), "500 ms at mean gap 20 ms");
        for w in p.transients().windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(p.transients().iter().all(|&t| (0.0..500.0).contains(&t)));
        assert_eq!(p.transients_in(0.0, 500.0), p.transients().len());
    }

    #[test]
    fn window_counts_partition() {
        let p = FaultPlan::seeded(11, 300.0, 9.0);
        let total = p.transients_in(0.0, 300.0);
        let split = p.transients_in(0.0, 100.0)
            + p.transients_in(100.0, 200.0)
            + p.transients_in(200.0, 300.0);
        assert_eq!(total, split, "half-open windows must tile");
    }

    #[test]
    fn mean_gap_tracks_the_request() {
        // law of large numbers, loose bound: 10k ms at mean gap 10 ms
        let p = FaultPlan::seeded(3, 10_000.0, 10.0);
        let n = p.transients().len() as f64;
        assert!((n - 1000.0).abs() < 200.0, "{n} faults for expected ~1000");
    }

    #[test]
    fn sticky_loss_is_a_threshold() {
        let p = FaultPlan::none().with_device_lost(50.0);
        assert!(!p.lost_by(49.9));
        assert!(p.lost_by(50.0));
        assert!(p.lost_by(1e9));
        assert_eq!(p.lost_at_ms(), Some(50.0));
        assert!(!p.is_quiet());
    }
}
