//! The staged execution-plan IR.
//!
//! A solve is no longer one monolithic `(precision, tiling)` choice: an
//! [`ExecPlan`] is an ordered list of [`Stage`]s —
//!
//! * [`Stage::Factor`] — QR-factor the system once, at the (cheap)
//!   factorization rung, under a tiling;
//! * [`Stage::Correct`] — apply the factorization to a right hand side
//!   (`Qᴴ rhs` + tiled back substitution) at the factorization rung.
//!   The first `Correct` solves against `b` itself; later ones solve
//!   against residuals and add the update into the high-rung iterate;
//! * [`Stage::Residual`] — compute `r = b − A x` at a rung *above* the
//!   factorization rung, recovering the digits the cheap factorization
//!   left behind.
//!
//! A **direct** plan is `[Factor(r), Correct(r)]` — exactly the old
//! single-rung solve, bit-identical to a plain [`mdls_core::lstsq`]
//! call. A **refinement** plan appends `k` `[Residual(r′), Correct(r)]`
//! pairs with `r′ > r`: classic mixed-precision iterative refinement
//! across the d → dd → qd → od ladder, which reaches `r′`-level digits
//! for a fraction of the flops of factoring at `r′` outright (the
//! QR is O(m·n²) at the cheap rung; each extra pass is only an O(m·n)
//! residual plus an O(m·n + n²) re-solve).
//!
//! A priced plan is numbers, not kernel tables: beside its stages it
//! keeps each stage's predicted wall clock on the target device
//! ([`ExecPlan::stage_wall_ms`]) and the composed totals the SECT
//! dispatch policy and the device-pool clocks consume — exactly the
//! group-of-one [`FusedProfile`] the planner priced it as. The
//! *structure* of a plan (rungs, iteration count, tilings) is tuned
//! once on the planner's reference model so solutions stay
//! placement-invariant; only the per-stage timings differ across
//! devices.

use gpusim::ExecMode;
use mdls_core::LstsqOptions;

use crate::job::Precision;
use crate::pool::{StageReq, StageVec};

/// One step of an execution plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// QR-factor the system at `rung` under the tiling
    /// `tiles × tile_size`.
    Factor {
        /// Factorization rung.
        rung: Precision,
        /// Number of tiles `N`.
        tiles: usize,
        /// Tile size `n` (threads per block).
        tile_size: usize,
    },
    /// Compute `r = b − A x` at `rung` (a refinement plan runs this one
    /// or more rungs above its factorization).
    Residual {
        /// Residual rung (the plan's solution rung).
        rung: Precision,
    },
    /// Apply the factorization to a right hand side at `rung`:
    /// `Qᴴ rhs` + tiled back substitution under the factor tiling.
    Correct {
        /// Factorization rung.
        rung: Precision,
        /// Number of tiles `N` (matches the factor stage).
        tiles: usize,
        /// Tile size `n` (matches the factor stage).
        tile_size: usize,
    },
}

impl Stage {
    /// The precision rung this stage computes at.
    pub fn rung(&self) -> Precision {
        match *self {
            Stage::Factor { rung, .. } => rung,
            Stage::Residual { rung } => rung,
            Stage::Correct { rung, .. } => rung,
        }
    }

    /// The observability classification of this stage, used when
    /// emitting [`mdls_obs::Event::StageBooked`] / stage-time events.
    pub fn kind(&self) -> mdls_obs::StageKind {
        match self {
            Stage::Factor { .. } => mdls_obs::StageKind::Factor,
            Stage::Residual { .. } => mdls_obs::StageKind::Residual,
            Stage::Correct { .. } => mdls_obs::StageKind::Correct,
        }
    }
}

/// A staged execution plan: the ordered stages, their composed predicted
/// totals, and the accuracy accounting behind the stage choice.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecPlan {
    /// The stages, in execution order. The first is always a `Factor`,
    /// the second a `Correct` (the initial solve); refinement plans
    /// append `Residual`/`Correct` pairs.
    pub stages: Vec<Stage>,
    /// Predicted wall clock of each stage on the target device, ms,
    /// aligned index-for-index with `stages` — the per-stage breakdown
    /// settlement calibrates booked stage time against.
    pub stage_wall_ms: Vec<f64>,
    /// The job's requested decimal digits.
    pub target_digits: u32,
    /// Digits the cost/accuracy model predicts this plan delivers.
    /// At least `target_digits` whenever the ladder can reach it; for
    /// targets beyond the octo double ceiling
    /// ([`Precision::D8`]`.digits()` = 123) the plan saturates there
    /// and `predicted_digits` honestly reports the ceiling, not the
    /// unreachable target.
    pub predicted_digits: u32,
    /// Composed predicted wall clock over all stages on the target
    /// device, ms — what the scheduler books onto a device clock.
    pub predicted_ms: f64,
    /// Composed predicted kernel time, ms (the paper's "all kernels").
    pub predicted_kernel_ms: f64,
    /// Composed Table 1 flops (device independent).
    pub flops_paper: f64,
    /// Refinement passes the planner *expects* to run, under its
    /// optimistic digits-per-pass posterior — at most
    /// [`ExecPlan::corrections`], which stays the conservative
    /// worst-case structure. [`crate::StageSchedConfig::book_expected`]
    /// books only the expected passes and re-books online when
    /// execution diverges; otherwise the worst case is booked.
    pub expected_corrections: usize,
}

impl ExecPlan {
    /// A plan of `stages` priced as the group of one: `priced` is the
    /// `k = 1` [`FusedProfile`] of exactly these stages, whose per-stage
    /// walls and totals the plan keeps.
    pub fn from_stages(
        stages: Vec<Stage>,
        priced: FusedProfile,
        target_digits: u32,
        predicted_digits: u32,
    ) -> Self {
        assert!(
            matches!(stages.first(), Some(Stage::Factor { .. })),
            "a plan starts with a Factor stage"
        );
        assert_eq!(priced.group, 1, "a plan is priced as the group of one");
        assert_eq!(priced.stage_wall_ms.len(), stages.len());
        let mut plan = ExecPlan {
            predicted_ms: priced.predicted_ms,
            predicted_kernel_ms: priced.predicted_kernel_ms,
            flops_paper: priced.flops_paper,
            stage_wall_ms: priced.stage_wall_ms,
            stages,
            target_digits,
            predicted_digits,
            expected_corrections: 0,
        };
        // default to the structural count; the planner overrides with
        // its posterior via `with_expected_corrections`
        plan.expected_corrections = plan.corrections();
        plan
    }

    /// The placeholder plan of a job that never reached the planner
    /// (refused by [`crate::Job::validate`]): a direct solve at the rung
    /// its target would select, with no tiling, no cost and no digits.
    pub fn unpriced(target_digits: u32) -> Self {
        let rung = Precision::for_digits(target_digits);
        let (tiles, tile_size) = (0, 0);
        ExecPlan {
            stages: vec![
                Stage::Factor {
                    rung,
                    tiles,
                    tile_size,
                },
                Stage::Correct {
                    rung,
                    tiles,
                    tile_size,
                },
            ],
            stage_wall_ms: vec![0.0; 2],
            target_digits,
            predicted_digits: 0,
            predicted_ms: 0.0,
            predicted_kernel_ms: 0.0,
            flops_paper: 0.0,
            expected_corrections: 0,
        }
    }

    /// Override the expected pass count (clamped to the structural
    /// worst case) — set by the planner's digits-per-pass posterior.
    pub fn with_expected_corrections(mut self, expected: usize) -> Self {
        self.expected_corrections = expected.min(self.corrections());
        self
    }

    /// Number of stages a scheduler books: the factor/initial-correct
    /// pair plus `passes` residual/correct pairs.
    pub const fn booked_stages(passes: usize) -> usize {
        2 + 2 * passes
    }

    /// The factorization rung and tiling `(rung, tiles, tile_size)`.
    pub fn factor(&self) -> (Precision, usize, usize) {
        match self.stages[0] {
            Stage::Factor {
                rung,
                tiles,
                tile_size,
            } => (rung, tiles, tile_size),
            _ => unreachable!("a plan starts with a Factor stage"),
        }
    }

    /// The rung the factorization runs at.
    pub fn factor_precision(&self) -> Precision {
        self.factor().0
    }

    /// The rung the *solution* comes back at: the residual rung of a
    /// refinement plan, the factor rung of a direct plan.
    pub fn solution_precision(&self) -> Precision {
        self.stages
            .iter()
            .map(Stage::rung)
            .max()
            .expect("plans are never empty")
    }

    /// Number of refinement passes (residual/correct pairs after the
    /// initial solve). Zero for a direct plan.
    pub fn corrections(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, Stage::Residual { .. }))
            .count()
    }

    /// True when this is a single-rung direct solve.
    pub fn is_direct(&self) -> bool {
        self.corrections() == 0
    }

    /// Solver options of the factor tiling.
    pub fn options(&self, mode: ExecMode) -> LstsqOptions {
        let (_, tiles, tile_size) = self.factor();
        LstsqOptions::tiled(tiles, tile_size, mode)
    }

    /// One-line structure summary, e.g. `"direct@4d 4x256"` or
    /// `"qr@2d 4x256 + 2 it@4d"`.
    pub fn summary(&self) -> String {
        let (rung, tiles, tile_size) = self.factor();
        if self.is_direct() {
            format!("direct@{} {}x{}", rung.tag(), tiles, tile_size)
        } else {
            format!(
                "qr@{} {}x{} + {} it@{}",
                rung.tag(),
                tiles,
                tile_size,
                self.corrections(),
                self.solution_precision().tag()
            )
        }
    }
}

/// Fused-priced totals of one execution plan run as a micro-batched
/// group: the same stage *structure* as the singleton [`ExecPlan`]
/// (so every member job's arithmetic — and bits — are unchanged), but
/// every stage priced as one fused launch sequence over `group`
/// instances (occupancy over the fused grid, per-launch bookkeeping
/// amortized — see `gpusim::fused_kernel_ms`). The scheduler books
/// these totals *once* per group instead of `group` singleton
/// bookings.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedProfile {
    /// Number of fused instances `k`.
    pub group: usize,
    /// Fused predicted wall clock of the whole group, ms.
    pub predicted_ms: f64,
    /// Fused predicted kernel time, ms.
    pub predicted_kernel_ms: f64,
    /// Composed Table 1 flops of the whole group.
    pub flops_paper: f64,
    /// Per-stage fused wall clock (whole group), aligned index-for-
    /// index with the plan's `stages` — the refund table of adaptive
    /// early stops.
    pub stage_wall_ms: Vec<f64>,
    /// Per-stage prep-lane share of `stage_wall_ms` (host overhead +
    /// PCIe transfer), aligned index-for-index — what stage-granular
    /// booking puts on the prep lane so the next job's factorization
    /// prep can hide under this group's kernels.
    pub stage_host_ms: Vec<f64>,
}

impl FusedProfile {
    /// Booked wall clock per member job, ms.
    pub fn per_job_ms(&self) -> f64 {
        self.predicted_ms / self.group as f64
    }

    /// Lane-split booking requests of stages `..upto` — what a
    /// stage-granular dispatch hands to
    /// [`crate::pool::DevicePool::commit_stages`].
    ///
    /// Only the *first* stage's host overhead and transfers go on the
    /// prep lane: that is the per-dispatch prep (promotion, pinned
    /// staging, the system upload) a service genuinely runs ahead of
    /// time while the device still computes the previous job. Every
    /// later stage's transfers are mid-launch-sequence moves of the
    /// iterate, synchronous with the kernel stream — they book on the
    /// compute lane with their kernels.
    pub fn stage_reqs(&self, upto: usize) -> Vec<StageReq> {
        self.booking_reqs(upto).to_vec()
    }

    /// [`FusedProfile::stage_reqs`], stored inline: what the engines
    /// book and preview from.
    pub(crate) fn booking_reqs(&self, upto: usize) -> StageVec<StageReq> {
        let upto = upto.min(self.stage_wall_ms.len());
        (0..upto)
            .map(|i| {
                let host = if i == 0 { self.stage_host_ms[i] } else { 0.0 };
                StageReq::split(self.stage_wall_ms[i], host)
            })
            .collect()
    }

    /// Booking request of one extra residual/correct pass beyond the
    /// plan's stage list — priced as the *last* booked pair (every pass
    /// after the first residual costs the same; the first also carries
    /// the system upload), for online pass extension when conditioning
    /// stalls the residual above target. Pure compute-lane work, like
    /// every mid-sequence stage.
    pub fn extension_reqs(&self) -> StageVec<StageReq> {
        let n = self.stage_wall_ms.len();
        if n < 4 {
            return StageVec::new(); // direct plans have no pass to replay
        }
        (n - 2..n)
            .map(|i| StageReq::split(self.stage_wall_ms[i], 0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group-of-one pricing with the given stage walls.
    fn priced(walls: &[f64]) -> FusedProfile {
        let total: f64 = walls.iter().sum();
        FusedProfile {
            group: 1,
            predicted_ms: total,
            predicted_kernel_ms: 0.5 * total,
            flops_paper: 10.0 * total,
            stage_wall_ms: walls.to_vec(),
            stage_host_ms: vec![0.0; walls.len()],
        }
    }

    #[test]
    fn plans_keep_the_group_of_one_pricing() {
        let f = Stage::Factor {
            rung: Precision::D2,
            tiles: 4,
            tile_size: 8,
        };
        let c = Stage::Correct {
            rung: Precision::D2,
            tiles: 4,
            tile_size: 8,
        };
        let r = Stage::Residual {
            rung: Precision::D4,
        };
        let walls = [8.0, 1.0, 0.5, 1.0];
        let plan = ExecPlan::from_stages(vec![f, c, r, c], priced(&walls), 40, 58);
        assert_eq!(plan.stage_wall_ms, walls);
        assert_eq!(plan.predicted_ms, 10.5);
        assert_eq!(plan.predicted_kernel_ms, 5.25);
        assert_eq!(plan.flops_paper, 105.0);
        assert_eq!(plan.corrections(), 1);
        assert!(!plan.is_direct());
        assert_eq!(plan.factor_precision(), Precision::D2);
        assert_eq!(plan.solution_precision(), Precision::D4);
        assert_eq!(plan.summary(), "qr@2d 4x8 + 1 it@4d");
    }

    #[test]
    fn direct_plan_shape() {
        let f = Stage::Factor {
            rung: Precision::D4,
            tiles: 2,
            tile_size: 16,
        };
        let c = Stage::Correct {
            rung: Precision::D4,
            tiles: 2,
            tile_size: 16,
        };
        let plan = ExecPlan::from_stages(vec![f, c], priced(&[5.0, 0.5]), 50, 60);
        assert!(plan.is_direct());
        assert_eq!(plan.solution_precision(), Precision::D4);
        assert_eq!(plan.factor(), (Precision::D4, 2, 16));
        assert_eq!(plan.summary(), "direct@4d 2x16");
        assert_eq!(plan.options(ExecMode::ModelOnly).cols(), 32);
    }

    #[test]
    #[should_panic(expected = "starts with a Factor")]
    fn plans_must_lead_with_factor() {
        let c = Stage::Correct {
            rung: Precision::D2,
            tiles: 1,
            tile_size: 4,
        };
        let _ = ExecPlan::from_stages(vec![c], priced(&[1.0]), 20, 29);
    }

    #[test]
    fn fused_profile_shares() {
        let f = FusedProfile {
            group: 4,
            predicted_ms: 40.0,
            predicted_kernel_ms: 32.0,
            flops_paper: 400.0,
            stage_wall_ms: vec![20.0, 8.0, 8.0, 4.0],
            stage_host_ms: vec![12.0, 1.0, 2.0, 1.0],
        };
        assert_eq!(f.per_job_ms(), 10.0);
        // lane-split requests line up with the walls
        let reqs = f.stage_reqs(4);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].host_ms, 12.0);
        assert_eq!(reqs[0].device_ms, 8.0);
        // an extension pass replays the last residual/correct pair
        let ext = f.extension_reqs();
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[0].wall_ms(), 8.0);
        assert_eq!(ext[1].wall_ms(), 4.0);
    }
}
