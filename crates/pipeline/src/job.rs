//! Jobs and solutions of the batched solve service.
//!
//! A [`Job`] arrives as hardware-double data plus an accuracy target in
//! decimal digits — the shape of the paper's motivating workloads, where
//! path trackers and power-flow embeddings produce `f64` systems whose
//! *solves* need more precision than `f64` carries. The planner promotes
//! the data to the cheapest precision of the d → dd → qd → od ladder
//! that covers the target, so the solution comes back at a
//! planner-chosen precision: the [`Solution`] enum.

use mdls_matrix::HostMat;
use multidouble::{Dd, Od, Qd};

/// The four rungs of the working-precision ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// Hardware double (the paper's `1d`).
    D1,
    /// Double double (`2d`).
    D2,
    /// Quad double (`4d`).
    D4,
    /// Octo double (`8d`).
    D8,
}

impl Precision {
    /// All rungs, cheapest first.
    pub const LADDER: [Precision; 4] = [Precision::D1, Precision::D2, Precision::D4, Precision::D8];

    /// The paper's tag.
    pub fn tag(self) -> &'static str {
        match self {
            Precision::D1 => "1d",
            Precision::D2 => "2d",
            Precision::D4 => "4d",
            Precision::D8 => "8d",
        }
    }

    /// Number of `f64` limbs per real scalar.
    pub fn limbs(self) -> usize {
        match self {
            Precision::D1 => 1,
            Precision::D2 => 2,
            Precision::D4 => 4,
            Precision::D8 => 8,
        }
    }

    /// Decimal digits a well-conditioned solve retains at this rung
    /// (slightly conservative against the unit roundoffs ~1e-16 /
    /// 1e-32 / 1e-64 / 1e-128, leaving headroom for accumulation).
    pub fn digits(self) -> u32 {
        match self {
            Precision::D1 => 14,
            Precision::D2 => 29,
            Precision::D4 => 60,
            Precision::D8 => 123,
        }
    }

    /// Cheapest rung delivering `target_digits`; octo double is the
    /// ceiling — targets beyond it saturate there.
    pub fn for_digits(target_digits: u32) -> Precision {
        Precision::LADDER
            .into_iter()
            .find(|p| p.digits() >= target_digits)
            .unwrap_or(Precision::D8)
    }
}

/// Identifies the tenant (caller) a job belongs to in the multi-tenant
/// service shell ([`crate::service`]). Tenant 0 is the implicit
/// single-caller default every other entry point runs under; ids only
/// affect queueing, fairness and quota accounting — never numerics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Service-level objective class of a job, ordered cheapest-promise
/// first: under overload the service's degradation ladder acts on the
/// *lowest* class present ([`SloClass::BestEffort`] degrades, then
/// sheds, before [`SloClass::Standard`] is touched;
/// [`SloClass::Premium`] is never down-laddered by the load detector).
/// Like priority, the class moves jobs through simulated time only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// Sacrificial under overload: degraded first, shed first.
    BestEffort,
    /// The default: degraded only past the shed threshold.
    #[default]
    Standard,
    /// Protected from the overload ladder (admission deadlines still
    /// apply — an unmeetable premium deadline is still shed honestly).
    Premium,
}

impl SloClass {
    /// All classes, cheapest promise first (the ladder's shed order).
    pub const LADDER: [SloClass; 3] = [SloClass::BestEffort, SloClass::Standard, SloClass::Premium];
}

/// One least squares solve request: minimize `‖b − A x‖₂` to at least
/// `target_digits` decimal digits.
#[derive(Clone, Debug)]
pub struct Job {
    /// Caller-chosen identifier, carried through to the outcome.
    pub id: u64,
    /// The `m × n` system matrix (`m ≥ n`), in hardware doubles.
    pub a: HostMat<f64>,
    /// Right hand side of length `m`.
    pub b: Vec<f64>,
    /// Required decimal digits of accuracy.
    pub target_digits: u32,
    /// Scheduling priority: higher values drain first from the stream's
    /// reorder buffer (a path tracker marks corrector solves above
    /// speculative predictor solves). Priority never changes numerics,
    /// only placement and simulated timing. Default 0.
    pub priority: i32,
    /// Optional completion deadline in simulated ms. Within one
    /// priority class the reorder buffer drains earliest deadline
    /// first; jobs without a deadline come after deadlined peers.
    pub deadline_ms: Option<f64>,
    /// Optional simulated arrival time in ms: the solve cannot start
    /// before this instant (fed through [`crate::pool::DevicePool`]'s
    /// booking as its `not_before` bound; the idle gap before it stays
    /// off the busy books, and an earlier-released job may still
    /// gap-fill ahead of it). Lets the stream model bursty queues and
    /// count real deadline *misses* instead of just deadline ordering.
    /// `None` means available immediately. Honored by every batch and
    /// stream entry point and by the service shell.
    pub release_ms: Option<f64>,
    /// Submitting tenant, for the multi-tenant service shell
    /// ([`crate::service`]): selects the bounded ingress queue, the
    /// fair-share weight and the device-ms quota the job is accounted
    /// against. Default [`TenantId`] 0 — the single-caller paths ignore
    /// it entirely.
    pub tenant: TenantId,
    /// Service-level objective class: which rung of the overload
    /// degradation ladder may sacrifice this job. Default
    /// [`SloClass::Standard`].
    pub slo: SloClass,
}

impl Job {
    /// A default-priority, no-deadline job.
    pub fn new(id: u64, a: HostMat<f64>, b: Vec<f64>, target_digits: u32) -> Job {
        Job {
            id,
            a,
            b,
            target_digits,
            priority: 0,
            deadline_ms: None,
            release_ms: None,
            tenant: TenantId::default(),
            slo: SloClass::default(),
        }
    }

    /// Set the scheduling priority (higher drains first).
    pub fn with_priority(mut self, priority: i32) -> Job {
        self.priority = priority;
        self
    }

    /// Set a completion deadline in simulated ms.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Job {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Set a simulated arrival (release) time in ms.
    pub fn with_release_ms(mut self, release_ms: f64) -> Job {
        self.release_ms = Some(release_ms);
        self
    }

    /// Assign the job to a tenant (multi-tenant service shell).
    pub fn with_tenant(mut self, tenant: TenantId) -> Job {
        self.tenant = tenant;
        self
    }

    /// Set the service-level objective class.
    pub fn with_slo(mut self, slo: SloClass) -> Job {
        self.slo = slo;
        self
    }

    /// Simulated arrival time, ms (0 when unset: available at once).
    pub fn release(&self) -> f64 {
        self.release_ms.unwrap_or(0.0)
    }

    /// Rows `m`.
    pub fn rows(&self) -> usize {
        self.a.rows
    }

    /// Columns (unknowns) `n`.
    pub fn cols(&self) -> usize {
        self.a.cols
    }

    /// The front-door check every engine runs before a job reaches the
    /// planner: a well-formed least squares system (`rows ≥ cols ≥ 1`,
    /// one stored entry per element, one right hand side entry per row,
    /// every entry finite), a target the octo double rung can certify,
    /// and finite release/deadline instants. A job that fails it ends
    /// [`Disposition::Invalid`](crate::batch::Disposition::Invalid)
    /// without touching the pool; the rest of the batch, stream or
    /// service runs as if it had never been submitted.
    pub fn validate(&self) -> Result<(), SubmitError> {
        let (rows, cols) = (self.rows(), self.cols());
        if rows == 0 || cols == 0 {
            return Err(SubmitError::EmptySystem { rows, cols });
        }
        if rows < cols {
            return Err(SubmitError::Underdetermined { rows, cols });
        }
        if rows.checked_mul(cols) != Some(self.a.data.len()) {
            return Err(SubmitError::MatrixStorage {
                rows,
                cols,
                len: self.a.data.len(),
            });
        }
        if self.b.len() != rows {
            return Err(SubmitError::RhsLength {
                rows,
                len: self.b.len(),
            });
        }
        // column-major storage: element (r, c) sits at c·rows + r
        if let Some(i) = self.a.data.iter().position(|v| !v.is_finite()) {
            let (row, col) = (i % rows, i / rows);
            return Err(SubmitError::NonFiniteMatrix { row, col });
        }
        if let Some(index) = self.b.iter().position(|v| !v.is_finite()) {
            return Err(SubmitError::NonFiniteRhs { index });
        }
        if self.target_digits > Precision::D8.digits() {
            return Err(SubmitError::TargetBeyondLadder {
                target_digits: self.target_digits,
            });
        }
        let times = [self.release_ms, self.deadline_ms];
        if times.into_iter().flatten().any(|t| !t.is_finite()) {
            return Err(SubmitError::NonFiniteTime);
        }
        Ok(())
    }
}

/// Why [`Job::validate`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// A zero dimension: nothing to solve.
    EmptySystem { rows: usize, cols: usize },
    /// Fewer equations than unknowns: least squares needs `rows ≥ cols`.
    Underdetermined { rows: usize, cols: usize },
    /// The matrix stores `len` entries instead of `rows · cols`.
    MatrixStorage {
        rows: usize,
        cols: usize,
        len: usize,
    },
    /// The right hand side has `len` entries instead of one per row.
    RhsLength { rows: usize, len: usize },
    /// A NaN or infinite matrix entry (the first, in storage order).
    NonFiniteMatrix { row: usize, col: usize },
    /// A NaN or infinite right hand side entry (the first).
    NonFiniteRhs { index: usize },
    /// More digits than the octo double rung certifies
    /// ([`Precision::D8`]`.digits()`).
    TargetBeyondLadder { target_digits: u32 },
    /// A NaN or infinite release or deadline instant.
    NonFiniteTime,
}

impl SubmitError {
    /// Stable short label, carried by
    /// [`Event::JobInvalid`](mdls_obs::Event::JobInvalid).
    pub fn reason(self) -> &'static str {
        match self {
            SubmitError::EmptySystem { .. } => "empty-system",
            SubmitError::Underdetermined { .. } => "underdetermined",
            SubmitError::MatrixStorage { .. } => "matrix-storage",
            SubmitError::RhsLength { .. } => "rhs-length",
            SubmitError::NonFiniteMatrix { .. } => "non-finite-matrix",
            SubmitError::NonFiniteRhs { .. } => "non-finite-rhs",
            SubmitError::TargetBeyondLadder { .. } => "target-beyond-ladder",
            SubmitError::NonFiniteTime => "non-finite-time",
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::EmptySystem { rows, cols } => {
                write!(f, "empty {rows}x{cols} system")
            }
            SubmitError::Underdetermined { rows, cols } => {
                write!(f, "{rows}x{cols} system has fewer rows than columns")
            }
            SubmitError::MatrixStorage { rows, cols, len } => {
                write!(f, "{rows}x{cols} matrix stores {len} entries")
            }
            SubmitError::RhsLength { rows, len } => {
                write!(f, "right hand side has {len} entries for {rows} rows")
            }
            SubmitError::NonFiniteMatrix { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            SubmitError::NonFiniteRhs { index } => {
                write!(f, "right hand side entry {index} is not finite")
            }
            SubmitError::TargetBeyondLadder { target_digits } => write!(
                f,
                "{target_digits} digits is past the octo double rung ({})",
                Precision::D8.digits()
            ),
            SubmitError::NonFiniteTime => write!(f, "release or deadline is not finite"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A solution vector at the precision the planner chose.
#[derive(Clone, Debug, PartialEq)]
pub enum Solution {
    /// Hardware double solution.
    D1(Vec<f64>),
    /// Double double solution.
    D2(Vec<Dd>),
    /// Quad double solution.
    D4(Vec<Qd>),
    /// Octo double solution.
    D8(Vec<Od>),
}

impl Solution {
    /// The rung this solution was computed at.
    pub fn precision(&self) -> Precision {
        match self {
            Solution::D1(_) => Precision::D1,
            Solution::D2(_) => Precision::D2,
            Solution::D4(_) => Precision::D4,
            Solution::D8(_) => Precision::D8,
        }
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        match self {
            Solution::D1(x) => x.len(),
            Solution::D2(x) => x.len(),
            Solution::D4(x) => x.len(),
            Solution::D8(x) => x.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Leading-double view of the solution (lossy for deep rungs).
    pub fn leading_f64(&self) -> Vec<f64> {
        match self {
            Solution::D1(x) => x.clone(),
            Solution::D2(x) => x.iter().map(|v| v.to_f64()).collect(),
            Solution::D4(x) => x.iter().map(|v| v.to_f64()).collect(),
            Solution::D8(x) => x.iter().map(|v| v.to_f64()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_selection_is_cheapest_sufficient() {
        assert_eq!(Precision::for_digits(10), Precision::D1);
        assert_eq!(Precision::for_digits(14), Precision::D1);
        assert_eq!(Precision::for_digits(15), Precision::D2);
        assert_eq!(Precision::for_digits(30), Precision::D4);
        assert_eq!(Precision::for_digits(60), Precision::D4);
        assert_eq!(Precision::for_digits(61), Precision::D8);
        // beyond the ladder: saturate at octo double
        assert_eq!(Precision::for_digits(500), Precision::D8);
    }

    #[test]
    fn slo_ladder_orders_cheapest_promise_first() {
        // the overload ladder sheds in ascending order, so the derive
        // order is load-bearing: best-effort < standard < premium
        assert!(SloClass::BestEffort < SloClass::Standard);
        assert!(SloClass::Standard < SloClass::Premium);
        assert_eq!(SloClass::LADDER[0], SloClass::BestEffort);
        assert_eq!(SloClass::default(), SloClass::Standard);
        assert_eq!(TenantId::default(), TenantId(0));
        assert_eq!(TenantId(7).to_string(), "t7");
    }

    #[test]
    fn validate_names_the_first_defect() {
        let good = || Job::new(7, HostMat::<f64>::identity(3), vec![1.0; 3], 25);
        assert_eq!(good().validate(), Ok(()));
        let cases: Vec<(Job, SubmitError)> = vec![
            (
                Job::new(0, HostMat::zeros(0, 0), vec![], 25),
                SubmitError::EmptySystem { rows: 0, cols: 0 },
            ),
            (
                Job::new(0, HostMat::zeros(2, 3), vec![1.0; 2], 25),
                SubmitError::Underdetermined { rows: 2, cols: 3 },
            ),
            (
                Job {
                    a: HostMat {
                        rows: 3,
                        cols: 3,
                        data: vec![1.0; 8],
                    },
                    ..good()
                },
                SubmitError::MatrixStorage {
                    rows: 3,
                    cols: 3,
                    len: 8,
                },
            ),
            (
                Job {
                    b: vec![1.0; 2],
                    ..good()
                },
                SubmitError::RhsLength { rows: 3, len: 2 },
            ),
            (
                Job {
                    a: HostMat::from_fn(3, 3, |r, c| if (r, c) == (2, 1) { f64::NAN } else { 1.0 }),
                    ..good()
                },
                SubmitError::NonFiniteMatrix { row: 2, col: 1 },
            ),
            (
                Job {
                    b: vec![1.0, f64::NEG_INFINITY, 1.0],
                    ..good()
                },
                SubmitError::NonFiniteRhs { index: 1 },
            ),
            (
                Job {
                    target_digits: Precision::D8.digits() + 1,
                    ..good()
                },
                SubmitError::TargetBeyondLadder { target_digits: 124 },
            ),
            (good().with_release_ms(f64::NAN), SubmitError::NonFiniteTime),
            (
                good().with_deadline_ms(f64::INFINITY),
                SubmitError::NonFiniteTime,
            ),
        ];
        let mut reasons: Vec<&str> = Vec::new();
        for (job, want) in cases {
            assert_eq!(job.validate(), Err(want), "{want}");
            reasons.push(want.reason());
        }
        // the ceiling itself is certifiable
        let at_ceiling = Job {
            target_digits: Precision::D8.digits(),
            ..good()
        };
        assert_eq!(at_ceiling.validate(), Ok(()));
        reasons.dedup();
        assert_eq!(reasons.len(), 8, "every variant has its own reason");
    }

    #[test]
    fn ladder_is_monotone() {
        for w in Precision::LADDER.windows(2) {
            assert!(w[0].digits() < w[1].digits());
            assert!(w[0].limbs() < w[1].limbs());
        }
    }
}
