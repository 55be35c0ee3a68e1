//! The batched solve service: admit, book, execute, settle, report.
//!
//! Every `solve_batch*` entry point is a thin wrapper over **one batch
//! loop** (`run_batch`; its phases are listed on
//! [`solve_batch_resilient`](crate::resilient::solve_batch_resilient)):
//! it takes a device pool and a batch of [`Job`]s, books every fused
//! group on the pool's stage timelines (see [`crate::microbatch`]),
//! runs each member's [`ExecPlan`] through the **stage interpreter**
//! ([`solve_planned_traced_with`] — one job per call, fused or not),
//! settles bookings against what execution actually ran, and returns
//! per-job outcomes plus pool-level throughput. This module also owns
//! the execute and settle steps every engine shares (`execute_round`,
//! `settle_group`), the stream's second execute lane (`SolveAhead`),
//! and the round that chains book → recover → execute
//! → settle (`run_round`), which the batch loop runs once over every
//! group and the stream once per pull. Settle owns the verdict: every
//! completed job's `Ok`, `Retried` or `Degraded` is decided in
//! `settle_group` and nowhere else, from what only a driver knows (did
//! it retry the job after a sticky loss?) and what settlement sees (a
//! down-laddered plan, a replay, a residual short of target). Reporting
//! is one fold, too: every batch, stream and service summary is
//! [`latency_summary`] over its outcomes. Three config axes select
//! behaviour, never a different code path: [`MicrobatchConfig`] (what
//! fuses), [`StageSchedConfig`]
//! (how stages book and re-book — [`solve_batch`] is the loop at
//! [`StageSchedConfig::sequential`]), and [`ResilienceConfig`]
//! (admission and fault recovery, both no-ops on a quiet pool).
//!
//! The interpreter executes a plan's stages in order, *functionally*
//! (real multiple double arithmetic on the simulator):
//!
//! * a **direct** plan factors and solves at one rung — exactly a
//!   sequential [`mdls_core::lstsq`] call, bit for bit;
//! * a **refinement** plan factors once at the cheap rung, takes the
//!   initial solve, then alternates device-side residuals at the high
//!   rung ([`mdls_core::residual_kernel`]) with corrections through the
//!   *reused* QR factorization ([`mdls_core::LstsqFactorization`]),
//!   accumulating the iterate at the high rung.
//!
//! Plans only choose stages; stage execution is deterministic, so batch
//! results stay bit-identical to interpreting each job alone with the
//! same plan (asserted by the `tests/pipeline.rs` property test).
//! Host-side worker threads only shorten *our* wall clock; simulated
//! device time is unaffected.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use gpusim::{ExecMode, Gpu, Sim};
use mdls_core::{lstsq_factor_batched, residual_kernel};
use mdls_matrix::{vec_diff_norm2_f64, vec_norm2_f64, HostMat};
use multidouble::{convert_real, Dd, MdReal, Od, Qd};

use crate::job::{Job, Precision, Solution, TenantId};
use crate::microbatch::{
    dispatch_group_where, placement_order, plan_groups, GroupDispatch, Members, MicrobatchConfig,
};
use crate::plan::ExecPlan;
use crate::planner::Planner;
use crate::pool::{DevicePool, DeviceStats, RebookMode};
use crate::resilient::{
    admit, invalid_tombstone, recover, tombstone_outcome, AdmissionConfig, Admitted,
    ResilienceConfig,
};
use crate::scheduler::{DispatchPolicy, JobShape, StageSchedConfig};
use crate::stream::Urgency;
use mdls_obs::Event;

/// How one job's service terminated. Every [`JobOutcome`] carries
/// exactly one of these — the overloaded "did it miss its deadline?"
/// signaling is gone; a shed job is not a deadline miss, it never ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Solved as requested, first try.
    Ok,
    /// Solved to the requested digits, but only after fault recovery
    /// re-ran work (a transient kernel replay or a post-loss
    /// re-dispatch). Bits are identical to a fault-free run.
    Retried,
    /// Solved, but to fewer digits than requested: admission or the
    /// service's overload ladder down-laddered the target to a cheaper
    /// rung (`requested_digits` records what was asked), or the measured
    /// residual of a singular or ill-conditioned *square* system
    /// certifies less than the plan's target. Either way
    /// `achieved_digits` is what the residual actually certifies. (A
    /// tall system's residual also holds its least squares residual,
    /// so it is not a certificate and never degrades a job.)
    Degraded,
    /// Never ran: admission previewed every rung and none could meet
    /// the deadline, so the job was rejected at ingress. The outcome
    /// carries an empty solution.
    Shed,
    /// Started but never completed (its device was lost and no device
    /// survived to recover on), or reached a pool with no surviving
    /// device at all. The outcome carries an empty solution.
    Failed,
    /// Refused at the front door: [`Job::validate`] found a malformed
    /// system or request. Nothing was planned or booked; the outcome
    /// carries an empty solution and an unpriced plan
    /// ([`ExecPlan::unpriced`]).
    Invalid,
}

impl Disposition {
    /// Short label for tables and logs.
    pub fn tag(self) -> &'static str {
        match self {
            Disposition::Ok => "ok",
            Disposition::Retried => "retried",
            Disposition::Degraded => "degraded",
            Disposition::Shed => "shed",
            Disposition::Failed => "failed",
            Disposition::Invalid => "invalid",
        }
    }

    /// True when the job produced a solution (possibly degraded).
    pub fn completed(self) -> bool {
        matches!(
            self,
            Disposition::Ok | Disposition::Retried | Disposition::Degraded
        )
    }
}

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's caller-chosen id.
    pub job_id: u64,
    /// Pool id of the device that ran the solve.
    pub device: usize,
    /// The staged plan the solve ran under — `plan.stage_wall_ms` is the
    /// per-stage predicted breakdown. Shared with the planner's memo and
    /// every other job that ran the same plan.
    pub plan: Arc<ExecPlan>,
    /// The minimizer, at the plan's solution precision.
    pub x: Solution,
    /// Relative residual `‖b − A x‖₂ / ‖b‖₂` (leading double),
    /// measured at the solution rung.
    pub residual: f64,
    /// Decimal digits the measured residual certifies
    /// (`−log₁₀ residual`; infinite for an exactly-zero residual, zero
    /// for a NaN one, and zero when nothing was solved — a tombstone or
    /// a model-only run). Below `plan.target_digits` on a square system
    /// the job completes [`Disposition::Degraded`].
    pub achieved_digits: f64,
    /// Simulated start time on the device, ms.
    pub start_ms: f64,
    /// Simulated completion time on the device, ms.
    pub end_ms: f64,
    /// Size of the micro-batched fused group this job rode in
    /// (1 = unfused). Fused siblings share `start_ms`/`end_ms`.
    pub fused_group: usize,
    /// Refinement passes actually executed — at most the plan's
    /// correction count, fewer when the adaptive stop met the digit
    /// target early. Zero for direct plans.
    pub corrections_run: usize,
    /// This job's equal share of the booked stage time its whole
    /// dispatch group provably skipped, ms (see
    /// [`DevicePool::rebook`]). A fused
    /// launch runs as long as *any* member still iterates, so a pass is
    /// refundable only once every sibling has stopped — a member that
    /// finishes early while siblings continue refunds nothing for the
    /// passes they still run.
    pub refunded_ms: f64,
    /// This job's equal share of stage time booked *beyond* the
    /// group's original booking, ms: expected-pass booking that had to
    /// grow to the actual pass count, or extra passes a stalled job ran
    /// past its plan (see [`StageSchedConfig::max_extra_passes`]).
    pub extended_ms: f64,
    /// The job's scheduling priority, carried through from [`Job`] so
    /// latency summaries can slice by class.
    pub priority: i32,
    /// Simulated arrival time, ms (0 for always-ready jobs) — the
    /// baseline of [`JobOutcome::turnaround_ms`].
    pub release_ms: f64,
    /// The job's completion deadline, if it had one.
    pub deadline_ms: Option<f64>,
    /// How the job's service terminated (see [`Disposition`]): the
    /// terminal state admission and fault recovery actually reached,
    /// [`Disposition::Ok`] on a quiet run.
    pub disposition: Disposition,
    /// The digits the caller originally asked for. Equal to
    /// `plan.target_digits` unless admission down-laddered the job
    /// ([`Disposition::Degraded`]), where the plan carries the cheaper
    /// rung and this remembers the request.
    pub requested_digits: u32,
    /// The submitting tenant, carried through from [`Job`] so service
    /// reports and per-tenant histograms can slice by caller
    /// ([`crate::job::TenantId`] 0 on the single-tenant paths).
    pub tenant: TenantId,
}

/// Result of interpreting one job's plan: the solution, its measured
/// residual, and how many refinement passes actually ran (the adaptive
/// stop may finish under the plan's booked count).
#[derive(Clone, Debug)]
pub struct PlannedSolve {
    /// The minimizer, at the plan's solution precision.
    pub x: Solution,
    /// Relative residual at the solution rung.
    pub residual: f64,
    /// Refinement passes executed (0 for direct plans).
    pub corrections_run: usize,
}

impl JobOutcome {
    /// Turnaround latency: completion minus arrival, ms.
    pub fn turnaround_ms(&self) -> f64 {
        self.end_ms - self.release_ms
    }

    /// True when the job *completed* past a deadline it carried. A
    /// shed or failed job never completed — it is counted under its
    /// own disposition, not as a deadline miss.
    pub fn missed_deadline(&self) -> bool {
        self.disposition.completed() && self.deadline_ms.is_some_and(|d| self.end_ms > d)
    }
}

/// Decimal digits certified by a relative residual (none for a NaN
/// residual: a solve that produced one certifies nothing).
pub fn digits_from_residual(residual: f64) -> f64 {
    if residual.is_nan() {
        0.0
    } else if residual <= 0.0 {
        f64::INFINITY
    } else {
        -residual.log10()
    }
}

/// The one summary of a set of outcomes: what became of the jobs,
/// turnaround percentiles, deadline misses and the makespan. Every
/// report in the crate — [`BatchReport::latency`], the service's
/// pool-wide, per-tenant and per-class summaries — is
/// [`latency_summary`] over its outcomes, so each can be rechecked by
/// folding them again.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Jobs summarized (one outcome each).
    pub submitted: usize,
    /// Jobs that produced a solution ([`Disposition::completed`]).
    pub completed: usize,
    /// Completed jobs that ended [`Disposition::Degraded`].
    pub degraded: usize,
    /// Completed jobs that ended [`Disposition::Retried`].
    pub retried: usize,
    /// Jobs turned away before they ran ([`Disposition::Shed`]: by
    /// admission, a service queue, the overload ladder or starvation).
    pub shed: usize,
    /// Jobs that started but never completed ([`Disposition::Failed`]).
    pub failed: usize,
    /// Jobs refused at the front door ([`Disposition::Invalid`]).
    pub invalid: usize,
    /// Jobs that carried a deadline and completed past it. Shed jobs
    /// are counted under `shed`, not conflated into this.
    pub deadline_misses: usize,
    /// Median turnaround (`end_ms − release_ms`), ms, over *completed*
    /// jobs only — shed and failed jobs have no completion to time.
    pub p50_ms: f64,
    /// 99th-percentile turnaround, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile turnaround, ms.
    pub p999_ms: f64,
    /// Simulated completion of the last completed job, ms (0 when
    /// nothing completed).
    pub makespan_ms: f64,
}

/// Fold `outcomes` into their [`LatencySummary`]: one count per
/// disposition, nearest-rank turnaround percentiles and the makespan
/// over the completed jobs (all zeros for no outcomes).
pub fn latency_summary<'o>(outcomes: impl IntoIterator<Item = &'o JobOutcome>) -> LatencySummary {
    let mut s = LatencySummary::default();
    let mut turn = Vec::new();
    for o in outcomes {
        s.submitted += 1;
        match o.disposition {
            Disposition::Ok => {}
            Disposition::Retried => s.retried += 1,
            Disposition::Degraded => s.degraded += 1,
            Disposition::Shed => s.shed += 1,
            Disposition::Failed => s.failed += 1,
            Disposition::Invalid => s.invalid += 1,
        }
        if o.disposition.completed() {
            s.completed += 1;
            s.deadline_misses += usize::from(o.missed_deadline());
            s.makespan_ms = s.makespan_ms.max(o.end_ms);
            turn.push(o.turnaround_ms());
        }
    }
    turn.sort_by(f64::total_cmp);
    [s.p50_ms, s.p99_ms, s.p999_ms] = [0.50, 0.99, 0.999].map(|q| match turn.len() {
        0 => 0.0,
        n => turn[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    });
    s
}

/// Outcomes plus aggregates for one batch.
///
/// `makespan_ms` and `solves_per_sec` describe *this batch*: the
/// simulated time at which its last job completes and this batch's
/// jobs over that time. `device_stats` snapshots the pool, which is
/// cumulative — reusing a pool across batches carries its clocks and
/// counters forward (call [`DevicePool::reset`] between independent
/// batches to start from idle).
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Simulated completion time of this batch's last job, ms
    /// (`latency.makespan_ms`).
    pub makespan_ms: f64,
    /// This batch's jobs per simulated second of `makespan_ms`.
    pub solves_per_sec: f64,
    /// Per-device snapshots of the (cumulative) pool state.
    pub device_stats: Vec<DeviceStats>,
    /// Number of distinct plans the planner computed (cache pressure) —
    /// the size of this batch's plan cache.
    pub distinct_plans: usize,
    /// Number of micro-batched fused groups (of ≥ 2 jobs) this batch
    /// ran.
    pub fused_groups: usize,
    /// [`latency_summary`] of `outcomes`.
    pub latency: LatencySummary,
}

impl BatchReport {
    /// Aggregate one batch's outcomes (submission order) into its
    /// report: throughput counts the *completed* jobs over the batch's
    /// own `makespan_ms`, not the pool's cumulative clock.
    pub(crate) fn from_outcomes(
        pool: &DevicePool,
        planner: &Planner,
        outcomes: Vec<JobOutcome>,
        fused_groups: usize,
    ) -> BatchReport {
        let latency = latency_summary(&outcomes);
        let makespan_ms = latency.makespan_ms;
        BatchReport {
            makespan_ms,
            solves_per_sec: if makespan_ms > 0.0 {
                latency.completed as f64 / (makespan_ms * 1.0e-3)
            } else {
                0.0
            },
            device_stats: pool.stats(),
            distinct_plans: planner.cached_plans(),
            fused_groups,
            latency,
            outcomes,
        }
    }
}

/// The job's `f64` matrix promoted into the working precision `S`.
fn promoted_matrix<S: MdReal>(a: &HostMat<f64>) -> HostMat<S> {
    HostMat::<S>::from_fn(a.rows, a.cols, |r, c| S::from_f64(a.get(r, c)))
}

/// Always `(0, 0)`: the process-wide promoted-matrix cache this counted
/// is gone (promotion is a plain copy now). Kept, state-free, only
/// because the frozen `benchmark/` reads it for its
/// `batch.promoted_cache_*` rows; it leaves at the benchmark unfreeze.
pub fn promoted_cache_stats() -> (u64, u64) {
    (0, 0)
}

/// Promote an `f64` vector into the working precision.
fn promote_vec<S: MdReal>(v: &[f64]) -> Vec<S> {
    v.iter().map(|&x| S::from_f64(x)).collect()
}

// ---------------------------------------------------------------------
// the stage interpreter
// ---------------------------------------------------------------------

/// Relative residual of `x` against the promoted system. The norms
/// round to `f64` by `multidouble::sqrt_to_f64`: the bits of
/// `a.residual(x, b).to_f64()` and `vec_norm2(b).to_f64()`.
fn relative_residual<S: MdReal>(a: &HostMat<S>, x: &[S], b: &[S]) -> f64 {
    let r = vec_diff_norm2_f64(b, &a.matvec(x));
    let bn = vec_norm2_f64(b);
    if bn > 0.0 {
        r / bn
    } else {
        r
    }
}

/// Direct plans: factor and solve at one rung — exactly a sequential
/// [`mdls_core::lstsq`] call, bit for bit (the batched session at
/// `k = 1` changes accounting, never arithmetic).
fn direct_job<S: MdReal>(
    gpu: &Gpu,
    job: &Job,
    plan: &ExecPlan,
    wrap: fn(Vec<S>) -> Solution,
) -> PlannedSolve {
    let opts = plan.options(ExecMode::Sequential);
    let a = promoted_matrix::<S>(&job.a);
    let b = promote_vec::<S>(&job.b);
    let (x, _) = lstsq_factor_batched(gpu, &[&a], &opts).instances()[0].solve(&b);
    PlannedSolve {
        residual: relative_residual(&a, &x, &b),
        x: wrap(x),
        corrections_run: 0,
    }
}

/// Refinement plans: Factor(F) and the initial Correct(F), then the
/// high-rung loop — alternate device-side residuals at rung `H` with
/// corrections through the reused factorization, accumulating the
/// iterate at `H`.
///
/// **Adaptive pass count**: the measured relative residual — free, the
/// outcome reports it anyway — is checked at every pass boundary, and
/// the loop stops as soon as it already certifies the plan's digit
/// target instead of running the booked count blind (the caller refunds
/// the booked tail). The stopping rule reads only device-independent
/// bits, so placement invariance (and fused/unfused bit-identity)
/// survives.
///
/// **Pass extension**: when the plan's structural pass count is
/// exhausted with the target still uncertified — conditioning ate into
/// the per-pass digit gain — up to `extra_passes` further
/// residual/correct pairs run, as long as each pass still improves the
/// measured residual (a genuinely stuck iteration stops rather than
/// spinning). `extra_passes = 0` stops at the plan's pass count. The
/// extension rule, like the stop rule, reads only device-independent
/// bits.
fn refine_job<F: MdReal, H: MdReal>(
    gpu: &Gpu,
    job: &Job,
    plan: &ExecPlan,
    extra_passes: usize,
    wrap: fn(Vec<H>) -> Solution,
) -> PlannedSolve {
    let (m, n) = (job.rows(), job.cols());
    let opts = plan.options(ExecMode::Sequential);
    let factored = lstsq_factor_batched(gpu, &[&promoted_matrix::<F>(&job.a)], &opts);
    let fact = &factored.instances()[0];
    let (x0, _) = fact.solve(&promote_vec::<F>(&job.b));

    // high-rung system, device-resident across all residual stages —
    // the system uploads once, each pass moves only the iterate down
    // and the residual back, matching what `residual_model_profile`
    // prices. (This sim's own profile is never read: the reported
    // timing is the scheduler's booked plan prediction, which the
    // data-independent model makes exact, so no transfers are recorded
    // here.)
    let a_h = promoted_matrix::<H>(&job.a);
    let b_h = promote_vec::<H>(&job.b);
    let sim = Sim::new(gpu.clone(), ExecMode::Sequential);
    let da = sim.alloc_mat::<H>(m, n);
    let db = sim.alloc_vec::<H>(m);
    let dx = sim.alloc_vec::<H>(n);
    let dr = sim.alloc_vec::<H>(m);
    a_h.upload_to(&da);
    db.upload(&b_h);

    let good_enough = 10f64.powi(-(plan.target_digits.min(i32::MAX as u32) as i32));
    let bn = vec_norm2_f64(&b_h);
    let mut x: Vec<H> = x0.iter().map(|&v| convert_real::<F, H>(v)).collect();
    let mut passes = 0;
    let mut prev_rel = f64::INFINITY;
    let residual = loop {
        // Residual(H): r = b − A x at the high rung. The stage's own
        // output doubles as the adaptive stop measurement — no extra
        // matvec is ever computed for the check; a run to the booked
        // pass count costs one final residual stage in place of the
        // host-side measurement the outcome needed anyway.
        dx.upload(&x);
        residual_kernel(&sim, &da, &dx, &db, &dr, opts.tile_size);
        let r_h = dr.download();
        let rn = vec_norm2_f64(&r_h);
        let rel = if bn > 0.0 { rn / bn } else { rn };
        if rel < good_enough {
            break rel;
        }
        // past the plan's structural passes: extend only while allowed
        // and while the last pass actually gained ground
        if passes >= plan.corrections()
            && (passes >= plan.corrections() + extra_passes || rel >= prev_rel)
        {
            break rel;
        }
        prev_rel = rel;
        // Correct(F): demote the residual, re-solve through the cached
        // factorization, accumulate at the high rung
        let r_f: Vec<F> = r_h.iter().map(|&v| convert_real::<H, F>(v)).collect();
        let (d, _) = fact.solve(&r_f);
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += convert_real::<F, H>(*di);
        }
        passes += 1;
    };
    PlannedSolve {
        x: wrap(x),
        residual,
        corrections_run: passes,
    }
}

/// The stage interpreter: run one job's staged plan on a device model,
/// reporting the adaptive trace. Every engine runs each job — fused or
/// not — through exactly this call, so callers (and the equivalence
/// property test) can reproduce any batch result with a single
/// sequential interpretation: fusing packs launches in the *booking*,
/// it never changes arithmetic. A refinement whose residual stalls
/// above target at the plan's structural pass count may run up to
/// `extra_passes` further residual/correct pairs while each still
/// improves the measured residual.
pub fn solve_planned_traced_with(
    gpu: &Gpu,
    job: &Job,
    plan: &ExecPlan,
    extra_passes: usize,
) -> PlannedSolve {
    use Precision::{D1, D2, D4, D8};
    let e = extra_passes;
    match (plan.factor_precision(), plan.solution_precision()) {
        (D1, D1) => direct_job::<f64>(gpu, job, plan, Solution::D1),
        (D2, D2) => direct_job::<Dd>(gpu, job, plan, Solution::D2),
        (D4, D4) => direct_job::<Qd>(gpu, job, plan, Solution::D4),
        (D8, D8) => direct_job::<Od>(gpu, job, plan, Solution::D8),
        (D1, D2) => refine_job::<f64, Dd>(gpu, job, plan, e, Solution::D2),
        (D1, D4) => refine_job::<f64, Qd>(gpu, job, plan, e, Solution::D4),
        (D1, D8) => refine_job::<f64, Od>(gpu, job, plan, e, Solution::D8),
        (D2, D4) => refine_job::<Dd, Qd>(gpu, job, plan, e, Solution::D4),
        (D2, D8) => refine_job::<Dd, Od>(gpu, job, plan, e, Solution::D8),
        (D4, D8) => refine_job::<Qd, Od>(gpu, job, plan, e, Solution::D8),
        (f, s) => unreachable!("invalid plan rungs: factor {f:?} above solution {s:?}"),
    }
}

/// The execute step of every engine: interpret one round of booked
/// groups (`groups[i]` = a dispatch and its member jobs, in group
/// order) and return their solves index-aligned with the input, members
/// in group order. The unit of work is **one job**: the round flattens
/// into `(group, member)` tasks in round order, and `lanes` host
/// threads — the calling thread plus `lanes − 1` scoped ones, never
/// more than there are tasks — each pull the next task off a shared
/// cursor until none is left. A lane has no device identity: each task
/// interprets on its own group's device model, so a fused group's
/// members can run side by side. Execution is purely functional against
/// an immutable device model and results are slotted back by task
/// index, so host parallelism cannot perturb placements, events or
/// bits. With a [`SolveAhead`] (the stream's), a lane takes each job's
/// solve from it — finished ahead, or solved here ([`SolveAhead::solve`]).
pub(crate) fn execute_round(
    pool: &DevicePool,
    groups: &[(&GroupDispatch, Vec<&Job>)],
    lanes: usize,
    extra_passes: usize,
    ahead: Option<&SolveAhead>,
) -> Vec<Vec<PlannedSolve>> {
    let tasks: Vec<(&GroupDispatch, &Job)> = groups
        .iter()
        .flat_map(|(g, members)| members.iter().map(move |&job| (*g, job)))
        .collect();
    #[expect(clippy::disallowed_types, reason = "the executor's work cursor")]
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(g, job)) = tasks.get(t) else {
                return done;
            };
            let gpu = pool.gpu(g.device);
            let solved = match ahead {
                Some(ahead) => ahead.solve(gpu, job, &g.plan, extra_passes),
                None => solve_planned_traced_with(gpu, job, &g.plan, extra_passes),
            };
            done.push((t, solved));
        }
    };
    let lanes = lanes.clamp(1, tasks.len().max(1));
    #[expect(
        clippy::disallowed_methods,
        reason = "the execute step owns the engines' host threads"
    )]
    let mut done: Vec<(usize, PlannedSolve)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
        let mut done = lane();
        for w in workers {
            done.extend(w.join().expect("executor lane panicked"));
        }
        done
    });
    done.sort_by_key(|(t, _)| *t);
    let mut solved = done.into_iter().map(|(_, s)| s);
    groups
        .iter()
        .map(|(_, members)| solved.by_ref().take(members.len()).collect())
        .collect()
}

// ---------------------------------------------------------------------
// the stream's solve-ahead lane
// ---------------------------------------------------------------------

/// How long a solve-ahead thread watches the queue before it parks:
/// `AHEAD_SPINS` spin-loop hints (≈ 20–25 ns each on x86-64), then
/// `AHEAD_YIELDS` yields of its core (≈ 0.3 µs each when nothing else
/// wants it), ≈ 1.2 ms in all — longer than most stream pulls and most
/// tracker solves, so an idle worker sees the next registration, and a
/// waiting caller the worker's result, without a futex round trip (a
/// caller whose watch runs out solves the job itself: about 10 times
/// per 8 000-job tracker stream). On a 2-core KVM guest
/// a 0.1 ms pure spin parked ≈ 900 times per 8 000-job tracker stream
/// and kept about half the host-time gain. Yielding rather than
/// spinning on matters when the host is oversubscribed: with a third
/// busy thread a pure spin starved the thread it waited for, and the
/// stream ran ≈ 1.5× slower than on one lane.
const AHEAD_SPINS: u32 = 1 << 8;
const AHEAD_YIELDS: u32 = 1 << 12;

/// Where a registered solve stands.
enum AheadState {
    Queued,
    Running,
    Done(PlannedSolve),
    /// The solve panicked: the payload resumes on the thread that
    /// executes the job.
    Panicked(Box<dyn Any + Send>),
}

/// One buffered job registered for solving ahead of its dispatch.
struct AheadTask {
    id: u64,
    urgency: Urgency,
    job: Arc<Job>,
    plan: Arc<ExecPlan>,
    state: AheadState,
}

/// The lock-guarded half of a [`SolveAhead`].
struct AheadQueue {
    /// In dispatch order, most urgent first.
    tasks: Vec<AheadTask>,
    next_id: u64,
    stop: bool,
    /// Threads waiting on [`AheadShared::wake`].
    parked: usize,
}

impl AheadQueue {
    /// The first queued task, in dispatch order.
    fn most_urgent(&self) -> Option<usize> {
        self.tasks
            .iter()
            .position(|t| matches!(t.state, AheadState::Queued))
    }
}

type AheadGuard<'a> = MutexGuard<'a, AheadQueue>;

/// What the stream's thread and its worker share.
struct AheadShared {
    #[expect(
        clippy::disallowed_types,
        reason = "the solve-ahead queue: execution emits nothing, so no guard is held across an emit"
    )]
    queue: std::sync::Mutex<AheadQueue>,
    wake: Condvar,
    /// Bumped under the lock on every registration, completion and
    /// stop: a spinning thread watches it without taking the lock (the
    /// bump's `Release` pairs with the spinner's `Acquire`; the queue
    /// itself is only read under the lock).
    #[expect(
        clippy::disallowed_types,
        reason = "the solve-ahead queue's change counter, on no element path"
    )]
    epoch: std::sync::atomic::AtomicU64,
    /// Solves the worker finished.
    #[expect(
        clippy::disallowed_types,
        reason = "a count of the worker's solves, on no element path"
    )]
    worker_solves: std::sync::atomic::AtomicUsize,
    /// The device model solves run on: a solve reads only its plan's
    /// structure, which is device-free, so any pool device's will do.
    gpu: Gpu,
    extra_passes: usize,
}

impl AheadShared {
    fn lock(&self) -> AheadGuard<'_> {
        // no code panics while it holds the guard (solves run with the
        // lock released), so a poisoned queue is still consistent
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Announce a queue change; called with the guard held.
    fn changed(&self, q: &AheadQueue) {
        self.epoch.fetch_add(1, Ordering::Release);
        if q.parked > 0 {
            self.wake.notify_all();
        }
    }

    /// Wait for the next queue change: spin on the epoch, then yield,
    /// then — with `park` — sleep until it comes. `false` when the watch
    /// ran out unparked with no change.
    fn wait<'a>(&'a self, q: AheadGuard<'a>, park: bool) -> (AheadGuard<'a>, bool) {
        let seen = self.epoch.load(Ordering::Relaxed);
        drop(q);
        for i in 0..AHEAD_SPINS + AHEAD_YIELDS {
            if self.epoch.load(Ordering::Acquire) != seen {
                return (self.lock(), true);
            }
            if i < AHEAD_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut q = self.lock();
        if !park {
            return (q, false);
        }
        // the epoch only moves under the lock, so this check cannot
        // miss a change
        q.parked += 1;
        while self.epoch.load(Ordering::Relaxed) == seen {
            q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        q.parked -= 1;
        (q, true)
    }

    /// Claim queued task `i`, solve it with the lock released, and store
    /// the result — dropped if the task was withdrawn meanwhile.
    fn run<'a>(&'a self, mut q: AheadGuard<'a>, i: usize) -> AheadGuard<'a> {
        let t = &mut q.tasks[i];
        t.state = AheadState::Running;
        let (id, job, plan) = (t.id, Arc::clone(&t.job), Arc::clone(&t.plan));
        drop(q);
        let solved = catch_unwind(AssertUnwindSafe(|| {
            solve_planned_traced_with(&self.gpu, &job, &plan, self.extra_passes)
        }));
        let mut q = self.lock();
        if let Some(t) = q.tasks.iter_mut().find(|t| t.id == id) {
            t.state = match solved {
                Ok(s) => AheadState::Done(s),
                Err(payload) => AheadState::Panicked(payload),
            };
        }
        self.changed(&q);
        q
    }

    /// The worker: solve the most urgent queued task, until stopped.
    fn work(&self) {
        let mut q = self.lock();
        while !q.stop {
            q = match q.most_urgent() {
                Some(i) => {
                    let q = self.run(q, i);
                    self.worker_solves.fetch_add(1, Ordering::Relaxed);
                    q
                }
                None => self.wait(q, true).0,
            };
        }
    }
}

/// The stream's **solve-ahead lane**: a queue of buffered jobs whose
/// plans are already known, kept in dispatch order, and — when the host
/// runs two or more threads at once ([`gpusim::host_workers`]) — one
/// persistent worker that solves the most urgent queued job while the
/// stream's own thread books, executes and settles the group at the
/// head. A job's [`PlannedSolve`] depends only on the job and its plan
/// structure, never on the device, the group or the timing, and
/// execution emits no events, so outcomes and the event stream are
/// bit-identical with or without the worker. On one core nothing runs
/// ahead and the execute step claims every task itself: one code path.
/// Dropping it stops and joins the worker.
pub(crate) struct SolveAhead {
    shared: Arc<AheadShared>,
    worker: Option<JoinHandle<()>>,
}

impl SolveAhead {
    /// A solve-ahead lane solving on `gpu`'s model with `extra_passes`
    /// pass extensions, with a worker when the host has a second thread.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the lane's lock and counters"
    )]
    #[expect(
        clippy::disallowed_methods,
        reason = "the execute step owns the engines' host threads; this is the stream's second lane"
    )]
    pub(crate) fn new(gpu: Gpu, extra_passes: usize) -> Self {
        let shared = Arc::new(AheadShared {
            queue: std::sync::Mutex::new(AheadQueue {
                tasks: Vec::new(),
                next_id: 0,
                stop: false,
                parked: 0,
            }),
            wake: Condvar::new(),
            epoch: std::sync::atomic::AtomicU64::new(0),
            worker_solves: std::sync::atomic::AtomicUsize::new(0),
            gpu,
            extra_passes,
        });
        let worker = (gpusim::host_workers() >= 2).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("solve-ahead".into())
                .spawn(move || shared.work())
                .expect("spawn the solve-ahead worker")
        });
        SolveAhead { shared, worker }
    }

    /// Queue `job` for solving under `plan` at its place in the dispatch
    /// order; returns the task's id.
    pub(crate) fn register(&self, urgency: Urgency, job: &Arc<Job>, plan: Arc<ExecPlan>) -> u64 {
        let mut q = self.shared.lock();
        let id = q.next_id;
        q.next_id += 1;
        let at = q.tasks.partition_point(|t| t.urgency > urgency);
        let task = AheadTask {
            id,
            urgency,
            job: Arc::clone(job),
            plan,
            state: AheadState::Queued,
        };
        q.tasks.insert(at, task);
        self.shared.changed(&q);
        id
    }

    /// Drop the tasks `ids` whatever their state (a running solve
    /// finishes and its result is dropped); a task already executed is
    /// gone.
    pub(crate) fn withdraw(&self, ids: impl IntoIterator<Item = u64>) {
        let mut q = self.shared.lock();
        for id in ids {
            if let Some(i) = q.tasks.iter().position(|t| t.id == id) {
                q.tasks.remove(i);
            }
        }
    }

    /// The execute step's solve of `job` under `plan`: the result solved
    /// ahead, or — when its task is still queued, or `job` has none under
    /// this plan structure — a solve on the calling thread. While the
    /// worker runs the job's task, the caller solves other queued tasks,
    /// most urgent first, and waits only when none is left — for one
    /// watch: a worker that has not finished by then has lost its core,
    /// so the caller solves the job itself. A panic of the job's solve
    /// resumes here.
    pub(crate) fn solve(
        &self,
        gpu: &Gpu,
        job: &Job,
        plan: &ExecPlan,
        extra_passes: usize,
    ) -> PlannedSolve {
        let shared = &*self.shared;
        let mut q = shared.lock();
        let mut stalled = false;
        loop {
            let found = q.tasks.iter().position(|t| {
                std::ptr::eq(&*t.job, job)
                    && t.plan.stages == plan.stages
                    && t.plan.target_digits == plan.target_digits
            });
            let Some(i) = found.filter(|_| extra_passes == shared.extra_passes) else {
                drop(q);
                return solve_planned_traced_with(gpu, job, plan, extra_passes);
            };
            q = match q.tasks[i].state {
                AheadState::Running if !stalled => match q.most_urgent() {
                    Some(k) => shared.run(q, k),
                    None => {
                        let (q, changed) = shared.wait(q, false);
                        stalled = !changed;
                        q
                    }
                },
                // a queued task, or one the worker did not finish through
                // a whole watch (its core was taken away): solve it here,
                // and the worker's late result is dropped
                AheadState::Queued | AheadState::Running => {
                    q.tasks.remove(i);
                    drop(q);
                    return solve_planned_traced_with(gpu, job, plan, extra_passes);
                }
                AheadState::Done(_) | AheadState::Panicked(_) => {
                    let state = q.tasks.remove(i).state;
                    drop(q);
                    match state {
                        AheadState::Done(s) => return s,
                        AheadState::Panicked(payload) => resume_unwind(payload),
                        AheadState::Queued | AheadState::Running => unreachable!(),
                    }
                }
            };
        }
    }

    /// Solves the worker has finished so far.
    #[cfg(test)]
    pub(crate) fn worker_solves(&self) -> usize {
        self.shared.worker_solves.load(Ordering::Relaxed)
    }

    /// Another handle on the state the worker shares: once the lane is
    /// dropped, it is the last one exactly when the worker was joined.
    #[cfg(test)]
    pub(crate) fn shared_handle(&self) -> Arc<dyn Any + Send + Sync> {
        self.shared.clone()
    }
}

impl Drop for SolveAhead {
    fn drop(&mut self) {
        let Some(worker) = self.worker.take() else {
            return;
        };
        {
            let mut q = self.shared.lock();
            q.stop = true;
            self.shared.changed(&q);
        }
        // a worker mid-solve finishes that solve, then sees the stop. It
        // catches every solve's panic for the caller, so only a bug in
        // the queue code could end it in `Err`: the panic hook has
        // reported that already, and a drop must not panic
        let _ = worker.join();
    }
}

/// Solve a batch of jobs over the pool under the default
/// [`DispatchPolicy::LeastLoaded`] with contiguous stage booking
/// ([`StageSchedConfig::sequential`]): [`solve_batch_staged_with`] at
/// its simplest configuration, on one host lane per device.
///
/// Device micro-batching is **on by default**: jobs sharing a shape
/// key fuse into batched launch sequences at the occupancy sweet spot
/// (bit-identical to solving each job alone — fusing packs launches,
/// never changes arithmetic).
pub fn solve_batch(pool: &mut DevicePool, jobs: &[Job]) -> BatchReport {
    let (micro, seq) = (MicrobatchConfig::default(), StageSchedConfig::sequential());
    solve_batch_staged_with(pool, jobs, DispatchPolicy::LeastLoaded, &micro, &seq, true)
}

/// Emit one [`Event::JobSettled`] per outcome, in submission order —
/// shared by every engine so the settled stream is deterministic
/// regardless of host-thread interleaving during execution.
pub(crate) fn emit_settled(pool: &DevicePool, outcomes: &[JobOutcome]) {
    for o in outcomes {
        pool.emit(|| Event::JobSettled {
            job: o.job_id,
            device: o.device,
            tenant: o.tenant.0,
            priority: o.priority,
            start_ms: o.start_ms,
            end_ms: o.end_ms,
            release_ms: o.release_ms,
            deadline_ms: o.deadline_ms.unwrap_or(0.0),
            has_deadline: o.deadline_ms.is_some(),
            fused: o.fused_group,
            corrections: o.corrections_run,
            refunded_ms: o.refunded_ms,
            extended_ms: o.extended_ms,
            achieved_digits: o.achieved_digits,
        });
    }
}

/// Settle a dispatch against what execution actually ran: refund the
/// booked tail when the group stopped early (as
/// [`StageSchedConfig::refund`] says — off the busy books only, or
/// freeing the timeline spans so later dispatches use the freed time,
/// or also sliding queued dispatches left into the hole), or book the
/// extra passes an expected-pass booking under-estimated / a stalled
/// job extended into. Slide-left
/// compaction may have *moved* this dispatch since it was booked, so
/// settlement first refreshes the placement from the pool's
/// live-booking registry; every settle path marks the booking settled,
/// pinning it against any later compaction. Updates the group's
/// `start_ms`/`end_ms` to the settled placement and returns the
/// per-job `(refunded, extended)` shares, ms.
fn settle_staged_dispatch(
    pool: &mut DevicePool,
    g: &mut GroupDispatch,
    shape: &JobShape,
    passes_run: usize,
    sched: &StageSchedConfig,
) -> (f64, f64) {
    let booked = g.booked_passes();
    let k = g.jobs.len().max(1) as f64;
    if let Some(current) = pool.live_booking(g.booking.id) {
        g.start_ms = current.start_ms();
        g.end_ms = current.end_ms();
        g.booking = current;
    }
    // calibration records for the stages that actually ran: the
    // planner's singleton per-stage prediction against this group's
    // realized per-job share of the fused booking
    let executed = ExecPlan::booked_stages(passes_run.min(booked)).min(g.booking.stages.len());
    let predicted = g.plan.stages.iter().zip(&g.plan.stage_wall_ms);
    for ((stage, &predicted_ms), iv) in predicted.zip(&g.booking.stages).take(executed) {
        pool.emit(|| Event::StageTime {
            device: g.device,
            rows: shape.rows,
            cols: shape.cols,
            kind: stage.kind(),
            rung: stage.rung().tag(),
            predicted_ms,
            settled_ms: iv.wall_ms() / k,
        });
    }
    if passes_run < booked {
        let from = ExecPlan::booked_stages(passes_run);
        let refund = pool.rebook(&g.booking, from, sched.refund);
        if sched.refund != RebookMode::BooksOnly {
            // the freed tail is gone from the schedule: the group ends
            // where its executed stages do
            g.end_ms = g.booking.stages[from - 1].end_ms();
        }
        (refund.refunded_ms / k, 0.0)
    } else {
        // ran what was booked, or more: grow the booking pass by pass —
        // each extra pass replays the plan's steady-state
        // residual/correct pair at the earliest fit no sooner than the
        // executed end of the booking so far
        pool.mark_settled(g.booking.id);
        let mut extended = 0.0;
        for pass in booked..passes_run {
            let pair = g.fused.extension_reqs();
            let ext = pool.commit_stages(g.device, &pair, 0.0, 0.0, 0, sched.overlap, g.end_ms);
            pool.mark_settled(ext.id);
            pool.emit(|| Event::PassExtended {
                device: g.device,
                job: g.jobs[0] as u64,
                pass: pass + 1,
                end_ms: ext.end_ms(),
            });
            extended += pair.iter().map(|r| r.wall_ms()).sum::<f64>();
            g.end_ms = g.end_ms.max(ext.end_ms());
        }
        (0.0, extended / k)
    }
}

/// Cap on transient-fault replays per settled group (ECC-replay
/// style), for batch, stream and `serve` alike: a device that keeps
/// faulting one dispatch is the circuit breaker's problem, not the
/// retry loop's.
const MAX_TRANSIENT_RETRIES: usize = 3;

/// Base of the exponential replay backoff, simulated ms: retry `r`
/// books no earlier than `RETRY_BACKOFF_MS · 2^r` after the failed end.
/// A few kernel-launch gaps (6–10 µs on the modeled devices): enough to
/// separate a replay from its fault, never a solve's worth of idling.
const RETRY_BACKOFF_MS: f64 = 0.05;

/// Replay the transient kernel faults that hit a settled dispatch:
/// every scheduled transient of the device inside `[start_ms, end_ms)`
/// (at most `MAX_TRANSIENT_RETRIES`) costs one backed-off replay of the
/// group's steady-state pass (or, for direct plans, the whole booking)
/// booked after the group's end — time moves, bits do not. Extends
/// `g.end_ms` past the last replay and returns the fault instants, so
/// callers can mark the members retried (and the service shell can
/// strike its breaker). Empty on a quiet device.
fn replay_transients(
    pool: &mut DevicePool,
    g: &mut GroupDispatch,
    job_id: u64,
    overlap: bool,
) -> Vec<f64> {
    let device = g.device;
    // the schedule is sorted: bisect to the interval's first instant
    // (a service run settles 10⁵ dispatches against 10³ transients)
    let transients = pool.gpu(device).fault.transients();
    let hits: Vec<f64> = transients[transients.partition_point(|t| *t < g.start_ms)..]
        .iter()
        .copied()
        .take_while(|t| *t < g.end_ms)
        .take(MAX_TRANSIENT_RETRIES)
        .collect();
    for (retry, &at_ms) in hits.iter().enumerate() {
        pool.emit(|| Event::FaultInjected {
            device,
            job: job_id,
            at_ms,
            retry,
        });
        let mut reqs = g.fused.extension_reqs();
        if reqs.is_empty() {
            reqs = g.fused.booking_reqs(usize::MAX);
        }
        let backoff_ms = RETRY_BACKOFF_MS * (1u64 << retry) as f64;
        let b = pool.commit_stages(device, &reqs, 0.0, 0.0, 0, overlap, g.end_ms + backoff_ms);
        pool.mark_settled(b.id);
        g.end_ms = b.end_ms();
        pool.emit(|| Event::RetryBooked {
            device,
            job: job_id,
            end_ms: g.end_ms,
            backoff_ms,
        });
    }
    hits
}

/// The settle step of every engine, once per executed group, and the
/// one owner of a completed job's verdict: settle the booking against
/// the passes execution actually ran (`settle_staged_dispatch` — refund
/// or extend), replay the transient faults that hit the executed
/// interval (`replay_transients`; no-op on a quiet device), and assemble
/// the members' outcomes from the settled placement. Each member comes
/// back
///
/// * [`Disposition::Degraded`] when it ran a plan below its request
///   (admission or the service's overload ladder down-laddered it), or
///   when it is a square system whose measured residual does not
///   certify the plan's target (singular or ill-conditioned);
/// * otherwise [`Disposition::Retried`] when the driver `retried` it (a
///   re-dispatch or re-queue after a sticky loss) or a transient replay
///   hit the group;
/// * otherwise [`Disposition::Ok`].
///
/// A member with no solution (a model-only run) certifies nothing and
/// reports zero `achieved_digits`, as a tombstone does. Drains `solved`
/// (the members' solves, in group order), appends the outcomes to
/// `settled` in group order — both buffers are the caller's, reused
/// across groups — and returns the fault instants (the service shell
/// strikes its breaker with them).
pub(crate) fn settle_group(
    pool: &mut DevicePool,
    g: &mut GroupDispatch,
    shape: &JobShape,
    members: &[&Job],
    solved: &mut Vec<PlannedSolve>,
    sched: &StageSchedConfig,
    retried: bool,
    settled: &mut Vec<JobOutcome>,
) -> Vec<f64> {
    assert_eq!(members.len(), solved.len());
    let passes_run = solved.iter().map(|s| s.corrections_run).max().unwrap_or(0);
    let (refunded_ms, extended_ms) = settle_staged_dispatch(pool, g, shape, passes_run, sched);
    let hits = replay_transients(pool, g, members[0].id, sched.overlap);
    let retried = retried || !hits.is_empty();
    // a square system is consistent, so its residual certifies the
    // solve; a tall one's also holds the least squares residual itself,
    // which no solve can shrink, so it certifies nothing either way
    let certifies = shape.rows == shape.cols;
    let target = g.plan.target_digits;
    let outcomes = members.iter().zip(solved.drain(..)).map(|(&job, s)| {
        let has_solution = !s.x.is_empty();
        let achieved_digits = if has_solution {
            digits_from_residual(s.residual)
        } else {
            0.0
        };
        let short = certifies && has_solution && achieved_digits < target as f64;
        let disposition = if short || target < job.target_digits {
            Disposition::Degraded
        } else if retried {
            Disposition::Retried
        } else {
            Disposition::Ok
        };
        JobOutcome {
            achieved_digits,
            x: s.x,
            residual: s.residual,
            start_ms: g.start_ms,
            fused_group: g.jobs.len(),
            corrections_run: s.corrections_run,
            refunded_ms,
            extended_ms,
            // the job's identity, on the group's device and end
            ..tombstone_outcome(job, g.plan.clone(), g.device, disposition, g.end_ms)
        }
    });
    settled.extend(outcomes);
    hits
}

/// Solve a batch through the **one batch loop** with every fault phase
/// quiet unless the pool carries a [`gpusim::FaultPlan`] and ingress
/// admission off — the plain staged entry point. `micro` chooses the
/// fused groups, `sched` how their stages are booked
/// ([`StageSchedConfig::sequential`] for one contiguous interval per
/// dispatch, [`StageSchedConfig::staged`] for overlapped lanes,
/// expected-pass booking, online re-booking and pass extension). See
/// [`solve_batch_resilient`](crate::resilient::solve_batch_resilient)
/// for the loop's phases.
///
/// `host_parallel` runs the executor with one host lane per pool
/// device (lanes pull jobs; a lane has no device identity), and `false`
/// runs every job on the calling thread in booking order — the serial
/// reference the parallel executor is asserted bit-identical (and
/// timing-identical) against.
///
/// Outcomes are bit-identical across every `micro`/`sched`/`policy`
/// whenever `max_extra_passes` matches (extension is the one knob that
/// adds arithmetic, and it only fires on jobs that would otherwise
/// return *under target*).
pub fn solve_batch_staged_with(
    pool: &mut DevicePool,
    jobs: &[Job],
    policy: DispatchPolicy,
    micro: &MicrobatchConfig,
    sched: &StageSchedConfig,
    host_parallel: bool,
) -> BatchReport {
    let cfg = ResilienceConfig {
        admission: AdmissionConfig { enabled: false },
    };
    run_batch(pool, jobs, policy, micro, sched, &cfg, host_parallel)
}

/// One group of a round, in placement order: its shape key at the
/// digits it runs at, its members' indices — the caller's names for
/// them, which booking events and the round's outcomes carry — and the
/// members themselves, in group order.
pub(crate) struct Group<'j> {
    pub(crate) shape: JobShape,
    pub(crate) idxs: Members,
    pub(crate) members: Vec<&'j Job>,
}

/// A booked group of a round.
struct Slot<'j> {
    shape: JobShape,
    g: GroupDispatch,
    members: Vec<&'j Job>,
    /// Re-dispatched after a sticky loss interrupted it.
    retried: bool,
}

/// What one round of the batch loop settled.
pub(crate) struct Round {
    /// `(index, outcome)` per member in booking order — settled
    /// outcomes, or the `Failed` tombstones of groups no device could
    /// take.
    pub(crate) outcomes: Vec<(usize, JobOutcome)>,
    /// Settled groups of two or more jobs.
    pub(crate) fused_groups: usize,
    /// Sticky losses the recover step applied: the alive set shrank.
    pub(crate) losses: usize,
}

/// One round of the batch loop — phases 1–4 of [`run_batch`] over
/// `groups`, given in placement order. The batch loop runs it once
/// over every group (`until_ms = ∞`: it has booked its whole future);
/// the stream once per pull over the group it just formed (`−∞`), and
/// once more over none when drained (`∞`), so both drivers recover,
/// execute and settle through the same code. `lanes` host lanes
/// execute.
pub(crate) fn run_round(
    pool: &mut DevicePool,
    planner: &Planner,
    groups: Vec<Group<'_>>,
    policy: DispatchPolicy,
    sched: &StageSchedConfig,
    lanes: usize,
    ahead: Option<&SolveAhead>,
    until_ms: f64,
) -> Round {
    let book = |pool: &mut DevicePool, idxs, shape: &JobShape, release| {
        dispatch_group_where(pool, planner, idxs, shape, policy, sched, release, |_| true)
    };
    let mut outcomes = Vec::new();

    // ---- phase 1: book ------------------------------------------------
    let mut slots: Vec<Slot> = Vec::with_capacity(groups.len());
    for Group {
        shape,
        idxs,
        members,
    } in groups
    {
        let release = members.iter().map(|j| j.release()).fold(0.0, f64::max);
        if let Some(g) = book(pool, idxs.clone(), &shape, release) {
            slots.push(Slot {
                shape,
                g,
                members,
                retried: false,
            });
            continue;
        }
        // a pool that lost every device books nothing
        let (rows, cols, digits) = (shape.rows, shape.cols, shape.target_digits);
        let (plan, _) = planner.plan_fused(pool.gpu(0), rows, cols, digits, 1);
        for (&j, job) in idxs.iter().zip(members) {
            let o = tombstone_outcome(job, plan.clone(), 0, Disposition::Failed, job.release());
            outcomes.push((j, o));
        }
    }

    // ---- phase 2: recover sticky losses, oldest first ------------------
    let mut losses = 0;
    while let Some(loss) = recover(pool, until_ms, None) {
        losses += 1;
        let t = loss.at_ms;
        slots.retain_mut(|slot| {
            if !loss.interrupted.contains(&slot.g.booking.id) {
                return true;
            }
            let release = slot.members.iter().map(|j| j.release()).fold(t, f64::max);
            let Some(g) = book(pool, slot.g.jobs.clone(), &slot.shape, release) else {
                // no survivor: the group dies with its device, at `t`
                for (&j, job) in slot.g.jobs.iter().zip(&slot.members) {
                    let plan = slot.g.plan.clone();
                    let mut o = tombstone_outcome(job, plan, slot.g.device, Disposition::Failed, t);
                    o.start_ms = slot.g.start_ms.min(t);
                    o.fused_group = slot.members.len();
                    outcomes.push((j, o));
                }
                return false;
            };
            (slot.g, slot.retried) = (g, true);
            true
        });
    }

    // ---- phase 3: execute — lanes pull jobs ---------------------------
    let round: Vec<(&GroupDispatch, Vec<&Job>)> =
        slots.iter().map(|s| (&s.g, s.members.clone())).collect();
    let solved = execute_round(pool, &round, lanes, sched.max_extra_passes, ahead);

    // ---- phase 4: settle in booking order, replay transients ---------
    let mut fused_groups = 0;
    let mut settled = Vec::new();
    for (mut slot, mut solved) in slots.into_iter().zip(solved) {
        fused_groups += usize::from(slot.members.len() > 1);
        settle_group(
            pool,
            &mut slot.g,
            &slot.shape,
            &slot.members,
            &mut solved,
            sched,
            slot.retried,
            &mut settled,
        );
        outcomes.extend(slot.g.jobs.iter().copied().zip(settled.drain(..)));
    }
    Round {
        outcomes,
        fused_groups,
        losses,
    }
}

/// The **one batch loop** behind every `solve_batch*` entry point:
///
/// 0. **Front door and admit**: a job failing [`Job::validate`] ends
///    [`Disposition::Invalid`] before anything is planned. Then
///    (no-op without deadlines or with admission off)
///    preview every deadlined job against the surviving pool and
///    down-ladder or shed what cannot meet its deadline. Down-laddering
///    lowers the group's shape key, never the job — the jobs themselves
///    are never cloned.
///
/// Phases 1–4 are one [`run_round`] over every group:
///
/// 1. **Book** (main thread, in the shared — for SECT: longest-first —
///    placement order): every group's stages land on the device the
///    policy picks *from the stage timeline*
///    ([`dispatch_group_staged`](crate::microbatch::dispatch_group_staged)),
///    as `sched` says. On a pool with no
///    surviving device the jobs end [`Disposition::Failed`].
/// 2. **Recover sticky losses** (`resilient::recover`; no-op on a quiet
///    pool), oldest first: each loss interrupts the unfinished bookings
///    on the dying device; they re-dispatch immediately onto the
///    survivors — never before the loss instant, never moving a
///    surviving device's spans — so a *later* loss can interrupt the
///    re-booked work too. When no device survives the interrupted jobs
///    end [`Disposition::Failed`].
/// 3. **Execute** one job per task ([`execute_round`]): with
///    `host_parallel`, as many host lanes as the pool has devices (the
///    calling thread is one) pull jobs in booking order — a lane has no
///    device identity, so a fused group's members run side by side —
///    and results are slotted back by task index. Execution is purely
///    functional against an immutable device model, so host
///    parallelism cannot perturb placements, events or bits.
/// 4. **Settle** (main thread, global booking order — refund causality
///    and the event stream stay deterministic): refund each group's
///    unexecuted tail or book the extra passes execution ran
///    ([`settle_staged_dispatch`]), then replay the transient faults
///    that hit the executed interval (no-op on a quiet pool); each
///    member's verdict is [`settle_group`]'s.
/// 5. **Report** in submission order, summarized by [`latency_summary`].
pub(crate) fn run_batch(
    pool: &mut DevicePool,
    jobs: &[Job],
    policy: DispatchPolicy,
    micro: &MicrobatchConfig,
    sched: &StageSchedConfig,
    cfg: &ResilienceConfig,
    host_parallel: bool,
) -> BatchReport {
    let planner = Planner::for_pool(pool);
    let mut outcomes: Vec<Option<JobOutcome>> = Vec::new();
    outcomes.resize_with(jobs.len(), || None);

    // ---- phase 0: the front door, then admission ---------------------
    let mut active: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut shapes: Vec<JobShape> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if let Err(e) = job.validate() {
            outcomes[i] = Some(invalid_tombstone(pool, job, e));
            continue;
        }
        let release = job.release();
        let digits = match admit(
            pool,
            &planner,
            job,
            job.target_digits,
            sched.overlap,
            release,
            release,
            &cfg.admission,
        ) {
            Admitted::Run { digits } => digits,
            Admitted::Shed(tombstone) => {
                outcomes[i] = Some(*tombstone);
                continue;
            }
        };
        active.push(i);
        shapes.push(JobShape {
            target_digits: digits,
            ..JobShape::from(job)
        });
    }

    // ---- phases 1–4: one round over every group, in placement order ---
    let groups = plan_groups(&planner, &shapes, micro);
    let order = placement_order(pool, &planner, &shapes, &groups, policy);
    let round: Vec<Group> = order
        .into_iter()
        .map(|gi| {
            let idxs: Vec<usize> = groups[gi].iter().map(|&a| active[a]).collect();
            Group {
                shape: shapes[groups[gi][0]],
                members: idxs.iter().map(|&j| &jobs[j]).collect(),
                idxs: idxs.into(),
            }
        })
        .collect();
    // one lane per device, or a single lane when serial
    let lanes = if host_parallel { pool.len() } else { 1 };
    let round = run_round(
        pool,
        &planner,
        round,
        policy,
        sched,
        lanes,
        None,
        f64::INFINITY,
    );
    for (j, o) in round.outcomes {
        outcomes[j] = Some(o);
    }

    // ---- phase 5: report ---------------------------------------------
    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every job has a terminal disposition"))
        .collect();
    // a refused job never reached the engine: it announced itself with
    // `JobInvalid` and settles nothing
    for o in outcomes
        .iter()
        .filter(|o| o.disposition != Disposition::Invalid)
    {
        emit_settled(pool, std::slice::from_ref(o));
    }
    BatchReport::from_outcomes(pool, &planner, outcomes, round.fused_groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbatch::dispatch_group_staged;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The batch loop with contiguous stage booking.
    fn batch_seq(
        pool: &mut DevicePool,
        jobs: &[Job],
        policy: DispatchPolicy,
        cfg: &MicrobatchConfig,
        host_parallel: bool,
    ) -> BatchReport {
        let seq = StageSchedConfig::sequential();
        solve_batch_staged_with(pool, jobs, policy, cfg, &seq, host_parallel)
    }

    fn little_jobs(count: usize, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count as u64)
            .map(|id| {
                let n = [4, 6, 8][id as usize % 3];
                let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                    let u: f64 = multidouble::random::rand_real(&mut rng);
                    u + if r == c { 4.0 } else { 0.0 }
                });
                let b: Vec<f64> = (0..n)
                    .map(|_| multidouble::random::rand_real(&mut rng))
                    .collect();
                Job::new(id, a, b, [12, 25, 50][id as usize % 3])
            })
            .collect()
    }

    #[test]
    fn residuals_meet_the_target_digits() {
        let jobs = little_jobs(9, 77);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        let report = solve_batch(&mut pool, &jobs);
        assert_eq!(report.outcomes.len(), 9);
        for (job, out) in jobs.iter().zip(&report.outcomes) {
            assert_eq!(job.id, out.job_id);
            let bound = 10f64.powi(-(job.target_digits as i32));
            assert!(
                out.residual < bound,
                "job {} ({}) residual {:e} above 1e-{}",
                job.id,
                out.plan.summary(),
                out.residual,
                job.target_digits
            );
            assert!(out.achieved_digits >= job.target_digits as f64);
            assert_eq!(out.x.len(), job.cols());
        }
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let jobs = little_jobs(12, 78);
        let mut pool_a = DevicePool::homogeneous(&Gpu::v100(), 3);
        let mut pool_b = DevicePool::homogeneous(&Gpu::v100(), 3);
        let serial = batch_seq(
            &mut pool_a,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            false,
        );
        let parallel = batch_seq(
            &mut pool_b,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            true,
        );
        assert_eq!(serial.makespan_ms, parallel.makespan_ms);
        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.x, p.x, "job {} diverged across host threads", s.job_id);
            assert_eq!(s.device, p.device);
        }
    }

    #[test]
    fn worker_spawn_is_clamped_to_the_batch() {
        // regression guard: a tiny batch on a wider pool must not
        // spawn a worker for devices that hold no work
        let jobs = little_jobs(1, 82);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        let report = batch_seq(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            true,
        );
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn ladder_assigns_increasing_precision() {
        let jobs = little_jobs(3, 79); // digits 12, 25, 50
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let report = solve_batch(&mut pool, &jobs);
        let rungs: Vec<Precision> = report.outcomes.iter().map(|o| o.x.precision()).collect();
        assert_eq!(rungs, [Precision::D1, Precision::D2, Precision::D4]);
    }

    #[test]
    fn reused_pool_reports_per_batch_aggregates() {
        let jobs = little_jobs(4, 80);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        let first = batch_seq(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            false,
        );
        let second = batch_seq(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            false,
        );
        // clocks carry across batches: the second batch finishes later...
        assert!(second.makespan_ms > first.makespan_ms);
        // ...but its rate counts only its own four jobs over that time
        let expect = 4.0 / (second.makespan_ms * 1.0e-3);
        assert!((second.solves_per_sec - expect).abs() < 1e-9);
        // the pool's cumulative view keeps both batches
        assert_eq!(pool.total_solves(), 8);
    }

    #[test]
    fn policies_only_move_jobs_never_bits() {
        let jobs = little_jobs(10, 81);
        let gpus = || vec![Gpu::v100(), Gpu::p100()];
        let mut pool_g = DevicePool::new(gpus());
        let greedy = batch_seq(
            &mut pool_g,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            false,
        );
        let mut pool_s = DevicePool::new(gpus());
        let sect = batch_seq(
            &mut pool_s,
            &jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            &MicrobatchConfig::default(),
            false,
        );
        for (g, s) in greedy.outcomes.iter().zip(&sect.outcomes) {
            assert_eq!(g.job_id, s.job_id);
            assert_eq!(g.x, s.x, "job {}: policy changed the bits", g.job_id);
            assert_eq!(g.residual, s.residual);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        let report = solve_batch(&mut pool, &[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.makespan_ms, 0.0);
        let staged = solve_batch_staged_with(
            &mut pool,
            &[],
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::staged(),
            true,
        );
        assert!(staged.outcomes.is_empty());
    }

    /// Jobs with repeated shapes so the micro-batcher has something to
    /// fuse: `dups` copies of each of three shape keys, distinct data.
    fn fusible_jobs(dups: usize, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..(3 * dups) as u64)
            .map(|id| {
                let n = [8, 12, 16][id as usize % 3];
                let digits = [12, 25, 50][id as usize % 3];
                let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                    let u: f64 = multidouble::random::rand_real(&mut rng);
                    u + if r == c { 4.0 } else { 0.0 }
                });
                let b: Vec<f64> = (0..n)
                    .map(|_| multidouble::random::rand_real(&mut rng))
                    .collect();
                Job::new(id, a, b, digits)
            })
            .collect()
    }

    #[test]
    fn fused_batch_is_bit_identical_to_unfused() {
        let jobs = fusible_jobs(8, 90);
        let mut pool_u = DevicePool::homogeneous(&Gpu::v100(), 2);
        let unfused = batch_seq(
            &mut pool_u,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::off(),
            false,
        );
        let mut pool_f = DevicePool::homogeneous(&Gpu::v100(), 2);
        let fused = batch_seq(
            &mut pool_f,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            false,
        );
        assert!(fused.fused_groups > 0, "nothing fused");
        for (u, f) in unfused.outcomes.iter().zip(&fused.outcomes) {
            assert_eq!(u.job_id, f.job_id);
            assert_eq!(u.x, f.x, "job {}: fusing changed the bits", u.job_id);
            assert_eq!(u.residual, f.residual);
            assert_eq!(u.corrections_run, f.corrections_run);
        }
        // fusing lifted throughput on these tiny systems
        assert!(
            fused.makespan_ms < unfused.makespan_ms,
            "fused {} ms vs unfused {} ms",
            fused.makespan_ms,
            unfused.makespan_ms
        );
        // members of one group share its interval and report its size
        let in_groups: Vec<&JobOutcome> = fused
            .outcomes
            .iter()
            .filter(|o| o.fused_group > 1)
            .collect();
        assert!(!in_groups.is_empty());
        for o in &in_groups {
            let twin = fused
                .outcomes
                .iter()
                .find(|t| t.job_id != o.job_id && t.fused_group > 1 && t.end_ms == o.end_ms);
            assert!(twin.is_some(), "job {} has no fused sibling", o.job_id);
        }
        // adaptive refunds are group-granular: a fused stage runs as
        // long as any sibling still iterates, so siblings share one
        // equal refund share — never per-member shares of passes a
        // sibling still executed
        for o in &in_groups {
            for t in fused
                .outcomes
                .iter()
                .filter(|t| t.fused_group > 1 && t.end_ms == o.end_ms)
            {
                assert_eq!(
                    o.refunded_ms, t.refunded_ms,
                    "jobs {} and {} share a group but not its refund",
                    o.job_id, t.job_id
                );
            }
        }
    }

    #[test]
    fn execute_round_is_lane_invariant() {
        // one round: a 2-member refinement group booked first, then
        // singletons — every lane count interprets every slot alike,
        // including lane counts that split the fused group and lane
        // counts past the task count
        let mut jobs = fusible_jobs(3, 92);
        jobs.retain(|j| j.cols() == 12);
        for j in &mut jobs {
            j.target_digits = 50;
        }
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        let planner = Planner::for_pool(&pool);
        let shape = JobShape::from(&jobs[0]);
        let (policy, seq) = (DispatchPolicy::LeastLoaded, StageSchedConfig::sequential());
        let mut dispatch = |members: Vec<usize>| {
            dispatch_group_staged(&mut pool, &planner, members, &shape, policy, &seq, 0.0)
        };
        let booked = [dispatch(vec![0, 1]), dispatch(vec![2]), dispatch(vec![0])];
        assert!(!booked[0].plan.is_direct(), "{}", booked[0].plan.summary());
        let round: Vec<(&GroupDispatch, Vec<&Job>)> = booked
            .iter()
            .map(|g| (g, g.jobs.iter().map(|&j| &jobs[j]).collect()))
            .collect();
        let serial = execute_round(&pool, &round, 1, 2, None);
        assert_eq!(serial.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1, 1]);
        for lanes in [2, 3, 8] {
            let parallel = execute_round(&pool, &round, lanes, 2, None);
            for (s, p) in serial.iter().flatten().zip(parallel.iter().flatten()) {
                assert_eq!(s.x, p.x, "{lanes} lanes changed the bits");
                assert_eq!(s.residual.to_bits(), p.residual.to_bits());
                assert_eq!(s.corrections_run, p.corrections_run);
            }
        }
        // member 0 rides in the group and alone: same solve either way
        assert_eq!(serial[0][0].x, serial[2][0].x);
        assert!(execute_round(&pool, &[], 4, 2, None).is_empty());
    }

    #[test]
    fn fused_batch_parallel_workers_agree_with_serial() {
        let jobs = fusible_jobs(6, 91);
        let cfg = MicrobatchConfig::default();
        let mut pool_s = DevicePool::homogeneous(&Gpu::v100(), 2);
        let serial = batch_seq(&mut pool_s, &jobs, DispatchPolicy::LeastLoaded, &cfg, false);
        let mut pool_p = DevicePool::homogeneous(&Gpu::v100(), 2);
        let parallel = batch_seq(&mut pool_p, &jobs, DispatchPolicy::LeastLoaded, &cfg, true);
        assert_eq!(serial.makespan_ms, parallel.makespan_ms);
        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.x, p.x, "job {} diverged across host threads", s.job_id);
        }
    }

    #[test]
    fn adaptive_refinement_reports_and_refunds_skipped_passes() {
        // 30-digit targets book 2 qd passes off a d1 factorization
        // ((k+1)·14 ≥ 30 needs k = 2), but each real pass on these
        // well-conditioned systems gains ~15 digits, so pass 1 already
        // lands near 1e-31 and the adaptive stop skips pass 2; the
        // outcome must report the true pass count and refund the booked
        // tail
        let mut jobs = little_jobs(9, 84);
        for j in &mut jobs {
            j.target_digits = 30;
        }
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        // fusion off: the per-job refund arithmetic below checks the
        // singleton plan's stage walls, not a fused group's shares
        let report = batch_seq(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::off(),
            false,
        );
        for out in &report.outcomes {
            assert!(out.corrections_run <= out.plan.corrections());
            let skipped = out.plan.corrections() - out.corrections_run;
            if skipped > 0 {
                assert!(
                    out.refunded_ms > 0.0,
                    "job {} skipped {skipped} passes but refunded nothing",
                    out.job_id
                );
            } else {
                assert_eq!(out.refunded_ms, 0.0);
            }
            // the refund is exactly the booked share of the skipped tail
            let tail: f64 = out.plan.stage_wall_ms[2 + 2 * out.corrections_run..]
                .iter()
                .sum();
            assert!((out.refunded_ms - tail).abs() < 1e-9);
        }
        // at least one refinement plan stopped early on this mix, or
        // the assertions above are vacuous
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.corrections_run < o.plan.corrections()),
            "no adaptive stop ever fired"
        );
        // and the pool's busy time reflects the refunds
        let refunded: f64 = report.outcomes.iter().map(|o| o.refunded_ms).sum();
        let stats_refund: f64 = report.device_stats.iter().map(|s| s.refunded_ms).sum();
        assert!((refunded - stats_refund).abs() < 1e-9);
    }

    #[test]
    fn a_panicking_solve_ahead_resurfaces_on_the_caller() {
        // a plan for a wider system than the job's: interpreting it panics
        let job = Arc::new(little_jobs(1, 0xbad).remove(0));
        let gpu = Gpu::v100();
        let wrong = Planner::new().plan(&gpu, 12, 12, job.target_digits);
        let ahead = SolveAhead::new(gpu.clone(), 0);
        let urgency = Urgency {
            priority: 0,
            deadline_ms: f64::INFINITY,
            arrival: 0,
        };
        ahead.register(urgency, &job, wrong.clone());
        if gpusim::host_workers() >= 2 {
            // let the worker take the task and catch its panic
            while ahead.worker_solves() == 0 {
                std::thread::yield_now();
            }
        }
        let solved = catch_unwind(AssertUnwindSafe(|| ahead.solve(&gpu, &job, &wrong, 0)));
        assert!(solved.is_err(), "the mismatched plan solved");
        // the lane still works, and drops cleanly
        let plan = Planner::new().plan(&gpu, job.rows(), job.cols(), job.target_digits);
        ahead.register(urgency, &job, plan.clone());
        let s = ahead.solve(&gpu, &job, &plan, 0);
        assert_eq!(s.x, solve_planned_traced_with(&gpu, &job, &plan, 0).x);
    }

    #[test]
    fn a_result_solved_under_another_plan_is_never_taken() {
        // a job down-laddered after its task was solved: the execute
        // step must solve it again under the plan it was booked with
        let job = Arc::new(little_jobs(3, 0x1add).remove(2));
        let gpu = Gpu::v100();
        let planner = Planner::new();
        let asked = planner.plan(&gpu, job.rows(), job.cols(), job.target_digits);
        let booked = planner.plan(&gpu, job.rows(), job.cols(), 12);
        assert_ne!(asked.stages, booked.stages, "the rungs must differ");
        let ahead = SolveAhead::new(gpu.clone(), 0);
        let urgency = Urgency {
            priority: 0,
            deadline_ms: f64::INFINITY,
            arrival: 0,
        };
        ahead.register(urgency, &job, asked);
        if gpusim::host_workers() >= 2 {
            while ahead.worker_solves() == 0 {
                std::thread::yield_now();
            }
        }
        let s = ahead.solve(&gpu, &job, &booked, 0);
        assert_eq!(s.x, solve_planned_traced_with(&gpu, &job, &booked, 0).x);
    }
}
