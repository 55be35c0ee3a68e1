//! Fault tolerance and admission: the phases of the batch loop that are
//! no-ops on a quiet pool — deadline-driven admission at ingress,
//! seeded device-fault injection, and retry/re-dispatch recovery.
//!
//! [`solve_batch_resilient`] is the one batch loop (`run_batch` in
//! [`crate::batch`]) with every phase switched on by a
//! [`ResilienceConfig`]; this module holds the configuration and the
//! steps the loop, the stream and the service shell share:
//!
//! * **Admission** (`admit`) — before anything is booked, every
//!   deadlined job is previewed against the surviving pool
//!   ([`DevicePool::preview_stages`]). A job whose requested digits
//!   cannot meet its deadline on *any* surviving device is down-laddered
//!   to the cheapest precision rung that can
//!   ([`Disposition::Degraded`], with the original request kept on
//!   [`JobOutcome::requested_digits`]) or, when no rung fits, shed at
//!   the door ([`Disposition::Shed`]) instead of burning device time on
//!   a guaranteed miss.
//! * **Sticky device loss** (`recover`) — each device model may carry a
//!   seeded [`FaultPlan`](gpusim::FaultPlan). When a plan says the
//!   device dies at `t`, the recover step decides when that loss comes
//!   due — for every driver — and has the pool mark the device lost
//!   ([`DevicePool::fail_device`]): unexecuted booked spans become
//!   refunds and every interrupted group is re-planned and re-dispatched
//!   onto the survivors ([`Disposition::Retried`]) — a started-but-lost
//!   stage re-runs from its factorization, so recovery costs time but
//!   never changes arithmetic. Only when no device survives do the
//!   interrupted jobs end [`Disposition::Failed`]. The batch loop and
//!   the stream recover in the same round function; `serve` re-queues
//!   what a loss interrupts instead.
//! * **Transient kernel faults** (`batch::replay_transients`) — à la ECC
//!   replay: each transient in the device's seeded schedule that lands
//!   inside a group's executed interval books one bounded,
//!   exponentially backed-off replay of the group's steady-state pass
//!   (one retry cap and one backoff base for batch, stream and `serve`).
//!   Retries only extend *simulated time*; the solution bits are
//!   exactly the fault-free solve's.
//!
//! Faults are **data, not entropy**: the schedule is fixed by
//! [`FaultPlan::seeded`](gpusim::FaultPlan::seeded) before the batch
//! starts, no wall clock or global RNG is consulted anywhere, and the
//! whole run — losses, retries, down-ladders, sheds — replays
//! bit-identically from the same seeds.

use std::sync::Arc;

use crate::batch::{run_batch, BatchReport, Disposition, JobOutcome};
use crate::job::{Job, Precision, Solution, SubmitError};
use crate::microbatch::MicrobatchConfig;
use crate::plan::ExecPlan;
use crate::planner::Planner;
use crate::pool::{DeviceLossReport, DevicePool};
use crate::scheduler::{DispatchPolicy, StageSchedConfig};
use mdls_obs::Event;

/// Ingress admission control for deadlined jobs: a request no
/// surviving device can finish in time is down-laddered to the nearest
/// cheaper precision rung that fits, or shed when none does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Master switch: when false, every job is admitted as requested.
    pub enabled: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { enabled: true }
    }
}

/// The full resilience configuration of a batch run. Fault recovery
/// itself has no knob: an interrupted group always re-dispatches onto
/// the survivors, and transients replay under one fixed retry cap.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Ingress admission.
    pub admission: AdmissionConfig,
}

/// What the admit step made of one job: run it at `digits` (below the
/// digits it was previewed at when admission just lowered them), or the
/// tombstone of a job shed at the door.
pub(crate) enum Admitted {
    Run { digits: u32 },
    Shed(Box<JobOutcome>),
}

/// The admit step of every engine (batch ingress, the stream's
/// pop-time and loss-time previews, the service shell's dispatch):
/// preview `job` at its *current* `digits` — the service's overload
/// ladder may already have lowered them below `job.target_digits` —
/// against the surviving pool no earlier than `release`, announce a
/// down-ladder ([`Event::JobDegraded`]) or a shed ([`Event::JobShed`])
/// and build the shed job's tombstone stamped `tomb_at` (which keeps
/// the digits the job originally requested).
pub(crate) fn admit(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    digits: u32,
    overlap: bool,
    release: f64,
    tomb_at: f64,
    cfg: &AdmissionConfig,
) -> Admitted {
    match admit_job(pool, planner, job, digits, overlap, release, cfg) {
        Ok(to_digits) => {
            if to_digits != digits {
                pool.emit(|| Event::JobDegraded {
                    job: job.id,
                    from_digits: digits,
                    to_digits,
                });
            }
            Admitted::Run { digits: to_digits }
        }
        Err(predicted_end_ms) => {
            let ev = || Event::JobShed {
                job: job.id,
                deadline_ms: job.deadline_ms.unwrap_or(0.0),
                predicted_end_ms,
            };
            Admitted::Shed(Box::new(shed_tombstone(
                pool, planner, job, digits, tomb_at, ev,
            )))
        }
    }
}

/// Earliest predicted completion of a singleton solve of `job`'s
/// system at `digits` over the surviving devices, no earlier than
/// `release` — the admission controller's crystal ball, the same
/// [`DevicePool::preview_stages`] the staged dispatcher books by.
#[expect(clippy::disallowed_methods, reason = "admission's preview")]
fn earliest_end(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    digits: u32,
    overlap: bool,
    release: f64,
) -> f64 {
    let mut best = f64::INFINITY;
    for d in pool.devices().iter().filter(|d| !d.is_lost()) {
        let (plan, fused) = planner.plan_fused(&d.gpu, job.rows(), job.cols(), digits, 1);
        let reqs = fused.booking_reqs(ExecPlan::booked_stages(plan.corrections()));
        best = best.min(pool.preview_stages(d.id, &reqs, overlap, release));
    }
    best
}

/// Decide one job's fate at ingress: `Ok` with the digits to run at,
/// or `Err` with the predicted completion at the current digits (the
/// miss magnitude) when the job should be shed. Deadline-free jobs
/// always run as they are; a deadlined job runs at the cheapest
/// acceptable digits — its current `digits` when they fit, else the
/// highest cheaper rung that fits, else it is shed.
fn admit_job(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    digits: u32,
    overlap: bool,
    release: f64,
    cfg: &AdmissionConfig,
) -> Result<u32, f64> {
    let Some(deadline) = job.deadline_ms else {
        return Ok(digits);
    };
    if !cfg.enabled || pool.alive_count() == 0 {
        return Ok(digits);
    }
    let end_at = |digits: u32| earliest_end(pool, planner, job, digits, overlap, release);
    let requested_end = end_at(digits);
    if requested_end <= deadline {
        return Ok(digits);
    }
    // walk the ladder downward: the nearest cheaper rung that fits
    // loses the fewest digits
    let requested_rung = Precision::for_digits(digits);
    for rung in Precision::LADDER
        .into_iter()
        .rev()
        .filter(|r| *r < requested_rung)
    {
        if end_at(rung.digits()) <= deadline {
            return Ok(rung.digits());
        }
    }
    Err(requested_end)
}

/// A terminal outcome for a job that never ran (shed at ingress) or
/// never finished (lost with no device left to recover on). `end_ms` is
/// the moment the verdict fell: the release for a shed job, the loss
/// time for a failed one.
pub(crate) fn tombstone_outcome(
    job: &Job,
    plan: Arc<ExecPlan>,
    device: usize,
    disposition: Disposition,
    end_ms: f64,
) -> JobOutcome {
    JobOutcome {
        job_id: job.id,
        device,
        plan,
        x: Solution::D1(Vec::new()),
        residual: f64::INFINITY,
        achieved_digits: 0.0,
        start_ms: end_ms,
        end_ms,
        fused_group: 1,
        corrections_run: 0,
        refunded_ms: 0.0,
        extended_ms: 0.0,
        priority: job.priority,
        release_ms: job.release(),
        deadline_ms: job.deadline_ms,
        disposition,
        requested_digits: job.target_digits,
        tenant: job.tenant,
    }
}

/// The tombstone of a job turned away before it ran: emit `ev` (the
/// caller's shed event), price the reference plan at `digits` on the
/// first surviving device's model, and build the [`Disposition::Shed`]
/// outcome stamped `at_ms` — shared by [`admit`] and the service
/// shell's queue, overload and starvation sheds.
pub(crate) fn shed_tombstone(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    digits: u32,
    at_ms: f64,
    ev: impl FnOnce() -> Event,
) -> JobOutcome {
    pool.emit(ev);
    let device = pool
        .devices()
        .iter()
        .find(|d| !d.is_lost())
        .map_or(0, |d| d.id);
    let (plan, _) = planner.plan_fused(pool.gpu(device), job.rows(), job.cols(), digits, 1);
    tombstone_outcome(job, plan, device, Disposition::Shed, at_ms)
}

/// The tombstone of a job [`Job::validate`] refused: emit
/// [`Event::JobInvalid`] and build the [`Disposition::Invalid`] outcome
/// on an unpriced plan, stamped at the job's release (0 when that is
/// not finite). The planner never sees the job — its shape may be one
/// the planner cannot price.
pub(crate) fn invalid_tombstone(pool: &DevicePool, job: &Job, err: SubmitError) -> JobOutcome {
    pool.emit(|| Event::JobInvalid {
        tenant: job.tenant.0,
        job: job.id,
        reason: err.reason(),
    });
    let at_ms = Some(job.release()).filter(|t| t.is_finite()).unwrap_or(0.0);
    let mut o = tombstone_outcome(
        job,
        Arc::new(ExecPlan::unpriced(job.target_digits)),
        0,
        Disposition::Invalid,
        at_ms,
    );
    o.release_ms = at_ms;
    o
}

/// The recover step of every engine, and the one place a sticky loss
/// comes due: apply the oldest loss (ties to the lowest device id) that
/// a surviving device's fault plan schedules at or before `until_ms` —
/// the driver's clock — or inside unsettled work already booked on the
/// device, which the loss then interrupts. `only` restricts the search
/// to one device. Returns what [`DevicePool::fail_device`] took down;
/// `None` when nothing is due, after an allocation-free scan of the
/// devices' loss instants on a quiet pool.
///
/// The batch loop passes `until_ms = ∞` (it has booked its whole
/// future); the stream passes `−∞` while it runs (its future is not
/// booked yet, so a loss comes due with the first booking it
/// interrupts) and `∞` once drained; `serve` passes its event clock,
/// and `−∞` on one device when it settles a dispatch there.
#[expect(
    clippy::disallowed_methods,
    reason = "the recover step owns sticky losses"
)]
pub(crate) fn recover(
    pool: &mut DevicePool,
    until_ms: f64,
    only: Option<usize>,
) -> Option<DeviceLossReport> {
    let (device, at_ms) = pool
        .devices()
        .iter()
        .filter(|d| !d.is_lost() && only.is_none_or(|id| id == d.id))
        .filter_map(|d| d.gpu.fault.lost_at_ms().map(|t| (d.id, t)))
        .filter(|&(id, t)| t <= until_ms || pool.has_work_past(id, t))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))?;
    Some(pool.fail_device(device, at_ms))
}

/// Solve `jobs` on `pool` with admission, fault injection and recovery:
/// the one batch loop with every phase live —
/// admit → book → recover sticky losses → execute → settle (+ transient
/// replays) → report. Fault schedules are read from each pooled
/// device's [`Gpu::fault`](gpusim::Gpu) plan (attach one with
/// [`DevicePool::set_fault_plan`]); with every plan quiet and no
/// deadlines the extra phases do nothing and this *is*
/// [`crate::batch::solve_batch_staged_with`], outcomes and timelines alike.
///
/// Every job ends in an explicit [`Disposition`] on its outcome, and
/// every *completed* job's solution is bit-identical to the fault-free
/// run's — recovery and retries move simulated time, never arithmetic.
pub fn solve_batch_resilient(
    pool: &mut DevicePool,
    jobs: &[Job],
    policy: DispatchPolicy,
    micro: &MicrobatchConfig,
    sched: &StageSchedConfig,
    cfg: &ResilienceConfig,
) -> BatchReport {
    run_batch(pool, jobs, policy, micro, sched, cfg, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{FaultPlan, Gpu};
    use mdls_matrix::HostMat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diag_jobs(count: usize, n: usize, digits: u32, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count as u64)
            .map(|id| {
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
    fn quiet_plans_and_no_deadlines_match_the_staged_engine() {
        let jobs = diag_jobs(8, 8, 25, 0xfa01);
        let micro = MicrobatchConfig::default();
        let sched = StageSchedConfig::staged();
        let mut pool_a = DevicePool::homogeneous(&Gpu::v100(), 2);
        let a = crate::batch::solve_batch_staged_with(
            &mut pool_a,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &micro,
            &sched,
            false,
        );
        let mut pool_b = DevicePool::homogeneous(&Gpu::v100(), 2);
        let b = solve_batch_resilient(
            &mut pool_b,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &micro,
            &sched,
            &ResilienceConfig::default(),
        );
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.job_id, y.job_id);
            assert_eq!(
                x.x, y.x,
                "job {}: resilience wrapper changed bits",
                x.job_id
            );
            assert_eq!(x.end_ms, y.end_ms);
            assert_eq!(y.disposition, Disposition::Ok);
        }
        assert_eq!(a.makespan_ms, b.makespan_ms);
    }

    #[test]
    fn transient_faults_retry_and_extend_time_not_bits() {
        let jobs = diag_jobs(4, 8, 25, 0xfa02);
        let micro = MicrobatchConfig::off();
        let sched = StageSchedConfig::staged();
        let mut quiet = DevicePool::homogeneous(&Gpu::v100(), 1);
        let base = solve_batch_resilient(
            &mut quiet,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &micro,
            &sched,
            &ResilienceConfig::default(),
        );
        let mut noisy = DevicePool::homogeneous(&Gpu::v100(), 1);
        // a dense transient schedule: mean gap well under the batch span
        noisy.set_fault_plan(0, FaultPlan::seeded(11, 1.0e4, 50.0));
        let hit = solve_batch_resilient(
            &mut noisy,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &micro,
            &sched,
            &ResilienceConfig::default(),
        );
        assert!(
            hit.outcomes
                .iter()
                .any(|o| o.disposition == Disposition::Retried),
            "no transient landed inside the batch window"
        );
        for (b, h) in base.outcomes.iter().zip(&hit.outcomes) {
            assert_eq!(b.x, h.x, "job {}: a retry changed the bits", b.job_id);
            assert!(h.end_ms >= b.end_ms);
            // a replay books strictly after the settled end, so every
            // retried job finishes later than its fault-free twin
            if h.disposition == Disposition::Retried {
                assert!(h.end_ms > b.end_ms, "job {}: free retry", h.job_id);
            }
        }
        assert!(hit.makespan_ms >= base.makespan_ms);
    }

    #[test]
    fn unmeetable_deadline_sheds_and_is_not_a_miss() {
        let mut jobs = diag_jobs(3, 8, 25, 0xfa03);
        jobs[1].deadline_ms = Some(1.0e-6); // nothing finishes this fast
        let micro = MicrobatchConfig::off();
        let sched = StageSchedConfig::staged();
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let report = solve_batch_resilient(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &micro,
            &sched,
            &ResilienceConfig::default(),
        );
        let shed = &report.outcomes[1];
        assert_eq!(shed.disposition, Disposition::Shed);
        assert!(!shed.missed_deadline(), "a shed job is not a miss");
        assert_eq!(report.latency.shed, 1);
        assert_eq!(report.latency.deadline_misses, 0);
        // the other two ran normally
        assert_eq!(report.outcomes[0].disposition, Disposition::Ok);
        assert_eq!(report.outcomes[2].disposition, Disposition::Ok);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| o.disposition.completed())
                .count(),
            2
        );
    }
}
