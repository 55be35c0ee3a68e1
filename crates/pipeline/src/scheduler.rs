//! The scheduler: policy-driven placement of planned jobs onto the
//! device pool.
//!
//! Placement is a pluggable [`DispatchPolicy`]:
//!
//! * [`DispatchPolicy::LeastLoaded`] — the greedy rule: the job goes to
//!   the earliest-idle simulated clock (ties to the lowest id), then is
//!   planned *for that device's model*. Cheap (one plan per dispatch)
//!   but blind to device speed: on a mixed pool an idle P100 wins over
//!   an A100 that would finish the job sooner.
//! * [`DispatchPolicy::ShortestExpectedCompletion`] — plans the job on
//!   *every* device model, previews the booking on each device's
//!   timeline ([`DevicePool::preview_stages`]) and commits where it
//!   completes first (ties to the lowest id). The planner's memo table
//!   makes the extra plans nearly free — a pool mixes a handful of
//!   device models, so each (shape, model) pair is planned once per run.
//!
//! There is one dispatch step — place, then book the group's stages on
//! the chosen device's timeline ([`crate::microbatch`]) — and
//! [`StageSchedConfig`] says *how* the stages are booked.
//! [`dispatch_one`] is that step for a single job with
//! [`StageSchedConfig::sequential`]: its stages tile one contiguous
//! interval, so a refinement plan is costed as a whole.
//!
//! Because the analytic timing model is data-independent, the predicted
//! wall clock of a plan *is* the modeled wall clock of the functional
//! solve (asserted by `functional_and_model_profiles_agree` in the seed
//! suite), so schedules built from predictions are exact. And because a
//! policy only chooses *placement*, never solver options beyond the
//! per-device plan, solutions are bit-identical across policies.

use std::sync::Arc;

use crate::job::Job;
use crate::microbatch::{dispatch_group_staged, GroupDispatch};
use crate::plan::ExecPlan;
use crate::planner::Planner;
use crate::pool::{DevicePool, PoolDevice, RebookMode};

/// How the scheduler picks a device for the next job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Greedy: earliest-idle device clock wins, ties to the lowest id.
    /// (Tilings are tuned on the reference model, not per device, so
    /// numerics are placement-invariant — see [`crate::planner`].)
    #[default]
    LeastLoaded,
    /// Plan the job on every device and commit where the previewed
    /// booking completes first, ties to the lowest id.
    /// Strictly better informed on heterogeneous pools.
    ShortestExpectedCompletion,
}

impl DispatchPolicy {
    /// Short label for tables and logs.
    pub fn tag(self) -> &'static str {
        match self {
            DispatchPolicy::LeastLoaded => "greedy",
            DispatchPolicy::ShortestExpectedCompletion => "sect",
        }
    }
}

/// How the dispatch step books, overlaps and re-books plan stages on
/// the pool's timelines. The default ([`StageSchedConfig::staged`])
/// turns everything on; [`StageSchedConfig::sequential`] books each
/// dispatch's stages as one contiguous interval — one opaque span per
/// plan, the A/B control. None of these knobs ever changes which arithmetic
/// runs for a *booked* pass: overlap and re-booking move work through
/// simulated time only. `max_extra_passes` is the one exception by
/// design — it lets a stalled refinement run extra passes past its
/// plan, and must therefore match across runs being compared for bit
/// identity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageSchedConfig {
    /// Book each stage's prep (host + transfer) and compute (kernels +
    /// gaps) on independent per-device lanes, letting the next job's
    /// factorization prep hide under the current job's device work.
    pub overlap: bool,
    /// What settlement does with the booked tail an adaptive early stop
    /// never ran ([`DevicePool::rebook`]): write it off the busy books
    /// only ([`RebookMode::BooksOnly`]), or free it wherever it sits and
    /// slide later queued dispatches left into the hole
    /// ([`RebookMode::Compact`]).
    pub refund: RebookMode,
    /// Book the planner's *expected* pass count instead of the
    /// structural worst case; execution divergence is absorbed by
    /// re-booking (shrink) or extension (grow).
    pub book_expected: bool,
    /// Extra residual/correct passes a stalled job may run past its
    /// plan when the measured residual is still improving but has not
    /// certified the target (0 = stop at the plan's pass count).
    pub max_extra_passes: usize,
}

impl StageSchedConfig {
    /// Everything on: overlapped lanes, expected-pass booking, online
    /// re-booking, and pass extension for stalled jobs.
    pub const fn staged() -> Self {
        StageSchedConfig {
            overlap: true,
            refund: RebookMode::Compact,
            book_expected: true,
            max_extra_passes: 4,
        }
    }

    /// Contiguous stage booking: a dispatch's stage intervals tile one
    /// composed interval, refunds only come off the busy books, and
    /// nothing extends — the baseline every other schedule is compared
    /// against, and what [`crate::solve_batch`] books with.
    pub fn sequential() -> Self {
        StageSchedConfig {
            overlap: false,
            refund: RebookMode::BooksOnly,
            book_expected: false,
            max_extra_passes: 0,
        }
    }
}

impl Default for StageSchedConfig {
    fn default() -> Self {
        StageSchedConfig::staged()
    }
}

/// The scheduling-relevant part of a job: its shape and accuracy target.
/// Equality/hashing make it the fusion key of the micro-batcher: jobs
/// sharing a `JobShape` share a plan structure and may fuse into one
/// batched launch sequence (see [`crate::microbatch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobShape {
    /// Rows `m`.
    pub rows: usize,
    /// Columns `n`.
    pub cols: usize,
    /// Required decimal digits.
    pub target_digits: u32,
}

impl From<&Job> for JobShape {
    fn from(job: &Job) -> Self {
        JobShape {
            rows: job.rows(),
            cols: job.cols(),
            target_digits: job.target_digits,
        }
    }
}

/// One scheduled solve.
#[derive(Clone, Debug)]
pub struct Dispatch {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Pool id of the device the job runs on.
    pub device: usize,
    /// The staged plan chosen for this job on that device; the
    /// executor interprets its stages.
    pub plan: Arc<ExecPlan>,
    /// Simulated start time on the device, ms.
    pub start_ms: f64,
    /// Simulated completion time on the device, ms.
    pub end_ms: f64,
}

impl From<GroupDispatch> for Dispatch {
    /// The single-job view of a group of one.
    fn from(g: GroupDispatch) -> Dispatch {
        Dispatch {
            job: g.jobs[0],
            device: g.device,
            plan: g.plan,
            start_ms: g.start_ms,
            end_ms: g.end_ms,
        }
    }
}

/// The place step of every engine: pick a device among the surviving
/// devices `eligible` admits (all of them for a batch or stream
/// dispatch, the free breaker-closed ones for the service shell, the
/// one suspect device for its probes) and price the candidate for it.
/// Least-loaded takes the earliest-idle clock (ties to the lowest id)
/// and prices only the device it chose; SECT prices the candidate on
/// every eligible device, `preview`s that priced booking on the
/// device's stage timeline (lane cursors, overlap, release — whatever
/// the caller encodes) and commits where the previewed end is minimal,
/// ties to the lowest id — so what it previewed is what gets booked.
/// `None` when no device is eligible.
pub(crate) fn place_by_end<T>(
    pool: &DevicePool,
    policy: DispatchPolicy,
    eligible: impl Fn(&PoolDevice) -> bool,
    price: impl Fn(&PoolDevice) -> T,
    preview: impl Fn(&PoolDevice, &T) -> f64,
) -> Option<(usize, T)> {
    match policy {
        DispatchPolicy::LeastLoaded => pool
            .least_loaded_where(eligible)
            .map(|id| (id, price(&pool.devices()[id]))),
        DispatchPolicy::ShortestExpectedCompletion => pool
            .devices()
            .iter()
            .filter(|d| !d.is_lost() && eligible(d))
            .map(|d| {
                let priced = price(d);
                let end_ms = preview(d, &priced);
                pool.emit(|| mdls_obs::Event::SectPreview {
                    device: d.id,
                    end_ms,
                });
                (end_ms, d.id, priced)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, id, priced)| (id, priced)),
    }
}

/// Dispatch one job: pick a device under `policy`, plan the job for
/// that device's model, and book its stages contiguously
/// ([`StageSchedConfig::sequential`]) — a group of one through
/// [`dispatch_group_staged`].
pub fn dispatch_one(
    pool: &mut DevicePool,
    planner: &Planner,
    job: usize,
    shape: &JobShape,
    policy: DispatchPolicy,
) -> Dispatch {
    let seq = StageSchedConfig::sequential();
    dispatch_group_staged(pool, planner, vec![job], shape, policy, &seq, 0.0).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbatch::placement_order;
    use gpusim::Gpu;

    /// Book every shape alone and contiguously, in the batch loop's
    /// placement order (longest first under SECT); the dispatches come
    /// back in submission order.
    fn book_each(
        pool: &mut DevicePool,
        planner: &Planner,
        shapes: &[JobShape],
        policy: DispatchPolicy,
    ) -> Vec<Dispatch> {
        let singletons: Vec<Vec<usize>> = (0..shapes.len()).map(|i| vec![i]).collect();
        let mut booked: Vec<(usize, Dispatch)> =
            placement_order(pool, planner, shapes, &singletons, policy)
                .into_iter()
                .map(|i| (i, dispatch_one(pool, planner, i, &shapes[i], policy)))
                .collect();
        booked.sort_by_key(|(i, _)| *i);
        booked.into_iter().map(|(_, d)| d).collect()
    }

    fn mixed_shapes() -> Vec<JobShape> {
        let mut shapes = Vec::new();
        for i in 0..24 {
            let cols = [16, 24, 32, 48][i % 4];
            shapes.push(JobShape {
                rows: cols + 8 * (i % 3),
                cols,
                target_digits: [12, 25, 50][i % 3],
            });
        }
        shapes
    }

    #[test]
    fn makespan_shrinks_as_devices_grow() {
        let shapes = mixed_shapes();
        for policy in [
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::ShortestExpectedCompletion,
        ] {
            let mut prev = f64::INFINITY;
            for n in 1..=4 {
                let mut pool = DevicePool::homogeneous(&Gpu::v100(), n);
                book_each(&mut pool, &Planner::new(), &shapes, policy);
                let makespan = pool.makespan_ms();
                assert!(
                    makespan < prev,
                    "{}: makespan {makespan} ms did not shrink at {n} devices (was {prev})",
                    policy.tag()
                );
                prev = makespan;
            }
        }
    }

    #[test]
    fn dispatch_covers_all_devices_and_jobs() {
        let shapes = mixed_shapes();
        let mut pool = DevicePool::homogeneous(&Gpu::a100(), 3);
        let dispatches = book_each(
            &mut pool,
            &Planner::new(),
            &shapes,
            DispatchPolicy::LeastLoaded,
        );
        assert_eq!(dispatches.len(), shapes.len());
        for d in 0..3 {
            assert!(
                dispatches.iter().any(|x| x.device == d),
                "device {d} never used"
            );
        }
        // per-device intervals are contiguous and non-overlapping
        for d in 0..3 {
            let mut clock = 0.0;
            for x in dispatches.iter().filter(|x| x.device == d) {
                assert_eq!(x.start_ms, clock);
                assert!(x.end_ms > x.start_ms);
                clock = x.end_ms;
            }
        }
        assert_eq!(pool.total_solves(), shapes.len() as u64);
    }

    #[test]
    fn heterogeneous_pool_plans_per_device() {
        // same shape, two device models: the planner runs per device
        let shapes = vec![
            JobShape {
                rows: 96,
                cols: 96,
                target_digits: 25
            };
            8
        ];
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::rtx2080()]);
        let planner = Planner::new();
        let dispatches = book_each(&mut pool, &planner, &shapes, DispatchPolicy::LeastLoaded);
        // both devices got work, and the predicted cost differs by model
        let v = dispatches.iter().find(|d| d.device == 0).unwrap();
        let r = dispatches.iter().find(|d| d.device == 1).unwrap();
        assert_ne!(v.plan.predicted_ms, r.plan.predicted_ms);
    }

    #[test]
    fn per_arrival_policies_agree_on_homogeneous_pools() {
        // identical devices: `clock + predicted` ranks devices exactly
        // like `clock` alone, so a single SECT dispatch reduces to
        // least-loaded
        let shapes = mixed_shapes();
        let planner = Planner::new();
        let mut greedy = DevicePool::homogeneous(&Gpu::v100(), 3);
        let mut sect = DevicePool::homogeneous(&Gpu::v100(), 3);
        for (i, shape) in shapes.iter().enumerate() {
            let g = dispatch_one(&mut greedy, &planner, i, shape, DispatchPolicy::LeastLoaded);
            let s = dispatch_one(
                &mut sect,
                &planner,
                i,
                shape,
                DispatchPolicy::ShortestExpectedCompletion,
            );
            assert_eq!(g.device, s.device, "job {i} placed differently");
            assert_eq!(g.end_ms, s.end_ms);
        }
    }

    #[test]
    fn batch_sect_returns_submission_order() {
        // LPT reorders placement internally; the returned dispatches
        // must still line up with the submitted shapes
        let shapes = mixed_shapes();
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        let planner = Planner::new();
        let ds = book_each(
            &mut pool,
            &planner,
            &shapes,
            DispatchPolicy::ShortestExpectedCompletion,
        );
        assert_eq!(ds.len(), shapes.len());
        for (i, (d, s)) in ds.iter().zip(&shapes).enumerate() {
            assert_eq!(d.job, i);
            let expect = planner.plan(pool.gpu(d.device), s.rows, s.cols, s.target_digits);
            assert_eq!(d.plan, expect, "job {i} carries the wrong plan");
            assert!((d.end_ms - d.start_ms - expect.predicted_ms).abs() < 1e-9);
        }
        assert_eq!(pool.total_solves(), shapes.len() as u64);
    }

    #[test]
    fn sect_prefers_the_sooner_finishing_device() {
        // a slow P100 idles at t=0; a fast A100 is busy until t=1. The
        // greedy rule books the P100 (idle now); SECT books whichever
        // finishes first. For a deep 8d solve the A100's speed advantage
        // dwarfs 1 ms of queueing, so the policies must split.
        let shape = JobShape {
            rows: 256,
            cols: 256,
            target_digits: 100,
        };
        let planner = Planner::new();
        let busy = crate::pool::StageReq {
            host_ms: 0.0,
            device_ms: 1.0,
        };

        let mut pool = DevicePool::new(vec![Gpu::a100(), Gpu::p100()]);
        pool.commit_stages(0, &[busy], 0.8, 1.0e6, 1, false, 0.0);
        let g = dispatch_one(&mut pool, &planner, 0, &shape, DispatchPolicy::LeastLoaded);
        assert_eq!(g.device, 1, "greedy must take the idle P100");

        let mut pool = DevicePool::new(vec![Gpu::a100(), Gpu::p100()]);
        pool.commit_stages(0, &[busy], 0.8, 1.0e6, 1, false, 0.0);
        let s = dispatch_one(
            &mut pool,
            &planner,
            0,
            &shape,
            DispatchPolicy::ShortestExpectedCompletion,
        );
        assert_eq!(s.device, 0, "SECT must queue behind the faster A100");
        assert!(
            s.end_ms < g.end_ms,
            "SECT completion {} not before greedy's {}",
            s.end_ms,
            g.end_ms
        );
    }
}
