//! Device-level micro-batching and the one dispatch step: fuse small
//! same-shaped solves into batched launch sequences and book them on
//! the pool's stage timelines.
//!
//! The paper's workloads are dominated by systems small enough that a
//! single QR badly underfills one GPU — wave quantization leaves most
//! multiprocessors idle for a single-digit grid, and every launch pays
//! its full base and gap for a sliver of work. The pool parallelizes
//! *across* devices; this module batches *within* a device, the
//! standard batched-LA trick (cf. cuBLAS/MAGMA batched QR): jobs that
//! share a [`JobShape`] — and therefore a plan structure — are grouped
//! into **fused groups** whose stages run as single launches carrying
//! every member's blocks.
//!
//! * **Grouping** ([`plan_groups`]): jobs are bucketed by shape key in
//!   submission order and chunked at the occupancy-aware preferred
//!   group size ([`Planner::preferred_group_size`]) — the smallest
//!   group whose fused grid reaches the per-job cost plateau of the
//!   device's wave structure. Bigger groups would only add latency (a
//!   fused group completes as a whole).
//! * **Dispatch** ([`dispatch_group_staged`]): a fused group is placed
//!   like one job, under the same [`DispatchPolicy`] rules, and booked
//!   at its *fused* price ([`Planner::plan_fused`]) — one stage booking
//!   of the group's [`FusedProfile`] instead of `k` singleton bookings.
//!   A singleton is a group of one and books exactly the singleton
//!   plan; every batch, stream and service dispatch goes through this
//!   step (the service shell only narrows which devices are eligible).
//! * **Execution** (`execute_round` in [`crate::batch`]): fusing packs
//!   the *booking*; execution interprets one member per task, on host
//!   lanes that pull jobs and have no device identity. Each member runs
//!   exactly that job's own launch sequence, so solutions are
//!   bit-identical to the unfused path — fusing is launch packing,
//!   never different arithmetic.

use std::ops::Deref;
use std::sync::Arc;

use crate::plan::{ExecPlan, FusedProfile};
use crate::planner::Planner;
use crate::pool::{DevicePool, PoolDevice, StageBooking, StageReq, StageVec};
use crate::scheduler::{place_by_end, DispatchPolicy, JobShape, StageSchedConfig};
use mdls_obs::Event;

/// Configuration of the micro-batcher.
#[derive(Clone, Copy, Debug)]
pub struct MicrobatchConfig {
    /// Hard cap on fused-group size. Groups larger than the occupancy
    /// sweet spot buy nothing (the per-job cost has plateaued) and cost
    /// latency, so this is a guard rail, not a tuning knob.
    pub max_group: usize,
    /// Sweet-spot tolerance: the chosen group is the smallest whose
    /// fused per-job cost is within `1 + tolerance` of the best
    /// candidate's.
    pub tolerance: f64,
}

impl Default for MicrobatchConfig {
    fn default() -> Self {
        MicrobatchConfig {
            max_group: 64,
            tolerance: 0.05,
        }
    }
}

impl MicrobatchConfig {
    /// Fusion disabled: every job dispatches as a singleton group,
    /// booked at its singleton price.
    pub fn off() -> Self {
        MicrobatchConfig {
            max_group: 1,
            tolerance: 0.0,
        }
    }

    /// True when this configuration never fuses anything.
    pub fn is_off(&self) -> bool {
        self.max_group <= 1
    }
}

/// The member job slots of a dispatch, in dispatch order: a singleton's
/// one slot is stored inline (most dispatches — every `serve` launch —
/// are singletons, and a `Vec` of one is a heap allocation each), a fused
/// group's in a `Vec`. Reads as a `[usize]`.
#[derive(Clone, Debug)]
pub enum Members {
    /// A singleton dispatch's one slot.
    One([usize; 1]),
    /// A fused group's slots.
    Many(Vec<usize>),
}

impl Members {
    /// A singleton dispatch of slot `j`.
    pub fn one(j: usize) -> Self {
        Members::One([j])
    }
}

impl Deref for Members {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        match self {
            Members::One(j) => j,
            Members::Many(v) => v,
        }
    }
}

impl From<Vec<usize>> for Members {
    fn from(v: Vec<usize>) -> Self {
        match v[..] {
            [j] => Members::one(j),
            _ => Members::Many(v),
        }
    }
}

/// One scheduled fused group: the member job slots, the shared
/// singleton plan, the fused pricing the pool booked, and the group's
/// simulated interval. A group of one is an ordinary singleton
/// dispatch (its fused price *is* the singleton price).
#[derive(Clone, Debug)]
pub struct GroupDispatch {
    /// Member job slots, in dispatch order. On the batch path these
    /// are indices into the submitted job slice; on the stream path —
    /// where jobs come from an iterator, not a slice — they are running
    /// dispatch sequence numbers and index nothing.
    pub jobs: Members,
    /// Pool id of the device the group runs on.
    pub device: usize,
    /// The plan structure every member runs (identical arithmetic to
    /// an unfused dispatch of the same job), shared with the planner's
    /// memo.
    pub plan: Arc<ExecPlan>,
    /// The fused pricing booked for the whole group.
    pub fused: Arc<FusedProfile>,
    /// Simulated start of the fused launch sequence, ms.
    pub start_ms: f64,
    /// Simulated completion of the whole group, ms (shared by every
    /// member — a fused sequence completes as a whole).
    pub end_ms: f64,
    /// The stage booking behind this dispatch: the per-stage intervals
    /// online re-booking rewinds.
    pub booking: StageBooking,
}

impl GroupDispatch {
    /// Number of refinement passes this dispatch actually booked
    /// (expected-pass booking books fewer stages than the plan holds).
    pub fn booked_passes(&self) -> usize {
        self.booking.stages.len().saturating_sub(2) / 2
    }
}

/// Partition a batch into fused groups: bucket by [`JobShape`] key in
/// submission order, then chunk each bucket at the occupancy-aware
/// preferred group size for that shape. Jobs with unique shapes (or
/// tail remainders) come out as singleton groups. The partition covers
/// every index exactly once. With fusion off ([`MicrobatchConfig::off`])
/// every job is its own group, in submission order.
pub fn plan_groups(
    planner: &Planner,
    shapes: &[JobShape],
    cfg: &MicrobatchConfig,
) -> Vec<Vec<usize>> {
    if cfg.is_off() {
        return (0..shapes.len()).map(|i| vec![i]).collect();
    }
    // hash-bucketed, first-appearance ordered: the map finds the
    // bucket in O(1), the Vec keeps the deterministic output order
    let mut buckets: Vec<(JobShape, Vec<usize>)> = Vec::new();
    let mut by_key: std::collections::HashMap<JobShape, usize> = std::collections::HashMap::new();
    for (i, s) in shapes.iter().enumerate() {
        match by_key.get(s) {
            Some(&b) => buckets[b].1.push(i),
            None => {
                by_key.insert(*s, buckets.len());
                buckets.push((*s, vec![i]));
            }
        }
    }
    let mut groups = Vec::new();
    for (shape, idxs) in buckets {
        let k = if idxs.len() == 1 {
            1
        } else {
            planner
                .preferred_group_size(
                    shape.rows,
                    shape.cols,
                    shape.target_digits,
                    cfg.max_group.min(idxs.len()),
                    cfg.tolerance,
                )
                .max(1)
        };
        for chunk in idxs.chunks(k) {
            planner.emit(|| Event::GroupFormed {
                rows: shape.rows,
                cols: shape.cols,
                digits: shape.target_digits,
                size: chunk.len(),
                preferred: k,
            });
            groups.push(chunk.to_vec());
        }
    }
    groups
}

/// A group priced for one device: the shared plan, its fused profile,
/// and the lane-split stage requests `sched` books — the planner's
/// *expected* pass count under [`StageSchedConfig::book_expected`], the
/// structural worst case otherwise.
type PricedGroup = (Arc<ExecPlan>, Arc<FusedProfile>, StageVec<StageReq>);

fn price_group(
    planner: &Planner,
    gpu: &gpusim::Gpu,
    shape: &JobShape,
    k: usize,
    sched: &StageSchedConfig,
) -> PricedGroup {
    let (plan, fused) = planner.plan_fused(gpu, shape.rows, shape.cols, shape.target_digits, k);
    let passes = if sched.book_expected {
        plan.expected_corrections
    } else {
        plan.corrections()
    };
    let reqs = fused.booking_reqs(ExecPlan::booked_stages(passes));
    (plan, fused, reqs)
}

/// The dispatch step: place one group under `policy`, then book its
/// stages (factor, initial correct, and the booked residual/correct
/// passes) as individual lane-split intervals on the chosen device's
/// timeline ([`DevicePool::commit_stages`]). SECT costs completion by
/// *previewing the priced booking on each device's timeline*, so a
/// device whose compute lane can hide this group's prep wins the
/// placement it deserves — and the preview it wins by is the booking it
/// gets. `release_ms` is the earliest admissible start (latest member
/// arrival).
pub fn dispatch_group_staged(
    pool: &mut DevicePool,
    planner: &Planner,
    jobs: impl Into<Members>,
    shape: &JobShape,
    policy: DispatchPolicy,
    sched: &StageSchedConfig,
    release_ms: f64,
) -> GroupDispatch {
    dispatch_group_where(
        pool,
        planner,
        jobs.into(),
        shape,
        policy,
        sched,
        release_ms,
        |_| true,
    )
    .expect("no surviving device in the pool")
}

/// [`dispatch_group_staged`] over the surviving devices `eligible`
/// admits; `None` (nothing booked) when there is none. The service
/// shell dispatches through this directly: free breaker-closed devices
/// for regular work, the one suspect device for a probe.
pub(crate) fn dispatch_group_where(
    pool: &mut DevicePool,
    planner: &Planner,
    jobs: Members,
    shape: &JobShape,
    policy: DispatchPolicy,
    sched: &StageSchedConfig,
    release_ms: f64,
    eligible: impl Fn(&PoolDevice) -> bool,
) -> Option<GroupDispatch> {
    assert!(!jobs.is_empty(), "a fused group needs at least one job");
    #[expect(
        clippy::disallowed_methods,
        reason = "placement: the preview here is the booking committed below"
    )]
    let (device, (plan, fused, reqs)) = place_by_end(
        pool,
        policy,
        eligible,
        |d| price_group(planner, &d.gpu, shape, jobs.len(), sched),
        |d, priced| pool.preview_stages(d.id, &priced.2, sched.overlap, release_ms),
    )?;
    // book the priced group: one commit for the whole group...
    let booking = pool.commit_stages(
        device,
        &reqs,
        fused.predicted_kernel_ms,
        fused.flops_paper,
        jobs.len() as u64,
        sched.overlap,
        release_ms,
    );
    // ...plus labeled stage intervals: the plan knows each booked
    // stage's kind and rung, the booking knows where its lanes landed
    for (i, (stage, iv)) in plan.stages.iter().zip(&booking.stages).enumerate() {
        pool.emit(|| Event::StageBooked {
            device,
            job: jobs[0] as u64,
            stage: i,
            kind: stage.kind(),
            rung: stage.rung().tag(),
            host_start_ms: iv.host.0,
            host_end_ms: iv.host.1,
            dev_start_ms: iv.device.0,
            dev_end_ms: iv.device.1,
        });
    }
    Some(GroupDispatch {
        jobs,
        device,
        plan,
        fused,
        start_ms: booking.start_ms(),
        end_ms: booking.end_ms(),
        booking,
    })
}

/// The placement order of a partitioned batch: under
/// shortest-expected-completion, groups go longest-first (LPT over the
/// *fused* group cost on the pool's first device model —
/// device-count-free); least-loaded keeps submission order. The batch
/// sees its whole queue up front, and arrival-ordered SECT would
/// equalize `clock + cost` instead of `clock`, leaving slow devices idle
/// at the tail — a long group landing late on a slow device is exactly
/// the makespan overhang LPT prevents.
pub(crate) fn placement_order(
    pool: &DevicePool,
    planner: &Planner,
    shapes: &[JobShape],
    groups: &[Vec<usize>],
    policy: DispatchPolicy,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    if policy == DispatchPolicy::ShortestExpectedCompletion && !pool.is_empty() {
        let flops: Vec<f64> = groups
            .iter()
            .map(|g| {
                let s = &shapes[g[0]];
                let (_, fused) =
                    planner.plan_fused(pool.gpu(0), s.rows, s.cols, s.target_digits, g.len());
                fused.flops_paper
            })
            .collect();
        order.sort_by(|&a, &b| flops[b].total_cmp(&flops[a]));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::Gpu;

    fn shape(cols: usize, digits: u32) -> JobShape {
        JobShape {
            rows: cols,
            cols,
            target_digits: digits,
        }
    }

    #[test]
    fn groups_partition_the_batch() {
        let planner = Planner::new();
        let cfg = MicrobatchConfig::default();
        // 3 shapes interleaved; every index must appear exactly once
        let shapes: Vec<JobShape> = (0..30)
            .map(|i| shape([16, 24, 32][i % 3], [12, 25, 25][i % 3]))
            .collect();
        let groups = plan_groups(&planner, &shapes, &cfg);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort();
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
        // only same-key jobs share a group
        for g in &groups {
            for &j in g {
                assert_eq!(shapes[j], shapes[g[0]], "mixed shapes fused");
            }
        }
        // small shapes have sweet spots well past 1: something fused
        assert!(
            groups.iter().any(|g| g.len() > 1),
            "nothing fused: {groups:?}"
        );
    }

    #[test]
    fn unique_shapes_stay_singletons() {
        let planner = Planner::new();
        let shapes: Vec<JobShape> = (1..=5).map(|i| shape(8 * i, 25)).collect();
        let groups = plan_groups(&planner, &shapes, &MicrobatchConfig::default());
        assert_eq!(groups.len(), 5);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn max_group_caps_fusion() {
        let planner = Planner::new();
        let shapes = vec![shape(32, 25); 40];
        let cfg = MicrobatchConfig {
            max_group: 4,
            tolerance: 0.05,
        };
        let groups = plan_groups(&planner, &shapes, &cfg);
        assert!(groups.iter().all(|g| g.len() <= 4));
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 40);
    }

    /// Dispatch with contiguous (sequential) stage booking.
    fn dispatch_seq(
        pool: &mut DevicePool,
        planner: &Planner,
        jobs: Vec<usize>,
        s: &JobShape,
        policy: DispatchPolicy,
    ) -> GroupDispatch {
        let seq = StageSchedConfig::sequential();
        dispatch_group_staged(pool, planner, jobs, s, policy, &seq, 0.0)
    }

    #[test]
    fn group_dispatch_books_one_fused_interval() {
        let planner = Planner::new();
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        let s = shape(32, 25);
        let d = dispatch_seq(
            &mut pool,
            &planner,
            (0..8).collect(),
            &s,
            DispatchPolicy::LeastLoaded,
        );
        assert_eq!(d.jobs.len(), 8);
        assert_eq!(d.fused.group, 8);
        assert_eq!(pool.total_solves(), 8);
        assert_eq!(pool.devices()[d.device].clock_ms(), d.end_ms);
        // the fused booking beats eight singleton bookings
        let single = planner.plan(pool.gpu(d.device), 32, 32, 25).predicted_ms;
        assert!(
            d.fused.predicted_ms < 8.0 * single / 2.0,
            "fused {} ms vs 8 x {} ms",
            d.fused.predicted_ms,
            single
        );
        // and the interval is exactly the fused booking
        assert!((d.end_ms - d.start_ms - d.fused.predicted_ms).abs() < 1e-12);
    }

    #[test]
    fn group_of_one_books_the_singleton_price() {
        let planner = Planner::new();
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let s = shape(24, 50);
        let d = dispatch_seq(
            &mut pool,
            &planner,
            vec![0],
            &s,
            DispatchPolicy::ShortestExpectedCompletion,
        );
        let plan = planner.plan(pool.gpu(0), 24, 24, 50);
        assert_eq!(d.fused.predicted_ms, plan.predicted_ms);
        assert_eq!(d.fused.flops_paper, plan.flops_paper);
    }

    #[test]
    fn sect_places_the_group_where_it_finishes_first() {
        // an idle P100 vs a busy A100: the fused group must queue
        // behind the faster device when that completes sooner — the
        // same policy split as singleton SECT
        let planner = Planner::new();
        let s = shape(128, 100);
        let mut pool = DevicePool::new(vec![Gpu::a100(), Gpu::p100()]);
        let busy = StageReq {
            host_ms: 0.0,
            device_ms: 1.0,
        };
        pool.commit_stages(0, &[busy], 0.8, 1.0e6, 1, false, 0.0);
        let d = dispatch_seq(
            &mut pool,
            &planner,
            (0..16).collect(),
            &s,
            DispatchPolicy::ShortestExpectedCompletion,
        );
        assert_eq!(d.device, 0, "SECT parked the group on the slow idle P100");
    }

    #[test]
    fn fusion_off_partitions_into_submission_order_singletons() {
        let shapes: Vec<JobShape> = (0..6).map(|i| shape([16, 24][i % 2], 25)).collect();
        let groups = plan_groups(&Planner::new(), &shapes, &MicrobatchConfig::off());
        assert_eq!(groups, (0..6).map(|i| vec![i]).collect::<Vec<_>>());
    }
}
