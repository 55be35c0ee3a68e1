//! Streaming variant of the batch service: jobs flow in through any
//! iterator and outcomes flow out one by one, with the pool's simulated
//! clocks advancing as the stream is consumed.
//!
//! The pull loop is a two-stage pipeline. **Admit**: each `next()`
//! first refills a bounded reorder buffer from the input iterator.
//! **Reorder → dispatch**: the buffer is a binary heap ordered by
//! (priority desc, deadline asc, arrival asc), so the highest-priority
//! admitted job dispatches first — a path tracker's corrector solves
//! overtake speculative predictor solves that arrived earlier, as long
//! as both sit in the buffer together. A window of 1 holds exactly the
//! next job: the stream is plain FIFO.
//!
//! Every pull forms one group and runs **one round of the batch loop**
//! over it (`batch::run_round`: book → recover sticky losses → execute
//! → settle, transient replays included) under a caller-chosen
//! [`DispatchPolicy`], so a stream interleaved with other pool usage
//! behaves like a live service queue, and a sticky loss that interrupts
//! the group re-dispatches it onto the survivors
//! ([`Disposition::Retried`](crate::batch::Disposition)) or fails it
//! exactly as in the batch loop. What stays here is what differs: the
//! reorder window, drain-order fusion, and — with ingress admission
//! ([`BatchStream::with_admission`]) — re-previewing the buffer when a
//! round reports that the alive set shrank. [`solve_stream_staged`] is
//! the one constructor. Numerics per job are identical to
//! [`crate::batch::solve_batch`] — the solution never depends on which
//! device a job lands on or when, only the simulated timing does.
//!
//! **Solving ahead.** Because a job's solve depends only on the job and
//! its plan structure, the stream need not wait for a dispatch to start
//! it. Every buffered job whose plan the planner has already memoized
//! (a silent read: no insert, no event) is registered with the stream's
//! solve-ahead lane (`batch::SolveAhead`) at its place in the dispatch
//! order. On a host with two or more threads one persistent worker
//! solves those jobs, most urgent first, while the calling thread books,
//! executes and settles the group at the head; the execute step takes
//! a finished result, or solves the job itself. A job down-laddered or
//! shed by admission has its task withdrawn. Outcomes and the recorded
//! event stream are bit-identical with or without the worker, which
//! dropping the stream stops and joins.

use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::batch::{emit_settled, run_round, Group, JobOutcome, Round, SolveAhead};
use crate::job::Job;
use crate::microbatch::MicrobatchConfig;
use crate::planner::Planner;
use crate::pool::DevicePool;
use crate::resilient::{admit, invalid_tombstone, AdmissionConfig, Admitted};
use crate::scheduler::{DispatchPolicy, JobShape, StageSchedConfig};
use mdls_obs::Event;

/// A buffered job's place in the dispatch order, the greater first:
/// higher priority first, then earlier deadline (no deadline sorts
/// last), then earlier arrival (FIFO among equals — equal-priority
/// streams drain in submission order). Arrivals are unique, so the
/// order is total. The reorder buffer and the solve-ahead queue share
/// it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Urgency {
    pub(crate) priority: i32,
    pub(crate) deadline_ms: f64,
    pub(crate) arrival: usize,
}

impl PartialEq for Urgency {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Urgency {}

impl PartialOrd for Urgency {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Urgency {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.deadline_ms.total_cmp(&self.deadline_ms))
            .then(other.arrival.cmp(&self.arrival))
    }
}

/// A job waiting in the reorder buffer, ordered by its [`Urgency`] so
/// the heap's max is the next job to dispatch.
struct QueuedJob {
    /// Shared with the solve-ahead lane while a task for it is queued.
    job: Arc<Job>,
    arrival: usize,
    /// The digits the job runs at: its request, unless admission
    /// down-laddered it.
    digits: u32,
    /// Its task on the solve-ahead lane, once registered.
    task: Option<u64>,
}

impl QueuedJob {
    fn urgency(&self) -> Urgency {
        Urgency {
            priority: self.job.priority,
            deadline_ms: self.job.deadline_ms.unwrap_or(f64::INFINITY),
            arrival: self.arrival,
        }
    }

    /// The shape key the job runs under.
    fn shape(&self) -> JobShape {
        JobShape {
            target_digits: self.digits,
            ..JobShape::from(&*self.job)
        }
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.urgency().cmp(&other.urgency())
    }
}

/// A lazy job-to-outcome pipeline over a device pool.
pub struct BatchStream<'p, I> {
    pool: &'p mut DevicePool,
    planner: Planner,
    jobs: I,
    policy: DispatchPolicy,
    /// Reorder-buffer capacity: how many admitted jobs compete for the
    /// next dispatch slot. 1 = FIFO.
    window: usize,
    buffer: BinaryHeap<QueuedJob>,
    /// Micro-batching: each dispatch drains a maximal run of
    /// *consecutive* same-shaped jobs from the reorder buffer (capped
    /// at the shape's preferred group size, shrunk further when the
    /// front member's deadline is tight) and fuses them into one
    /// batched launch sequence. Only drain-order prefixes fuse, so
    /// priority/deadline ordering is exactly the unfused stream's.
    /// [`MicrobatchConfig::off`] launches per job.
    micro: MicrobatchConfig,
    /// How dispatches book their stages, settle refunds and extend
    /// stalled jobs — see [`StageSchedConfig`]. The stream is a
    /// sequential dispatch→execute→settle loop, so every refund is
    /// causal for the next dispatch by construction.
    sched: StageSchedConfig,
    /// Ingress admission (see [`BatchStream::with_admission`]); `None`
    /// admits every job as requested.
    admission: Option<AdmissionConfig>,
    /// Outcomes of the current fused group not yet yielded.
    ready: VecDeque<JobOutcome>,
    admitted: usize,
    dispatched: usize,
    /// Solves buffered jobs ahead of their dispatch (see
    /// [`SolveAhead`]); dropping the stream joins its worker.
    ahead: SolveAhead,
    /// The planner's memo size when the buffer was last offered to the
    /// solve-ahead lane: a buffered job whose plan was unknown then is
    /// offered again once the memo grows.
    plans_seen: usize,
}

/// Stream `jobs` through `pool` under dispatch `policy` and reorder
/// `window` (clamped to ≥ 1): each `next()` plans, dispatches and
/// solves the most urgent admitted job *and* every job the unfused
/// stream would have dispatched immediately after it, as long as they
/// share its shape key (up to the shape's occupancy-aware preferred
/// group size under `cfg`), fused into one batched launch sequence, and
/// books the group's stages as `sched` says — with
/// [`StageSchedConfig::staged`] the next group's factorization prep
/// hides under the current group's device passes, adaptive early stops
/// are re-booked online so the freed time is visible to the very next
/// dispatch, and a job whose residual stalls above target may extend
/// past its plan ([`StageSchedConfig::max_extra_passes`]). A window of
/// `w` lets a late high-priority job overtake up to `w − 1` earlier
/// low-priority ones; `(LeastLoaded, 1, MicrobatchConfig::default(),
/// StageSchedConfig::sequential())` is the plain FIFO stream.
///
/// Fusion never reaches past the drain order: the buffer re-admits
/// before every member is chosen, so a fused group is *exactly* the
/// prefix of the dispatch sequence the unfused stream would have
/// produced — priority and deadline ordering are preserved verbatim,
/// and a group never waits for a job that has not arrived. Each member
/// job is yielded as its own outcome, bit-identical to the unfused
/// stream whenever the extension cap matches; siblings share their
/// group's simulated interval.
pub fn solve_stream_staged<'p, I>(
    pool: &'p mut DevicePool,
    jobs: I,
    policy: DispatchPolicy,
    window: usize,
    cfg: MicrobatchConfig,
    sched: StageSchedConfig,
) -> BatchStream<'p, I::IntoIter>
where
    I: IntoIterator<Item = Job>,
{
    BatchStream {
        planner: Planner::for_pool(pool),
        ahead: SolveAhead::new(pool.gpu(0).clone(), sched.max_extra_passes),
        pool,
        jobs: jobs.into_iter(),
        policy,
        window: window.max(1),
        buffer: BinaryHeap::new(),
        micro: cfg,
        sched,
        admission: None,
        ready: VecDeque::new(),
        admitted: 0,
        dispatched: 0,
        plans_seen: 0,
    }
}

impl<'p, I> BatchStream<'p, I>
where
    I: Iterator<Item = Job>,
{
    /// The stream with **ingress admission**: every deadlined job
    /// popped from the reorder buffer is previewed against the
    /// surviving pool before anything is booked, and an unmeetable
    /// request is down-laddered to the cheapest precision rung that
    /// fits its deadline ([`Disposition::Degraded`], original request
    /// preserved on [`JobOutcome::requested_digits`]) or shed at the
    /// door ([`Disposition::Shed`] — the outcome is yielded
    /// immediately, with nothing booked and nothing solved).
    /// Deadline-free jobs pass through untouched, as does everything
    /// when `admission.enabled` is false. Whenever a round's sticky
    /// losses shrink the alive set, every *buffered* admission is
    /// re-previewed against the survivors — a verdict reached while the
    /// dead device still counted is stale, so unmeetable jobs re-shed
    /// (their tombstones yield ahead of the next dispatch) and tight
    /// ones down-ladder in place.
    ///
    /// [`Disposition::Degraded`]: crate::batch::Disposition::Degraded
    /// [`Disposition::Shed`]: crate::batch::Disposition::Shed
    pub fn with_admission(self, admission: AdmissionConfig) -> BatchStream<'p, I> {
        BatchStream {
            admission: Some(admission),
            ..self
        }
    }

    /// Refill the reorder buffer from the input up to the window. A job
    /// failing [`Job::validate`] never enters the buffer (nor takes a
    /// window slot or an arrival number): its tombstone goes straight to
    /// the ready queue.
    fn admit(&mut self) {
        while self.buffer.len() < self.window {
            let Some(job) = self.jobs.next() else { break };
            if let Err(e) = job.validate() {
                self.ready.push_back(invalid_tombstone(self.pool, &job, e));
                continue;
            }
            let mut q = QueuedJob {
                digits: job.target_digits,
                job: Arc::new(job),
                arrival: self.admitted,
                task: None,
            };
            self.register_ahead(&mut q);
            self.buffer.push(q);
            self.admitted += 1;
        }
    }

    /// Offer a buffered job to the solve-ahead lane: registered when its
    /// plan is already memoized, found by a silent planner read (no
    /// insert, no event) under any device's key — structures are
    /// device-free.
    fn register_ahead(&self, q: &mut QueuedJob) {
        if q.task.is_some() {
            return;
        }
        let shape = q.shape();
        let (rows, cols, digits) = (shape.rows, shape.cols, shape.target_digits);
        let plan = (0..self.pool.len()).find_map(|d| {
            self.planner
                .memoized_plan(self.pool.gpu(d), rows, cols, digits)
        });
        if let Some(plan) = plan {
            q.task = Some(self.ahead.register(q.urgency(), &q.job, plan));
        }
    }

    /// Offer the buffered jobs not yet registered to the solve-ahead
    /// lane again, once the planner has memoized a plan since the last
    /// offer.
    fn register_buffered(&mut self) {
        let plans = self.planner.cached_plans();
        if plans == self.plans_seen {
            return;
        }
        self.plans_seen = plans;
        if self.buffer.iter().all(|q| q.task.is_some()) {
            return;
        }
        // arrivals are unique, so the rebuilt heap pops in the same order
        let mut queued = std::mem::take(&mut self.buffer).into_vec();
        for q in &mut queued {
            self.register_ahead(q);
        }
        self.buffer = BinaryHeap::from(queued);
    }

    /// One round of the batch loop over `groups`, on the calling thread
    /// with the solve-ahead lane (see `batch::run_round`).
    fn round(&mut self, groups: Vec<Group<'_>>, until_ms: f64) -> Round {
        let (policy, sched, ahead) = (self.policy, &self.sched, Some(&self.ahead));
        run_round(
            self.pool,
            &self.planner,
            groups,
            policy,
            sched,
            1,
            ahead,
            until_ms,
        )
    }

    /// The admit step on one queued job, no earlier than the soonest a
    /// surviving device frees up (see [`admit`]): `true` to keep it —
    /// down-laddered in place when the preview says so — or `false`
    /// once its shed tombstone sits in the ready queue. Always `true`
    /// without admission.
    fn admit_queued(&mut self, q: &mut QueuedJob) -> bool {
        let Some(adm) = self.admission else {
            return true;
        };
        let release = q.job.release().max(self.pool.min_clock_ms());
        let (overlap, tomb_at) = (self.sched.overlap, q.job.release());
        match admit(
            self.pool,
            &self.planner,
            &q.job,
            q.digits,
            overlap,
            release,
            tomb_at,
            &adm,
        ) {
            Admitted::Run { digits } if digits == q.digits => true,
            Admitted::Run { digits } => {
                // down-laddered: its task solves the requested plan
                self.ahead.withdraw(q.task.take());
                q.digits = digits;
                self.register_ahead(q);
                true
            }
            Admitted::Shed(tombstone) => {
                self.ahead.withdraw(q.task.take());
                self.dispatched += 1;
                self.ready.push_back(*tombstone);
                false
            }
        }
    }
}

impl<I> Iterator for BatchStream<'_, I>
where
    I: Iterator<Item = Job>,
{
    type Item = JobOutcome;

    fn next(&mut self) -> Option<JobOutcome> {
        // fused siblings and re-shed tombstones of the previous round
        // drain first; then admit (invalid jobs tombstone straight to
        // the ready queue and drain first too)...
        if let Some(o) = self.ready.pop_front() {
            return Some(o);
        }
        self.admit();
        if let Some(o) = self.ready.pop_front() {
            return Some(o);
        }
        let Some(mut queued) = self.buffer.pop() else {
            // drained: every loss still scheduled comes due, as in the
            // batch loop, which has booked its whole future
            self.round(Vec::new(), f64::INFINITY);
            return None;
        };
        // ...then reorder → dispatch the most urgent admitted job, shed
        // or down-laddered first when its deadline cannot be met
        if !self.admit_queued(&mut queued) {
            return self.ready.pop_front();
        }
        let shape = queued.shape();
        // the earliest the group could possibly start: the front job's
        // arrival, or the soonest any device frees up — the reference
        // point of the deadline slack and the member-arrival guard
        let floor = queued.job.release().max(self.pool.min_clock_ms());
        // ...plus, when micro-batching, the run of jobs the unfused
        // stream would have dispatched next anyway, as long as they
        // share the shape key. Re-admitting before every member keeps
        // the group an exact prefix of the unfused drain order — a
        // late-arriving higher-priority job still overtakes exactly
        // where it would have — so fusion can never violate priority or
        // deadline ordering.
        let mut group = vec![queued];
        if !self.micro.is_off() {
            let cfg = self.micro;
            let mut preferred = self.planner.preferred_group_size(
                shape.rows,
                shape.cols,
                shape.target_digits,
                cfg.max_group,
                cfg.tolerance,
            );
            // deadline-aware cap: a fused group completes as a whole,
            // so when the front (most urgent) member's deadline is
            // tight, shrink the group until its fused wall clock fits
            // the remaining slack
            if let Some(deadline) = group[0].job.deadline_ms {
                let slack = (deadline - floor).max(0.0);
                let cap = self.planner.deadline_group_cap(
                    shape.rows,
                    shape.cols,
                    shape.target_digits,
                    preferred,
                    slack,
                );
                if cap < preferred {
                    self.pool.emit(|| Event::DeadlineCap {
                        preferred,
                        cap,
                        slack_ms: slack,
                    });
                }
                preferred = cap;
            }
            while group.len() < preferred {
                self.admit();
                match self.buffer.peek_mut() {
                    // a member that has not arrived by the group's
                    // earliest feasible start would delay the whole
                    // group (and its front deadline) — leave it queued
                    Some(q) if q.shape() == shape && q.job.release() <= floor => {
                        group.push(PeekMut::pop(q));
                    }
                    _ => break,
                }
            }
            self.pool.emit(|| Event::GroupFormed {
                rows: shape.rows,
                cols: shape.cols,
                digits: shape.target_digits,
                size: group.len(),
                preferred,
            });
        }
        let idxs: Vec<usize> = (self.dispatched..self.dispatched + group.len()).collect();
        self.dispatched += group.len();
        let members = group.iter().map(|q| &*q.job).collect();
        let head = Group {
            shape,
            idxs: idxs.into(),
            members,
        };
        let round = self.round(vec![head], f64::NEG_INFINITY);
        // a group no device could take never executed its tasks
        self.ahead.withdraw(group.iter().filter_map(|q| q.task));
        let outcomes: Vec<JobOutcome> = round.outcomes.into_iter().map(|(_, o)| o).collect();
        emit_settled(self.pool, &outcomes);
        self.ready.extend(outcomes);
        if round.losses > 0 {
            // the alive set shrank: every buffered verdict is stale
            for mut q in std::mem::take(&mut self.buffer).into_vec() {
                if self.admit_queued(&mut q) {
                    self.buffer.push(q);
                }
            }
        }
        self.register_buffered();
        self.ready.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.jobs.size_hint();
        let pending = self.buffer.len() + self.ready.len();
        (
            lo.saturating_add(pending),
            hi.and_then(|h| h.checked_add(pending)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{solve_batch_staged_with, BatchReport};
    use crate::workload::power_flow_jobs;
    use gpusim::Gpu;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The stream with contiguous stage booking and an explicit
    /// micro-batching config.
    fn stream_seq<I: IntoIterator<Item = Job>>(
        pool: &mut DevicePool,
        jobs: I,
        policy: DispatchPolicy,
        window: usize,
        cfg: MicrobatchConfig,
    ) -> BatchStream<'_, I::IntoIter> {
        solve_stream_staged(
            pool,
            jobs,
            policy,
            window,
            cfg,
            StageSchedConfig::sequential(),
        )
    }

    /// The stream with contiguous stage booking and default
    /// micro-batching.
    fn stream_with<I: IntoIterator<Item = Job>>(
        pool: &mut DevicePool,
        jobs: I,
        policy: DispatchPolicy,
        window: usize,
    ) -> BatchStream<'_, I::IntoIter> {
        stream_seq(pool, jobs, policy, window, MicrobatchConfig::default())
    }

    /// The serial batch loop with contiguous stage booking.
    fn batch_seq(pool: &mut DevicePool, jobs: &[Job], cfg: &MicrobatchConfig) -> BatchReport {
        let seq = StageSchedConfig::sequential();
        solve_batch_staged_with(pool, jobs, DispatchPolicy::LeastLoaded, cfg, &seq, false)
    }

    #[test]
    fn stream_matches_batch() {
        let mut rng = StdRng::seed_from_u64(91);
        let jobs = power_flow_jobs(10, &mut rng);

        // fusion off on both sides: the stream fuses drain-order runs
        // while the batch buckets across the whole queue, so exact
        // device/timing equality is the *unfused* contract
        let mut pool_b = DevicePool::homogeneous(&Gpu::v100(), 2);
        let batch = batch_seq(&mut pool_b, &jobs, &MicrobatchConfig::off());

        let mut pool_s = DevicePool::homogeneous(&Gpu::v100(), 2);
        let streamed: Vec<JobOutcome> = stream_seq(
            &mut pool_s,
            jobs.clone(),
            DispatchPolicy::LeastLoaded,
            1,
            MicrobatchConfig::off(),
        )
        .collect();

        assert_eq!(streamed.len(), batch.outcomes.len());
        for (s, b) in streamed.iter().zip(&batch.outcomes) {
            assert_eq!(s.job_id, b.job_id);
            assert_eq!(
                s.x, b.x,
                "job {}: stream and batch solutions differ",
                s.job_id
            );
            assert_eq!(s.device, b.device);
            assert_eq!(s.end_ms, b.end_ms);
        }
        assert_eq!(pool_s.makespan_ms(), pool_b.makespan_ms());

        // the default (fused) paths group differently but must still
        // agree with each other — and the unfused run — on every bit
        let mut pool_fb = DevicePool::homogeneous(&Gpu::v100(), 2);
        let fused_batch = batch_seq(&mut pool_fb, &jobs, &MicrobatchConfig::default());
        let mut pool_fs = DevicePool::homogeneous(&Gpu::v100(), 2);
        let fused_stream: Vec<JobOutcome> =
            stream_with(&mut pool_fs, jobs, DispatchPolicy::LeastLoaded, 1).collect();
        for b in &fused_batch.outcomes {
            let s = fused_stream.iter().find(|s| s.job_id == b.job_id).unwrap();
            let u = streamed.iter().find(|u| u.job_id == b.job_id).unwrap();
            assert_eq!(s.x, b.x, "job {}: fused stream vs batch bits", b.job_id);
            assert_eq!(u.x, b.x, "job {}: fused vs unfused bits", b.job_id);
        }
    }

    #[test]
    fn stream_is_lazy() {
        let mut rng = StdRng::seed_from_u64(92);
        let jobs = power_flow_jobs(6, &mut rng);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        {
            let mut stream = stream_with(&mut pool, jobs, DispatchPolicy::LeastLoaded, 1);
            assert!(stream.next().is_some());
            assert!(stream.next().is_some());
            // four jobs never pulled, never solved
        }
        assert_eq!(pool.total_solves(), 2);
    }

    #[test]
    fn high_priority_overtakes_the_buffer() {
        let mut rng = StdRng::seed_from_u64(93);
        let mut jobs = power_flow_jobs(6, &mut rng);
        // five speculative predictor solves, then one late corrector
        let corrector_id = jobs[5].id;
        jobs[5].priority = 1;
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let order: Vec<u64> = stream_with(&mut pool, jobs, DispatchPolicy::LeastLoaded, 8)
            .map(|o| o.job_id)
            .collect();
        assert_eq!(
            order[0], corrector_id,
            "late corrector did not overtake: {order:?}"
        );
    }

    #[test]
    fn equal_priority_deadlines_drain_earliest_first() {
        let mut rng = StdRng::seed_from_u64(94);
        let mut jobs = power_flow_jobs(4, &mut rng);
        jobs[0].deadline_ms = None;
        jobs[1].deadline_ms = Some(9.0);
        jobs[2].deadline_ms = Some(3.0);
        jobs[3].deadline_ms = Some(6.0);
        let expect = vec![jobs[2].id, jobs[3].id, jobs[1].id, jobs[0].id];
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let order: Vec<u64> = stream_with(&mut pool, jobs, DispatchPolicy::LeastLoaded, 4)
            .map(|o| o.job_id)
            .collect();
        assert_eq!(order, expect, "not earliest-deadline-first");
    }

    #[test]
    fn window_one_is_fifo_even_with_priorities() {
        let mut rng = StdRng::seed_from_u64(95);
        let mut jobs = power_flow_jobs(5, &mut rng);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.priority = i as i32; // ascending: FIFO is maximally "wrong"
        }
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let order: Vec<u64> = stream_with(&mut pool, jobs, DispatchPolicy::LeastLoaded, 1)
            .map(|o| o.job_id)
            .collect();
        assert_eq!(order, ids, "window 1 must not reorder");
    }

    #[test]
    fn fused_stream_matches_unfused_bits_and_fuses_something() {
        // many same-shaped jobs: the fused stream must pack groups yet
        // reproduce every unfused solution bit for bit
        let mut rng = StdRng::seed_from_u64(97);
        let n = 10;
        let jobs: Vec<Job> = (0..18u64)
            .map(|id| {
                let a = mdls_matrix::HostMat::<f64>::from_fn(n, n, |r, c| {
                    let u: f64 = multidouble::random::rand_real(&mut rng);
                    u + if r == c { 4.0 } else { 0.0 }
                });
                let b: Vec<f64> = (0..n)
                    .map(|_| multidouble::random::rand_real(&mut rng))
                    .collect();
                Job::new(id, a, b, 25)
            })
            .collect();
        let mut pool_u = DevicePool::homogeneous(&Gpu::v100(), 2);
        let unfused: Vec<JobOutcome> = stream_seq(
            &mut pool_u,
            jobs.clone(),
            DispatchPolicy::LeastLoaded,
            8,
            MicrobatchConfig::off(),
        )
        .collect();
        let mut pool_f = DevicePool::homogeneous(&Gpu::v100(), 2);
        let fused: Vec<JobOutcome> = stream_seq(
            &mut pool_f,
            jobs,
            DispatchPolicy::LeastLoaded,
            8,
            MicrobatchConfig::default(),
        )
        .collect();
        assert_eq!(unfused.len(), fused.len());
        assert!(
            fused.iter().any(|o| o.fused_group > 1),
            "stream never fused same-shaped neighbors"
        );
        for u in &unfused {
            let f = fused.iter().find(|f| f.job_id == u.job_id).unwrap();
            assert_eq!(u.x, f.x, "job {}: stream fusion changed the bits", u.job_id);
            assert_eq!(u.residual, f.residual);
        }
        // fusing is bounded by the shape's preferred group size
        let cfg = MicrobatchConfig::default();
        let preferred = Planner::new().preferred_group_size(n, n, 25, cfg.max_group, cfg.tolerance);
        assert!(fused.iter().all(|o| o.fused_group <= preferred));
        // and it lifted throughput on these small systems
        assert!(pool_f.makespan_ms() < pool_u.makespan_ms());
    }

    #[test]
    fn fused_stream_respects_priority_and_deadline_order() {
        // fusion only takes drain-order prefixes, so the outcome order
        // of a priority/deadline mix must be exactly the unfused
        // stream's order
        let mut rng = StdRng::seed_from_u64(98);
        let mut jobs = power_flow_jobs(24, &mut rng);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.priority = (i % 3) as i32;
            if i % 4 == 0 {
                j.deadline_ms = Some((i as f64) * 0.25);
            }
        }
        let mut pool_u = DevicePool::homogeneous(&Gpu::v100(), 1);
        let unfused: Vec<u64> =
            stream_with(&mut pool_u, jobs.clone(), DispatchPolicy::LeastLoaded, 6)
                .map(|o| o.job_id)
                .collect();
        let mut pool_f = DevicePool::homogeneous(&Gpu::v100(), 1);
        let fused: Vec<u64> = stream_seq(
            &mut pool_f,
            jobs,
            DispatchPolicy::LeastLoaded,
            6,
            MicrobatchConfig::default(),
        )
        .map(|o| o.job_id)
        .collect();
        assert_eq!(unfused, fused, "fusion reordered the drain sequence");
    }

    #[test]
    fn fused_stream_stays_lazy() {
        // alternating shapes: no two consecutive drain jobs share a
        // key, so every group is a singleton and one pull solves one
        // job — the stream never runs ahead of the consumer
        let mut rng = StdRng::seed_from_u64(99);
        let n = |i: usize| [8usize, 12][i % 2];
        let jobs: Vec<Job> = (0..9u64)
            .map(|id| {
                let d = n(id as usize);
                let a = mdls_matrix::HostMat::<f64>::from_fn(d, d, |r, c| {
                    let u: f64 = multidouble::random::rand_real(&mut rng);
                    u + if r == c { 4.0 } else { 0.0 }
                });
                let b: Vec<f64> = (0..d)
                    .map(|_| multidouble::random::rand_real(&mut rng))
                    .collect();
                Job::new(id, a, b, 25)
            })
            .collect();
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        {
            let mut stream = stream_seq(
                &mut pool,
                jobs,
                DispatchPolicy::LeastLoaded,
                2,
                MicrobatchConfig::default(),
            );
            let first = stream.next().unwrap();
            assert_eq!(first.fused_group, 1);
        }
        assert_eq!(pool.total_solves(), 1, "fused stream ran ahead of the pull");
    }

    /// Same-shaped fusible jobs for the deadline-cap and release tests.
    fn same_shape_jobs(count: u64, n: usize, digits: u32, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|id| {
                let a = mdls_matrix::HostMat::<f64>::from_fn(n, n, |r, c| {
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
    fn tight_deadline_caps_the_fused_group() {
        // without deadlines the stream fuses up to the preferred size;
        // with a tight front-member deadline the group shrinks so its
        // fused wall clock fits the slack — and a slack big enough for
        // the whole group changes nothing
        let planner = Planner::new();
        let cfg = MicrobatchConfig::default();
        let (n, digits) = (10usize, 25u32);
        let preferred = planner.preferred_group_size(n, n, digits, cfg.max_group, cfg.tolerance);
        assert!(preferred > 1, "shape never fuses; the test is vacuous");
        let (_, single) = planner.plan_fused(&Gpu::v100(), n, n, digits, 1);
        let (_, full) = planner.plan_fused(&Gpu::v100(), n, n, digits, preferred);
        assert!(full.predicted_ms > single.predicted_ms);

        let run = |deadline: Option<f64>| {
            let mut jobs = same_shape_jobs(preferred as u64 * 2, n, digits, 0xd1_77);
            if let Some(d) = deadline {
                jobs[0].deadline_ms = Some(d);
            }
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
            let first = stream_seq(
                &mut pool,
                jobs,
                DispatchPolicy::LeastLoaded,
                preferred * 2,
                cfg,
            )
            .next()
            .unwrap();
            first.fused_group
        };
        assert_eq!(run(None), preferred, "unconstrained stream must fuse fully");
        // slack halfway between the singleton and the full group cost:
        // the cap must bind strictly below the preferred size but
        // still admit the front job
        let tight = (single.predicted_ms + full.predicted_ms) / 2.0;
        let capped = run(Some(tight));
        assert!(
            capped < preferred && capped >= 1,
            "tight deadline gave group {capped} (preferred {preferred})"
        );
        // a deadline past the full fused cost changes nothing
        assert_eq!(run(Some(full.predicted_ms * 10.0)), preferred);
    }

    #[test]
    fn release_times_hold_jobs_and_misses_are_countable() {
        let mut jobs = same_shape_jobs(3, 8, 25, 0xae1ea5e);
        // distinct shapes would also work; here releases alone keep the
        // stream honest: job 1 arrives at t=50, long after job 0 ends
        jobs[1].release_ms = Some(50.0);
        jobs[1].deadline_ms = Some(55.0); // unmeetable: a real miss
        jobs[2].release_ms = Some(50.0);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let outs: Vec<JobOutcome> = stream_seq(&mut pool, jobs, DispatchPolicy::LeastLoaded, 1, {
            MicrobatchConfig::off()
        })
        .collect();
        // job 0 runs from t=0; job 1 cannot start before its arrival
        assert_eq!(outs[0].start_ms, 0.0);
        assert!(outs[0].end_ms < 50.0);
        assert!(outs[1].start_ms >= 50.0, "job 1 ran before its release");
        // the release gap is idle, not busy: utilization stays honest
        let stats = &pool.stats()[0];
        assert!(stats.busy_ms < pool.makespan_ms());
        // and the deadline miss is a measurable fact of the timeline,
        // counted by the one shared accounting everything reports
        // through — not a hand-rolled end-vs-deadline compare
        assert!(
            outs[1].missed_deadline(),
            "the unmeetable deadline was met?"
        );
        assert!(!outs[0].missed_deadline() && !outs[2].missed_deadline());
        let lat = crate::batch::latency_summary(&outs);
        assert_eq!(lat.deadline_misses, 1);
        // turnaround is release-relative: job 1 waited from t=50, so its
        // turnaround is its service time, not its absolute end
        assert!((outs[1].turnaround_ms() - (outs[1].end_ms - 50.0)).abs() < 1e-12);
        assert!(lat.p999_ms >= lat.p99_ms && lat.p99_ms >= lat.p50_ms);
        // a fused group never waits for an unarrived member: jobs 1 and
        // 2 share a shape and releases, so with fusion they may group —
        // but job 0 must never be delayed to t=50
        let mut pool_f = DevicePool::homogeneous(&Gpu::v100(), 1);
        let jobs2 = {
            let mut j = same_shape_jobs(3, 8, 25, 0xae1ea5e);
            j[1].release_ms = Some(50.0);
            j[2].release_ms = Some(50.0);
            j
        };
        let fused: Vec<JobOutcome> = stream_seq(
            &mut pool_f,
            jobs2,
            DispatchPolicy::LeastLoaded,
            3,
            MicrobatchConfig::default(),
        )
        .collect();
        assert_eq!(fused[0].fused_group, 1, "job 0 fused with unarrived jobs");
        assert_eq!(fused[0].start_ms, 0.0);
    }

    /// A bursty tracker stream as the benchmark runs it: 4×V100, SECT,
    /// a reorder window of one burst, fused, staged booking.
    fn tracker_stream(
        pool: &mut DevicePool,
        jobs: Vec<Job>,
    ) -> BatchStream<'_, std::vec::IntoIter<Job>> {
        solve_stream_staged(
            pool,
            jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            12,
            MicrobatchConfig::default(),
            StageSchedConfig::staged(),
        )
    }

    fn bursty_jobs(count: usize, seed: u64) -> Vec<Job> {
        crate::workload::bursty_tracker_jobs(count, 12, 2.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn solved_ahead_outcomes_match_per_job_interpretation() {
        // a job's solve reads only the job and its plan structure, so
        // whichever thread solved it, and however early, every outcome
        // is the lone interpretation of its plan, bit for bit
        let jobs = bursty_jobs(96, 0x5a1e);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
        let outcomes: Vec<JobOutcome> = tracker_stream(&mut pool, jobs.clone()).collect();
        assert_eq!(outcomes.len(), jobs.len());
        let extra = StageSchedConfig::staged().max_extra_passes;
        for o in &outcomes {
            let job = jobs.iter().find(|j| j.id == o.job_id).unwrap();
            let lone = crate::batch::solve_planned_traced_with(&Gpu::v100(), job, &o.plan, extra);
            assert_eq!(o.x, lone.x, "job {}: solution bits", o.job_id);
            assert_eq!(o.residual.to_bits(), lone.residual.to_bits());
            assert_eq!(o.corrections_run, lone.corrections_run);
        }
    }

    #[test]
    fn the_worker_solves_ahead_on_two_cores() {
        // vacuity guard: the bit-equality above says nothing if no job
        // was ever solved ahead. Parallel tests may keep the worker off
        // a core for one short stream, so it gets a few.
        let solved_ahead = |seed: u64| {
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
            let mut stream = tracker_stream(&mut pool, bursty_jobs(96, seed));
            stream.by_ref().for_each(drop);
            stream.ahead.worker_solves()
        };
        if gpusim::host_workers() < 2 {
            assert_eq!(solved_ahead(0xa4ead), 0, "one core runs no worker");
        } else {
            assert!(
                (0..5).any(|k| solved_ahead(0xa4ead + k) > 0),
                "the worker solved nothing on a 2-core host"
            );
        }
    }

    #[test]
    fn dropping_a_stream_joins_its_worker() {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
        let shared = {
            let mut stream = tracker_stream(&mut pool, bursty_jobs(120, 0xd20f));
            assert_eq!(stream.by_ref().take(3).count(), 3);
            stream.ahead.shared_handle()
            // dropped with tasks still queued, maybe one mid-solve
        };
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "the worker still holds the queue after the stream dropped"
        );
    }

    /// An input whose upper bound stays at `usize::MAX` however much
    /// of it is consumed — loose, but a valid `size_hint`.
    struct LooseBound<I>(I);

    impl<I: Iterator> Iterator for LooseBound<I> {
        type Item = I::Item;

        fn next(&mut self) -> Option<I::Item> {
            self.0.next()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (0, Some(usize::MAX))
        }
    }

    #[test]
    fn size_hint_never_overflows_near_usize_max() {
        let job = same_shape_jobs(1, 6, 12, 0x512e).remove(0);
        let input = || std::iter::repeat_n(job.clone(), usize::MAX);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        // an exact input keeps an exact hint: one job yielded
        let mut stream = stream_with(&mut pool, input(), DispatchPolicy::LeastLoaded, 2);
        assert!(stream.next().is_some());
        assert_eq!(stream.size_hint(), (usize::MAX - 1, Some(usize::MAX - 1)));
        // buffered jobs on top of a bound already at `usize::MAX`: no
        // upper bound, not an overflow
        let mut stream = stream_with(
            &mut pool,
            LooseBound(input()),
            DispatchPolicy::LeastLoaded,
            2,
        );
        assert!(stream.next().is_some());
        let (lo, hi) = stream.size_hint();
        assert!(lo >= 1 && hi.is_none(), "hint ({lo}, {hi:?})");
    }

    #[test]
    fn reordering_never_changes_numerics() {
        let mut rng = StdRng::seed_from_u64(96);
        let mut jobs = power_flow_jobs(12, &mut rng);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.priority = (i % 3) as i32;
        }
        let mut pool_f = DevicePool::homogeneous(&Gpu::v100(), 2);
        let fifo: Vec<JobOutcome> =
            stream_with(&mut pool_f, jobs.clone(), DispatchPolicy::LeastLoaded, 1).collect();
        let mut pool_r = DevicePool::homogeneous(&Gpu::v100(), 2);
        let reordered: Vec<JobOutcome> = stream_with(
            &mut pool_r,
            jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            6,
        )
        .collect();
        assert_eq!(fifo.len(), reordered.len());
        for f in &fifo {
            let r = reordered.iter().find(|r| r.job_id == f.job_id).unwrap();
            assert_eq!(f.x, r.x, "job {}: reordering changed the bits", f.job_id);
            assert_eq!(f.residual, r.residual);
        }
    }
}
