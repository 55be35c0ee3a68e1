//! Multi-tenant service shell over the staged engines.
//!
//! The batch and stream entry points model a *single* caller handing
//! the pool a workload. A shared accelerator service has many callers:
//! each tenant submits its own arrival stream, expects a fair share of
//! the pool, and must not be starved — or have its latency wrecked —
//! by a misbehaving neighbor. [`serve`] is that front end, entirely in
//! simulated time and bit-deterministic:
//!
//! * **Bounded ingress queues.** Every tenant owns one FIFO queue with
//!   a hard capacity; an arrival into a full queue resolves by the
//!   tenant's [`Backpressure`] policy — reject the newcomer, evict the
//!   oldest, or block the submitter until a slot frees (the job's
//!   effective wait shows up in its turnaround). One tenant's burst can
//!   therefore never consume unbounded buffer space.
//! * **Weighted-fair dispatch.** Under [`ServicePolicy::WeightedFair`]
//!   a deficit-round-robin scheduler visits tenants cyclically; each
//!   visit grants one quantum `× weight` of deficit in predicted
//!   device-ms and a tenant's head job dispatches once its deficit
//!   covers the job's predicted cost. Optional per-tenant token-bucket
//!   quotas cap sustained consumption (also in predicted device-ms,
//!   priced on the pool's reference device model): a dispatch reserves
//!   its predicted cost from the bucket, settlement reconciles
//!   (refunds credit back, extensions debit further), and a job a
//!   device loss re-queues gets its reservation returned. A job costing
//!   more than its tenant's whole bucket is shed at enqueue rather than
//!   parking the queue forever.
//!   [`ServicePolicy::Fifo`] is the no-isolation baseline: one global
//!   arrival order, no weights, no quotas.
//! * **Overload shedding.** A load detector prices the queued backlog
//!   with the same per-stage predictions the stage scheduler books by;
//!   past [`OverloadConfig`] thresholds (backlog device-ms per alive
//!   device) the dispatch ladder sacrifices the *cheapest promise
//!   first*: best-effort jobs are down-laddered one precision rung,
//!   then shed outright, before a standard job is touched —
//!   [`SloClass::Premium`] is never down-laddered by load. Deadline
//!   admission (always on here) still runs after the ladder, so every
//!   decision ends in an explicit [`Disposition`](crate::batch::Disposition).
//! * **Device circuit breakers.** Each device's transient-fault rate
//!   (from its seeded [`gpusim::FaultPlan`]) is tracked over a sliding
//!   window; a device exceeding [`BreakerConfig::max_faults`] is
//!   quarantined via [`DevicePool::fail_device`] (freeing its
//!   unexecuted spans as refunds) and re-admitted only after a seeded
//!   exponential backoff, through a *probe*: the next scheduled job is
//!   pinned to the suspect device, and a clean run closes the breaker
//!   while another fault re-opens it with doubled backoff. A sticky
//!   device loss opens the breaker permanently and re-queues the
//!   interrupted job ([`Disposition::Retried`](crate::batch::Disposition)).
//!
//! * **The front door.** Before anything queues, every job passes
//!   [`Job::validate`]; a malformed one (degenerate or underdetermined
//!   system, mis-sized data, a NaN or infinite entry, a target past the
//!   od rung, a non-finite instant) ends
//!   [`Disposition::Invalid`](crate::batch::Disposition::Invalid) and
//!   takes no queue slot, quota or planner call.
//!
//! Determinism: arrivals, queue decisions, the DRR cycle, breaker
//! transitions and settlement all run on the main thread in a fixed
//! order keyed only on simulated time and tenant/job indices.
//! Functional execution of a dispatch round may fan out across
//! [`ServiceConfig::host_workers`] lanes of the shared executor, but
//! results come back in dispatch order and settlement replays them in
//! that order — the report is bit-identical across runs *and* across
//! worker counts.
//!
//! The shell keeps only what differs from the batch loop and the
//! stream: the bounded queues, DRR, quotas, the overload ladder, the
//! breakers and the re-queue after a sticky loss. It owns *which job,
//! which devices are eligible, at what instant*; what happens to a
//! dispatched job after that — admission preview, placement and
//! booking, execution, settlement and the job's verdict — is the path
//! the batch loop and the stream run too (`resilient::admit`,
//! `microbatch::dispatch_group_where`, `batch::execute_round`,
//! `batch::settle_group`): a job here is a group of one, and a
//! re-queued one settles as retried. The report is the same fold every
//! driver reports with: [`latency_summary`] over all outcomes, over
//! each tenant's, and over each of its SLO classes.

mod bounded;

use std::collections::BTreeMap;

use bounded::BoundedQueue;

use crate::batch::{
    emit_settled, execute_round, latency_summary, settle_group, JobOutcome, LatencySummary,
    PlannedSolve,
};
use crate::job::{Job, Precision, SloClass, Solution, TenantId};
use crate::microbatch::{dispatch_group_where, GroupDispatch, Members};
use crate::planner::Planner;
use crate::pool::{DevicePool, PoolDevice};
use crate::resilient::{
    admit, invalid_tombstone, recover, shed_tombstone, AdmissionConfig, Admitted,
};
use crate::scheduler::{DispatchPolicy, JobShape, StageSchedConfig};
use mdls_obs::Event;

/// Quotas and backlog pricing are denominated in predicted device-ms
/// on one fixed reference model — the pool's device 0 — so a tenant's
/// spend does not depend on which device its jobs happened to land on.
const REFERENCE_DEVICE: usize = 0;

/// Slack for float comparisons on the simulated clock.
const EPS: f64 = 1e-9;

/// How the service books and re-books stages: everything on —
/// overlapped lanes, expected-pass booking, compacting refunds and
/// pass extension.
const SCHED: StageSchedConfig = StageSchedConfig::staged();

/// What a full tenant queue does with the next arrival.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Drop the newcomer ([`Disposition::Shed`](crate::batch::Disposition),
    /// reason `"reject"`).
    #[default]
    Reject,
    /// Evict the oldest queued job (reason `"evict"`) and admit the
    /// newcomer — freshest-wins ingress for tracker-style workloads
    /// where a stale solve is worthless.
    ShedOldest,
    /// Hold the submitter: the arrival waits outside the queue (in
    /// simulated time) until a slot frees, and later arrivals of the
    /// same tenant wait behind it. Other tenants are unaffected.
    Block,
}

/// Token-bucket quota in predicted device-ms on the reference model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaSpec {
    /// Bucket capacity, device-ms: the largest burst the tenant can
    /// spend at once. Also the initial fill. Under
    /// [`ServicePolicy::WeightedFair`] a job predicted to cost more than
    /// this can never be covered, so it is shed as it enqueues (reason
    /// `"over-quota"`).
    pub burst_ms: f64,
    /// Sustained refill rate, device-ms per simulated second.
    pub refill_per_s: f64,
}

/// One tenant's contract with the service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// The tenant this spec binds.
    pub id: TenantId,
    /// Human label for reports and tables.
    pub name: &'static str,
    /// Fair-share weight (deficit granted per scheduler visit is
    /// one quantum `× weight`). Zero is clamped to one.
    pub weight: u32,
    /// Ingress queue capacity, jobs. Zero is clamped to one.
    pub queue_capacity: usize,
    /// Policy when the queue is full.
    pub backpressure: Backpressure,
    /// Optional device-ms quota; `None` = unmetered.
    pub quota: Option<QuotaSpec>,
}

impl TenantSpec {
    /// An unmetered weight-1 tenant with a 64-slot rejecting queue.
    pub fn new(id: TenantId, name: &'static str) -> TenantSpec {
        TenantSpec {
            id,
            name,
            weight: 1,
            queue_capacity: 64,
            backpressure: Backpressure::Reject,
            quota: None,
        }
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Set the ingress queue capacity and full-queue policy.
    pub fn with_queue(mut self, capacity: usize, backpressure: Backpressure) -> TenantSpec {
        self.queue_capacity = capacity;
        self.backpressure = backpressure;
        self
    }

    /// Attach a token-bucket quota.
    pub fn with_quota(mut self, burst_ms: f64, refill_per_s: f64) -> TenantSpec {
        self.quota = Some(QuotaSpec {
            burst_ms,
            refill_per_s,
        });
        self
    }
}

/// How the service picks the next job to dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServicePolicy {
    /// Global arrival order, no weights, no quotas — the no-isolation
    /// baseline a burster tramples.
    Fifo,
    /// Deficit round robin over tenants with weights and quotas.
    #[default]
    WeightedFair,
}

/// Backlog thresholds of the overload degradation ladder, in queued
/// predicted device-ms per alive device. Defaults to infinity — the
/// ladder never fires unless thresholds are set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadConfig {
    /// Past this backlog, best-effort jobs are down-laddered one
    /// precision rung at dispatch.
    pub degrade_backlog_ms: f64,
    /// Past this backlog, best-effort jobs are shed outright and
    /// standard jobs are down-laddered one rung. Premium jobs are
    /// never touched by load.
    pub shed_backlog_ms: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            degrade_backlog_ms: f64::INFINITY,
            shed_backlog_ms: f64::INFINITY,
        }
    }
}

impl OverloadConfig {
    /// Enable the ladder with explicit thresholds.
    pub fn thresholds(degrade_backlog_ms: f64, shed_backlog_ms: f64) -> OverloadConfig {
        OverloadConfig {
            degrade_backlog_ms,
            shed_backlog_ms,
        }
    }
}

/// Per-device circuit breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Master switch.
    pub enabled: bool,
    /// Sliding window, ms, over which transient faults are counted.
    pub window_ms: f64,
    /// Faults within the window that open the breaker.
    pub max_faults: usize,
    /// Base quarantine, ms: re-opening `k` times backs off
    /// `backoff_ms × 2^k` before the next probe.
    pub backoff_ms: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            window_ms: 20.0,
            max_faults: 3,
            backoff_ms: 5.0,
        }
    }
}

/// Whether dispatched jobs actually run the interpreter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run the staged interpreter (bit-identical numerics to every
    /// other path).
    #[default]
    Functional,
    /// Model-only: book, settle and time every dispatch without
    /// executing the arithmetic — outcomes carry an empty solution,
    /// infinite residual and zero achieved digits (nothing solved
    /// certifies nothing, so only a down-laddered plan degrades one).
    /// For sustained-load benches (10⁵-job scale) where only the
    /// schedule is under test.
    ModelOnly,
}

/// The full service-shell configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Fairness policy.
    pub policy: ServicePolicy,
    /// Overload degradation ladder thresholds.
    pub overload: OverloadConfig,
    /// Device circuit breakers.
    pub breaker: BreakerConfig,
    /// Placement policy over the free devices of a dispatch round.
    pub dispatch: DispatchPolicy,
    /// Execute or model-only.
    pub mode: ExecutionMode,
    /// Host lanes that run one dispatch round's functional solves: the
    /// calling thread plus scoped threads, each pulling the round's next
    /// job (≥ 1; a lane has no device identity; never affects bits,
    /// bookings or events).
    pub host_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: ServicePolicy::WeightedFair,
            overload: OverloadConfig::default(),
            breaker: BreakerConfig::default(),
            dispatch: DispatchPolicy::LeastLoaded,
            mode: ExecutionMode::Functional,
            host_workers: 1,
        }
    }
}

/// One tenant's service summary: the fold of its outcomes, overall and
/// per SLO class, plus the two counts only the shell itself sees.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// Label from the spec ("tenant" for unspecified tenants).
    pub name: &'static str,
    /// [`latency_summary`] of the tenant's outcomes: submitted,
    /// completed, shed, invalid (refused at the front door — never
    /// queued, never counted under `shed`), degraded, retried,
    /// percentiles.
    pub summary: LatencySummary,
    /// [`latency_summary`] per SLO class, in ladder order (classes with
    /// no submissions omitted).
    pub classes: Vec<(SloClass, LatencySummary)>,
    /// Subset of `summary.shed` dropped by the bounded queue itself
    /// (reject + evict).
    pub rejected: usize,
    /// Dry spells: times the tenant's bucket could not cover its head
    /// job and the scheduler skipped it.
    pub quota_exhaustions: usize,
}

/// One device's circuit-breaker history.
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakerSummary {
    /// Pool id.
    pub device: usize,
    /// Times the breaker opened (transient-rate trips and failed
    /// probes; sticky losses quarantine without counting here).
    pub opens: usize,
    /// Probe jobs dispatched to the quarantined device.
    pub probes: usize,
    /// Probes that ran clean and closed the breaker.
    pub closes: usize,
}

/// What [`serve`] returns.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// [`latency_summary`] of the outcomes.
    pub latency: LatencySummary,
    /// Per-tenant summaries, ordered by tenant id.
    pub tenants: Vec<TenantSummary>,
    /// Per-device breaker histories.
    pub breakers: Vec<BreakerSummary>,
    /// Simulated completion of the last job, ms (`latency.makespan_ms`).
    pub makespan_ms: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum BreakerState {
    Closed,
    /// Quarantined until the given instant (infinity = sticky loss,
    /// never probed).
    Open {
        until_ms: f64,
    },
    /// Restored and awaiting its probe dispatch.
    HalfOpen,
}

struct DeviceBreaker {
    state: BreakerState,
    /// Recent transient-fault instants, pruned to the sliding window
    /// (and capped at `max_faults` entries — older strikes can only
    /// push the count further past the threshold).
    strikes: BoundedQueue<f64>,
    reopens: u32,
    summary: BreakerSummary,
}

struct TenantState {
    spec: TenantSpec,
    /// Job indices in FIFO order. Bounded by `spec.queue_capacity`.
    queue: BoundedQueue<usize>,
    /// This tenant's arrivals in (release, index) order.
    arrivals: Vec<usize>,
    next_arrival: usize,
    deficit_ms: f64,
    bucket_ms: f64,
    last_refill_ms: f64,
    /// In a quota dry spell (emit `QuotaExhausted` once per spell).
    dry: bool,
    quota_exhaustions: usize,
    rejected: usize,
}

/// One booked dispatch of the current round, awaiting execution and
/// settlement.
struct RoundEntry {
    job_idx: usize,
    tenant_idx: usize,
    /// The shape as dispatched (digits possibly down-laddered).
    shape: JobShape,
    g: GroupDispatch,
    probe: bool,
    cost_ms: f64,
}

struct Shell<'a> {
    jobs: &'a [Job],
    cfg: &'a ServiceConfig,
    planner: Planner,
    tenants: Vec<TenantState>,
    breakers: Vec<DeviceBreaker>,
    /// Predicted reference-device cost per job, filled at enqueue.
    cost_ms: Vec<f64>,
    /// Global enqueue sequence per job (drives the FIFO baseline).
    seq: Vec<u64>,
    next_seq: u64,
    /// Current target digits per job (down-laddered by the overload
    /// ladder or admission before dispatch).
    cur_digits: Vec<u32>,
    /// Re-queued after a sticky loss interrupted its dispatch.
    retried: Vec<bool>,
    outcomes: Vec<Option<JobOutcome>>,
    /// Queued backlog, predicted device-ms (the load detector's
    /// numerator).
    pending_ms: f64,
    /// Per-round buffers, reused so a round allocates nothing once they
    /// have grown: the tenants a pick may visit, the round's dispatches,
    /// one dispatch's solves and its settled outcome.
    eligible: Vec<usize>,
    round: Vec<RoundEntry>,
    solved: Vec<PlannedSolve>,
    settled: Vec<JobOutcome>,
}

impl<'a> Shell<'a> {
    fn cost_of(&self, pool: &DevicePool, j: usize) -> f64 {
        let job = &self.jobs[j];
        let (_, fused) = self.planner.plan_fused(
            pool.gpu(REFERENCE_DEVICE),
            job.rows(),
            job.cols(),
            self.cur_digits[j],
            1,
        );
        fused.predicted_ms
    }

    /// Tombstone job `j` as shed by the shell itself at `at_ms`
    /// (`reason`: queue reject/evict, overload, starvation).
    fn shed_job(&mut self, pool: &mut DevicePool, j: usize, reason: &'static str, at_ms: f64) {
        let (job, digits) = (&self.jobs[j], self.cur_digits[j]);
        let ev = || Event::TenantShed {
            tenant: job.tenant.0,
            job: job.id,
            at_ms,
            reason,
        };
        self.outcomes[j] = Some(shed_tombstone(pool, &self.planner, job, digits, at_ms, ev));
    }

    /// Admit due arrivals for tenant `t` into its bounded queue.
    fn process_arrivals(&mut self, pool: &mut DevicePool, t: usize, now: f64) {
        while self.tenants[t].next_arrival < self.tenants[t].arrivals.len() {
            let j = self.tenants[t].arrivals[self.tenants[t].next_arrival];
            if self.jobs[j].release() > now + EPS {
                break;
            }
            if self.tenants[t].queue.is_full() {
                match self.tenants[t].spec.backpressure {
                    Backpressure::Reject => {
                        self.tenants[t].next_arrival += 1;
                        self.tenants[t].rejected += 1;
                        self.shed_job(pool, j, "reject", now.max(self.jobs[j].release()));
                        continue;
                    }
                    Backpressure::ShedOldest => {
                        if let Some(old) = self.tenants[t].queue.pop_front() {
                            self.pending_ms -= self.cost_ms[old];
                            self.tenants[t].rejected += 1;
                            self.shed_job(pool, old, "evict", now.max(self.jobs[j].release()));
                        }
                        // fall through to the bounded push below
                    }
                    Backpressure::Block => break,
                }
            }
            self.tenants[t].next_arrival += 1;
            let cost = self.cost_of(pool, j);
            // a job costing more than the bucket can ever hold would
            // park its queue forever (the bucket refills to its burst
            // and stops): shed it instead of waiting on it
            let over_quota = self.tenants[t]
                .spec
                .quota
                .is_some_and(|q| cost > q.burst_ms + EPS);
            if over_quota && self.cfg.policy == ServicePolicy::WeightedFair {
                self.shed_job(pool, j, "over-quota", now.max(self.jobs[j].release()));
                continue;
            }
            self.cost_ms[j] = cost;
            self.seq[j] = self.next_seq;
            self.next_seq += 1;
            if self.tenants[t].queue.push(j) {
                self.pending_ms += cost;
                let queued = self.tenants[t].queue.len();
                let (tenant, id) = (self.jobs[j].tenant.0, self.jobs[j].id);
                pool.emit(|| Event::TenantEnqueued {
                    tenant,
                    job: id,
                    queued,
                });
            }
        }
    }

    fn process_all_arrivals(&mut self, pool: &mut DevicePool, now: f64) {
        for t in 0..self.tenants.len() {
            self.process_arrivals(pool, t, now);
        }
    }

    /// Refill tenant `t`'s token bucket to `now`.
    fn refill(&mut self, t: usize, now: f64) {
        let ts = &mut self.tenants[t];
        if let Some(q) = ts.spec.quota {
            let dt = (now - ts.last_refill_ms).max(0.0);
            ts.bucket_ms = (ts.bucket_ms + q.refill_per_s * dt / 1000.0).min(q.burst_ms);
            ts.last_refill_ms = now;
        }
    }

    /// True when `t`'s quota covers its head job right now; emits
    /// `QuotaExhausted` once per dry spell when it does not.
    fn quota_covers_head(&mut self, pool: &DevicePool, t: usize, now: f64) -> bool {
        let Some(&head) = self.tenants[t].queue.front() else {
            return false;
        };
        if self.tenants[t].spec.quota.is_none() {
            return true;
        }
        self.refill(t, now);
        let need = self.cost_ms[head];
        let have = self.tenants[t].bucket_ms;
        if have + EPS >= need {
            self.tenants[t].dry = false;
            return true;
        }
        if !self.tenants[t].dry {
            self.tenants[t].dry = true;
            self.tenants[t].quota_exhaustions += 1;
            let tenant = self.tenants[t].spec.id.0;
            pool.emit(|| Event::QuotaExhausted {
                tenant,
                at_ms: now,
                needed_ms: need,
                available_ms: have,
            });
        }
        false
    }

    /// Pop the next job to dispatch under the configured policy.
    fn pick_next(&mut self, pool: &DevicePool, now: f64, rr: &mut usize) -> Option<(usize, usize)> {
        /// DRR quantum: predicted device-ms of deficit a weight-1
        /// tenant is granted per visit. Shares come from the weights;
        /// the quantum only sets the granularity they are met at.
        const DRR_QUANTUM_MS: f64 = 1.0;
        let n = self.tenants.len();
        match self.cfg.policy {
            ServicePolicy::Fifo => {
                // one global queue in spirit: the earliest-enqueued head
                let (t, j) = (0..n)
                    .filter_map(|t| self.tenants[t].queue.front().map(|&head| (t, head)))
                    .min_by_key(|&(_, head)| self.seq[head])?;
                self.tenants[t].queue.pop_front();
                self.pending_ms -= self.cost_ms[j];
                Some((t, j))
            }
            ServicePolicy::WeightedFair => {
                let mut eligible = std::mem::take(&mut self.eligible);
                eligible.clear();
                eligible.extend((0..n).filter(|&t| self.quota_covers_head(pool, t, now)));
                // deficit round robin: a visit grants quantum × weight;
                // the head dispatches once the deficit covers its cost.
                // Deficits grow every sweep, so this terminates.
                let picked = (!eligible.is_empty()).then(|| loop {
                    let t = eligible[*rr % eligible.len()];
                    let head = *self.tenants[t]
                        .queue
                        .front()
                        .expect("quota_covers_head admits only tenants with a queued job");
                    let cost = self.cost_ms[head];
                    if self.tenants[t].deficit_ms + EPS >= cost {
                        self.tenants[t].queue.pop_front();
                        self.tenants[t].deficit_ms -= cost;
                        self.pending_ms -= cost;
                        // cursor stays: the tenant keeps serving while
                        // its deficit lasts (classic DRR)
                        break (t, head);
                    }
                    let grant = DRR_QUANTUM_MS * self.tenants[t].spec.weight.max(1) as f64;
                    self.tenants[t].deficit_ms += grant;
                    *rr += 1;
                });
                self.eligible = eligible;
                picked
            }
        }
    }

    /// The overload ladder + deadline admission for a popped job:
    /// `true` to dispatch it at `cur_digits[j]`, `false` when it was
    /// shed (tombstone already recorded).
    fn pre_dispatch(&mut self, pool: &mut DevicePool, j: usize, now: f64) -> bool {
        let alive = pool.alive_count().max(1) as f64;
        let load_ms = self.pending_ms / alive;
        let slo = self.jobs[j].slo;
        let over_shed = load_ms > self.cfg.overload.shed_backlog_ms;
        let over_degrade = load_ms > self.cfg.overload.degrade_backlog_ms;
        if over_shed && slo == SloClass::BestEffort {
            self.shed_job(pool, j, "overload", now);
            return false;
        }
        if (over_shed && slo == SloClass::Standard) || (over_degrade && slo == SloClass::BestEffort)
        {
            let rung = Precision::for_digits(self.cur_digits[j]);
            if let Some(pos) = Precision::LADDER.iter().position(|r| *r == rung) {
                if pos > 0 {
                    let to = Precision::LADDER[pos - 1].digits();
                    let (id, from) = (self.jobs[j].id, self.cur_digits[j]);
                    pool.emit(|| Event::JobDegraded {
                        job: id,
                        from_digits: from,
                        to_digits: to,
                    });
                    self.cur_digits[j] = to;
                }
            }
        }
        match admit(
            pool,
            &self.planner,
            &self.jobs[j],
            self.cur_digits[j],
            SCHED.overlap,
            now,
            now,
            &AdmissionConfig::default(),
        ) {
            Admitted::Run { digits } => {
                self.cur_digits[j] = digits;
                true
            }
            Admitted::Shed(tombstone) => {
                self.outcomes[j] = Some(*tombstone);
                false
            }
        }
    }

    /// Move `delta_ms` into (or, negative, out of) tenant `t`'s token
    /// bucket. No-op for unmetered tenants and under FIFO.
    fn credit_quota(&mut self, t: usize, delta_ms: f64) {
        if self.cfg.policy == ServicePolicy::WeightedFair {
            if let Some(q) = self.tenants[t].spec.quota {
                let ts = &mut self.tenants[t];
                ts.bucket_ms = (ts.bucket_ms + delta_ms).clamp(0.0, q.burst_ms);
            }
        }
    }

    /// True when `d` can take a regular (non-probe) dispatch at `now`:
    /// alive, idle and breaker-closed.
    fn free(&self, d: &PoolDevice, now: f64) -> bool {
        !d.is_lost()
            && d.clock_ms() <= now + EPS
            && self.breakers[d.id].state == BreakerState::Closed
    }

    /// Launch popped job `j` through the shared dispatch step — onto a
    /// free breaker-closed device under the configured placement
    /// policy, or pinned to the suspect device `probe` — reserve its
    /// predicted cost from the tenant's quota, so the next pick of this
    /// round sees the balance already spent, and queue it for this
    /// round's execution.
    fn launch(
        &mut self,
        pool: &mut DevicePool,
        round: &mut Vec<RoundEntry>,
        (tenant_idx, job_idx): (usize, usize),
        probe: Option<usize>,
        now: f64,
    ) {
        let job = &self.jobs[job_idx];
        let shape = JobShape {
            target_digits: self.cur_digits[job_idx],
            ..JobShape::from(job)
        };
        let g = dispatch_group_where(
            pool,
            &self.planner,
            Members::one(job.id as usize),
            &shape,
            self.cfg.dispatch,
            &SCHED,
            now,
            |d| match probe {
                Some(suspect) => d.id == suspect,
                None => self.free(d, now),
            },
        )
        .expect("the dispatch round saw an eligible device");
        let cost_ms = self.cost_ms[job_idx];
        self.credit_quota(tenant_idx, -cost_ms);
        round.push(RoundEntry {
            job_idx,
            tenant_idx,
            shape,
            g,
            probe: probe.is_some(),
            cost_ms,
        });
    }

    /// Open `device`'s breaker at `at_ms` (quarantine via the pool's
    /// loss path — unexecuted spans come back as refunds).
    #[expect(clippy::disallowed_methods, reason = "the breaker's quarantine")]
    fn open_breaker(&mut self, pool: &mut DevicePool, device: usize, at_ms: f64) {
        pool.fail_device(device, at_ms);
        let b = &mut self.breakers[device];
        let backoff = self.cfg.breaker.backoff_ms * (1u64 << b.reopens.min(20)) as f64;
        b.state = BreakerState::Open {
            until_ms: at_ms + backoff,
        };
        b.summary.opens += 1;
        let faults = b.strikes.len();
        pool.emit(|| Event::CircuitOpen {
            device,
            at_ms,
            faults,
        });
    }

    /// Re-admit quarantined devices whose backoff has elapsed.
    fn process_probe_timers(&mut self, pool: &mut DevicePool, now: f64) {
        for d in 0..self.breakers.len() {
            if let BreakerState::Open { until_ms } = self.breakers[d].state {
                if until_ms.is_finite() && until_ms <= now + EPS {
                    pool.restore_device(d, now);
                    self.breakers[d].state = BreakerState::HalfOpen;
                }
            }
        }
    }

    /// Apply the sticky losses the recover step finds due by `until_ms`
    /// (on `only`, when given) and open each lost device's breaker with
    /// no probe timer — nothing ever re-admits it. Returns whether a
    /// loss was applied.
    fn recover_losses(
        &mut self,
        pool: &mut DevicePool,
        until_ms: f64,
        only: Option<usize>,
    ) -> bool {
        let mut any = false;
        while let Some(loss) = recover(pool, until_ms, only) {
            self.breakers[loss.device].state = BreakerState::Open {
                until_ms: f64::INFINITY,
            };
            any = true;
        }
        any
    }

    /// Settle one executed dispatch: refunds/extensions, transient
    /// replays, breaker transitions, quota reconciliation, and the
    /// outcome. A sticky loss that interrupted the dispatch sends the
    /// job back to its queue (reservation returned) instead.
    fn settle_entry(
        &mut self,
        pool: &mut DevicePool,
        mut e: RoundEntry,
        solved: &mut Vec<PlannedSolve>,
    ) {
        let device = e.g.device;
        // a sticky loss inside the booked interval interrupts the
        // dispatch: quarantine, refund the live booking, re-queue
        if self.recover_losses(pool, f64::NEG_INFINITY, Some(device)) {
            solved.clear();
            self.retried[e.job_idx] = true;
            let t = e.tenant_idx;
            self.tenants[t].queue.requeue_front(e.job_idx);
            self.pending_ms += e.cost_ms;
            self.credit_quota(t, e.cost_ms);
            return;
        }
        // the shared settle step: refund or extend the booking, one
        // backed-off replay per transient kernel fault inside the
        // executed interval (time moves, bits do not) — and one breaker
        // strike each, below — and the job's verdict
        let hits = settle_group(
            pool,
            &mut e.g,
            &e.shape,
            &[&self.jobs[e.job_idx]],
            solved,
            &SCHED,
            self.retried[e.job_idx],
            &mut self.settled,
        );
        let outcome = self
            .settled
            .pop()
            .expect("a group of one settles one outcome");
        let end = e.g.end_ms;

        // breaker bookkeeping
        if self.cfg.breaker.enabled {
            let window = self.cfg.breaker.window_ms;
            for &at in &hits {
                while self.breakers[device]
                    .strikes
                    .front()
                    .is_some_and(|&s| s < at - window)
                {
                    self.breakers[device].strikes.pop_front();
                }
                while self.breakers[device].strikes.is_full() {
                    self.breakers[device].strikes.pop_front();
                }
                self.breakers[device].strikes.push(at);
            }
            if e.probe {
                if hits.is_empty() {
                    let b = &mut self.breakers[device];
                    b.state = BreakerState::Closed;
                    b.strikes.clear();
                    b.reopens = 0;
                    b.summary.closes += 1;
                    pool.emit(|| Event::CircuitClose { device, at_ms: end });
                } else {
                    self.breakers[device].reopens += 1;
                    self.open_breaker(pool, device, end);
                }
            } else if self.breakers[device].state == BreakerState::Closed
                && self.breakers[device].strikes.len() >= self.cfg.breaker.max_faults
            {
                self.open_breaker(pool, device, end);
            }
        }

        // reconcile the dispatch-time reservation: refunds return to
        // the bucket, extensions drain it further
        self.credit_quota(e.tenant_idx, outcome.refunded_ms - outcome.extended_ms);
        emit_settled(pool, std::slice::from_ref(&outcome));
        self.outcomes[e.job_idx] = Some(outcome);
    }

    /// One dispatch round at `now`: probes first, then regular
    /// dispatches onto free breaker-closed devices, then execute and
    /// settle in dispatch order. Returns whether anything progressed.
    fn dispatch_round(&mut self, pool: &mut DevicePool, now: f64, rr: &mut usize) -> bool {
        let ndev = pool.devices().len();
        let mut round = std::mem::take(&mut self.round);
        let mut progressed = false;

        // probe dispatches: each restored device gets the next
        // scheduled job, pinned
        for d in 0..ndev {
            if self.breakers[d].state != BreakerState::HalfOpen {
                continue;
            }
            if pool.devices()[d].is_lost() || pool.devices()[d].clock_ms() > now + EPS {
                continue;
            }
            while let Some((t, j)) = self.pick_next(pool, now, rr) {
                progressed = true;
                if !self.pre_dispatch(pool, j, now) {
                    continue;
                }
                let id = self.jobs[j].id;
                pool.emit(|| Event::CircuitProbe {
                    device: d,
                    job: id,
                    at_ms: now,
                });
                self.breakers[d].summary.probes += 1;
                self.launch(pool, &mut round, (t, j), Some(d), now);
                break;
            }
        }

        // regular dispatches while free closed devices and jobs remain
        while pool.devices().iter().any(|d| self.free(d, now)) {
            let Some((t, j)) = self.pick_next(pool, now, rr) else {
                break;
            };
            progressed = true;
            if self.pre_dispatch(pool, j, now) {
                self.launch(pool, &mut round, (t, j), None, now);
            }
        }

        if round.is_empty() {
            self.round = round;
            return progressed;
        }
        // execute, then settle in dispatch order: the shared executor
        // across `host_workers` lanes, or the model-only stub (every
        // booked pass "ran", nothing solved)
        match self.cfg.mode {
            ExecutionMode::ModelOnly => {
                let mut solved = std::mem::take(&mut self.solved);
                for e in round.drain(..) {
                    solved.push(PlannedSolve {
                        x: Solution::D1(Vec::new()),
                        residual: f64::INFINITY,
                        corrections_run: e.g.booked_passes(),
                    });
                    self.settle_entry(pool, e, &mut solved);
                }
                self.solved = solved;
            }
            ExecutionMode::Functional => {
                let groups: Vec<(&GroupDispatch, Vec<&Job>)> = round
                    .iter()
                    .map(|e| (&e.g, vec![&self.jobs[e.job_idx]]))
                    .collect();
                let solved = execute_round(
                    pool,
                    &groups,
                    self.cfg.host_workers,
                    SCHED.max_extra_passes,
                    None,
                );
                for (e, mut s) in round.drain(..).zip(solved) {
                    self.settle_entry(pool, e, &mut s);
                }
            }
        }
        self.round = round;
        // slots freed: blocked arrivals may enter now
        self.process_all_arrivals(pool, now);
        true
    }

    /// The next instant anything can change after `now` (`None` = the
    /// service is drained or irrecoverably starved).
    fn next_event_after(&self, pool: &DevicePool, now: f64) -> Option<f64> {
        let mut next = f64::INFINITY;
        for ts in &self.tenants {
            if ts.next_arrival < ts.arrivals.len() {
                let release = self.jobs[ts.arrivals[ts.next_arrival]].release();
                if release > now + EPS {
                    next = next.min(release);
                }
            }
            // a quota dry spell ends at a computable refill instant
            // (the bucket value is as of `last_refill_ms`)
            if let (Some(q), Some(&head)) = (ts.spec.quota, ts.queue.front()) {
                if q.refill_per_s > 0.0 {
                    let need = self.cost_ms[head] - ts.bucket_ms;
                    if need > EPS {
                        let ready = ts.last_refill_ms + need * 1000.0 / q.refill_per_s;
                        if ready > now + EPS {
                            next = next.min(ready);
                        }
                    }
                }
            }
        }
        for d in pool.devices() {
            if !d.is_lost() && d.clock_ms() > now + EPS {
                next = next.min(d.clock_ms());
            }
        }
        for b in &self.breakers {
            if let BreakerState::Open { until_ms } = b.state {
                if until_ms.is_finite() && until_ms > now + EPS {
                    next = next.min(until_ms);
                }
            }
        }
        next.is_finite().then_some(next)
    }

    /// Tombstone everything still queued or blocked when no event can
    /// ever serve it (zero-refill quota starvation, or a fully dead
    /// pool).
    fn drain_starved(&mut self, pool: &mut DevicePool, now: f64) {
        for t in 0..self.tenants.len() {
            while let Some(j) = self.tenants[t].queue.pop_front() {
                self.pending_ms -= self.cost_ms[j];
                self.shed_job(pool, j, "starved", now);
            }
            while self.tenants[t].next_arrival < self.tenants[t].arrivals.len() {
                let j = self.tenants[t].arrivals[self.tenants[t].next_arrival];
                self.tenants[t].next_arrival += 1;
                self.shed_job(pool, j, "starved", now.max(self.jobs[j].release()));
            }
        }
    }
}

/// Run the multi-tenant service shell over `jobs` (see the module
/// docs for the full contract). `tenants` binds specs to tenant ids;
/// jobs of an unspecified tenant run under an implicit default spec
/// (weight 1, 64-slot rejecting queue, no quota). Every job ends with
/// an outcome carrying an explicit disposition, in submission order; a
/// job failing [`Job::validate`] ends
/// [`Disposition::Invalid`](crate::batch::Disposition::Invalid) at once
/// and the service runs the rest exactly as if it had not been
/// submitted.
pub fn serve(
    pool: &mut DevicePool,
    jobs: &[Job],
    tenants: &[TenantSpec],
    cfg: &ServiceConfig,
) -> ServiceReport {
    assert!(
        !pool.devices().is_empty(),
        "the service shell needs at least one device"
    );
    let n = jobs.len();
    let mut specs: Vec<TenantSpec> = tenants.to_vec();
    specs.sort_by_key(|s| s.id);
    specs.dedup_by_key(|s| s.id);
    for job in jobs {
        if !specs.iter().any(|s| s.id == job.tenant) {
            specs.push(TenantSpec::new(job.tenant, "tenant"));
        }
    }
    specs.sort_by_key(|s| s.id);

    let mut by_id = BTreeMap::new();
    let mut states: Vec<TenantState> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        by_id.insert(spec.id.0, i);
        states.push(TenantState {
            spec: *spec,
            queue: BoundedQueue::new(spec.queue_capacity),
            arrivals: Vec::new(),
            next_arrival: 0,
            deficit_ms: 0.0,
            bucket_ms: spec.quota.map(|q| q.burst_ms).unwrap_or(0.0),
            last_refill_ms: 0.0,
            dry: false,
            quota_exhaustions: 0,
            rejected: 0,
        });
    }
    // the front door: a malformed job is tombstoned here and never
    // arrives — it takes no queue slot, no quota and no planner call
    let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
    // arrival order: by release, then submission index; the keys are
    // read once
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (j, job) in jobs.iter().enumerate() {
        match job.validate() {
            Ok(()) => order.push((job.release(), j)),
            Err(e) => outcomes[j] = Some(invalid_tombstone(pool, job, e)),
        }
    }
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, j) in order {
        let t = by_id[&jobs[j].tenant.0];
        states[t].arrivals.push(j);
    }

    let mut shell = Shell {
        jobs,
        cfg,
        planner: Planner::for_pool(pool),
        tenants: states,
        breakers: (0..pool.devices().len())
            .map(|d| DeviceBreaker {
                state: BreakerState::Closed,
                strikes: BoundedQueue::new(cfg.breaker.max_faults),
                reopens: 0,
                summary: BreakerSummary {
                    device: d,
                    ..BreakerSummary::default()
                },
            })
            .collect(),
        cost_ms: vec![0.0; n],
        seq: vec![u64::MAX; n],
        next_seq: 0,
        cur_digits: jobs.iter().map(|j| j.target_digits).collect(),
        retried: vec![false; n],
        outcomes,
        pending_ms: 0.0,
        eligible: Vec::new(),
        round: Vec::new(),
        solved: Vec::new(),
        settled: Vec::new(),
    };

    let mut now = 0.0;
    let mut rr = 0usize;
    loop {
        shell.recover_losses(pool, now + EPS, None);
        shell.process_probe_timers(pool, now);
        shell.process_all_arrivals(pool, now);
        if shell.dispatch_round(pool, now, &mut rr) {
            continue;
        }
        match shell.next_event_after(pool, now) {
            Some(t) => now = t,
            None => break,
        }
    }
    shell.drain_starved(pool, now);

    let outcomes: Vec<JobOutcome> = shell
        .outcomes
        .into_iter()
        .map(|o| o.expect("every job ends in an outcome"))
        .collect();
    // outcome i belongs to jobs[i]: bucket by the submitted job's
    // tenant and SLO class (`SloClass` is declared in ladder order)
    let mut buckets: Vec<[Vec<&JobOutcome>; 3]> = vec![Default::default(); shell.tenants.len()];
    for (o, job) in outcomes.iter().zip(jobs) {
        buckets[by_id[&job.tenant.0]][job.slo as usize].push(o);
    }
    let tenants = shell
        .tenants
        .iter()
        .zip(&buckets)
        .filter(|(_, by_class)| by_class.iter().any(|c| !c.is_empty()))
        .map(|(ts, by_class)| TenantSummary {
            tenant: ts.spec.id,
            name: ts.spec.name,
            summary: latency_summary(by_class.iter().flatten().copied()),
            classes: SloClass::LADDER
                .into_iter()
                .zip(by_class)
                .filter(|(_, slice)| !slice.is_empty())
                .map(|(class, slice)| (class, latency_summary(slice.iter().copied())))
                .collect(),
            rejected: ts.rejected,
            quota_exhaustions: ts.quota_exhaustions,
        })
        .collect();
    let breakers = shell.breakers.iter().map(|b| b.summary).collect();

    let latency = latency_summary(&outcomes);
    ServiceReport {
        makespan_ms: latency.makespan_ms,
        latency,
        outcomes,
        tenants,
        breakers,
    }
}
