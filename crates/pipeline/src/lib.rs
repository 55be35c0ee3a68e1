//! Batched multi-GPU least squares solve pipeline.
//!
//! The paper's target workloads — polynomial homotopy path tracking and
//! power-flow embeddings — issue *millions of small solves*, not one
//! big one. This crate turns the workspace's single-solve stack
//! (`gpusim` + `mdls-qr` + `mdls-backsub` + `mdls-core`) into a solve
//! *service* built around **one batch loop**:
//!
//! ```text
//! admit → book → recover sticky losses → execute → settle (+ transient replays) → report
//! ```
//!
//! **The front door.** Every driver checks each job with
//! [`Job::validate`] before it reaches the planner. A malformed job —
//! a zero dimension, `rows < cols`, mis-sized storage or right hand
//! side, a NaN or infinite entry, a target past the octo double rung, a
//! non-finite release or deadline — ends [`Disposition::Invalid`] with
//! a [`SubmitError`] reason on its `JobInvalid` event, and the rest of
//! the batch, stream or service runs as if it had never been
//! submitted. Past the door, settlement checks every square solve's
//! measured residual against its plan's target: a singular or
//! ill-conditioned system that falls short completes
//! [`Disposition::Degraded`] with the digits it actually certifies,
//! never a silent `Ok`. (A tall system's residual also holds its least
//! squares residual, so it certifies nothing and degrades nothing.)
//!
//! Every batch entry point ([`solve_batch`], [`solve_batch_staged_with`],
//! [`solve_batch_resilient`]) is a wrapper of a few lines over that
//! loop. The stream has one constructor,
//! [`solve_stream_staged`] (ingress admission is
//! [`BatchStream::with_admission`]), and each pull runs one round of
//! the same loop — book → recover → execute → settle — over the one
//! group it just formed.
//!
//! **A singleton is a group of one, and a dispatched group is handled
//! one way.** The fused group is the unit of booking: the planner
//! prices a lone job as the `k = 1` group. The job is the unit of
//! execution: the interpreter ([`solve_planned_traced_with`]) runs one
//! job at a time, on host lanes that pull jobs and have no device
//! identity. Once a driver — the batch loop, the stream, [`serve`]
//! — has decided *which group, which devices are eligible, at what
//! instant*, all three share one admit → place → recover → execute →
//! settle path, each step owned by one function (`resilient::admit`,
//! `microbatch::dispatch_group_where`, `resilient::recover`,
//! `batch::execute_round`, `batch::settle_group`); the batch loop and
//! the stream also share the round that chains them (`batch::run_round`).
//! Settle decides every completed job's verdict — `Degraded` for a plan
//! below the request or a square residual short of target, else
//! `Retried` when the driver retried it or a transient replay hit it,
//! else `Ok` — and every report (batch, stream, service, tenant, SLO
//! class) is one fold, [`latency_summary`], over its outcomes. What
//! stays per driver is what genuinely differs: whole-queue LPT booking
//! (batch), the reorder window, drain-order fusion and loss-time
//! re-preview (stream), DRR, quotas, the overload ladder, breakers and
//! re-queueing ([`serve`]).
//!
//! Behaviour is selected by three **config values**, never by a
//! different code path:
//!
//! * [`MicrobatchConfig`] — *what fuses*. The paper's small systems
//!   underfill one GPU; jobs sharing a shape key fuse into batched
//!   launch sequences sized at the occupancy sweet spot, booking one
//!   fused profile per group instead of `k` singletons (40–60×
//!   predicted per-job gain on 32–128-unknown d/dd shapes). On by
//!   default; [`MicrobatchConfig::off`] launches per job. Stream fusion
//!   takes drain-order prefixes only (shrunk further when the front
//!   member's deadline is tight), so priority/deadline ordering is
//!   preserved; every member job keeps its own outcome, bit-identical
//!   to the unfused run.
//! * [`StageSchedConfig`] — *how stages book and re-book*. Bookings are
//!   per *stage*, split into a prep lane (host overhead + PCIe) and a
//!   compute lane (kernels + gaps) per device, each a real interval
//!   list ([`Timeline`]) whose placement searches gaps, with host prep
//!   a pool-wide resource ([`HostStagingPool`]).
//!   [`StageSchedConfig::sequential`] tiles a dispatch's stages into
//!   one contiguous interval and only writes refunds off the busy books
//!   ([`RebookMode::BooksOnly`]) — what [`solve_batch`] uses.
//!   [`StageSchedConfig::staged`] overlaps the
//!   next job's factorization prep under the current job's
//!   residual/correct passes (40%+ makespan cuts on refinement-heavy
//!   mixes), books the planner's *expected* pass count, re-books
//!   adaptive early stops **online** ([`DevicePool::rebook`]; under
//!   [`RebookMode::Compact`] queued dispatches *slide left* into the
//!   hole) and extends stalled jobs pass by pass until the measured
//!   residual certifies the target. ([`Job::release_ms`] models bursty
//!   arrivals in every mode.)
//! * [`ResilienceConfig`] — *admission and fault recovery*, both no-ops
//!   on a quiet pool. Each pooled device may carry a seeded
//!   [`gpusim::FaultPlan`] (transient kernel faults and a sticky
//!   `DeviceLost` threshold; pure data, no clocks or entropy). The loop
//!   previews every deadlined job at ingress and sheds or down-ladders
//!   unmeetable requests, re-plans work interrupted by a device loss
//!   onto the survivors (one recover step decides when a loss comes due
//!   for every driver; [`DevicePool::fail_device`] turns the dead
//!   device's unexecuted spans into refunds), and books bounded,
//!   backed-off replays for transient faults (one retry cap and one
//!   backoff base, shared by batch, stream and [`serve`]). Every job
//!   ends in an explicit [`Disposition`]; completed jobs are
//!   bit-identical to the fault-free run. The one knob is
//!   [`AdmissionConfig::enabled`]: [`solve_batch_staged_with`] passes
//!   it off, [`solve_batch_resilient`] takes the config.
//!
//! Around the loop:
//!
//! 1. **Planner** ([`planner`], [`plan`]) — per job `(m, n, target
//!    digits)`, *searches* over staged [`ExecPlan`]s: direct solves at
//!    every sufficient rung of the d → dd → qd → od ladder, and
//!    mixed-precision refinement plans (factor at a cheap rung, then
//!    iterate residual-at-the-target-rung / correct-through-the-reused-
//!    factorization until the digits are met). Candidates are priced as
//!    the group of one from the analytic cost models; the cheapest
//!    predicted wall clock wins, and the plan keeps only its per-stage
//!    walls and totals, never the per-kernel tables. Plan *structure* is
//!    tuned on a reference device model so solutions stay
//!    placement-invariant; plans are memoized per shape, target and
//!    device.
//! 2. **Device pool** ([`pool`]) — N simulated GPUs (`Gpu::v100()`,
//!    `Gpu::a100()`, …, cloned or mixed), each a pair of simulated-time
//!    timelines; the pool aggregates solves/sec, gigaflops and
//!    utilization per device.
//! 3. **The dispatch step** ([`scheduler`], [`microbatch`]) — place one
//!    group under a pluggable [`DispatchPolicy`] (greedy least-loaded,
//!    or shortest-expected-completion by previewing the booking on each
//!    device's timeline), then book its stages
//!    ([`dispatch_group_staged`]; [`dispatch_one`] is the single-job,
//!    contiguous-booking form).
//! 4. **The stage interpreter** ([`batch`]) —
//!    [`solve_planned_traced_with`] executes one job's plan
//!    functionally, the same call for a fused member and a lone job;
//!    refinement passes stop adaptively once the measured residual
//!    certifies the target.
//! 5. **Multi-tenant service shell** ([`service`]) — [`serve`] fronts
//!    the same booking, execution and settlement steps for many callers
//!    at once: per-tenant *bounded* ingress queues with a
//!    [`Backpressure`] policy, deficit-round-robin weighted-fair
//!    dispatch with token-bucket quotas in predicted device-ms
//!    (reserved at dispatch, reconciled at settle), an overload ladder
//!    that sheds or down-ladders the cheapest [`SloClass`] first, and
//!    per-device circuit breakers keyed off each device's
//!    transient-fault rate (quarantine via [`DevicePool::fail_device`],
//!    probe-based re-admission after a seeded backoff). Entirely
//!    simulated time; bit- and schedule-deterministic across runs and
//!    host worker counts.
//!
//! Policies and priorities move jobs across devices and through time;
//! they never change numerics — every outcome stays bit-identical to
//! interpreting the same staged plan sequentially (and, for direct
//! plans, to a plain [`mdls_core::lstsq`] call). Outcomes report the
//! digits their measured residual certifies plus the per-stage
//! predicted breakdown of the plan they ran under.
//!
//! ## Which call for which need
//!
//! | need | call |
//! |---|---|
//! | defaults (greedy, fused, contiguous booking) | `solve_batch(p, j)` / `solve_stream_staged(p, j, DispatchPolicy::LeastLoaded, 1, MicrobatchConfig::default(), StageSchedConfig::sequential())` |
//! | explicit dispatch policy | `solve_batch_staged_with(p, j, pol, &MicrobatchConfig::default(), &StageSchedConfig::sequential(), true)` |
//! | serial host execution (the bit-identity reference) | `solve_batch_staged_with(p, j, pol, &micro, &sched, false)` |
//! | per-job launches (fusion A/B control) | pass `&MicrobatchConfig::off()` as `micro` |
//! | overlap, expected-pass booking, online re-booking, extension | pass `&StageSchedConfig::staged()` as `sched` |
//! | deadlines that shed/down-ladder, fault recovery | `solve_batch_resilient(p, j, pol, &micro, &sched, &ResilienceConfig::default())` |
//! | stream with a reorder window `w` | `solve_stream_staged(p, j, pol, w, micro, sched)` |
//! | stream with ingress admission | `solve_stream_staged(..).with_admission(AdmissionConfig::default())` |
//! | one model-only dispatch | `dispatch_group_staged(p, pl, jobs, s, pol, &sched, release)` (a schedule is one call per group, in your placement order) |
//! | counts, percentiles and makespan of any set of outcomes (a stream's, one tenant's) | `latency_summary(outcomes.iter().filter(..))` — what every report holds |
//! | interpret one plan yourself (fused or not, one job per call) | `solve_planned_traced_with(gpu, job, &plan, extra_passes)` |
//! | a plan's per-stage predicted walls | `plan.stage_wall_ms` (the group of one); a fused group's: `planner.plan_fused(gpu, m, n, digits, k).1.stage_wall_ms` |
//! | planner cache traffic | count `PlanCacheHit`/`PlanCacheMiss`/`FusedMemoHit`/`FusedMemoMiss` events from the pool's observer (`mdls_obs::Metrics` counts them) |
//! | hand back a booking's unexecuted tail | `pool.rebook(&booking, from_stage, RebookMode::BooksOnly \| Compact)` |
//! | one opaque interval on a device timeline | `commit_stages(id, &[StageReq { host_ms: 0.0, device_ms: wall }], k, f, n, false, not_before)` |
//!
//! (CHANGES.md, PRs 12, 15, 16 and 20, map every entry point and option
//! that was folded into these onto its replacement.)
//!
//! **Observability** ([`mdls_obs`], re-exported as `obs` from the
//! workspace root): attach any [`mdls_obs::Observer`] to a pool via
//! [`DevicePool::attach_observer`] and every layer — planner cache and
//! search, SECT previews, stage bookings, refunds, extensions,
//! settlements — emits typed events through it. With no observer
//! attached (the default) no event is even constructed; observation
//! never changes solutions or simulated timing.
//!
//! ```
//! use gpusim::Gpu;
//! use mdls_pipeline::{power_flow_jobs, solve_batch, DevicePool};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let jobs = power_flow_jobs(32, &mut rng);
//! let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
//! let report = solve_batch(&mut pool, &jobs);
//! assert_eq!(report.outcomes.len(), 32);
//! assert!(report.outcomes.iter().all(|o| o.residual < 1e-10));
//! assert!(report.solves_per_sec > 0.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
// a job's data can reach any line of the service: a non-test `expect`
// must state the invariant that makes it unreachable
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod job;
pub mod microbatch;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod resilient;
pub mod scheduler;
pub mod service;
pub mod stream;
pub mod workload;

pub use batch::{
    digits_from_residual, latency_summary, promoted_cache_stats, solve_batch,
    solve_batch_staged_with, solve_planned_traced_with, BatchReport, Disposition, JobOutcome,
    LatencySummary, PlannedSolve,
};
pub use job::{Job, Precision, SloClass, Solution, SubmitError, TenantId};
pub use microbatch::{
    dispatch_group_staged, plan_groups, GroupDispatch, Members, MicrobatchConfig,
};
pub use plan::{ExecPlan, FusedProfile, Stage};
pub use planner::Planner;
pub use pool::{
    DeviceLossReport, DevicePool, DeviceStats, HostStagingPool, PoolDevice, RebookMode,
    StageBooking, StageInterval, StageRefund, StageReq, StageVec, Timeline, MAX_STAGES,
};
pub use resilient::{solve_batch_resilient, AdmissionConfig, ResilienceConfig};
pub use scheduler::{dispatch_one, Dispatch, DispatchPolicy, JobShape, StageSchedConfig};
pub use service::{
    serve, Backpressure, BreakerConfig, BreakerSummary, ExecutionMode, OverloadConfig, QuotaSpec,
    ServiceConfig, ServicePolicy, ServiceReport, TenantSpec, TenantSummary,
};
pub use stream::{solve_stream_staged, BatchStream};
pub use workload::{
    bursty_tracker_jobs, jobs_for_shapes, power_flow_jobs, tracker_jobs, workload_mix,
};
