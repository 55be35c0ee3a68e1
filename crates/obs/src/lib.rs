//! # mdls-obs
//!
//! Event-based observability for the batched solve pipeline.
//!
//! The pipeline's planner, scheduler, pool and execution paths carry
//! optional emit points: with no observer attached they cost one
//! `Option` check and construct nothing — zero events, zero
//! allocation. Attach an [`Observer`] (usually a [`Recorder`]) and
//! every cache probe, SECT preview, stage booking, refund and job
//! settlement streams out as a flat [`Event`] value.
//!
//! Observability is **inert by contract**: observers only *read*
//! values the pipeline has already computed. Solutions are
//! bit-identical and simulated schedules timing-identical with or
//! without one attached (the workspace's `observability` test pins
//! this on every execution path).
//!
//! On top of a recorded event stream:
//!
//! * [`trace::chrome_trace`] renders the per-device prep/compute lanes
//!   as a Chrome-trace-format JSON (open in `chrome://tracing` or
//!   Perfetto) — stage overlap and refund holes become visible tracks;
//! * [`metrics::Metrics`] folds the stream into log-binned latency
//!   histograms (p50/p99/p999 by priority class), refund / extension /
//!   fusion / deadline-miss counters, and per-(shape, rung, device)
//!   predicted-vs-settled stage-time calibration records;
//! * [`json`] is a dependency-free JSON reader used to validate
//!   exported traces in smoke tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod json;
pub mod metrics;
pub mod trace;

/// Which logical stage of an execution plan an interval belongs to.
///
/// Mirrors the pipeline's plan-IR stages without depending on the
/// pipeline crate: `Factor` is the one-time QR factorization, then
/// refinement alternates `Residual` (one rung up) and `Correct`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    Factor,
    Residual,
    Correct,
}

impl StageKind {
    /// Short lowercase label used in trace slice names and tables.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Factor => "factor",
            StageKind::Residual => "residual",
            StageKind::Correct => "correct",
        }
    }
}

/// One observation from the pipeline.
///
/// Events are `Copy` and carry only scalars and `'static` strings so
/// emitting one never allocates; anything aggregate (histograms,
/// tracks, calibration tables) is derived later from the recorded
/// stream by [`metrics`] and [`trace`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A device joined the observed pool (emitted once per device when
    /// an observer is attached). Names the trace process for `device`.
    Device { device: usize, name: &'static str },
    /// The planner served a plan from its memo cache.
    PlanCacheHit {
        rows: usize,
        cols: usize,
        digits: u32,
    },
    /// The planner ran the full strategy search and cached the result.
    PlanCacheMiss {
        rows: usize,
        cols: usize,
        digits: u32,
    },
    /// How many ladder candidates the strategy search scored for a
    /// cache-missing shape before picking the cheapest.
    PlanCandidates {
        rows: usize,
        cols: usize,
        digits: u32,
        candidates: usize,
    },
    /// The fused-profile memo served a (shape, group) entry.
    FusedMemoHit {
        rows: usize,
        cols: usize,
        digits: u32,
        group: usize,
    },
    /// The fused-profile memo priced a new (shape, group) entry.
    FusedMemoMiss {
        rows: usize,
        cols: usize,
        digits: u32,
        group: usize,
    },
    /// The SECT dispatch policy previewed finishing a candidate job or
    /// group on `device` at `end_ms` (one event per device considered).
    SectPreview { device: usize, end_ms: f64 },
    /// The micro-batcher closed a fused group of `size` jobs for a
    /// shape whose occupancy-preferred size is `preferred`.
    GroupFormed {
        rows: usize,
        cols: usize,
        digits: u32,
        size: usize,
        preferred: usize,
    },
    /// A tight front-member deadline shrank a stream group from
    /// `preferred` to `cap` members to fit `slack_ms` of headroom.
    DeadlineCap {
        preferred: usize,
        cap: usize,
        slack_ms: f64,
    },
    /// One plan stage booked as a lane-split interval on `device`:
    /// `[host_start_ms, host_end_ms)` on the prep lane and
    /// `[dev_start_ms, dev_end_ms)` on the compute lane. `job` is the
    /// front job of the dispatch; `stage` its index in the plan.
    StageBooked {
        device: usize,
        job: u64,
        stage: usize,
        kind: StageKind,
        rung: &'static str,
        host_start_ms: f64,
        host_end_ms: f64,
        dev_start_ms: f64,
        dev_end_ms: f64,
    },
    /// An online re-book freed `device`'s lanes from plan stage
    /// `from_stage`: `freed_ms` of booked wall clock came off the
    /// timelines (the booking's executed work ends at `at_ms`),
    /// `refunded_ms` off the busy accounting.
    Refund {
        device: usize,
        from_stage: usize,
        freed_ms: f64,
        refunded_ms: f64,
        at_ms: f64,
    },
    /// A busy-time-only refund (no cursor rewind) on `device`.
    Reconciled { device: usize, refund_ms: f64 },
    /// A booking landed (at least partly) in a mid-schedule timeline
    /// gap on `device` instead of at the tail: its earliest gap part
    /// starts at `start_ms`, `lead_ms` ahead of the pre-booking lane
    /// cursor.
    GapFilled {
        device: usize,
        start_ms: f64,
        lead_ms: f64,
    },
    /// A compacting re-book on `device` slid `slid` queued, unexecuted
    /// dispatches left into `freed_ms` of booked time freed at `at_ms`,
    /// improving their completion times by `slid_ms` in total.
    Compacted {
        device: usize,
        at_ms: f64,
        freed_ms: f64,
        slid: usize,
        slid_ms: f64,
    },
    /// A host staging worker joined the observed pool (emitted once per
    /// worker when an observer is attached). Names the staging trace
    /// thread for `worker`.
    StagingWorker { worker: usize },
    /// One prep interval booked on host staging `worker` on behalf of
    /// `device` — the pool-wide host resource view of a prep-lane span.
    StagingBooked {
        worker: usize,
        device: usize,
        start_ms: f64,
        end_ms: f64,
    },
    /// A booking on `device` started `wait_ms` later than its own prep
    /// lane allowed because every staging worker was busy; `worker` is
    /// the slot it eventually got, `at_ms` where it started.
    StagingWait {
        device: usize,
        worker: usize,
        wait_ms: f64,
        at_ms: f64,
    },
    /// `device`'s lanes were held to `until_ms` for a not-yet-arrived
    /// release time. The pipeline passes release times as the booking's
    /// `not_before` bound and emits none of these.
    // No emitter, but it stays: `benchmark/src/spans.rs` (frozen) matches it.
    Held { device: usize, until_ms: f64 },
    /// An adaptive job stalled above target and extended one
    /// correction pass past its plan (`pass` is 1-based); the extra
    /// residual/correct pair was booked ending at `end_ms`.
    PassExtended {
        device: usize,
        job: u64,
        pass: usize,
        end_ms: f64,
    },
    /// A job finished and its booking settled. `release_ms` is its
    /// arrival (0 for always-ready jobs); `deadline_ms` is only
    /// meaningful when `has_deadline`. `fused` is its group size;
    /// `tenant` is the submitting tenant (0 for single-tenant paths).
    JobSettled {
        job: u64,
        device: usize,
        tenant: u32,
        priority: i32,
        start_ms: f64,
        end_ms: f64,
        release_ms: f64,
        deadline_ms: f64,
        has_deadline: bool,
        fused: usize,
        corrections: usize,
        refunded_ms: f64,
        extended_ms: f64,
        achieved_digits: f64,
    },
    /// Predicted-vs-settled wall clock for one executed plan stage —
    /// the calibration signal for the cost model: `predicted_ms` is
    /// what the booking reserved, `settled_ms` what the profile
    /// replay measured.
    StageTime {
        device: usize,
        rows: usize,
        cols: usize,
        kind: StageKind,
        rung: &'static str,
        predicted_ms: f64,
        settled_ms: f64,
    },
    /// A seeded transient kernel fault struck `job`'s executed work on
    /// `device` at `at_ms`; `retry` is the 1-based replay this fault
    /// triggers (bounded by the recovery policy).
    FaultInjected {
        device: usize,
        job: u64,
        at_ms: f64,
        retry: usize,
    },
    /// `device` died stickily at `at_ms`: `interrupted` live bookings
    /// lost unexecuted work and `refund_ms` of booked-but-never-run
    /// wall clock was written off its busy accounting.
    DeviceLost {
        device: usize,
        at_ms: f64,
        interrupted: usize,
        refund_ms: f64,
    },
    /// Recovery booked a retry of `job` on `device` ending at `end_ms`
    /// after `backoff_ms` of modeled backoff (transient replay or
    /// post-loss re-dispatch).
    RetryBooked {
        device: usize,
        job: u64,
        end_ms: f64,
        backoff_ms: f64,
    },
    /// Admission shed `job`: no rung could meet `deadline_ms`; the best
    /// previewed completion was `predicted_end_ms`.
    JobShed {
        job: u64,
        deadline_ms: f64,
        predicted_end_ms: f64,
    },
    /// Admission down-laddered `job` from `from_digits` requested
    /// digits to a cheaper `to_digits` rung that fits its deadline.
    JobDegraded {
        job: u64,
        from_digits: u32,
        to_digits: u32,
    },
    /// `tenant`'s `job` failed the front-door check and never reached
    /// the planner; `reason` names the defect (`"underdetermined"`,
    /// `"non-finite-matrix"`, ... — see the pipeline's `SubmitError`).
    JobInvalid {
        tenant: u32,
        job: u64,
        reason: &'static str,
    },
    /// `job` entered `tenant`'s bounded ingress queue; `queued` is the
    /// queue depth after the enqueue.
    TenantEnqueued {
        tenant: u32,
        job: u64,
        queued: usize,
    },
    /// A tenant-queue decision dropped `job` at `at_ms`; `reason` names
    /// the policy arm that fired (`"reject"` for a full queue under
    /// `Backpressure::Reject`, `"evict"` for the oldest job displaced
    /// under `ShedOldest`, `"overload"` for the degradation ladder,
    /// `"over-quota"` for a job costing more than the tenant's whole
    /// quota bucket, `"starved"` for work no event can ever serve).
    TenantShed {
        tenant: u32,
        job: u64,
        at_ms: f64,
        reason: &'static str,
    },
    /// `tenant`'s device-ms token bucket could not cover its next job:
    /// `needed_ms` predicted against `available_ms` of credit. Emitted
    /// once per dry spell, not per blocked dispatch attempt.
    QuotaExhausted {
        tenant: u32,
        at_ms: f64,
        needed_ms: f64,
        available_ms: f64,
    },
    /// `device`'s circuit breaker opened at `at_ms` after `faults`
    /// transient faults inside its sliding window: the device is
    /// quarantined (spans freed, no new dispatches) until a probe
    /// succeeds.
    CircuitOpen {
        device: usize,
        at_ms: f64,
        faults: usize,
    },
    /// The breaker's backoff elapsed and one probe job (`job`) was
    /// dispatched onto quarantined `device` at `at_ms`.
    CircuitProbe { device: usize, job: u64, at_ms: f64 },
    /// `device`'s probe ran clean at `at_ms`: the breaker closed and
    /// the device rejoined the dispatch candidate set.
    CircuitClose { device: usize, at_ms: f64 },
}

/// A sink for pipeline [`Event`]s.
///
/// Implementations must be cheap and side-effect-free with respect to
/// the pipeline: `on_event` is called inline from planning, dispatch
/// and settlement (possibly from several worker threads at once), and
/// nothing it does may feed back into scheduling or numerics.
pub trait Observer: Send + Sync {
    fn on_event(&self, ev: &Event);
}

/// The standard observer: records every event in arrival order behind
/// a mutex, for later export via [`trace::chrome_trace`] or
/// aggregation via [`metrics::Metrics::from_events`].
///
/// ```
/// use std::sync::Arc;
/// use mdls_obs::{Event, Observer, Recorder};
///
/// let rec = Arc::new(Recorder::new());
/// let obs: Arc<dyn Observer> = rec.clone();
/// obs.on_event(&Event::Device { device: 0, name: "v100" });
/// assert_eq!(rec.events().len(), 1);
/// ```
#[derive(Default)]
pub struct Recorder {
    #[expect(
        clippy::disallowed_types,
        reason = "never hands a guard out, so no emit can run under it"
    )]
    events: std::sync::Mutex<Vec<Event>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the recorded stream, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything recorded so far (e.g. between benchmark phases).
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }
}

impl Observer for Recorder {
    fn on_event(&self, ev: &Event) {
        self.events.lock().unwrap().push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // the no-observer fast path constructs nothing, but even the
        // observed path must stay allocation-free per event
        fn assert_copy<T: Copy>() {}
        assert_copy::<Event>();
        assert!(std::mem::size_of::<Event>() <= 128);
    }

    #[test]
    fn recorder_keeps_arrival_order() {
        let rec = Recorder::new();
        for device in 0..4 {
            rec.on_event(&Event::SectPreview {
                device,
                end_ms: device as f64,
            });
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        for (i, ev) in evs.iter().enumerate() {
            match ev {
                Event::SectPreview { device, .. } => assert_eq!(*device, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new());
        #[expect(
            clippy::disallowed_methods,
            reason = "the test shares a recorder across threads"
        )]
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.on_event(&Event::Reconciled {
                            device: t,
                            refund_ms: 1.0,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.len(), 400);
    }
}
