//! Metrics aggregation: fold a recorded event stream into latency
//! histograms, scheduler counters and cost-model calibration records.
//!
//! Latency (turnaround = settle − release) is tracked per priority
//! class in a [`Histogram`] with logarithmically spaced bins, so
//! p50/p99/p999 queries cost a bin walk and the memory footprint is
//! independent of job count. Calibration records pair each executed
//! plan stage's *booked* wall clock with its *settled* wall clock per
//! (device, shape, stage kind, rung) — the training signal for cost
//! model refits.

use std::collections::BTreeMap;

use crate::{Event, StageKind};

/// Smallest representable latency (one bin boundary), in ms.
const HIST_MIN_MS: f64 = 1.0e-3;
/// Geometric bin growth: ~5% relative resolution per bin.
const HIST_GROWTH: f64 = 1.05;
/// Bin count: covers `HIST_MIN_MS` up to > 10^6 ms.
const HIST_BINS: usize = 426;

/// A log-binned latency histogram: constant memory, ~5% relative
/// quantile error, exact count/min/max.
#[derive(Clone, Debug)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            bins: vec![0; HIST_BINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    fn bin(ms: f64) -> usize {
        if ms <= HIST_MIN_MS {
            return 0;
        }
        let idx = (ms / HIST_MIN_MS).ln() / HIST_GROWTH.ln();
        (idx as usize).min(HIST_BINS - 1)
    }

    /// Geometric midpoint of bin `i` — the value a quantile query
    /// reports for samples landing there.
    fn bin_mid(i: usize) -> f64 {
        HIST_MIN_MS * HIST_GROWTH.powf(i as f64 + 0.5)
    }

    pub fn record(&mut self, ms: f64) {
        let ms = ms.max(0.0);
        self.bins[Self::bin(ms)] += 1;
        self.count += 1;
        self.sum += ms;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) to ~5% relative accuracy,
    /// clamped to the exact observed [min, max]. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // the first and last bins are under/overflow bins:
                // their midpoints are meaningless, so report the exact
                // observed extreme instead
                return match i {
                    0 => self.min,
                    i if i == HIST_BINS - 1 => self.max,
                    i => Self::bin_mid(i).clamp(self.min, self.max),
                };
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// Mean predicted-vs-settled wall clock for one (device, shape, stage
/// kind, rung) bucket.
#[derive(Clone, Debug)]
pub struct StageCalibration {
    pub device: usize,
    pub rows: usize,
    pub cols: usize,
    pub kind: StageKind,
    pub rung: &'static str,
    pub samples: u64,
    /// Mean booked (cost-model) wall clock, ms.
    pub predicted_ms: f64,
    /// Mean settled (profile-replay) wall clock, ms.
    pub settled_ms: f64,
}

impl StageCalibration {
    /// Settled / predicted: > 1 means the model under-books this
    /// bucket, < 1 means it over-books (refund-bound).
    pub fn bias(&self) -> f64 {
        if self.predicted_ms > 0.0 {
            self.settled_ms / self.predicted_ms
        } else {
            1.0
        }
    }
}

type CalKey = (usize, usize, usize, StageKind, &'static str);

/// Aggregated view of a recorded event stream.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Turnaround histograms keyed by priority class.
    pub latency: BTreeMap<i32, Histogram>,
    /// Turnaround histograms keyed by tenant id (single-tenant paths
    /// put everything under tenant 0).
    pub tenant_latency: BTreeMap<u32, Histogram>,
    /// Jobs settled.
    pub jobs: u64,
    /// Jobs settled inside fused groups of size > 1.
    pub fused_jobs: u64,
    /// Fused groups formed with more than one member.
    pub fused_groups: u64,
    /// Jobs that carried a deadline.
    pub deadline_jobs: u64,
    /// Deadline-carrying jobs that settled past their deadline.
    pub deadline_misses: u64,
    /// Stream groups shrunk by a tight front-member deadline.
    pub deadline_caps: u64,
    /// Online re-booking refunds, and the busy time they returned.
    pub refunds: u64,
    pub refunded_ms: f64,
    /// Bookings that landed (at least partly) in a mid-schedule gap.
    pub gap_fills: u64,
    /// Compacting re-books that slid at least one queued dispatch.
    pub compactions: u64,
    /// Queued dispatches slid left by compaction.
    pub slid_dispatches: u64,
    /// Total completion-time improvement from compaction, ms.
    pub compacted_ms: f64,
    /// Bookings delayed by host staging-worker contention, and the
    /// total delay.
    pub staging_waits: u64,
    pub staging_wait_ms: f64,
    /// Adaptive correction passes booked past their plan.
    pub extensions: u64,
    /// Release-time holds placed on device lanes.
    pub holds: u64,
    /// Planner memo cache traffic.
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub fused_memo_hits: u64,
    pub fused_memo_misses: u64,
    /// Ladder candidates scored across all strategy searches.
    pub candidates: u64,
    /// Device completion previews taken by the SECT policy.
    pub sect_previews: u64,
    /// Seeded transient kernel faults injected into executed work.
    pub transient_faults: u64,
    /// Retry bookings placed by recovery (transient replays plus
    /// post-loss re-dispatches).
    pub retries_booked: u64,
    /// Devices lost stickily mid-run.
    pub devices_lost: u64,
    /// Booked-but-never-executed wall clock written off lost devices.
    pub lost_refund_ms: f64,
    /// Jobs shed at admission (no rung could meet the deadline).
    pub jobs_shed: u64,
    /// Jobs down-laddered to a cheaper rung at admission.
    pub jobs_degraded: u64,
    /// Jobs refused at the front door (malformed system or request).
    pub jobs_invalid: u64,
    /// Jobs accepted into a tenant's bounded ingress queue.
    pub tenant_enqueues: u64,
    /// Jobs dropped by a tenant-queue decision (backpressure reject,
    /// shed-oldest eviction, or the overload ladder).
    pub tenant_sheds: u64,
    /// Dry spells where a tenant's device-ms token bucket could not
    /// cover its next job.
    pub quota_exhaustions: u64,
    /// Device circuit-breaker transitions: open (quarantine), probe
    /// dispatches onto a quarantined device, and clean-probe closes.
    pub circuit_opens: u64,
    pub circuit_probes: u64,
    pub circuit_closes: u64,
    calibration: BTreeMap<CalKey, (u64, f64, f64)>,
}

impl Metrics {
    /// Fold `events` (any order) into one aggregate.
    pub fn from_events(events: &[Event]) -> Self {
        let mut m = Metrics::default();
        for ev in events {
            match *ev {
                Event::JobSettled {
                    tenant,
                    priority,
                    end_ms,
                    release_ms,
                    deadline_ms,
                    has_deadline,
                    fused,
                    ..
                } => {
                    m.jobs += 1;
                    m.latency
                        .entry(priority)
                        .or_default()
                        .record(end_ms - release_ms);
                    m.tenant_latency
                        .entry(tenant)
                        .or_default()
                        .record(end_ms - release_ms);
                    if fused > 1 {
                        m.fused_jobs += 1;
                    }
                    if has_deadline {
                        m.deadline_jobs += 1;
                        if end_ms > deadline_ms {
                            m.deadline_misses += 1;
                        }
                    }
                }
                Event::GroupFormed { size, .. } => {
                    if size > 1 {
                        m.fused_groups += 1;
                    }
                }
                Event::DeadlineCap { preferred, cap, .. } => {
                    if cap < preferred {
                        m.deadline_caps += 1;
                    }
                }
                Event::Refund { refunded_ms, .. } => {
                    m.refunds += 1;
                    m.refunded_ms += refunded_ms;
                }
                Event::Reconciled { refund_ms, .. } => {
                    m.refunds += 1;
                    m.refunded_ms += refund_ms;
                }
                Event::GapFilled { .. } => m.gap_fills += 1,
                Event::Compacted { slid, slid_ms, .. } => {
                    m.compactions += 1;
                    m.slid_dispatches += slid as u64;
                    m.compacted_ms += slid_ms;
                }
                Event::StagingWait { wait_ms, .. } => {
                    m.staging_waits += 1;
                    m.staging_wait_ms += wait_ms;
                }
                Event::PassExtended { .. } => m.extensions += 1,
                Event::Held { .. } => m.holds += 1,
                Event::PlanCacheHit { .. } => m.plan_cache_hits += 1,
                Event::PlanCacheMiss { .. } => m.plan_cache_misses += 1,
                Event::FusedMemoHit { .. } => m.fused_memo_hits += 1,
                Event::FusedMemoMiss { .. } => m.fused_memo_misses += 1,
                Event::PlanCandidates { candidates, .. } => m.candidates += candidates as u64,
                Event::SectPreview { .. } => m.sect_previews += 1,
                Event::FaultInjected { .. } => m.transient_faults += 1,
                Event::DeviceLost { refund_ms, .. } => {
                    m.devices_lost += 1;
                    m.lost_refund_ms += refund_ms;
                }
                Event::RetryBooked { .. } => m.retries_booked += 1,
                Event::JobShed { .. } => m.jobs_shed += 1,
                Event::JobDegraded { .. } => m.jobs_degraded += 1,
                Event::JobInvalid { .. } => m.jobs_invalid += 1,
                Event::TenantEnqueued { .. } => m.tenant_enqueues += 1,
                Event::TenantShed { .. } => m.tenant_sheds += 1,
                Event::QuotaExhausted { .. } => m.quota_exhaustions += 1,
                Event::CircuitOpen { .. } => m.circuit_opens += 1,
                Event::CircuitProbe { .. } => m.circuit_probes += 1,
                Event::CircuitClose { .. } => m.circuit_closes += 1,
                Event::StageTime {
                    device,
                    rows,
                    cols,
                    kind,
                    rung,
                    predicted_ms,
                    settled_ms,
                } => {
                    let slot = m
                        .calibration
                        .entry((device, rows, cols, kind, rung))
                        .or_insert((0, 0.0, 0.0));
                    slot.0 += 1;
                    slot.1 += predicted_ms;
                    slot.2 += settled_ms;
                }
                Event::Device { .. }
                | Event::StageBooked { .. }
                | Event::StagingWorker { .. }
                | Event::StagingBooked { .. } => {}
            }
        }
        m
    }

    /// Per-bucket calibration records, in deterministic key order.
    pub fn calibration(&self) -> Vec<StageCalibration> {
        self.calibration
            .iter()
            .map(
                |(&(device, rows, cols, kind, rung), &(samples, pred, settled))| StageCalibration {
                    device,
                    rows,
                    cols,
                    kind,
                    rung,
                    samples,
                    predicted_ms: pred / samples as f64,
                    settled_ms: settled / samples as f64,
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_log_accurate() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 0.1); // 0.1 .. 100 ms uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50();
        assert!((p50 / 50.0 - 1.0).abs() < 0.06, "p50 {p50}");
        let p99 = h.p99();
        assert!((p99 / 99.0 - 1.0).abs() < 0.06, "p99 {p99}");
        assert!(h.p999() <= h.max());
        assert!(h.quantile(0.0) >= 0.1 * 0.94);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(1.0e9); // far past the last bin boundary
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), 0.0, "clamped to the observed min");
        assert_eq!(h.quantile(1.0), 1.0e9, "clamped to the observed max");
        assert_eq!(Histogram::new().p50(), 0.0);
    }

    #[test]
    fn metrics_fold_fault_counters() {
        let events = vec![
            Event::FaultInjected {
                device: 1,
                job: 3,
                at_ms: 2.0,
                retry: 1,
            },
            Event::DeviceLost {
                device: 1,
                at_ms: 5.0,
                interrupted: 2,
                refund_ms: 7.5,
            },
            Event::RetryBooked {
                device: 0,
                job: 3,
                end_ms: 9.0,
                backoff_ms: 0.1,
            },
            Event::RetryBooked {
                device: 2,
                job: 4,
                end_ms: 9.5,
                backoff_ms: 0.2,
            },
            Event::JobShed {
                job: 5,
                deadline_ms: 1.0,
                predicted_end_ms: 4.0,
            },
            Event::JobDegraded {
                job: 6,
                from_digits: 90,
                to_digits: 60,
            },
            Event::JobInvalid {
                tenant: 0,
                job: 7,
                reason: "underdetermined",
            },
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.transient_faults, 1);
        assert_eq!(m.devices_lost, 1);
        assert_eq!(m.lost_refund_ms, 7.5);
        assert_eq!(m.retries_booked, 2);
        assert_eq!(m.jobs_shed, 1);
        assert_eq!(m.jobs_degraded, 1);
        assert_eq!(m.jobs_invalid, 1);
    }

    #[test]
    fn metrics_fold_service_counters() {
        let events = vec![
            Event::TenantEnqueued {
                tenant: 1,
                job: 10,
                queued: 3,
            },
            Event::TenantShed {
                tenant: 1,
                job: 11,
                at_ms: 2.0,
                reason: "reject",
            },
            Event::TenantShed {
                tenant: 2,
                job: 12,
                at_ms: 3.0,
                reason: "overload",
            },
            Event::QuotaExhausted {
                tenant: 1,
                at_ms: 4.0,
                needed_ms: 2.5,
                available_ms: 0.25,
            },
            Event::CircuitOpen {
                device: 1,
                at_ms: 5.0,
                faults: 4,
            },
            Event::CircuitProbe {
                device: 1,
                job: 13,
                at_ms: 9.0,
            },
            Event::CircuitClose {
                device: 1,
                at_ms: 10.0,
            },
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.tenant_enqueues, 1);
        assert_eq!(m.tenant_sheds, 2);
        assert_eq!(m.quota_exhaustions, 1);
        assert_eq!(m.circuit_opens, 1);
        assert_eq!(m.circuit_probes, 1);
        assert_eq!(m.circuit_closes, 1);
    }

    #[test]
    fn metrics_fold_counts_and_calibration() {
        let events = vec![
            Event::JobSettled {
                job: 0,
                device: 0,
                tenant: 3,
                priority: 1,
                start_ms: 0.0,
                end_ms: 4.0,
                release_ms: 1.0,
                deadline_ms: 3.0,
                has_deadline: true,
                fused: 2,
                corrections: 1,
                refunded_ms: 0.0,
                extended_ms: 0.0,
                achieved_digits: 30.0,
            },
            Event::JobSettled {
                job: 1,
                device: 0,
                tenant: 3,
                priority: 0,
                start_ms: 0.0,
                end_ms: 2.0,
                release_ms: 0.0,
                deadline_ms: 0.0,
                has_deadline: false,
                fused: 1,
                corrections: 0,
                refunded_ms: 0.0,
                extended_ms: 0.0,
                achieved_digits: 26.0,
            },
            Event::GroupFormed {
                rows: 64,
                cols: 64,
                digits: 30,
                size: 2,
                preferred: 4,
            },
            Event::Refund {
                device: 0,
                from_stage: 4,
                freed_ms: 1.0,
                refunded_ms: 0.5,
                at_ms: 3.0,
            },
            Event::PlanCacheMiss {
                rows: 64,
                cols: 64,
                digits: 30,
            },
            Event::PlanCacheHit {
                rows: 64,
                cols: 64,
                digits: 30,
            },
            Event::PlanCandidates {
                rows: 64,
                cols: 64,
                digits: 30,
                candidates: 3,
            },
            Event::StageTime {
                device: 0,
                rows: 64,
                cols: 64,
                kind: StageKind::Factor,
                rung: "d2",
                predicted_ms: 2.0,
                settled_ms: 1.0,
            },
            Event::StageTime {
                device: 0,
                rows: 64,
                cols: 64,
                kind: StageKind::Factor,
                rung: "d2",
                predicted_ms: 2.0,
                settled_ms: 2.0,
            },
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.fused_jobs, 1);
        assert_eq!(m.fused_groups, 1);
        assert_eq!((m.deadline_jobs, m.deadline_misses), (1, 1));
        assert_eq!(m.refunds, 1);
        assert_eq!(m.refunded_ms, 0.5);
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (1, 1));
        assert_eq!(m.candidates, 3);
        // two latency classes, one sample each
        assert_eq!(m.latency.len(), 2);
        assert_eq!(m.latency[&1].count(), 1);
        assert!((m.latency[&1].p50() - 3.0).abs() < 0.2);
        // both settles share tenant 3, so one tenant histogram holds both
        assert_eq!(m.tenant_latency.len(), 1);
        assert_eq!(m.tenant_latency[&3].count(), 2);
        // calibration: one bucket, two samples, means of both columns
        let cal = m.calibration();
        assert_eq!(cal.len(), 1);
        assert_eq!(cal[0].samples, 2);
        assert!((cal[0].predicted_ms - 2.0).abs() < 1e-12);
        assert!((cal[0].settled_ms - 1.5).abs() < 1e-12);
        assert!((cal[0].bias() - 0.75).abs() < 1e-12);
    }
}
