//! The benchmark's own tracing: host-clock spans around every call it
//! makes into a layer, and a counting [`Observer`] for the program's
//! event stream. Both live here, outside the program — the traced pass
//! measures from outside only.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mdls_obs::{Event, Observer, StageKind};

/// One host-clock span. Spans of one run share the collector; `parent`
/// is the span that caused this one (`None` for the root).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span collector, written out as a Chrome trace at exit.
pub struct Spans {
    /// Off in the end-to-end pass: calls are still timed, nothing is
    /// kept.
    store: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(store: bool) -> Spans {
        Spans {
            store,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        if !self.store {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.enter(name);
        let out = f(self);
        let secs = self.exit(id);
        (out, secs)
    }

    /// Self time per span name, seconds: a span's duration minus the
    /// part its child spans cover, summed over spans sharing a name,
    /// largest first.
    pub fn self_times(&self) -> Vec<(String, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(String, f64, usize)> = Vec::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 * 1e-9;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name.clone(), own, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// Chrome-trace JSON (complete `X` events, µs), one track.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}{}",
                s.name,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.id,
                parent,
                sep
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// O(1)-memory observer: one counter per event variant the per-layer
/// metrics read, plus the few running sums they need. Stores no events.
#[derive(Default)]
pub struct Counter {
    total: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    /// Σ `PlanCandidates::candidates`.
    candidates: AtomicU64,
    fused_hits: AtomicU64,
    fused_misses: AtomicU64,
    sect_previews: AtomicU64,
    groups_formed: AtomicU64,
    /// Σ `GroupFormed::size`.
    group_members: AtomicU64,
    deadline_caps: AtomicU64,
    stage_bookings: AtomicU64,
    refunds: AtomicU64,
    gap_fills: AtomicU64,
    compactions: AtomicU64,
    /// Σ `Compacted::slid`.
    slid: AtomicU64,
    staging_waits: AtomicU64,
    holds: AtomicU64,
    pass_extensions: AtomicU64,
    faults: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    enqueued: AtomicU64,
    shed_reject: AtomicU64,
    shed_evict: AtomicU64,
    shed_overload: AtomicU64,
    quota_exhaustions: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_probes: AtomicU64,
    breaker_closes: AtomicU64,
    /// Booked stage wall by kind (factor, residual, correct), sim-ms.
    booked_ms: Mutex<[f64; 3]>,
}

fn bump(c: &AtomicU64, by: usize) {
    c.fetch_add(by as u64, Ordering::Relaxed);
}

fn read(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

impl Observer for Counter {
    fn on_event(&self, ev: &Event) {
        bump(&self.total, 1);
        match *ev {
            Event::PlanCacheHit { .. } => bump(&self.plan_hits, 1),
            Event::PlanCacheMiss { .. } => bump(&self.plan_misses, 1),
            Event::PlanCandidates { candidates, .. } => bump(&self.candidates, candidates),
            Event::FusedMemoHit { .. } => bump(&self.fused_hits, 1),
            Event::FusedMemoMiss { .. } => bump(&self.fused_misses, 1),
            Event::SectPreview { .. } => bump(&self.sect_previews, 1),
            Event::GroupFormed { size, .. } => {
                bump(&self.groups_formed, 1);
                bump(&self.group_members, size);
            }
            Event::DeadlineCap { .. } => bump(&self.deadline_caps, 1),
            Event::StageBooked {
                kind,
                host_start_ms,
                host_end_ms,
                dev_start_ms,
                dev_end_ms,
                ..
            } => {
                bump(&self.stage_bookings, 1);
                let k = match kind {
                    StageKind::Factor => 0,
                    StageKind::Residual => 1,
                    StageKind::Correct => 2,
                };
                let mut booked = self.booked_ms.lock().expect("no panics under this lock");
                booked[k] += (host_end_ms - host_start_ms) + (dev_end_ms - dev_start_ms);
            }
            Event::Refund { .. } => bump(&self.refunds, 1),
            Event::GapFilled { .. } => bump(&self.gap_fills, 1),
            Event::Compacted { slid, .. } => {
                bump(&self.compactions, 1);
                bump(&self.slid, slid);
            }
            Event::StagingWait { .. } => bump(&self.staging_waits, 1),
            Event::Held { .. } => bump(&self.holds, 1),
            Event::PassExtended { .. } => bump(&self.pass_extensions, 1),
            Event::FaultInjected { .. } => bump(&self.faults, 1),
            Event::RetryBooked { .. } => bump(&self.retries, 1),
            Event::JobDegraded { .. } => bump(&self.degraded, 1),
            Event::TenantEnqueued { .. } => bump(&self.enqueued, 1),
            Event::TenantShed { reason, .. } => bump(
                match reason {
                    "reject" => &self.shed_reject,
                    "evict" => &self.shed_evict,
                    _ => &self.shed_overload,
                },
                1,
            ),
            Event::QuotaExhausted { .. } => bump(&self.quota_exhaustions, 1),
            Event::CircuitOpen { .. } => bump(&self.breaker_opens, 1),
            Event::CircuitProbe { .. } => bump(&self.breaker_probes, 1),
            Event::CircuitClose { .. } => bump(&self.breaker_closes, 1),
            _ => {}
        }
    }
}

impl Counter {
    /// The per-layer count metrics, by registry name.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let groups = read(&self.groups_formed);
        let booked = *self.booked_ms.lock().expect("no panics under this lock");
        let booked_total: f64 = booked.iter().sum();
        let share = |ms: f64| {
            if booked_total > 0.0 {
                ms / booked_total
            } else {
                0.0
            }
        };
        vec![
            ("planner.cache_hits", read(&self.plan_hits)),
            ("planner.cache_misses", read(&self.plan_misses)),
            ("planner.candidates_scored", read(&self.candidates)),
            ("planner.fused_memo_hits", read(&self.fused_hits)),
            ("planner.fused_memo_misses", read(&self.fused_misses)),
            ("pool.stage_bookings", read(&self.stage_bookings)),
            ("pool.refunds", read(&self.refunds)),
            ("pool.gap_fills", read(&self.gap_fills)),
            ("pool.compactions", read(&self.compactions)),
            ("pool.slid_dispatches", read(&self.slid)),
            ("pool.staging_waits", read(&self.staging_waits)),
            ("pool.holds", read(&self.holds)),
            ("pool.pass_extensions", read(&self.pass_extensions)),
            ("scheduler.sect_previews", read(&self.sect_previews)),
            ("microbatch.groups_formed", groups),
            (
                "microbatch.mean_group_size",
                if groups > 0.0 {
                    read(&self.group_members) / groups
                } else {
                    0.0
                },
            ),
            ("microbatch.deadline_caps", read(&self.deadline_caps)),
            ("batch.sim_share_factor", share(booked[0])),
            ("batch.sim_share_residual", share(booked[1])),
            ("batch.sim_share_correct", share(booked[2])),
            ("service.enqueued", read(&self.enqueued)),
            ("service.shed_reject", read(&self.shed_reject)),
            ("service.shed_evict", read(&self.shed_evict)),
            ("service.shed_overload", read(&self.shed_overload)),
            ("service.degraded", read(&self.degraded)),
            ("service.retries", read(&self.retries)),
            ("service.faults_injected", read(&self.faults)),
            ("service.breaker_opens", read(&self.breaker_opens)),
            ("service.breaker_probes", read(&self.breaker_probes)),
            ("service.breaker_closes", read(&self.breaker_closes)),
            ("service.quota_exhaustions", read(&self.quota_exhaustions)),
            ("obs.events_total", read(&self.total)),
        ]
    }
}
