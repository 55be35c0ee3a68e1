//! Multi-tenant service-shell properties: weighted-fair isolation
//! bounds a light tenant's tail latency under an adversarial burster
//! (strictly better than the FIFO baseline), quota exhaustion starves
//! only the exhausted tenant and never overspends within a dispatch
//! round, the service loop is bit- and
//! schedule-deterministic across runs and host worker counts, and a
//! tripped circuit breaker keeps non-probe work off the quarantined
//! device until a probe succeeds, and under shortest-expected-completion
//! placement the booking the shell commits is the one it previewed.

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::{metrics::Metrics, Event, Recorder};
use mdls_pipeline::batch::Disposition;
use mdls_pipeline::{
    serve, Backpressure, BreakerConfig, DevicePool, DispatchPolicy, ExecutionMode, Job,
    ServiceConfig, ServicePolicy, ServiceReport, SloClass, TenantId, TenantSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diag_jobs(
    count: usize,
    id_base: u64,
    digits: u32,
    seed: u64,
    tenant: TenantId,
    slo: SloClass,
    spacing_ms: f64,
) -> Vec<Job> {
    let n = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            Job::new(id_base + i, a, b, digits)
                .with_tenant(tenant)
                .with_slo(slo)
                .with_release_ms(i as f64 * spacing_ms)
        })
        .collect()
}

fn tenant_summary(report: &ServiceReport, id: TenantId) -> &mdls_pipeline::TenantSummary {
    report
        .tenants
        .iter()
        .find(|t| t.tenant == id)
        .expect("tenant summarized")
}

/// A 10× burster slams the pool at t = 0; a light tenant trickles jobs
/// in. Under weighted-fair scheduling the light tenant's p99 stays
/// within a constant factor of its uncontended p99 — and strictly
/// below the FIFO baseline, where its jobs drown behind the burst.
#[test]
fn weighted_fair_bounds_light_tenant_p99_under_burst() {
    let light_id = TenantId(1);
    let burst_id = TenantId(2);
    let light = diag_jobs(40, 0, 25, 0xfa1e, light_id, SloClass::Standard, 5.0);
    let burst = diag_jobs(400, 1000, 25, 0xb1a57, burst_id, SloClass::BestEffort, 0.0);
    let mut jobs = light.clone();
    jobs.extend(burst);
    let specs = [
        TenantSpec::new(light_id, "light"),
        TenantSpec::new(burst_id, "burster").with_queue(1000, Backpressure::Reject),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };

    let run = |jobs: &[Job], policy: ServicePolicy| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        serve(&mut pool, jobs, &specs, &ServiceConfig { policy, ..cfg })
    };
    let solo = run(&light, ServicePolicy::WeightedFair);
    let fair = run(&jobs, ServicePolicy::WeightedFair);
    let fifo = run(&jobs, ServicePolicy::Fifo);

    let solo_p99 = tenant_summary(&solo, light_id).summary.p99_ms;
    let fair_light = tenant_summary(&fair, light_id);
    let fifo_light = tenant_summary(&fifo, light_id);
    assert_eq!(
        fair_light.summary.completed, 40,
        "fair run completes the light tenant"
    );
    assert!(
        fair_light.summary.p99_ms < fifo_light.summary.p99_ms,
        "weighted fair must strictly beat FIFO for the light tenant: \
         fair p99 {} vs fifo p99 {}",
        fair_light.summary.p99_ms,
        fifo_light.summary.p99_ms
    );
    // the SLO bound: a constant factor over the uncontended tail, not
    // proportional to the burster's backlog
    assert!(
        fair_light.summary.p99_ms <= solo_p99.max(1e-3) * 10.0,
        "burst leaked into the light tenant's tail: p99 {} vs solo {}",
        fair_light.summary.p99_ms,
        solo_p99
    );
    // the burster itself pays: its tail is far beyond the light one's
    assert!(tenant_summary(&fair, burst_id).summary.p99_ms > fair_light.summary.p99_ms);

    // a bounded freshest-wins queue sheds the burst's overflow at the
    // door — counted as rejected, never queued — and starves no one
    let bounded = [
        specs[0],
        TenantSpec::new(burst_id, "burster").with_queue(100, Backpressure::ShedOldest),
    ];
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let shed = serve(&mut pool, &jobs, &bounded, &cfg);
    let burster = tenant_summary(&shed, burst_id);
    assert!(
        burster.summary.shed > 0,
        "the burst never overflowed its queue"
    );
    assert_eq!(burster.summary.shed, burster.rejected);
    assert_eq!(burster.summary.shed + burster.summary.completed, 400);
    assert_eq!(tenant_summary(&shed, light_id).summary.completed, 40);
}

/// A zero-refill quota starves only its own tenant: the metered tenant
/// completes exactly what its bucket covers and sheds the rest, while
/// the unmetered tenant completes everything — on one device and on
/// four (where one dispatch round launches several jobs at once). With
/// a refilling bucket the same tenant runs dry, waits, and finishes.
#[test]
fn quota_exhaustion_sheds_only_the_exhausted_tenant() {
    let metered = TenantId(1);
    let free = TenantId(2);
    let a = diag_jobs(10, 0, 25, 0x90a7, metered, SloClass::Standard, 0.0);
    let b = diag_jobs(10, 100, 25, 0x5eed, free, SloClass::Standard, 0.0);
    // price one job on the reference model to size the bucket at ~2 jobs
    let planner = mdls_pipeline::Planner::new();
    let (_, fused) = planner.plan_fused(&Gpu::v100(), 8, 8, 25, 1);
    let cost = fused.predicted_ms;

    let mut jobs = a;
    jobs.extend(b);
    let specs = [
        TenantSpec::new(metered, "metered").with_quota(2.2 * cost, 0.0),
        TenantSpec::new(free, "free"),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };
    for devices in [1, 4] {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
        let report = serve(&mut pool, &jobs, &specs, &cfg);

        let m = tenant_summary(&report, metered);
        let f = tenant_summary(&report, free);
        assert_eq!(
            f.summary.completed, 10,
            "unmetered tenant must be untouched"
        );
        assert_eq!(f.summary.shed, 0);
        assert_eq!(
            m.summary.completed, 2,
            "{devices} devices: bucket covers exactly two jobs"
        );
        assert_eq!(m.summary.shed, 8, "the rest starve and shed");
        assert_eq!(m.quota_exhaustions, 1, "one dry spell, counted once");
        for o in report.outcomes.iter().filter(|o| o.tenant == metered) {
            let expect = if o.job_id < 2 {
                Disposition::Ok
            } else {
                Disposition::Shed
            };
            assert_eq!(o.disposition, expect, "job {}", o.job_id);
        }
    }

    // a refilling bucket meters instead of starving: sharing one device
    // the tenant would spend ≈ 500 device-ms per second, the bucket
    // refills at half that — it runs dry at least once, every dry spell
    // ends, and nothing is shed
    let refilling = [
        TenantSpec::new(metered, "metered").with_quota(2.2 * cost, 250.0),
        specs[1],
    ];
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let report = serve(&mut pool, &jobs, &refilling, &cfg);
    let m = tenant_summary(&report, metered);
    assert!(m.quota_exhaustions >= 1, "the metered tenant never ran dry");
    assert_eq!((m.summary.completed, m.summary.shed), (10, 0));
    assert_eq!(tenant_summary(&report, free).summary.completed, 10);
}

/// Regression: the quota check used to read the bucket at pick time
/// while the debit landed at settle time, so one dispatch round
/// launched one job per free device against the same balance — a
/// zero-refill bucket sized for 1.2 jobs completed 4 on 4×V100. The
/// predicted cost is now reserved at dispatch, so the bucket never
/// overspends within a round.
#[test]
fn quota_never_overspends_within_a_round() {
    let metered = TenantId(1);
    let jobs = diag_jobs(8, 0, 25, 7, metered, SloClass::Standard, 0.0);
    let planner = mdls_pipeline::Planner::new();
    let (_, fused) = planner.plan_fused(&Gpu::v100(), 8, 8, 25, 1);
    // bucket covers ~1.2 jobs, zero refill
    let specs = [TenantSpec::new(metered, "metered").with_quota(1.2 * fused.predicted_ms, 0.0)];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
    let report = serve(&mut pool, &jobs, &specs, &cfg);
    let t = tenant_summary(&report, metered);
    assert_eq!(t.summary.completed, 1, "bucket covers exactly one job");
    assert_eq!(t.summary.shed, 7, "the rest starve and shed");
}

/// Regression: a job predicted to cost more than its tenant's whole
/// bucket can never be covered — a refilling bucket tops out at its
/// burst — and used to park `serve` forever, stepping simulated time
/// from one refill instant to the next. It is now shed as it enqueues
/// (reason `"over-quota"`), and the tenant's affordable jobs still run.
#[test]
fn a_job_larger_than_the_whole_bucket_is_shed_not_waited_on() {
    let metered = TenantId(1);
    let small = diag_jobs(4, 0, 25, 11, metered, SloClass::Standard, 0.5);
    let planner = mdls_pipeline::Planner::new();
    let cost = |n, digits| {
        planner
            .plan_fused(&Gpu::v100(), n, n, digits, 1)
            .1
            .predicted_ms
    };
    let burst = 1.5 * cost(8, 25);
    assert!(
        cost(64, 100) > burst,
        "vacuous: the big job fits the bucket"
    );
    let a = HostMat::<f64>::from_fn(64, 64, |r, c| if r == c { 4.0 } else { 0.01 });
    let big = Job::new(100, a, vec![1.0; 64], 100)
        .with_tenant(metered)
        .with_release_ms(0.25);
    let mut jobs = small;
    jobs.push(big);
    let specs = [TenantSpec::new(metered, "metered").with_quota(burst, 500.0)];
    let recorder = Arc::new(Recorder::new());
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    pool.attach_observer(recorder.clone());
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };
    let report = serve(&mut pool, &jobs, &specs, &cfg);
    let dispositions: Vec<Disposition> = report.outcomes.iter().map(|o| o.disposition).collect();
    assert_eq!(dispositions[..4], [Disposition::Ok; 4]);
    assert_eq!(dispositions[4], Disposition::Shed);
    let over = |e: &Event| {
        matches!(
            e,
            Event::TenantShed {
                job: 100,
                reason: "over-quota",
                ..
            }
        )
    };
    assert_eq!(recorder.events().iter().filter(|e| over(e)).count(), 1);
}

/// The service loop is bit- and schedule-deterministic: identical
/// outcomes (solutions, placements, simulated times, dispositions)
/// across repeated runs and across host worker counts.
#[test]
fn service_loop_is_deterministic_across_runs_and_workers() {
    let t1 = TenantId(1);
    let t2 = TenantId(2);
    let mut jobs = diag_jobs(12, 0, 40, 0xde7e, t1, SloClass::Standard, 0.7);
    jobs.extend(diag_jobs(
        12,
        100,
        25,
        0x4e11,
        t2,
        SloClass::BestEffort,
        0.3,
    ));
    let specs = [
        TenantSpec::new(t1, "alpha").with_weight(2),
        TenantSpec::new(t2, "beta"),
    ];
    let run = |workers: usize| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        pool.set_fault_plan(1, FaultPlan::seeded(0x7ea5, 10.0, 1.5));
        let cfg = ServiceConfig {
            host_workers: workers,
            ..ServiceConfig::default()
        };
        serve(&mut pool, &jobs, &specs, &cfg)
    };
    let a = run(1);
    let b = run(4);
    let c = run(1);
    for (x, y) in a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .chain(a.outcomes.iter().zip(&c.outcomes))
    {
        assert_eq!(x.job_id, y.job_id);
        assert_eq!(x.device, y.device, "placement must not depend on workers");
        assert_eq!(x.start_ms.to_bits(), y.start_ms.to_bits());
        assert_eq!(x.end_ms.to_bits(), y.end_ms.to_bits());
        assert_eq!(x.residual.to_bits(), y.residual.to_bits());
        assert_eq!(x.x, y.x, "solution bits must match");
        assert_eq!(x.disposition, y.disposition);
    }
    assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits());
}

/// A flapping device trips its breaker; from the trip to the probe,
/// the quarantined device receives no bookings at all, and the first
/// booking after re-admission is the probe itself. A clean probe
/// closes the breaker and normal dispatch resumes.
#[test]
fn quarantined_device_gets_no_nonprobe_dispatches_until_probe_succeeds() {
    let t1 = TenantId(1);
    let jobs = diag_jobs(40, 0, 25, 0xc1c1, t1, SloClass::Standard, 0.0);
    let specs = [TenantSpec::new(t1, "solo").with_queue(64, Backpressure::Block)];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 50.0,
            max_faults: 2,
            backoff_ms: 5.0,
        },
        ..ServiceConfig::default()
    };
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
    // dense transients early on device 1, quiet after 3 ms
    pool.set_fault_plan(1, FaultPlan::seeded(0xf00d, 3.0, 0.3));
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let report = serve(&mut pool, &jobs, &specs, &cfg);

    assert_eq!(report.outcomes.len(), 40);
    assert!(
        report.outcomes.iter().all(|o| o.disposition.completed()),
        "quarantine must not lose jobs — the healthy device absorbs them"
    );
    let b1 = report.breakers[1];
    assert!(b1.opens >= 1, "flapping device must trip its breaker");
    assert!(b1.probes >= 1, "quarantine must end in a probe");
    assert!(b1.closes >= 1, "a clean probe must close the breaker");

    // replay the event stream: between CircuitOpen(d1) and the next
    // CircuitProbe(d1), device 1 must receive zero bookings
    let events = recorder.events();
    // the stream folds to what the report says
    let m = Metrics::from_events(&events);
    let opens: usize = report.breakers.iter().map(|b| b.opens).sum();
    assert_eq!(m.circuit_opens as usize, opens);
    assert_eq!(m.tenant_latency[&t1.0].count(), 40);
    let mut quarantined = false;
    let mut saw_transitions = 0;
    for ev in &events {
        match ev {
            Event::CircuitOpen { device: 1, .. } => {
                quarantined = true;
                saw_transitions += 1;
            }
            Event::CircuitProbe { device: 1, .. } => {
                quarantined = false;
            }
            Event::StageBooked { device: 1, .. } => {
                assert!(!quarantined, "booking on a quarantined device");
            }
            _ => {}
        }
    }
    assert!(saw_transitions >= 1);
    // after the final close, the device serves normal traffic again
    let close_at = events
        .iter()
        .rposition(|e| matches!(e, Event::CircuitClose { device: 1, .. }))
        .expect("breaker closed");
    assert!(
        events[close_at..]
            .iter()
            .any(|e| matches!(e, Event::StageBooked { device: 1, .. })),
        "re-admitted device must receive work again"
    );
}

/// Regression: under shortest-expected-completion the shell used to
/// rank devices by previewing the plan's *structural* pass count and
/// then book the *expected* one — its preview was not what it
/// committed. Placement is now the shared dispatch step, where the
/// priced request that wins the preview is the request that is booked:
/// for every dispatch, the smallest previewed end equals the end of
/// the booking that follows, bit for bit. Deterministic across repeats.
#[test]
fn sect_dispatch_books_what_it_previewed() {
    let t1 = TenantId(1);
    let t2 = TenantId(2);
    // refinement plans (expected passes < structural passes) on a
    // heterogeneous pool, arriving faster than one device drains them
    let mut jobs = diag_jobs(30, 0, 50, 0x5ec7, t1, SloClass::Standard, 2.0);
    jobs.extend(diag_jobs(30, 100, 30, 0x5ec8, t2, SloClass::Standard, 3.0));
    let specs = [TenantSpec::new(t1, "alpha"), TenantSpec::new(t2, "beta")];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        dispatch: DispatchPolicy::ShortestExpectedCompletion,
        ..ServiceConfig::default()
    };
    let run = || {
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        let recorder = Arc::new(Recorder::new());
        pool.attach_observer(recorder.clone());
        let report = serve(&mut pool, &jobs, &specs, &cfg);
        (report, recorder.events())
    };
    let (report, events) = run();
    assert!(report.outcomes.iter().all(|o| o.disposition.completed()));

    // split the stream into decisions: a run of previews, then the
    // stage intervals of the booking they led to
    let mut decisions: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut previews: Vec<f64> = Vec::new();
    let mut booked_end: Option<f64> = None;
    for ev in &events {
        match ev {
            Event::SectPreview { end_ms, .. } => {
                if let Some(end) = booked_end.take() {
                    decisions.push((std::mem::take(&mut previews), end));
                }
                previews.push(*end_ms);
            }
            Event::StageBooked { dev_end_ms, .. } => booked_end = Some(*dev_end_ms),
            _ => {}
        }
    }
    decisions.push((previews, booked_end.expect("the last decision booked")));
    assert_eq!(
        decisions.len(),
        jobs.len(),
        "one placement decision per job"
    );
    let mut both = 0;
    for (i, (previews, booked)) in decisions.iter().enumerate() {
        let best = previews.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(
            best.to_bits(),
            booked.to_bits(),
            "dispatch {i}: previewed {best} ms, booked {booked} ms"
        );
        both += usize::from(previews.len() == 2);
    }
    assert!(both > 0, "vacuous: never more than one device free");

    let (again, events_again) = run();
    assert_eq!(
        events, events_again,
        "the SECT service run is not deterministic"
    );
    for (a, b) in report.outcomes.iter().zip(&again.outcomes) {
        assert_eq!(
            (a.device, a.end_ms.to_bits()),
            (b.device, b.end_ms.to_bits())
        );
    }
}
