//! Observer-inertness tests: attaching an observer must change
//! *nothing* — solution bits, device placement, and every simulated
//! timestamp are identical with and without one, on all four
//! configurations (sequential batch, staged batch, stream, service). The observed
//! runs also pin down what the event stream must contain, so the trace
//! exporter and metrics aggregation are exercised against real
//! pipeline output, not synthetic fixtures.

use std::sync::Arc;

use multidouble_ls::obs::{metrics::Metrics, trace, Event, Recorder};
use multidouble_ls::pipeline::{
    bursty_tracker_jobs, power_flow_jobs, serve, solve_batch_staged_with, solve_stream_staged,
    BatchReport, DevicePool, DispatchPolicy, Job, JobOutcome, MicrobatchConfig, ServiceConfig,
    StageSchedConfig, TenantId, TenantSpec,
};
use multidouble_ls::sim::Gpu;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pool2() -> DevicePool {
    DevicePool::new(vec![Gpu::v100(), Gpu::p100()])
}

fn jobs(count: usize, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    power_flow_jobs(count, &mut rng)
}

fn assert_identical_outcomes(plain: &[JobOutcome], observed: &[JobOutcome]) {
    assert_eq!(plain.len(), observed.len());
    for (p, o) in plain.iter().zip(observed) {
        assert_eq!(p.job_id, o.job_id);
        assert_eq!(p.x, o.x, "job {}: observation changed the bits", p.job_id);
        assert_eq!(p.residual, o.residual);
        assert_eq!(p.device, o.device, "job {}: placement moved", p.job_id);
        assert_eq!(p.start_ms, o.start_ms, "job {}: start moved", p.job_id);
        assert_eq!(p.end_ms, o.end_ms, "job {}: end moved", p.job_id);
        assert_eq!(p.refunded_ms, o.refunded_ms);
        assert_eq!(p.extended_ms, o.extended_ms);
    }
}

fn assert_identical_reports(plain: &BatchReport, observed: &BatchReport) {
    assert_identical_outcomes(&plain.outcomes, &observed.outcomes);
    assert_eq!(plain.makespan_ms, observed.makespan_ms);
    assert_eq!(plain.latency, observed.latency);
    assert_eq!(
        plain.latency.deadline_misses,
        observed.latency.deadline_misses
    );
}

#[test]
fn observer_is_inert_on_the_batch_path() {
    let jobs = jobs(40, 0x0b5e);
    let mut pool_plain = pool2();
    let run = |pool: &mut DevicePool| {
        solve_batch_staged_with(
            pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::sequential(),
            false,
        )
    };
    let plain = run(&mut pool_plain);

    let recorder = Arc::new(Recorder::new());
    let mut pool_obs = pool2();
    pool_obs.attach_observer(recorder.clone());
    let observed = run(&mut pool_obs);

    assert_identical_reports(&plain, &observed);
    // and the observed run actually produced an event stream
    let events = recorder.events();
    assert!(!events.is_empty());
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::JobSettled { .. }))
            .count(),
        jobs.len(),
        "one settlement per job"
    );
    // every device was announced, so the trace names every lane
    let doc = trace::chrome_trace(&events);
    trace::validate_trace(&doc, 2).expect("batch trace must validate");
}

#[test]
fn observer_is_inert_on_the_staged_path() {
    let jobs = jobs(36, 0x57a6ed);
    let micro = MicrobatchConfig::default();
    let sched = StageSchedConfig::staged();
    let mut pool_plain = pool2();
    let plain = solve_batch_staged_with(
        &mut pool_plain,
        &jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &micro,
        &sched,
        true,
    );

    let recorder = Arc::new(Recorder::new());
    let mut pool_obs = pool2();
    pool_obs.attach_observer(recorder.clone());
    let observed = solve_batch_staged_with(
        &mut pool_obs,
        &jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &micro,
        &sched,
        true,
    );

    assert_identical_reports(&plain, &observed);
    let events = recorder.events();
    // stage-granular bookings and calibration records flow on this path
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::StageBooked { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::StageTime { .. })));
    let m = Metrics::from_events(&events);
    assert_eq!(m.jobs, jobs.len() as u64);
    assert!(
        !m.calibration().is_empty(),
        "no predicted-vs-settled stage-time records"
    );
}

#[test]
fn observer_is_inert_on_the_stream_path() {
    let mk_jobs = || {
        let mut rng = StdRng::seed_from_u64(0xf10e);
        bursty_tracker_jobs(30, 6, 25.0, &mut rng)
    };
    let run = |pool: &mut DevicePool| -> Vec<JobOutcome> {
        solve_stream_staged(
            pool,
            mk_jobs(),
            DispatchPolicy::ShortestExpectedCompletion,
            6,
            MicrobatchConfig::default(),
            StageSchedConfig::staged(),
        )
        .collect()
    };
    let mut pool_plain = pool2();
    let plain = run(&mut pool_plain);

    let recorder = Arc::new(Recorder::new());
    let mut pool_obs = pool2();
    pool_obs.attach_observer(recorder.clone());
    let observed = run(&mut pool_obs);

    assert_identical_outcomes(&plain, &observed);
    assert_eq!(pool_plain.makespan_ms(), pool_obs.makespan_ms());
    let events = recorder.events();
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::JobSettled { .. }))
            .count(),
        plain.len()
    );
    // the stream's group former reports through the same event stream
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::GroupFormed { .. })));
    let doc = trace::chrome_trace(&events);
    trace::validate_trace(&doc, 2).expect("stream trace must validate");
    assert!(
        !Metrics::from_events(&events).calibration().is_empty(),
        "no predicted-vs-settled stage-time records on the stream"
    );
}

#[test]
fn observer_is_inert_on_the_service_path() {
    let tenants = [TenantId(1), TenantId(2)];
    let jobs: Vec<Job> = jobs(30, 0x5e17e)
        .into_iter()
        .enumerate()
        .map(|(i, job)| job.with_tenant(tenants[i % 2]))
        .collect();
    let specs = [
        TenantSpec::new(tenants[0], "a"),
        TenantSpec::new(tenants[1], "b"),
    ];
    let cfg = ServiceConfig::default();
    let mut pool_plain = pool2();
    let plain = serve(&mut pool_plain, &jobs, &specs, &cfg);

    let recorder = Arc::new(Recorder::new());
    let mut pool_obs = pool2();
    pool_obs.attach_observer(recorder.clone());
    let observed = serve(&mut pool_obs, &jobs, &specs, &cfg);

    assert_identical_outcomes(&plain.outcomes, &observed.outcomes);
    assert_eq!(plain.makespan_ms, observed.makespan_ms);
    assert_eq!(plain.latency, observed.latency);
    // the shell's own planner reports through the pool's observer:
    // 30 jobs over a handful of shapes miss once per shape, then hit
    let m = Metrics::from_events(&recorder.events());
    assert_eq!(m.jobs, jobs.len() as u64);
    assert!(m.plan_cache_misses > 0, "no plan-cache miss recorded");
    assert!(m.plan_cache_hits > 0, "no plan-cache hit recorded");
    // one turnaround histogram per tenant
    assert_eq!(m.tenant_latency.len(), specs.len());
}
