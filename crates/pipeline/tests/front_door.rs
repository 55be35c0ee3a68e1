//! The front door. A malformed job — a degenerate or underdetermined
//! system, mis-sized storage or right hand side, a NaN or infinite
//! entry, a target past the octo double rung, a non-finite instant —
//! ends `Disposition::Invalid` in the batch loop, the stream and
//! `serve`, and everything else runs exactly as if it had never been
//! submitted: the same outcomes on the same schedule, and the same event
//! stream once the `JobInvalid` events are taken out. A seeded mix of
//! malformed jobs, tenant specs and fault plans never panics the
//! service. A system whose measured residual falls short of its target
//! (rank-deficient, or too ill-conditioned for the plan) completes
//! `Degraded` with the digits the residual certifies — never a silent
//! `Ok`.

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::{metrics::Metrics, Event, Recorder};
use mdls_pipeline::{
    digits_from_residual, latency_summary, serve, solve_batch_resilient, solve_stream_staged,
    AdmissionConfig, Backpressure, DevicePool, DispatchPolicy, Disposition, ExecutionMode, Job,
    JobOutcome, LatencySummary, MicrobatchConfig, OverloadConfig, Precision, ResilienceConfig,
    ServiceConfig, ServicePolicy, ServiceReport, SloClass, StageSchedConfig, SubmitError, TenantId,
    TenantSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Well-conditioned consistent systems: square diagonally dominant
/// ones, and tall ones whose right hand side lies in the range of `A`.
fn good_jobs(count: usize, id_base: u64, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            let (m, n) = [(4, 4), (6, 6), (8, 6), (6, 4)][i as usize % 4];
            let a = HostMat::<f64>::from_fn(m, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..m).map(|r| (0..n).map(|c| a.get(r, c)).sum()).collect();
            let tenant = TenantId(1 + (i % 2) as u32);
            Job::new(id_base + i, a, b, [12, 25, 50][i as usize % 3])
                .with_tenant(tenant)
                .with_release_ms(0.05 * i as f64)
        })
        .collect()
}

/// One job per front-door defect, with the error `validate` names.
fn malformed(id_base: u64) -> Vec<(Job, SubmitError)> {
    let square = |id: u64| Job::new(id, HostMat::<f64>::identity(4), vec![1.0; 4], 25);
    let nan_at = |r: usize, c: usize| {
        HostMat::<f64>::from_fn(
            4,
            4,
            move |i, j| if (i, j) == (r, c) { f64::NAN } else { 1.0 },
        )
    };
    vec![
        (
            Job::new(id_base, HostMat::zeros(0, 3), vec![], 25),
            SubmitError::EmptySystem { rows: 0, cols: 3 },
        ),
        (
            Job::new(id_base + 1, HostMat::zeros(3, 5), vec![1.0; 3], 25),
            SubmitError::Underdetermined { rows: 3, cols: 5 },
        ),
        (
            Job {
                a: HostMat {
                    rows: 4,
                    cols: 4,
                    data: vec![1.0; 15],
                },
                ..square(id_base + 2)
            },
            SubmitError::MatrixStorage {
                rows: 4,
                cols: 4,
                len: 15,
            },
        ),
        (
            Job {
                b: vec![1.0; 5],
                ..square(id_base + 3)
            },
            SubmitError::RhsLength { rows: 4, len: 5 },
        ),
        (
            Job {
                a: nan_at(1, 3),
                ..square(id_base + 4)
            },
            SubmitError::NonFiniteMatrix { row: 1, col: 3 },
        ),
        (
            Job {
                b: vec![1.0, 1.0, f64::INFINITY, 1.0],
                ..square(id_base + 5)
            },
            SubmitError::NonFiniteRhs { index: 2 },
        ),
        (
            Job {
                target_digits: 400,
                ..square(id_base + 6)
            },
            SubmitError::TargetBeyondLadder { target_digits: 400 },
        ),
        (
            square(id_base + 7).with_deadline_ms(f64::NAN),
            SubmitError::NonFiniteTime,
        ),
        (
            square(id_base + 8).with_release_ms(f64::INFINITY),
            SubmitError::NonFiniteTime,
        ),
    ]
}

/// `good` with the malformed jobs spliced in every third slot.
fn interleave(good: &[Job], bad: &[Job]) -> Vec<Job> {
    let mut out = Vec::new();
    let mut bad = bad.iter();
    for (i, job) in good.iter().enumerate() {
        if i % 3 == 1 {
            out.extend(bad.next().cloned());
        }
        out.push(job.clone());
    }
    out.extend(bad.cloned());
    out
}

fn recorded_pool() -> (DevicePool, Arc<Recorder>) {
    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    pool.set_fault_plan(1, FaultPlan::seeded(0x5eed, 2.0, 0.5));
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    (pool, recorder)
}

/// The event stream with the front door's own events taken out, as
/// debug text (`Event` holds floats, so compare by their exact print).
fn without_invalid(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter(|e| !matches!(e, Event::JobInvalid { .. }))
        .map(|e| format!("{e:?}"))
        .collect()
}

fn assert_same(got: &JobOutcome, want: &JobOutcome) {
    let id = want.job_id;
    assert_eq!(got.job_id, id);
    assert_eq!(got.x, want.x, "job {id}: solution");
    assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "job {id}");
    assert_eq!(got.device, want.device, "job {id}: device");
    assert_eq!(got.start_ms.to_bits(), want.start_ms.to_bits(), "job {id}");
    assert_eq!(got.end_ms.to_bits(), want.end_ms.to_bits(), "job {id}");
    assert_eq!(got.disposition, want.disposition, "job {id}");
    assert_eq!(got.corrections_run, want.corrections_run, "job {id}");
    assert_eq!(got.fused_group, want.fused_group, "job {id}");
}

/// Every malformed job ends `Invalid` on an unpriced plan with nothing
/// solved, and the event stream names its defect.
fn assert_refused(outcomes: &[JobOutcome], events: &[Event], bad: &[(Job, SubmitError)]) {
    for (job, err) in bad {
        let o = outcomes
            .iter()
            .find(|o| o.job_id == job.id)
            .expect("every malformed job has an outcome");
        assert_eq!(o.disposition, Disposition::Invalid, "job {}: {err}", job.id);
        assert!(o.x.is_empty() && !o.disposition.completed());
        assert_eq!(o.plan.predicted_ms, 0.0);
        let reason = err.reason();
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::JobInvalid { job: j, reason: r, .. } if *j == job.id && *r == reason
            )),
            "job {}: no JobInvalid({reason}) event",
            job.id
        );
    }
    assert_eq!(Metrics::from_events(events).jobs_invalid, bad.len() as u64);
}

#[test]
fn batch_loop_refuses_malformed_jobs_and_runs_the_rest_unchanged() {
    let good = good_jobs(18, 0, 0xd00);
    let bad = malformed(1000);
    let bad_jobs: Vec<Job> = bad.iter().map(|(j, _)| j.clone()).collect();
    let run = |jobs: &[Job]| {
        let (mut pool, rec) = recorded_pool();
        let report = solve_batch_resilient(
            &mut pool,
            jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            &MicrobatchConfig::default(),
            &StageSchedConfig::staged(),
            &ResilienceConfig::default(),
        );
        (report, rec.events())
    };
    let (alone, alone_events) = run(&good);
    assert!(alone.outcomes.iter().all(|o| o.disposition.completed()));

    // interleaved: the same outcomes on the same schedule
    let (mixed, mixed_events) = run(&interleave(&good, &bad_jobs));
    assert_refused(&mixed.outcomes, &mixed_events, &bad);
    assert_eq!(mixed.latency.invalid, bad.len());
    let valid: Vec<&JobOutcome> = mixed
        .outcomes
        .iter()
        .filter(|o| o.disposition != Disposition::Invalid)
        .collect();
    assert_eq!(valid.len(), good.len());
    for (got, want) in valid.into_iter().zip(&alone.outcomes) {
        assert_same(got, want);
    }
    assert_eq!(mixed.makespan_ms.to_bits(), alone.makespan_ms.to_bits());

    // appended (so submission indices, which booking events carry,
    // line up): the event stream is the clean run's plus the refusals
    let mut appended = good.clone();
    appended.extend(bad_jobs);
    let (_, events) = run(&appended);
    assert_eq!(without_invalid(&events), without_invalid(&alone_events));
}

#[test]
fn stream_refuses_malformed_jobs_and_runs_the_rest_unchanged() {
    let good = good_jobs(18, 0, 0xd01);
    let bad = malformed(1000);
    let bad_jobs: Vec<Job> = bad.iter().map(|(j, _)| j.clone()).collect();
    let run = |jobs: Vec<Job>| {
        let (mut pool, rec) = recorded_pool();
        let outcomes: Vec<JobOutcome> = solve_stream_staged(
            &mut pool,
            jobs,
            DispatchPolicy::LeastLoaded,
            3,
            MicrobatchConfig::default(),
            StageSchedConfig::staged(),
        )
        .with_admission(AdmissionConfig::default())
        .collect();
        (outcomes, rec.events())
    };
    let (alone, alone_events) = run(good.clone());
    let (mixed, mixed_events) = run(interleave(&good, &bad_jobs));
    assert_eq!(mixed.len(), good.len() + bad.len());
    assert_refused(&mixed, &mixed_events, &bad);
    let valid: Vec<&JobOutcome> = mixed
        .iter()
        .filter(|o| o.disposition != Disposition::Invalid)
        .collect();
    assert_eq!(valid.len(), alone.len());
    for (got, want) in valid.into_iter().zip(&alone) {
        assert_same(got, want);
    }
    assert_eq!(
        without_invalid(&mixed_events),
        without_invalid(&alone_events)
    );
}

#[test]
fn serve_refuses_malformed_jobs_and_runs_the_rest_unchanged() {
    let good = good_jobs(24, 0, 0xd02);
    let bad = malformed(1000);
    let bad_jobs: Vec<Job> = bad.iter().map(|(j, _)| j.clone()).collect();
    let specs = [
        TenantSpec::new(TenantId(1), "one").with_queue(3, Backpressure::Block),
        TenantSpec::new(TenantId(2), "two").with_weight(2),
    ];
    let run = |jobs: &[Job]| {
        let (mut pool, rec) = recorded_pool();
        let report = serve(&mut pool, jobs, &specs, &ServiceConfig::default());
        (report, rec.events())
    };
    let (alone, alone_events) = run(&good);
    let (mixed, mixed_events) = run(&interleave(&good, &bad_jobs));
    assert_refused(&mixed.outcomes, &mixed_events, &bad);
    let valid: Vec<&JobOutcome> = mixed
        .outcomes
        .iter()
        .filter(|o| o.disposition != Disposition::Invalid)
        .collect();
    for (got, want) in valid.into_iter().zip(&alone.outcomes) {
        assert_same(got, want);
    }
    assert_eq!(
        without_invalid(&mixed_events),
        without_invalid(&alone_events)
    );
    assert_eq!(mixed.makespan_ms.to_bits(), alone.makespan_ms.to_bits());
    // refusals are their own column: never queued, never shed
    let t0 = mixed.tenants.iter().find(|t| t.tenant == TenantId(0));
    assert_eq!(
        t0.map(|t| (t.summary.invalid, t.summary.shed)),
        Some((bad.len(), 0))
    );
    assert_eq!(mixed.latency.invalid, bad.len());
}

/// The counters of a summary, for partition checks.
fn counters(s: &LatencySummary) -> [usize; 8] {
    [
        s.submitted,
        s.completed,
        s.degraded,
        s.retried,
        s.shed,
        s.failed,
        s.invalid,
        s.deadline_misses,
    ]
}

/// `serve`'s report is the fold of its outcomes: the pool-wide summary,
/// every tenant's and every SLO class's are `latency_summary` over the
/// matching outcomes, classes partition their tenant and tenants the
/// pool, counter by counter, and the makespan is the summary's.
fn assert_report_is_the_fold(report: &ServiceReport, jobs: &[Job], at: &str) {
    assert_eq!(report.latency, latency_summary(&report.outcomes), "{at}");
    assert_eq!(
        report.makespan_ms.to_bits(),
        report.latency.makespan_ms.to_bits(),
        "{at}"
    );
    let sum = |parts: &mut dyn Iterator<Item = [usize; 8]>| {
        parts.fold([0; 8], |acc, c| std::array::from_fn(|i| acc[i] + c[i]))
    };
    let tenants = &mut report.tenants.iter().map(|t| counters(&t.summary));
    assert_eq!(sum(tenants), counters(&report.latency), "{at}: tenants");
    for t in &report.tenants {
        let mine = |slo: Option<SloClass>| {
            let of = report.outcomes.iter().zip(jobs);
            latency_summary(
                of.filter(|(o, j)| o.tenant == t.tenant && slo.is_none_or(|c| j.slo == c))
                    .map(|(o, _)| o),
            )
        };
        assert_eq!(t.summary, mine(None), "{at}: tenant {:?}", t.tenant);
        for &(class, summary) in &t.classes {
            assert_eq!(summary, mine(Some(class)), "{at}: {:?} {class:?}", t.tenant);
        }
        let classes = &mut t.classes.iter().map(|(_, c)| counters(c));
        assert_eq!(sum(classes), counters(&t.summary), "{at}: classes");
    }
}

/// A seeded front-door fuzzer: random tenant specs (zero weights and
/// capacities, tiny quota buckets), fault plans, service and placement
/// policies, overload thresholds, and a job mix that is one-third malformed, through `serve`
/// (model-only; every eighth seed functional, plus the batch loop and
/// the stream under a drawn fusion, booking mode and reorder window).
/// Nothing panics or hangs, every job ends in exactly one outcome,
/// exactly the malformed ones end `Invalid`, no completed square solve
/// short of its target reads `Ok`, no completed job ends past its
/// device's sticky loss, every report is the fold of its outcomes, and
/// a model-only job degrades exactly when its plan was down-laddered.
/// (It found that a job costing more than its tenant's whole quota
/// bucket parked `serve` forever.)
#[test]
fn seeded_malformed_mixes_never_panic_the_service() {
    let pick = |rng: &mut StdRng, n: usize| (rng.next_u64() % n as u64) as usize;
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let bad = malformed(10_000);
        let mut jobs: Vec<Job> = Vec::new();
        let mut want_invalid = 0;
        for i in 0..60u64 {
            let tenant = TenantId(pick(&mut rng, 3) as u32);
            let job = if pick(&mut rng, 3) == 0 {
                want_invalid += 1;
                Job {
                    id: i,
                    ..bad[pick(&mut rng, bad.len())].0.clone()
                }
            } else {
                let n = [4, 8][pick(&mut rng, 2)];
                let a = HostMat::<f64>::from_fn(n, n, |r, c| if r == c { 2.0 } else { 0.5 });
                let slack = rng.random_range(0.0..2.0);
                let job = Job::new(i, a, vec![1.0; n], [12, 25, 50, 100][i as usize % 4])
                    .with_release_ms(rng.random_range(0.0..5.0));
                if pick(&mut rng, 4) == 0 {
                    let at = job.release() + slack;
                    job.with_deadline_ms(at)
                } else {
                    job
                }
            };
            let slo = SloClass::LADDER[pick(&mut rng, 3)];
            jobs.push(job.with_tenant(tenant).with_slo(slo));
        }
        let backpressure = [
            Backpressure::Reject,
            Backpressure::ShedOldest,
            Backpressure::Block,
        ];
        let specs: Vec<TenantSpec> = (0..3u32)
            .map(|t| {
                let spec = TenantSpec::new(TenantId(t), "fuzz")
                    .with_weight(pick(&mut rng, 3) as u32)
                    .with_queue(pick(&mut rng, 4), backpressure[pick(&mut rng, 3)]);
                if pick(&mut rng, 2) == 0 {
                    spec.with_quota(rng.random_range(0.5..4.0), rng.random_range(0.0..400.0))
                } else {
                    spec
                }
            })
            .collect();
        let pool = || {
            let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
            pool.set_fault_plan(1, FaultPlan::seeded(seed, 0.5, 0.3));
            if seed % 4 == 0 {
                pool.set_fault_plan(0, FaultPlan::none().with_device_lost(1.0));
            }
            if seed % 32 == 8 {
                // no survivor at all
                for d in 0..2 {
                    pool.set_fault_plan(d, FaultPlan::none().with_device_lost(2.0));
                }
            }
            pool
        };
        // every eighth seed solves for real (and through the batch loop
        // and the stream too); the rest only book and settle
        let functional = seed % 8 == 0;
        let cfg = ServiceConfig {
            policy: [ServicePolicy::WeightedFair, ServicePolicy::Fifo][pick(&mut rng, 2)],
            dispatch: [
                DispatchPolicy::LeastLoaded,
                DispatchPolicy::ShortestExpectedCompletion,
            ][pick(&mut rng, 2)],
            mode: if functional {
                ExecutionMode::Functional
            } else {
                ExecutionMode::ModelOnly
            },
            // half the seeds load the ladder, so some jobs down-ladder
            overload: if pick(&mut rng, 2) == 0 {
                let degrade = rng.random_range(0.0..8.0);
                OverloadConfig::thresholds(degrade, 2.0 * degrade)
            } else {
                OverloadConfig::default()
            },
            ..ServiceConfig::default()
        };
        let report = serve(&mut pool(), &jobs, &specs, &cfg);
        let per_tenant: usize = report.tenants.iter().map(|t| t.summary.invalid).sum();
        assert_eq!(per_tenant, want_invalid, "seed {seed}");
        assert_report_is_the_fold(&report, &jobs, &format!("seed {seed}"));
        if !functional {
            // nothing solved certifies nothing: only a plan below the
            // request degrades a model-only job
            for o in report.outcomes.iter().filter(|o| o.disposition.completed()) {
                assert_eq!(o.achieved_digits, 0.0, "seed {seed}: job {}", o.job_id);
                let down = o.plan.target_digits < o.requested_digits;
                assert_eq!(o.disposition == Disposition::Degraded, down, "seed {seed}");
            }
        }
        let mut runs = vec![("serve", report.outcomes, report.latency)];
        if functional {
            let micro = [MicrobatchConfig::default(), MicrobatchConfig::off()][pick(&mut rng, 2)];
            let sched = [StageSchedConfig::staged(), StageSchedConfig::sequential()];
            let sched = sched[pick(&mut rng, 2)];
            let batch = solve_batch_resilient(
                &mut pool(),
                &jobs,
                cfg.dispatch,
                &micro,
                &sched,
                &ResilienceConfig::default(),
            );
            assert_eq!(
                batch.latency,
                latency_summary(&batch.outcomes),
                "seed {seed}"
            );
            runs.push(("batch", batch.outcomes, batch.latency));
            let window = 1 + pick(&mut rng, 4);
            let adm = AdmissionConfig::default();
            let mut streamed: Vec<JobOutcome> = solve_stream_staged(
                &mut pool(),
                jobs.clone(),
                cfg.dispatch,
                window,
                micro,
                sched,
            )
            .with_admission(adm)
            .collect();
            // the stream yields in dispatch order; ids are submission order
            streamed.sort_by_key(|o| o.job_id);
            let latency = latency_summary(&streamed);
            runs.push(("stream", streamed, latency));
        }
        let lost_at: Vec<Option<f64>> = pool()
            .devices()
            .iter()
            .map(|d| d.gpu.fault.lost_at_ms())
            .collect();
        for (engine, outcomes, latency) in runs {
            let at = format!("seed {seed}, {engine}");
            assert_eq!(outcomes.len(), jobs.len(), "{at}");
            for (job, o) in jobs.iter().zip(&outcomes) {
                assert_eq!(o.job_id, job.id, "{at}: submission order");
                if let (true, Some(t)) = (o.disposition.completed(), lost_at[o.device]) {
                    assert!(
                        o.end_ms <= t,
                        "{at}: job {} completed past its device's loss",
                        o.job_id
                    );
                }
                let invalid = job.validate().is_err();
                assert_eq!(o.disposition == Disposition::Invalid, invalid, "{at}");
                if functional && o.disposition.completed() && job.rows() == job.cols() {
                    let short = o.achieved_digits < o.plan.target_digits as f64;
                    assert!(!short || o.disposition == Disposition::Degraded, "{at}");
                }
            }
            assert_eq!(latency.invalid, want_invalid, "{at}");
        }
    }
}

/// `[m/m]` Padé denominator system of `log(1+z)/z` in hardware doubles:
/// the Toeplitz matrix of the series coefficients `(-1)^k / (k+1)`.
fn pade_job(id: u64, m: usize, digits: u32) -> Job {
    let c = |k: usize| {
        let v = 1.0 / (k + 1) as f64;
        if k % 2 == 1 {
            -v
        } else {
            v
        }
    };
    let a = HostMat::<f64>::from_fn(m, m, |i, j| c(m - (j + 1) + (i + 1)));
    let b: Vec<f64> = (0..m).map(|i| -c(m + i + 1)).collect();
    Job::new(id, a, b, digits)
}

/// A singular square system (a repeated column) and ill-conditioned
/// Padé systems: a completed square solve whose residual certifies less
/// than its plan's target is `Degraded`, and the reported digits are
/// exactly what the residual certifies. A tall inconsistent system's
/// residual is mostly its least squares residual, which certifies
/// nothing, so it keeps `Ok` however few digits it reads.
#[test]
fn a_square_residual_short_of_the_target_is_degraded_not_ok() {
    let mut rng = StdRng::seed_from_u64(0x5106);
    let mut singular = HostMat::<f64>::from_fn(6, 6, |_, _| rng.random_range(-1.0..1.0));
    for r in 0..6 {
        let v = singular.get(r, 0);
        singular.set(r, 3, v);
    }
    let b: Vec<f64> = (0..6).map(|_| rng.random_range(-1.0..1.0)).collect();
    let tall = HostMat::<f64>::from_fn(8, 4, |r, c| if r == c { 4.0 } else { 0.5 });
    let b_tall: Vec<f64> = (0..8).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut jobs = vec![Job::new(0, singular, b, 25)];
    jobs.extend((1..=3).map(|k| pade_job(k, 8 + 4 * k as usize, 25 * k as u32)));
    jobs.push(pade_job(9, 20, Precision::D8.digits()));
    jobs.push(Job::new(10, tall, b_tall, 50));
    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let report = solve_batch_resilient(
        &mut pool,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::off(),
        &StageSchedConfig::staged(),
        &ResilienceConfig::default(),
    );
    for (job, o) in jobs.iter().zip(&report.outcomes) {
        assert!(o.disposition.completed(), "job {}", o.job_id);
        assert_eq!(
            o.achieved_digits.to_bits(),
            digits_from_residual(o.residual).to_bits(),
            "job {}: reported digits are the residual's",
            o.job_id
        );
        let short = o.achieved_digits < o.plan.target_digits as f64;
        assert_eq!(
            o.disposition == Disposition::Degraded,
            short && job.rows() == job.cols(),
            "job {}: {} digits against a target of {}",
            o.job_id,
            o.achieved_digits,
            o.plan.target_digits
        );
    }
    // the singular system certifies nothing; the [12/12] and [16/16]
    // systems stall near 16 digits refining from a hardware double
    // factorization (they read `Ok` before the settle step checked the
    // residual); the larger ones factor in double double and reach
    // their targets; the tall one reads its least squares residual
    let got: Vec<&str> = report
        .outcomes
        .iter()
        .map(|o| o.disposition.tag())
        .collect();
    assert_eq!(got, ["degraded", "degraded", "degraded", "ok", "ok", "ok"]);
    assert!(
        report.outcomes[5].achieved_digits < 50.0,
        "vacuous: tall job certified"
    );
}

/// A pool that loses every device at once: no driver panics (the
/// stream, and a batch on a pool already dead, used to — dispatching
/// onto no device), and every job ends with a terminal disposition —
/// `Failed` in the batch loop and the stream, `Shed` (starved) in
/// `serve`, which never dispatches to a quarantined device.
#[test]
fn a_pool_with_no_survivors_ends_jobs_instead_of_panicking() {
    let jobs = good_jobs(12, 0, 0xdead);
    let dying = || {
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        for d in 0..2 {
            pool.set_fault_plan(d, FaultPlan::none().with_device_lost(0.0));
        }
        pool
    };
    let stream: Vec<JobOutcome> = solve_stream_staged(
        &mut dying(),
        jobs.clone(),
        DispatchPolicy::LeastLoaded,
        2,
        MicrobatchConfig::default(),
        StageSchedConfig::staged(),
    )
    .with_admission(AdmissionConfig::default())
    .collect();
    let batch_on = |pool: &mut DevicePool| {
        solve_batch_resilient(
            pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::staged(),
            &ResilienceConfig::default(),
        )
        .outcomes
    };
    let mut dead = dying();
    let batch = batch_on(&mut dead);
    // the same pool again, its devices already lost before the batch
    // starts: nothing to book onto (this used to panic too)
    let again = batch_on(&mut dead);
    let served = serve(&mut dying(), &jobs, &[], &ServiceConfig::default()).outcomes;
    for (engine, outcomes, want) in [
        ("stream", stream, Disposition::Failed),
        ("batch", batch, Disposition::Failed),
        ("batch on a dead pool", again, Disposition::Failed),
        ("serve", served, Disposition::Shed),
    ] {
        assert_eq!(outcomes.len(), jobs.len(), "{engine}");
        for o in &outcomes {
            assert_eq!(o.disposition, want, "{engine}: job {}", o.job_id);
            assert!(o.x.is_empty(), "{engine}: job {} solved", o.job_id);
        }
    }
}
