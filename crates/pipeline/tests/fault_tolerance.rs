//! Fault-tolerance property and integration tests: recovery re-plans
//! only what a fault touched, retried work is bit-identical to the
//! fault-free run, admission down-ladders exactly to the rung it
//! promised, a sticky mid-batch device loss on a 4×V100 pool is
//! survived with a 100% completion rate, and the batch loop, the
//! stream and `serve` replay transient faults identically.

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::{metrics::Metrics, Recorder};
use mdls_pipeline::batch::Disposition;
use mdls_pipeline::{
    dispatch_group_staged, serve, solve_batch_resilient, solve_stream_staged, AdmissionConfig,
    BreakerConfig, DevicePool, DispatchPolicy, ExecPlan, Job, JobOutcome, JobShape,
    MicrobatchConfig, Planner, ResilienceConfig, ServiceConfig, StageSchedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diag_jobs(count: usize, n: usize, digits: u32, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|id| {
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
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

/// Property (i): recovery never moves or re-runs a span on an
/// unaffected device. Book groups across two devices, kill device 0
/// mid-schedule, re-dispatch the interrupted group — device 1's
/// previously booked intervals must survive verbatim (new work may
/// only gap-fill or append around them).
#[test]
fn recovery_leaves_surviving_device_spans_untouched() {
    let jobs = diag_jobs(6, 8, 25, 0x5afe);
    let shapes: Vec<JobShape> = jobs.iter().map(JobShape::from).collect();
    let planner = Planner::new();
    let sched = StageSchedConfig::staged();
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
    let mut bookings = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let g = dispatch_group_staged(
            &mut pool,
            &planner,
            vec![i],
            shape,
            DispatchPolicy::LeastLoaded,
            &sched,
            0.0,
        );
        bookings.push(g);
    }
    let before_host = pool.devices()[1].host_timeline().intervals().to_vec();
    let before_dev = pool.devices()[1].device_timeline().intervals().to_vec();
    assert!(!before_dev.is_empty(), "device 1 never booked; vacuous");

    // kill device 0 in the middle of its schedule and re-dispatch
    // everything the loss interrupted
    let t = pool.devices()[0].clock_ms() / 2.0;
    #[expect(
        clippy::disallowed_methods,
        reason = "the test drives the pool's loss path"
    )]
    let report = pool.fail_device(0, t);
    assert!(!report.interrupted.is_empty(), "loss interrupted nothing");
    assert!(report.lost_refund_ms > 0.0);
    for g in &bookings {
        if report.interrupted.contains(&g.booking.id) {
            let idxs = g.jobs.clone();
            let shape = shapes[idxs[0]];
            let re = dispatch_group_staged(
                &mut pool,
                &planner,
                idxs,
                &shape,
                DispatchPolicy::LeastLoaded,
                &sched,
                t,
            );
            assert_eq!(re.device, 1, "re-dispatch must pick the survivor");
            assert!(re.start_ms >= t, "recovered work cannot start in the past");
        }
    }
    // every pre-loss interval on the surviving device is still booked,
    // bit for bit — recovery appended, never moved
    let contains =
        |now: &[(f64, f64)], old: &(f64, f64)| now.iter().any(|iv| iv.0 == old.0 && iv.1 == old.1);
    let after_host = pool.devices()[1].host_timeline().intervals().to_vec();
    let after_dev = pool.devices()[1].device_timeline().intervals().to_vec();
    for iv in &before_host {
        assert!(contains(&after_host, iv), "host span {iv:?} moved");
    }
    for iv in &before_dev {
        assert!(contains(&after_dev, iv), "device span {iv:?} moved");
    }
}

/// Property (iii): a down-laddered job lands exactly on the rung
/// admission chose — the plan targets the degraded digits, the outcome
/// still records the original request, and the measured residual
/// certifies the degraded target.
#[test]
fn down_laddered_job_achieves_its_degraded_rung() {
    let n = 8usize;
    let planner = Planner::new();
    let probe = DevicePool::homogeneous(&Gpu::v100(), 1);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test reads admission's preview"
    )]
    let end_at = |digits: u32| {
        let (plan, fused) = planner.plan_fused(probe.gpu(0), n, n, digits, 1);
        let reqs = fused.stage_reqs(ExecPlan::booked_stages(plan.corrections()));
        probe.preview_stages(0, &reqs, true, 0.0)
    };
    // a deadline strictly between the cheaper rung's completion and the
    // requested rung's: the request cannot fit, the cheaper rung can
    let (e_low, e_req) = (end_at(60), end_at(123));
    assert!(e_low < e_req, "rung costs are not ordered; test is vacuous");
    let deadline = (e_low + e_req) / 2.0;

    let mut jobs = diag_jobs(1, n, 123, 0xdead);
    jobs[0].deadline_ms = Some(deadline);
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let report = solve_batch_resilient(
        &mut pool,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::off(),
        &StageSchedConfig::staged(),
        &ResilienceConfig::default(),
    );
    let o = &report.outcomes[0];
    assert_eq!(o.disposition, Disposition::Degraded);
    assert_eq!(o.requested_digits, 123, "original request lost");
    assert_eq!(
        o.plan.target_digits, 60,
        "admission promised the qd rung, the plan targets {}",
        o.plan.target_digits
    );
    assert!(
        o.achieved_digits >= o.plan.target_digits as f64,
        "degraded rung not certified: achieved {:.1} of {}",
        o.achieved_digits,
        o.plan.target_digits
    );
    assert!(!o.missed_deadline(), "the down-laddered job still missed");
    assert_eq!(report.latency.deadline_misses, 0);
}

/// Property (ii) + the 4×V100 integration: a sticky loss of one of
/// four devices mid-batch. Under retry/re-dispatch every job completes
/// (rate 1.0) bit-identical to the fault-free run, jobs untouched by
/// the loss keep their exact fault-free placement, and the event
/// stream folds to exactly one loss with a positive refund.
#[test]
fn sticky_loss_mid_batch_recovers_every_job_bit_identically() {
    let jobs = diag_jobs(24, 10, 25, 0x4100);
    let micro = MicrobatchConfig::default();
    let sched = StageSchedConfig::staged();
    let policy = DispatchPolicy::LeastLoaded;

    // fault-free reference
    let mut quiet = DevicePool::homogeneous(&Gpu::v100(), 4);
    let base = solve_batch_resilient(
        &mut quiet,
        &jobs,
        policy,
        &micro,
        &sched,
        &ResilienceConfig::default(),
    );
    assert!(base
        .outcomes
        .iter()
        .all(|o| o.disposition == Disposition::Ok));

    // device 0 dies a third of the way into the fault-free makespan
    let t = base.makespan_ms / 3.0;
    let mut chaotic = DevicePool::homogeneous(&Gpu::v100(), 4);
    chaotic.set_fault_plan(0, FaultPlan::none().with_device_lost(t));
    let recorder = Arc::new(Recorder::new());
    chaotic.attach_observer(recorder.clone());
    let recovered = solve_batch_resilient(
        &mut chaotic,
        &jobs,
        policy,
        &micro,
        &sched,
        &ResilienceConfig::default(),
    );
    assert_eq!(chaotic.alive_count(), 3);
    let retried = recovered
        .outcomes
        .iter()
        .filter(|o| o.disposition == Disposition::Retried)
        .count();
    assert!(retried > 0, "the loss at {t:.1} ms interrupted nothing");
    // completion rate 1.0: every job ends in a completed disposition
    assert!(
        recovered.outcomes.iter().all(|o| o.disposition.completed()),
        "recovery lost a job"
    );
    for (b, r) in base.outcomes.iter().zip(&recovered.outcomes) {
        assert_eq!(b.job_id, r.job_id);
        // bit-identity: recovery moves time, never arithmetic
        assert_eq!(b.x, r.x, "job {}: recovery changed the bits", b.job_id);
        assert_eq!(b.residual, r.residual);
        // tail-only: a job the loss never touched keeps its exact
        // fault-free placement — recovery never delays survivors' spans
        if r.disposition == Disposition::Ok && b.device == r.device {
            assert_eq!(b.start_ms, r.start_ms, "job {} moved", b.job_id);
            assert_eq!(b.end_ms, r.end_ms, "job {} delayed", b.job_id);
        }
    }
    // the lost device's unexecuted time came back as refunds
    assert!(recovered.device_stats[0].refunded_ms > base.device_stats[0].refunded_ms);

    // and the recorded stream folds to the same story: one loss, whose
    // unexecuted bookings were refunded
    let m = Metrics::from_events(&recorder.events());
    assert_eq!(m.devices_lost, 1);
    assert!(m.lost_refund_ms > 0.0, "the loss refunded no booked time");
}

/// Seeded fault schedules make whole chaotic runs reproducible:
/// same seeds, same losses, same retries, same bits, same timings.
#[test]
fn chaos_is_deterministic_end_to_end() {
    let run = || {
        let jobs = diag_jobs(12, 8, 25, 0x0b5);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        pool.set_fault_plan(
            0,
            FaultPlan::seeded(21, 5.0e3, 100.0).with_device_lost(40.0),
        );
        solve_batch_resilient(
            &mut pool,
            &jobs,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::staged(),
            &ResilienceConfig::default(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan_ms, b.makespan_ms);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.x, y.x);
        assert_eq!(x.end_ms, y.end_ms);
        assert_eq!(x.disposition, y.disposition);
    }
}

/// Regression: an admission verdict reached while a doomed device
/// still counted is stale. Three deadline-free warm-ups (priority 5)
/// drain first and spread over a 2×V100 pool; device 1 carries a
/// sticky loss that the second warm-up's booking straddles, so that
/// warm-up re-dispatches onto device 0. Two low-priority deadlined
/// jobs wait in the reorder buffer behind them:
///
/// * `victim` is meetable only via device 1 — the clean run completes
///   it there in time, but once the loss comes due the admitted stream
///   must fail the device and shed the job against the survivors
///   instead of dispatching it onto the corpse of a stale preview;
/// * `hopeless` has a deadline shorter than any solve, and the
///   loss-time re-preview must tombstone it *eagerly*: its shed
///   outcome yields ahead of the still-buffered warm-up, not merely
///   when its own turn to pop comes.
#[test]
fn admitted_stream_re_previews_buffer_after_device_loss() {
    let planner = Planner::new();
    let gpu = Gpu::v100();
    let lost_at = 0.1 * planner.plan_fused(&gpu, 8, 8, 25, 1).1.predicted_ms;

    let sized = |id: u64, n: usize, seed: u64| {
        let mut j = diag_jobs(1, n, 25, seed).pop().unwrap();
        j.id = id;
        j
    };
    let jobs = |victim_deadline: f64| {
        vec![
            sized(0, 8, 11).with_priority(5),
            sized(1, 12, 12).with_priority(5),
            sized(2, 24, 13).with_priority(5),
            sized(3, 8, 14).with_deadline_ms(victim_deadline),
            sized(4, 8, 15).with_deadline_ms(lost_at),
        ]
    };
    let run = |victim_deadline: f64, fault: Option<FaultPlan>| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        if let Some(f) = fault {
            pool.set_fault_plan(1, f);
        }
        let outcomes: Vec<_> = solve_stream_staged(
            &mut pool,
            jobs(victim_deadline),
            DispatchPolicy::LeastLoaded,
            5,
            MicrobatchConfig::default(),
            StageSchedConfig::staged(),
        )
        .with_admission(AdmissionConfig::default())
        .collect();
        (outcomes, pool.devices()[1].is_lost())
    };
    let loss = || FaultPlan::none().with_device_lost(lost_at);

    // calibrate: with an unmissable deadline, when does the victim end
    // with the full pool vs. with only the survivors? The cost model is
    // launch-overhead-dominated at these sizes, so hand-picked margins
    // are fragile — measure the two schedules instead.
    let (probe, _) = run(f64::MAX, None);
    let e_clean = probe.iter().find(|o| o.job_id == 3).unwrap().end_ms;
    let (probe, _) = run(f64::MAX, Some(loss()));
    let e_lossy = probe.iter().find(|o| o.job_id == 3).unwrap().end_ms;
    assert!(
        e_lossy > e_clean,
        "survivors must be strictly slower for the victim ({e_lossy} vs {e_clean}); vacuous"
    );
    // a deadline only the full pool can meet
    let deadline = (e_clean + e_lossy) / 2.0;

    let (clean, clean_lost) = run(deadline, None);
    assert!(!clean_lost);
    let v = clean.iter().find(|o| o.job_id == 3).unwrap();
    assert_eq!(v.disposition, Disposition::Ok);
    assert!(v.end_ms <= deadline);

    let (faulted, lost) = run(deadline, Some(loss()));
    assert!(lost, "the due sticky loss must actually fail the device");
    assert_eq!(faulted.len(), 5);
    // warm-ups complete; warm-up 1's booking on device 1 straddles the
    // loss, so it re-dispatches onto the survivor, after the loss
    for id in [0, 2] {
        let o = faulted.iter().find(|o| o.job_id == id).unwrap();
        assert_eq!(o.disposition, Disposition::Ok, "warm-up {id}");
    }
    let w = faulted.iter().find(|o| o.job_id == 1).unwrap();
    assert_eq!(w.disposition, Disposition::Retried, "warm-up 1");
    assert_eq!(w.device, 0, "warm-up 1 completed on the lost device");
    assert!(w.end_ms > lost_at);
    // the eager re-preview tombstones `hopeless` the moment the loss
    // is applied: its shed outcome yields *before* the third warm-up
    assert_eq!(faulted[2].job_id, 4, "loss-time shed must yield eagerly");
    assert_eq!(faulted[2].disposition, Disposition::Shed);
    // the victim's stale verdict is revisited against the survivors:
    // shed (or down-laddered to a rung that fits), never run at full
    // digits on the corpse of the old preview
    let v = faulted.iter().find(|o| o.job_id == 3).unwrap();
    assert_ne!(
        v.disposition,
        Disposition::Ok,
        "stale admission dispatched the victim at full digits"
    );
    assert_eq!(v.device, 0, "nothing may book on the lost device");
    if v.disposition == Disposition::Shed {
        assert!(v.residual.is_infinite());
    }
}

/// Regression: the stream settled its groups without the transient
/// replay step the batch loop and the service shell run, so on a pool
/// whose fault plan carries transients it booked no replay, never
/// reported [`Disposition::Retried`] and finished early. All three
/// engines now settle through one step under one retry cap and one
/// backoff base. Every transient here falls inside the first job's
/// executed interval — which the stream, the batch loop and `serve`
/// all book at `[0, first)` on the one device — so the three must
/// agree on exactly which jobs replayed.
#[test]
fn stream_replays_transients_like_the_batch_loop() {
    let jobs = diag_jobs(5, 8, 25, 0x57a7);
    let micro = MicrobatchConfig::off();
    let sched = StageSchedConfig::sequential();
    let first = Planner::new()
        .plan_fused(&Gpu::v100(), 8, 8, 25, 1)
        .1
        .predicted_ms;
    let faults = FaultPlan::seeded(11, 0.5 * first, first / 8.0);
    assert!(!faults.transients().is_empty(), "vacuous: a quiet plan");
    let pool = |noisy: bool| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        if noisy {
            pool.set_fault_plan(0, faults.clone());
        }
        pool
    };
    let stream = |noisy: bool| -> Vec<JobOutcome> {
        let policy = DispatchPolicy::LeastLoaded;
        solve_stream_staged(&mut pool(noisy), jobs.clone(), policy, 1, micro, sched).collect()
    };
    let quiet = stream(false);
    let streamed = stream(true);
    let batched = solve_batch_resilient(
        &mut pool(true),
        &jobs,
        DispatchPolicy::LeastLoaded,
        &micro,
        &sched,
        &ResilienceConfig::default(),
    )
    .outcomes;
    // the breaker is off so three strikes do not quarantine the only
    // device: this arm is about the replays alone (`serve` books staged,
    // which places the first job at `[0, first)` all the same)
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            enabled: false,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let served = serve(&mut pool(true), &jobs, &[], &cfg).outcomes;

    let retried = |outcomes: &[JobOutcome]| -> Vec<u64> {
        outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Retried)
            .map(|o| o.job_id)
            .collect()
    };
    assert_eq!(
        retried(&streamed),
        vec![0],
        "the stream dropped a transient"
    );
    assert_eq!(retried(&streamed), retried(&batched));
    assert_eq!(retried(&streamed), retried(&served));
    assert!(retried(&quiet).is_empty());
    // one retry cap, one backoff base: the stream and `serve` both
    // settle job 0 before anything else is booked, so its replays end
    // at the same instant (the batch loop books the whole queue first,
    // so its replays land behind it) — and `serve` moved no bits
    assert_eq!(streamed[0].end_ms.to_bits(), served[0].end_ms.to_bits());
    for (q, v) in quiet.iter().zip(&served) {
        assert_eq!((q.job_id, &q.x), (v.job_id, &v.x));
    }
    for ((q, s), b) in quiet.iter().zip(&streamed).zip(&batched) {
        assert_eq!((q.job_id, b.job_id), (s.job_id, s.job_id));
        assert_eq!(q.x, s.x, "job {}: a replay changed the bits", q.job_id);
        assert_eq!(q.x, b.x);
        if s.disposition == Disposition::Retried {
            // a replay books strictly after the settled end
            assert!(s.end_ms > q.end_ms, "job {}: a free retry", s.job_id);
        } else {
            assert_eq!(s.disposition, Disposition::Ok);
        }
    }
    // and the stream, like the batch loop, finishes later for it
    assert!(streamed.last().unwrap().end_ms > quiet.last().unwrap().end_ms);
}

/// The identities every driver keeps under sticky losses: no completed
/// outcome ends past its device's loss instant, and every loss before
/// the run's makespan has been applied to the pool.
fn assert_losses_respected(engine: &str, pool: &DevicePool, outcomes: &[JobOutcome]) {
    let lost_at = |d: usize| pool.gpu(d).fault.lost_at_ms();
    let mut makespan = 0.0f64;
    for o in outcomes.iter().filter(|o| o.disposition.completed()) {
        makespan = makespan.max(o.end_ms);
        if let Some(t) = lost_at(o.device) {
            assert!(
                o.end_ms <= t,
                "{engine}: job {} completed on device {} at {} ms, past its loss at {t} ms",
                o.job_id,
                o.device,
                o.end_ms
            );
        }
    }
    for d in pool.devices() {
        if lost_at(d.id).is_some_and(|t| t < makespan) {
            assert!(
                d.is_lost(),
                "{engine}: device {}'s loss never applied",
                d.id
            );
        }
    }
}

/// The sticky-loss sibling of `stream_replays_transients_like_the_batch_loop`:
/// a loss mid-solve, and a pool that loses one device at t = 0 and a
/// second after two solves. The stream — plain and admitted — used to
/// complete jobs on the dead device past its loss (the plain stream
/// never applied a loss at all; the admitted one waited for the
/// slowest device's clock, which a device lost at t = 0 held at 0
/// forever). Every driver now recovers through one step: completed
/// bits equal the quiet run's, nothing completes past a loss, and every
/// loss before the makespan is applied.
#[test]
fn stream_recovers_sticky_losses_like_the_batch_loop() {
    let solve_ms = Planner::new()
        .plan_fused(&Gpu::v100(), 12, 12, 25, 1)
        .1
        .predicted_ms;
    // (devices, (device, loss instant in solves), jobs): on 2×V100
    // device 1 dies 0.3 of the way into a solve; on 3×V100 device 0 is
    // dead from the start and device 1 dies after two solves
    let pools = [(2, &[(1, 0.3)][..], 6), (3, &[(0, 0.0), (1, 2.5)][..], 12)];
    let (micro, sched) = (MicrobatchConfig::off(), StageSchedConfig::staged());
    let policy = DispatchPolicy::LeastLoaded;
    for (devices, losses, count) in pools {
        let jobs = diag_jobs(count, 12, 25, 0x10c5 + devices as u64);
        let pool = |faulty: bool| {
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
            for &(d, solves) in losses.iter().filter(|_| faulty) {
                let t = solves * solve_ms;
                pool.set_fault_plan(d, FaultPlan::none().with_device_lost(t));
            }
            pool
        };
        let mut quiet = pool(false);
        let quiet = solve_stream_staged(&mut quiet, jobs.clone(), policy, 4, micro, sched);
        let quiet: Vec<JobOutcome> = quiet.collect();

        let mut runs: Vec<(&str, DevicePool, Vec<JobOutcome>)> = Vec::new();
        for admitted in [false, true] {
            let mut p = pool(true);
            let stream = solve_stream_staged(&mut p, jobs.clone(), policy, 4, micro, sched);
            let outcomes: Vec<JobOutcome> = if admitted {
                stream.with_admission(AdmissionConfig::default()).collect()
            } else {
                stream.collect()
            };
            runs.push((
                ["stream", "admitted stream"][admitted as usize],
                p,
                outcomes,
            ));
        }
        let mut p = pool(true);
        let cfg = ResilienceConfig::default();
        let batch = solve_batch_resilient(&mut p, &jobs, policy, &micro, &sched, &cfg);
        runs.push(("batch", p, batch.outcomes));
        let mut p = pool(true);
        let served = serve(&mut p, &jobs, &[], &ServiceConfig::default()).outcomes;
        runs.push(("serve", p, served));

        for (engine, pool, outcomes) in &runs {
            let engine = format!("{devices} devices, {engine}");
            assert_eq!(outcomes.len(), jobs.len(), "{engine}");
            for o in outcomes {
                assert!(o.disposition.completed(), "{engine}: job {}", o.job_id);
                let q = quiet.iter().find(|q| q.job_id == o.job_id).unwrap();
                assert_eq!(
                    q.x, o.x,
                    "{engine}: job {}: recovery changed the bits",
                    o.job_id
                );
            }
            assert_losses_respected(&engine, pool, outcomes);
            assert!(
                outcomes
                    .iter()
                    .any(|o| o.disposition == Disposition::Retried),
                "{engine}: vacuous, no loss interrupted anything"
            );
        }
    }
    // a stream whose work never reaches a loss still applies it once
    // drained, as the batch loop does
    let mut p = DevicePool::homogeneous(&Gpu::v100(), 2);
    p.set_fault_plan(1, FaultPlan::none().with_device_lost(0.3 * solve_ms));
    let one = diag_jobs(1, 12, 25, 0x10c5);
    let outs: Vec<JobOutcome> = solve_stream_staged(&mut p, one, policy, 4, micro, sched).collect();
    assert_eq!((outs[0].device, outs[0].disposition), (0, Disposition::Ok));
    assert_losses_respected("drained stream", &p, &outs);
}
