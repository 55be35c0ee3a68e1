//! Integration tests of the batched multi-GPU solve pipeline.

use multidouble_ls::matrix::HostMat;
use multidouble_ls::pipeline::{
    dispatch_group_staged, power_flow_jobs, solve_batch, solve_batch_staged_with,
    solve_planned_traced_with, solve_stream_staged, tracker_jobs, workload_mix, BatchReport,
    DevicePool, DispatchPolicy, Job, JobOutcome, JobShape, MicrobatchConfig, PlannedSolve, Planner,
    RebookMode, StageSchedConfig,
};
use multidouble_ls::sim::Gpu;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serial batch loop with contiguous (sequential) stage booking.
fn batch_seq(
    pool: &mut DevicePool,
    jobs: &[Job],
    policy: DispatchPolicy,
    cfg: &MicrobatchConfig,
) -> BatchReport {
    let seq = StageSchedConfig::sequential();
    solve_batch_staged_with(pool, jobs, policy, cfg, &seq, false)
}

/// Book every shape alone and contiguously, model-only: in submission
/// order under least-loaded, longest first (by Table 1 flops) under
/// SECT — the batch loop's placement order with fusion off.
fn book_each(
    pool: &mut DevicePool,
    planner: &Planner,
    shapes: &[JobShape],
    policy: DispatchPolicy,
) {
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    if policy == DispatchPolicy::ShortestExpectedCompletion {
        let flops: Vec<f64> = shapes
            .iter()
            .map(|s| {
                let gpu = pool.gpu(0);
                planner
                    .plan_fused(gpu, s.rows, s.cols, s.target_digits, 1)
                    .1
                    .flops_paper
            })
            .collect();
        order.sort_by(|&a, &b| flops[b].total_cmp(&flops[a]));
    }
    let seq = StageSchedConfig::sequential();
    for i in order {
        dispatch_group_staged(pool, planner, vec![i], &shapes[i], policy, &seq, 0.0);
    }
}

/// The stream with default micro-batching and contiguous stage booking.
fn stream_with(
    pool: &mut DevicePool,
    jobs: Vec<Job>,
    policy: DispatchPolicy,
    window: usize,
) -> Vec<JobOutcome> {
    let (micro, seq) = (MicrobatchConfig::default(), StageSchedConfig::sequential());
    solve_stream_staged(pool, jobs, policy, window, micro, seq).collect()
}

/// The headline property: `solve_batch` over ≥ 1000 mixed-shape jobs is
/// *bit-identical* to solving each job sequentially with the same plan —
/// batching, device pooling and host worker threads change simulated
/// timing and real wall clock, never numerics.
#[test]
fn batch_matches_sequential_lstsq_on_1000_jobs() {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let jobs = power_flow_jobs(1000, &mut rng);

    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::v100(), Gpu::a100(), Gpu::p100()]);
    let report = solve_batch(&mut pool, &jobs);
    assert_eq!(report.outcomes.len(), 1000);

    let planner = Planner::new();
    for (job, out) in jobs.iter().zip(&report.outcomes) {
        // replan for the device the batch used: the plan must agree...
        let gpu = pool.gpu(out.device);
        let plan = planner.plan(gpu, job.rows(), job.cols(), job.target_digits);
        assert_eq!(plan, out.plan, "job {}: plans diverge", job.id);
        // ...and the sequential solve must reproduce the batch solution
        // exactly (same options => same arithmetic => same bits)
        let PlannedSolve { x, residual, .. } = solve_planned_traced_with(gpu, job, &plan, 0);
        assert_eq!(x, out.x, "job {}: batch and sequential bits differ", job.id);
        assert_eq!(residual, out.residual, "job {}", job.id);
        // accuracy targets hold on these well-conditioned consistent jobs
        let bound = 10f64.powi(-(job.target_digits as i32));
        assert!(
            out.residual < bound,
            "job {}: residual {:e} misses {} digits",
            job.id,
            out.residual,
            job.target_digits
        );
    }

    // mixed shapes really exercised the planner
    assert!(
        report.distinct_plans >= 4,
        "only {} distinct plans over 1000 mixed jobs",
        report.distinct_plans
    );
    // every device of the pool took a share of the load
    for s in &report.device_stats {
        assert!(s.solves > 0, "device {} ({}) idle", s.id, s.name);
    }
}

/// Scheduler invariant: the simulated makespan of a fixed job set
/// decreases monotonically as the pool grows.
#[test]
fn makespan_decreases_with_device_count() {
    let mut rng = StdRng::seed_from_u64(0x5c4ed);
    let shapes: Vec<JobShape> = power_flow_jobs(64, &mut rng)
        .iter()
        .map(JobShape::from)
        .collect();
    let planner = Planner::new();
    for policy in [
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::ShortestExpectedCompletion,
    ] {
        let mut prev = f64::INFINITY;
        for devices in 1..=6 {
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
            book_each(&mut pool, &planner, &shapes, policy);
            let makespan = pool.makespan_ms();
            assert!(
                makespan < prev,
                "{devices} devices ({}): makespan {makespan:.3} ms not below {prev:.3} ms",
                policy.tag()
            );
            prev = makespan;
        }
    }
}

/// Throughput scales near-linearly from one to two devices (the greedy
/// scheduler keeps both busy on a deep queue).
#[test]
fn two_devices_give_1_8x_throughput() {
    let mut rng = StdRng::seed_from_u64(0x7410);
    let shapes: Vec<JobShape> = power_flow_jobs(256, &mut rng)
        .iter()
        .map(JobShape::from)
        .collect();
    let planner = Planner::new();
    let throughput = |devices: usize| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
        book_each(&mut pool, &planner, &shapes, DispatchPolicy::LeastLoaded);
        pool.solves_per_sec()
    };
    let t1 = throughput(1);
    let t2 = throughput(2);
    assert!(
        t2 >= 1.8 * t1,
        "1→2 devices: {t1:.1} → {t2:.1} solves/s ({:.2}x)",
        t2 / t1
    );
}

/// Policy property (seeded, mixed shapes/digits): over randomized
/// power-flow queues on heterogeneous pools, batch SECT's makespan is
/// never materially worse than greedy's — and on a structured workload
/// mix at service-window depth it is strictly better, by a wide margin
/// on the V100+P100 pool.
#[test]
fn sect_makespan_never_loses_to_greedy_on_heterogeneous_pools() {
    let pools: Vec<Vec<Gpu>> = vec![
        vec![Gpu::v100(), Gpu::p100()],
        vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()],
        vec![Gpu::v100(), Gpu::p100(), Gpu::a100()],
    ];
    let makespan = |gpus: &[Gpu], shapes: &[JobShape], policy: DispatchPolicy| {
        let mut pool = DevicePool::new(gpus.to_vec());
        book_each(&mut pool, &Planner::new(), shapes, policy);
        pool.makespan_ms()
    };
    for seed in 1u64..=6 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes: Vec<JobShape> = power_flow_jobs(150, &mut rng)
            .iter()
            .map(JobShape::from)
            .collect();
        for gpus in &pools {
            let greedy = makespan(gpus, &shapes, DispatchPolicy::LeastLoaded);
            let sect = makespan(gpus, &shapes, DispatchPolicy::ShortestExpectedCompletion);
            // both are list-scheduling heuristics, so allow fp-scale
            // slack on random queues; the structured win is asserted
            // strictly below
            assert!(
                sect <= 1.01 * greedy,
                "seed {seed}, {} devices: SECT {sect:.2} ms worse than greedy {greedy:.2} ms",
                gpus.len()
            );
        }
    }
    // the structured mix (shared with the bench A/B): shapes and rungs
    // vary sharply per job, queue at service-window depth — SECT must
    // win outright on mixed pools
    let mix = workload_mix(60);
    let mixed = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
    let greedy = makespan(&mixed, &mix, DispatchPolicy::LeastLoaded);
    let sect = makespan(&mixed, &mix, DispatchPolicy::ShortestExpectedCompletion);
    assert!(
        sect <= 0.95 * greedy,
        "structured mix: SECT {sect:.1} ms not ≥5% under greedy {greedy:.1} ms"
    );
}

/// Policy property: outcomes are bit-identical across dispatch
/// policies on a heterogeneous pool — policies move jobs between
/// devices and through time, never through different arithmetic.
#[test]
fn outcomes_are_bit_identical_across_policies() {
    let mut rng = StdRng::seed_from_u64(0x9015c7);
    let jobs = power_flow_jobs(120, &mut rng);
    let gpus = || vec![Gpu::v100(), Gpu::p100(), Gpu::a100()];
    let mut pool_g = DevicePool::new(gpus());
    let greedy = batch_seq(
        &mut pool_g,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::default(),
    );
    let mut pool_s = DevicePool::new(gpus());
    let sect = batch_seq(
        &mut pool_s,
        &jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::default(),
    );
    let mut moved = 0;
    for (g, s) in greedy.outcomes.iter().zip(&sect.outcomes) {
        assert_eq!(g.job_id, s.job_id);
        assert_eq!(g.x, s.x, "job {}: policy changed the bits", g.job_id);
        assert_eq!(g.residual, s.residual, "job {}", g.job_id);
        if g.device != s.device {
            moved += 1;
        }
    }
    // the policies must actually disagree on placement somewhere, or
    // the bit-equality above proved nothing
    assert!(moved > 0, "policies placed all 120 jobs identically");
}

/// Stream property: a high-priority corrector solve submitted late
/// overtakes queued low-priority predictor solves, and the reordering
/// leaves every solution bit-identical to the FIFO run.
#[test]
fn late_corrector_overtakes_predictors_in_the_stream() {
    let mut rng = StdRng::seed_from_u64(0x77ac3);
    let jobs = tracker_jobs(30, &mut rng);
    // correctors are every third job (priority 1, deadline-tagged)
    let corrector_ids: Vec<u64> = jobs
        .iter()
        .filter(|j| j.priority > 0)
        .map(|j| j.id)
        .collect();
    assert_eq!(corrector_ids.len(), 10);

    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let outcomes = stream_with(
        &mut pool,
        jobs.clone(),
        DispatchPolicy::ShortestExpectedCompletion,
        16,
    );
    assert_eq!(outcomes.len(), jobs.len());
    // within the first reorder window every corrector beats every
    // predictor: the 10 correctors all drain in the first 10+16-1 slots
    // and, more sharply, the very first drained job is a corrector that
    // arrived *after* several predictors
    assert!(
        corrector_ids.contains(&outcomes[0].job_id),
        "first drained job {} is not a corrector",
        outcomes[0].job_id
    );
    let first_predictor_slot = outcomes
        .iter()
        .position(|o| !corrector_ids.contains(&o.job_id))
        .unwrap();
    let correctors_before: usize = outcomes[..first_predictor_slot].len();
    assert!(
        correctors_before >= 5,
        "only {correctors_before} correctors drained before the first predictor"
    );

    // reordering never changes numerics: compare against a FIFO run
    let mut pool_f = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let fifo = stream_with(&mut pool_f, jobs, DispatchPolicy::LeastLoaded, 1);
    for f in &fifo {
        let r = outcomes.iter().find(|o| o.job_id == f.job_id).unwrap();
        assert_eq!(f.x, r.x, "job {}: reordering changed the bits", f.job_id);
    }
}

/// Micro-batching property (seeded, all ladder rungs): a fused batch
/// over a mixed power-flow queue — whose shape keys repeat heavily, so
/// real fusion happens at every rung — is bit-identical, job for job,
/// to interpreting each job's plan alone; and the fused solutions are
/// placement-invariant: a different pool (different devices, different
/// grouping pressure) produces the same bits.
#[test]
fn fused_batches_are_bit_identical_and_placement_invariant() {
    let mut rng = StdRng::seed_from_u64(0xf0_5ed);
    let jobs = power_flow_jobs(120, &mut rng);
    let cfg = MicrobatchConfig::default();

    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::a100()]);
    let report = batch_seq(&mut pool, &jobs, DispatchPolicy::LeastLoaded, &cfg);
    assert_eq!(report.outcomes.len(), jobs.len());
    assert!(
        report.fused_groups >= 4,
        "only {} fused groups over 120 repeated-shape jobs",
        report.fused_groups
    );

    // every rung of the ladder is exercised inside some fused group
    let fused_rungs: std::collections::HashSet<_> = report
        .outcomes
        .iter()
        .filter(|o| o.fused_group > 1)
        .map(|o| o.x.precision())
        .collect();
    assert!(
        fused_rungs.len() >= 3,
        "fused groups covered only {fused_rungs:?}"
    );

    // bit-identity against the singleton interpreter, per job
    let planner = Planner::new();
    for (job, out) in jobs.iter().zip(&report.outcomes) {
        let gpu = pool.gpu(out.device);
        let plan = planner.plan(gpu, job.rows(), job.cols(), job.target_digits);
        let PlannedSolve { x, residual, .. } = solve_planned_traced_with(gpu, job, &plan, 0);
        assert_eq!(x, out.x, "job {}: fused bits differ", job.id);
        assert_eq!(residual, out.residual, "job {}", job.id);
        assert!(out.achieved_digits >= job.target_digits as f64);
    }

    // placement invariance: an all-P100 pool fuses and places
    // differently but must produce the same bits
    let mut other = DevicePool::homogeneous(&Gpu::p100(), 3);
    let again = batch_seq(&mut other, &jobs, DispatchPolicy::LeastLoaded, &cfg);
    for (a, b) in report.outcomes.iter().zip(&again.outcomes) {
        assert_eq!(a.job_id, b.job_id);
        assert_eq!(a.x, b.x, "job {}: pool changed the bits", a.job_id);
        assert_eq!(a.residual, b.residual);
    }
}

/// Micro-batching lifts throughput end to end on a small-shape queue:
/// the fused batch clears the same jobs on the same pool at least
/// twice as fast as the unfused batch (the issue's acceptance bar,
/// measured through the public batch API rather than the planner).
#[test]
fn fused_batch_doubles_small_shape_throughput() {
    // the issue's shape grid: repeated 32..128-unknown systems at the
    // d and dd rungs — the service mix where one solve underfills a
    // device and shape keys recur enough to form real groups
    let mut rng = StdRng::seed_from_u64(0xfa57);
    let jobs: Vec<multidouble_ls::pipeline::Job> = (0..96u64)
        .map(|id| {
            let n = [32, 64, 96, 128][id as usize % 4];
            let digits = [12, 25][id as usize % 2];
            let a = multidouble_ls::matrix::HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            multidouble_ls::pipeline::Job::new(id, a, b, digits)
        })
        .collect();
    let mut plain = DevicePool::homogeneous(&Gpu::v100(), 2);
    let unfused = batch_seq(
        &mut plain,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::off(),
    );
    let mut micro = DevicePool::homogeneous(&Gpu::v100(), 2);
    let fused = batch_seq(
        &mut micro,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::default(),
    );
    assert!(
        fused.solves_per_sec >= 2.0 * unfused.solves_per_sec,
        "fused {:.1}/s vs unfused {:.1}/s",
        fused.solves_per_sec,
        unfused.solves_per_sec
    );
}

/// Stream fusion under the tracker workload: outcomes match the
/// unfused priority stream bit for bit AND drain in exactly the same
/// order (fusion takes drain-order prefixes only, so correctors still
/// overtake predictors precisely where they did before).
#[test]
fn fused_stream_preserves_tracker_ordering_and_bits() {
    let mut rng = StdRng::seed_from_u64(0x7ac3d);
    let jobs = tracker_jobs(36, &mut rng);
    let mut pool_u = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let unfused = stream_with(
        &mut pool_u,
        jobs.clone(),
        DispatchPolicy::ShortestExpectedCompletion,
        12,
    );
    let mut pool_f = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let fused: Vec<JobOutcome> = solve_stream_staged(
        &mut pool_f,
        jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        12,
        MicrobatchConfig::default(),
        StageSchedConfig::sequential(),
    )
    .collect();
    assert_eq!(unfused.len(), fused.len());
    for (u, f) in unfused.iter().zip(&fused) {
        assert_eq!(u.job_id, f.job_id, "fusion changed the drain order");
        assert_eq!(u.x, f.x, "job {}: fusion changed the bits", u.job_id);
    }
}

/// Stage-level scheduling property: overlapped stage booking and
/// online re-booking move work through simulated time only — every
/// outcome under the staged config is bit-identical to sequential
/// booking, and the staged schedule itself is placement-invariant (a
/// different pool re-places and re-overlaps, the bits never move).
#[test]
fn staged_scheduling_is_bit_identical_to_sequential_booking() {
    let mut rng = StdRng::seed_from_u64(0x57a6ed);
    let jobs = power_flow_jobs(90, &mut rng);

    let mut pool_legacy = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let legacy = batch_seq(
        &mut pool_legacy,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::default(),
    );

    let mut pool_staged = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let staged = solve_batch_staged_with(
        &mut pool_staged,
        &jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::default(),
        &StageSchedConfig::staged(),
        true,
    );
    assert_eq!(staged.outcomes.len(), legacy.outcomes.len());
    for (l, s) in legacy.outcomes.iter().zip(&staged.outcomes) {
        assert_eq!(l.job_id, s.job_id);
        assert_eq!(
            l.x, s.x,
            "job {}: staged booking changed the bits",
            l.job_id
        );
        assert_eq!(l.residual, s.residual);
        assert_eq!(l.corrections_run, s.corrections_run, "job {}", l.job_id);
    }

    // placement invariance: a different pool under the same staged
    // config overlaps and re-books differently but returns the same bits
    let mut other = DevicePool::homogeneous(&Gpu::a100(), 3);
    let again = solve_batch_staged_with(
        &mut other,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::default(),
        &StageSchedConfig::staged(),
        true,
    );
    for (a, b) in staged.outcomes.iter().zip(&again.outcomes) {
        assert_eq!(a.x, b.x, "job {}: pool changed staged bits", a.job_id);
    }
}

/// Deterministic refund-heavy jobs: 30/90-digit targets whose
/// worst-case pass bookings overshoot what the measured residual needs.
fn refund_jobs(count: usize, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|id| {
            // device-bound shapes: refunds rewind compute-lane tails,
            // so the makespan only moves when the compute lane is the
            // critical path (small shapes are prep-bound and show the
            // ≤ property but not the strict win)
            let n = [96, 128, 192][id as usize % 3];
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            Job::new(id, a, b, [30, 90, 90][id as usize % 3])
        })
        .collect()
}

/// Online-refund re-booking property (seeded mixes): with identical
/// worst-case bookings, handing refunds back online never worsens the
/// makespan, and every solution stays bit-identical. Writing refunds
/// off the busy books only (`BooksOnly`) leaves the booked schedule in
/// place; slide-left compaction moves queued dispatches into the
/// mid-schedule holes, and wins strictly on refund-heavy mixes.
#[test]
fn online_rebooking_never_worsens_makespan() {
    // overlapped lanes, worst-case booking, no extension: the two arms
    // differ in the refund mode alone
    let post = StageSchedConfig {
        overlap: true,
        ..StageSchedConfig::sequential()
    };
    assert_eq!(post.refund, RebookMode::BooksOnly);
    let compact = StageSchedConfig {
        refund: RebookMode::Compact,
        ..post
    };
    let mut strict_wins = 0;
    for seed in 1u64..=2 {
        let jobs = refund_jobs(12, seed);
        let run = |sched: &StageSchedConfig| {
            let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::v100(), Gpu::p100()]);
            solve_batch_staged_with(
                &mut pool,
                &jobs,
                DispatchPolicy::ShortestExpectedCompletion,
                &MicrobatchConfig::off(),
                sched,
                true,
            )
        };
        let post = run(&post);
        let comp = run(&compact);
        assert!(
            comp.makespan_ms <= post.makespan_ms + 1e-9,
            "seed {seed}: compaction {:.2} ms worse than books-only {:.2} ms",
            comp.makespan_ms,
            post.makespan_ms
        );
        if comp.makespan_ms < post.makespan_ms - 1e-9 {
            strict_wins += 1;
        }
        for (a, b) in post.outcomes.iter().zip(&comp.outcomes) {
            assert_eq!(a.x, b.x, "seed {seed}: compaction changed bits");
        }
        // refunds actually flowed, or the property is vacuous
        assert!(post.outcomes.iter().any(|o| o.refunded_ms > 0.0));
    }
    assert!(strict_wins > 0, "compaction never strictly won");
}

/// A = H_u · D · H_v with geometric singular-value decay 1..10^-p:
/// condition number 10^p exactly, immune to the QR's column-scaling
/// equilibration — per-pass refinement gains genuinely shrink.
fn ill_conditioned(n: usize, p: f64, seed: u64) -> HostMat<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut u: Vec<f64> = (0..n)
        .map(|_| multidouble::random::rand_real::<f64, _>(&mut rng) - 0.5)
        .collect();
    let mut v: Vec<f64> = (0..n)
        .map(|_| multidouble::random::rand_real::<f64, _>(&mut rng) - 0.5)
        .collect();
    let nu = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nv = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    u.iter_mut().for_each(|x| *x /= nu);
    v.iter_mut().for_each(|x| *x /= nv);
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-p * i as f64 / (n as f64 - 1.0)))
        .collect();
    HostMat::<f64>::from_fn(n, n, |r, c| {
        let mut s = 0.0;
        for k in 0..n {
            let hu = if r == k { 1.0 } else { 0.0 } - 2.0 * u[r] * u[k];
            let hv = if k == c { 1.0 } else { 0.0 } - 2.0 * v[k] * v[c];
            s += hu * d[k] * hv;
        }
        s
    })
}

/// Pass extension certifies a stalled job: conditioning eats into the
/// per-pass digit gain, so the plan's booked passes end below target —
/// sequential booking (no extension) returns under-target, while the
/// staged config extends the booking pass by pass until the measured
/// residual certifies the target, reporting the extra booked time.
#[test]
fn stalled_job_extends_passes_to_reach_target() {
    let n = 32;
    let target = 29;
    let a = ill_conditioned(n, 4.0, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let b: Vec<f64> = (0..n)
        .map(|_| multidouble::random::rand_real(&mut rng))
        .collect();
    let jobs = vec![Job::new(0, a, b, target)];

    // legacy (no extension): the booked passes stall under target
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let legacy = batch_seq(
        &mut pool,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::default(),
    );
    let l = &legacy.outcomes[0];
    assert!(
        l.achieved_digits < target as f64,
        "conditioning did not stall the job ({:.1} digits) — the test is vacuous",
        l.achieved_digits
    );
    assert_eq!(l.corrections_run, l.plan.corrections());

    // staged engine with extension: extra passes run (and are booked)
    // until the residual certifies the target
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    let staged = solve_batch_staged_with(
        &mut pool,
        &jobs,
        DispatchPolicy::LeastLoaded,
        &MicrobatchConfig::off(),
        &StageSchedConfig::staged(),
        true,
    );
    let s = &staged.outcomes[0];
    assert!(
        s.achieved_digits >= target as f64,
        "extension stopped at {:.1} digits, target {target}",
        s.achieved_digits
    );
    assert!(
        s.corrections_run > s.plan.corrections(),
        "no extra pass ran ({} <= plan {})",
        s.corrections_run,
        s.plan.corrections()
    );
    assert!(s.extended_ms > 0.0, "extension booked no time");
    // the extension extends this job's own interval on the schedule
    assert!(s.end_ms > legacy.outcomes[0].end_ms);
}

/// The planner chooses different tile configurations for different job
/// shapes (cost-model-driven autotuning, not a fixed default).
#[test]
fn planner_adapts_tiling_to_shape() {
    let planner = Planner::new();
    let gpu = Gpu::v100();
    let configs: Vec<(usize, usize)> = [16usize, 96, 512]
        .iter()
        .map(|&n| {
            let p = planner.plan(&gpu, n, n, 25);
            let (_, tiles, tile_size) = p.factor();
            (tiles, tile_size)
        })
        .collect();
    let mut distinct = configs.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "one tiling {configs:?} for shapes 16/96/512"
    );
}

/// Refinement correctness property (seeded): over randomized
/// power-flow queues, every outcome — direct or refinement — certifies
/// at least its job's target digits, and refinement plans are actually
/// exercised somewhere in the mix.
#[test]
fn refinement_meets_every_digit_target() {
    let mut refined = 0usize;
    for seed in [0xf1a7u64, 0xf1a8, 0xf1a9] {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = power_flow_jobs(40, &mut rng);
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::a100()]);
        let report = solve_batch(&mut pool, &jobs);
        for (job, out) in jobs.iter().zip(&report.outcomes) {
            assert!(
                out.achieved_digits >= job.target_digits as f64,
                "seed {seed:#x} job {} ({}): {:.1} digits < target {}",
                job.id,
                out.plan.summary(),
                out.achieved_digits,
                job.target_digits
            );
            // the model's own digit prediction must also have covered it
            assert!(out.plan.predicted_digits >= job.target_digits);
            refined += usize::from(!out.plan.is_direct());
        }
    }
    assert!(
        refined > 0,
        "no refinement plan was ever chosen across the seeds — the property is vacuous"
    );
}

/// Forced refinement across every factor/solution rung pair: each
/// ladder combination must reach the solution rung's digits on a
/// well-conditioned system, not just the pairs the cost model happens
/// to pick.
#[test]
fn refinement_reaches_targets_on_every_ladder_pair() {
    let mut rng = StdRng::seed_from_u64(0x1adde);
    let jobs = power_flow_jobs(6, &mut rng);
    let planner = Planner::new();
    let gpu = Gpu::v100();
    for job in &jobs {
        for digits in [25, 50, 100] {
            let plan = planner.plan(&gpu, job.rows(), job.cols(), digits);
            let PlannedSolve { x, residual, .. } = solve_planned_traced_with(&gpu, job, &plan, 0);
            assert_eq!(x.precision(), plan.solution_precision());
            assert!(
                residual < 10f64.powi(-(digits as i32)),
                "job {} to {digits} digits via {}: residual {residual:e}",
                job.id,
                plan.summary()
            );
        }
    }
}

/// No silent behavior change for single-stage plans: a direct plan's
/// interpretation is bit-identical to the pre-refactor path — a plain
/// sequential `lstsq` at the plan's precision and tiling.
#[test]
fn direct_plans_are_bit_identical_to_plain_lstsq() {
    use multidouble_ls::matrix::vec_norm2;
    use multidouble_ls::md::{Dd, MdReal, Od, Qd};
    use multidouble_ls::pipeline::{ExecPlan, Precision, Solution};
    use multidouble_ls::sim::ExecMode;
    use multidouble_ls::solver::lstsq;

    fn reference<S: MdReal>(
        gpu: &Gpu,
        job: &multidouble_ls::pipeline::Job,
        plan: &ExecPlan,
    ) -> (Vec<S>, f64) {
        let a = multidouble_ls::matrix::HostMat::<S>::from_fn(job.rows(), job.cols(), |r, c| {
            S::from_f64(job.a.get(r, c))
        });
        let b: Vec<S> = job.b.iter().map(|&v| S::from_f64(v)).collect();
        let run = lstsq(gpu, &a, &b, &plan.options(ExecMode::Sequential));
        let r = a.residual(&run.x, &b).to_f64();
        let bn = vec_norm2(&b).to_f64();
        (run.x, if bn > 0.0 { r / bn } else { r })
    }

    let mut rng = StdRng::seed_from_u64(0xb17);
    let jobs = power_flow_jobs(12, &mut rng);
    let planner = Planner::new();
    for gpu in [Gpu::v100(), Gpu::p100()] {
        for job in &jobs {
            let plan = planner.plan_direct(&gpu, job.rows(), job.cols(), job.target_digits);
            assert!(plan.is_direct());
            let PlannedSolve { x, residual, .. } = solve_planned_traced_with(&gpu, job, &plan, 0);
            match (&x, plan.factor_precision()) {
                (Solution::D1(x), Precision::D1) => {
                    let (e, er) = reference::<f64>(&gpu, job, &plan);
                    assert_eq!(*x, e, "job {}: 1d bits changed", job.id);
                    assert_eq!(residual, er);
                }
                (Solution::D2(x), Precision::D2) => {
                    let (e, er) = reference::<Dd>(&gpu, job, &plan);
                    assert_eq!(*x, e, "job {}: 2d bits changed", job.id);
                    assert_eq!(residual, er);
                }
                (Solution::D4(x), Precision::D4) => {
                    let (e, er) = reference::<Qd>(&gpu, job, &plan);
                    assert_eq!(*x, e, "job {}: 4d bits changed", job.id);
                    assert_eq!(residual, er);
                }
                (Solution::D8(x), Precision::D8) => {
                    let (e, er) = reference::<Od>(&gpu, job, &plan);
                    assert_eq!(*x, e, "job {}: 8d bits changed", job.id);
                    assert_eq!(residual, er);
                }
                (s, p) => panic!(
                    "solution rung {:?} does not match plan rung {p:?}",
                    s.precision()
                ),
            }
        }
    }
}
