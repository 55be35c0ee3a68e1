//! Engine equivalence digests: every driver (the batch loop, the
//! stream, `serve`) run over seeded workloads — quiet and chaotic — and
//! folded, outcome by outcome and event by event, into one FNV digest
//! per run. The digests are constants recorded *before* the k = 1 forks
//! and the per-driver admit / place / execute / settle copies were
//! folded into one path; a refactor of the engines must reproduce them
//! exactly (as `pool_script_reproduces_the_recorded_schedule` does for
//! the pool alone). A digest covers every outcome's solution limbs,
//! residual, placement, interval, group size, pass count, refund and
//! extension shares, disposition and requested digits, **and** the full
//! recorded event stream in order — so a changed booking, a reordered
//! planner probe or a dropped event all show.
//!
//! On a mismatch the failing test prints the table it got, ready to
//! paste — but re-record only for a change that *means* to move a
//! schedule, and say why in the PR.

use std::sync::Arc;

use multidouble_ls::matrix::HostMat;
use multidouble_ls::md::MdReal;
use multidouble_ls::obs::{Event, Recorder};
use multidouble_ls::pipeline::{
    serve, solve_batch_resilient, solve_stream_staged, AdmissionConfig, Backpressure,
    BreakerConfig, DevicePool, DispatchPolicy, Disposition, ExecutionMode, Job, JobOutcome,
    MicrobatchConfig, OverloadConfig, Planner, ResilienceConfig, ServiceConfig, SloClass, Solution,
    StageSchedConfig, TenantId, TenantSpec,
};
use multidouble_ls::sim::{FaultPlan, Gpu};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over 64-bit words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }
    fn ms(&mut self, ms: f64) {
        self.word(ms.to_bits());
    }
    fn limbs<S: MdReal>(&mut self, x: &[S]) {
        for v in x {
            for i in 0..S::LIMBS {
                self.ms(v.limb(i));
            }
        }
    }
    fn outcome(&mut self, o: &JobOutcome) {
        self.word(o.job_id);
        self.word(o.device as u64);
        self.word(o.x.len() as u64);
        match &o.x {
            Solution::D1(x) => self.limbs(x),
            Solution::D2(x) => self.limbs(x),
            Solution::D4(x) => self.limbs(x),
            Solution::D8(x) => self.limbs(x),
        }
        for v in [
            o.residual,
            o.start_ms,
            o.end_ms,
            o.refunded_ms,
            o.extended_ms,
        ] {
            self.ms(v);
        }
        self.word(o.fused_group as u64);
        self.word(o.corrections_run as u64);
        self.word(o.requested_digits as u64);
        self.word(o.plan.target_digits as u64);
        for b in o.disposition.tag().bytes() {
            self.byte(b);
        }
    }
    /// The event stream, in order. `Event` is flat scalars and static
    /// strings, and `{:?}` prints every `f64` shortest-round-trip, so
    /// the debug text is injective on the bits.
    fn events(&mut self, events: &[Event]) {
        self.word(events.len() as u64);
        for ev in events {
            for b in format!("{ev:?}").bytes() {
                self.byte(b);
            }
        }
    }
}

fn digest(outcomes: &[JobOutcome], events: &[Event]) -> u64 {
    let mut h = Fnv::new();
    h.word(outcomes.len() as u64);
    for o in outcomes {
        h.outcome(o);
    }
    h.events(events);
    h.0
}

/// Recorded-vs-got comparison that reports *every* mismatching table
/// of a test at once, each as a Rust literal ready to paste.
#[derive(Default)]
struct Tables(Vec<String>);

impl Tables {
    fn check(&mut self, what: &str, got: &[u64], recorded: &[u64]) {
        if got != recorded {
            let literal: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            self.0.push(format!("{what}: [{}]", literal.join(", ")));
        }
    }
    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "the engines placed, settled or reported differently; got\n{}",
            self.0.join("\n")
        );
    }
}

fn diag_job(id: u64, n: usize, digits: u32, rng: &mut StdRng) -> Job {
    let a = HostMat::<f64>::from_fn(n, n, |r, c| {
        let u: f64 = multidouble_ls::md::random::rand_real(rng);
        u + if r == c { 4.0 } else { 0.0 }
    });
    let b: Vec<f64> = (0..n)
        .map(|_| multidouble_ls::md::random::rand_real(rng))
        .collect();
    Job::new(id, a, b, digits)
}

/// `A = H_u · D · H_v` with condition number `10^p`: per-pass
/// refinement gains shrink, so the staged config extends past the plan
/// (the construction of `stalled_job_extends_passes_to_reach_target`).
fn ill_conditioned(n: usize, p: f64, seed: u64) -> HostMat<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = |rng: &mut StdRng| {
        let mut u: Vec<f64> = (0..n)
            .map(|_| multidouble_ls::md::random::rand_real::<f64, _>(rng) - 0.5)
            .collect();
        let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        u.iter_mut().for_each(|x| *x /= norm);
        u
    };
    let (u, v) = (unit(&mut rng), unit(&mut rng));
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-p * i as f64 / (n as f64 - 1.0)))
        .collect();
    HostMat::<f64>::from_fn(n, n, |r, c| {
        (0..n)
            .map(|k| {
                let hu = if r == k { 1.0 } else { 0.0 } - 2.0 * u[r] * u[k];
                let hv = if k == c { 1.0 } else { 0.0 } - 2.0 * v[k] * v[c];
                hu * d[k] * hv
            })
            .sum()
    })
}

/// Thirty small jobs over three shapes and four targets (so groups
/// fuse, refinement plans stop early and refund), staggered releases,
/// two priority classes, and one ill-conditioned job that stalls.
fn mixed_jobs(seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<Job> = (0..30u64)
        .map(|id| {
            let n = [8, 12, 16][id as usize % 3];
            let digits = [12, 25, 30, 50][(id as usize / 3) % 4];
            let mut job = diag_job(id, n, digits, &mut rng)
                .with_priority((id % 5 == 0) as i32)
                .with_release_ms((id / 6) as f64 * 0.05);
            if id % 7 == 3 {
                // generous: orders the stream's heap, never binds
                job = job.with_deadline_ms(1.0e6 + id as f64);
            }
            job
        })
        .collect();
    let b: Vec<f64> = (0..32)
        .map(|_| multidouble_ls::md::random::rand_real(&mut rng))
        .collect();
    jobs.push(Job::new(30, ill_conditioned(32, 4.0, 3), b, 29));
    jobs
}

fn pools() -> [Vec<Gpu>; 2] {
    [
        vec![Gpu::v100(), Gpu::v100()],
        vec![Gpu::v100(), Gpu::p100()],
    ]
}

/// {sequential, staged} × {fused, off} × {least-loaded, SECT}.
fn configs() -> Vec<(StageSchedConfig, MicrobatchConfig, DispatchPolicy)> {
    let mut out = Vec::new();
    for sched in [StageSchedConfig::sequential(), StageSchedConfig::staged()] {
        for micro in [MicrobatchConfig::default(), MicrobatchConfig::off()] {
            for policy in [
                DispatchPolicy::LeastLoaded,
                DispatchPolicy::ShortestExpectedCompletion,
            ] {
                out.push((sched, micro, policy));
            }
        }
    }
    out
}

fn count(outcomes: &[JobOutcome], d: Disposition) -> usize {
    outcomes.iter().filter(|o| o.disposition == d).count()
}

const BATCH_QUIET: [[u64; 8]; 2] = [
    [
        0xe91b_bb25_e599_eaf8,
        0xd694_5d26_9bcb_ae35,
        0xe92c_9a36_e4ca_4412,
        0x155d_9d11_7845_afba,
        0xb9c0_71d5_4a4f_fe19,
        0xac4a_e691_3a75_07f1,
        0x8301_c7a0_9bba_2419,
        0x3691_00c1_67db_2be8,
    ],
    [
        0xc53a_9bc9_09e7_cc5c,
        0x1b60_2f87_98df_f7d9,
        0xa994_e42a_3a51_1194,
        0x9c3a_9490_d481_e0b8,
        0x7b3e_0651_406b_4120,
        0x6663_bc3d_d6e2_5439,
        0xd735_2606_8cc2_af3e,
        0xf00a_fc6b_e7ce_1dc2,
    ],
];
const BATCH_CHAOS: [[u64; 8]; 2] = [
    [
        0x2180_0aca_401f_3e7e,
        0x965c_cf0d_1fca_afa4,
        0x25d3_ffca_7b8f_56f8,
        0x0d4f_5459_f5d4_3569,
        0x01e6_fb5a_6300_d9a6,
        0x42f3_71eb_0fc5_bd9e,
        0xe895_4be9_8b95_a9e5,
        0x6ba8_b947_d13b_810e,
    ],
    [
        0x7846_dd24_30d0_e134,
        0xe9bf_a35b_bebb_70f7,
        0xdfc4_7ea7_d8a2_8687,
        0xafdd_aff9_6b22_b48a,
        0xdedb_fa17_be35_978c,
        0xa7bb_54f5_af9f_dd89,
        0xd52e_e9e2_693c_380d,
        0xe2c8_ab69_ddce_cb4a,
    ],
];

#[test]
fn batch_loop_reproduces_the_recorded_runs() {
    let quiet_jobs = mixed_jobs(0xe61e);
    // chaos: deadlines that shed (faster than any solve) and degrade
    // (between the dd-rung and the qd-rung completion on an idle V100)
    let planner = Planner::new();
    let v100 = Gpu::v100();
    let mut chaos_jobs = quiet_jobs.clone();
    for job in chaos_jobs.iter_mut().filter(|j| j.target_digits == 50) {
        let n = job.cols();
        let hi = planner.plan(&v100, n, n, 50).predicted_ms;
        let lo = planner.plan(&v100, n, n, 29).predicted_ms;
        assert!(lo < hi, "the dd rung must be cheaper than the qd one");
        job.deadline_ms = Some(job.release() + 0.5 * (lo + hi));
    }
    for job in chaos_jobs.iter_mut().filter(|j| j.id % 10 == 4) {
        job.deadline_ms = Some(job.release() + 1.0e-6);
    }
    let mut extended = false;
    let mut tables = Tables::default();
    for (pi, gpus) in pools().iter().enumerate() {
        // size the fault schedule off the quiet staged makespan
        let span = {
            let mut pool = DevicePool::new(gpus.clone());
            let (sched, micro, policy) = configs()[4];
            let cfg = ResilienceConfig::default();
            solve_batch_resilient(&mut pool, &quiet_jobs, policy, &micro, &sched, &cfg).makespan_ms
        };
        for chaos in [false, true] {
            let jobs = if chaos { &chaos_jobs } else { &quiet_jobs };
            let mut got = Vec::new();
            for (sched, micro, policy) in configs() {
                let mut pool = DevicePool::new(gpus.clone());
                if chaos {
                    pool.set_fault_plan(0, FaultPlan::seeded(0xc4a05, 4.0 * span, span / 12.0));
                    pool.set_fault_plan(
                        1,
                        FaultPlan::seeded(0xc4a06, 4.0 * span, span / 6.0)
                            .with_device_lost(0.4 * span),
                    );
                }
                let recorder = Arc::new(Recorder::new());
                pool.attach_observer(recorder.clone());
                let cfg = ResilienceConfig::default();
                let report = solve_batch_resilient(&mut pool, jobs, policy, &micro, &sched, &cfg);
                let o = &report.outcomes;
                if chaos {
                    assert!(count(o, Disposition::Shed) > 0, "vacuous: nothing shed");
                    assert!(
                        count(o, Disposition::Degraded) > 0,
                        "vacuous: nothing degraded"
                    );
                    assert!(
                        count(o, Disposition::Retried) > 0,
                        "vacuous: nothing retried"
                    );
                    assert!(pool.devices()[1].is_lost(), "vacuous: no device lost");
                } else {
                    assert_eq!(count(o, Disposition::Ok), o.len());
                }
                extended |= o.iter().any(|o| o.extended_ms > 0.0);
                let mut h = Fnv::new();
                h.word(digest(o, &recorder.events()));
                h.ms(report.makespan_ms);
                h.word(report.fused_groups as u64);
                got.push(h.0);
            }
            let recorded = if chaos { &BATCH_CHAOS } else { &BATCH_QUIET };
            tables.check(
                &format!("batch, pool {pi}, chaos {chaos}"),
                &got,
                &recorded[pi],
            );
        }
    }
    assert!(extended, "vacuous: no job ever extended past its plan");
    tables.finish();
}

const STREAM_QUIET: [[u64; 8]; 2] = [
    [
        0x1a2a_e73b_560b_4fc1,
        0xb945_28cd_d32f_4e87,
        0x6188_ec92_f916_b414,
        0x9b39_2ddb_458d_f87c,
        0x5fec_7d34_d1cb_c866,
        0xae7c_8b1c_118f_7b9d,
        0x4080_b651_154e_04bd,
        0x754d_6177_636c_445d,
    ],
    [
        0x6f21_f175_644f_40f4,
        0x0bd3_1fa7_9225_1de8,
        0xe62c_4cf4_9ae5_4325,
        0x2872_3fdf_b2be_80f5,
        0xbf40_f8a7_130e_1519,
        0xaffc_3c40_c52e_88ed,
        0x6434_b031_f187_ae52,
        0xe220_865d_9351_2265,
    ],
];
const STREAM_ADMITTED: [u64; 2] = [0x25da_6e92_4b5b_3acb, 0xc40a_0b86_343a_68ab];

#[test]
fn stream_reproduces_the_recorded_runs() {
    let jobs = mixed_jobs(0x57e4);
    let mut tables = Tables::default();
    for (pi, gpus) in pools().iter().enumerate() {
        let mut got = Vec::new();
        for (sched, micro, policy) in configs() {
            let mut pool = DevicePool::new(gpus.clone());
            let recorder = Arc::new(Recorder::new());
            pool.attach_observer(recorder.clone());
            let outcomes: Vec<JobOutcome> =
                solve_stream_staged(&mut pool, jobs.clone(), policy, 4, micro, sched).collect();
            assert_eq!(outcomes.len(), jobs.len());
            got.push(digest(&outcomes, &recorder.events()));
        }
        tables.check(&format!("stream, pool {pi}"), &got, &STREAM_QUIET[pi]);
    }

    // the admitted stream with a sticky loss that interrupts a booked
    // group mid-stream and deadlines the survivors cannot all keep:
    // re-dispatch, loss-time re-preview, pop-time shed and down-ladder
    let planner = Planner::new();
    let v100 = Gpu::v100();
    let mut got = Vec::new();
    for (sched, micro) in [
        (StageSchedConfig::staged(), MicrobatchConfig::default()),
        (StageSchedConfig::sequential(), MicrobatchConfig::off()),
    ] {
        let mut jobs = mixed_jobs(0x57e5);
        jobs.truncate(24);
        let unit = planner.plan(&v100, 16, 16, 50).predicted_ms;
        for job in jobs.iter_mut() {
            job.release_ms = None;
            job.deadline_ms = match job.id % 4 {
                1 => Some(unit * (2.0 + job.id as f64 / 3.0)),
                2 => Some(1.0e-6),
                _ => None,
            };
        }
        // a late qd-rung arrival on an idle pool whose deadline only
        // the dd rung can keep: the pop-time preview down-ladders it
        let late = jobs.last_mut().unwrap();
        assert_eq!((late.cols(), late.target_digits), (16, 50));
        let lo = planner.plan(&v100, 16, 16, 29).predicted_ms;
        late.release_ms = Some(1.0e3);
        late.deadline_ms = Some(1.0e3 + 0.5 * (lo + unit));
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::v100()]);
        pool.set_fault_plan(1, FaultPlan::none().with_device_lost(2.5 * unit));
        let recorder = Arc::new(Recorder::new());
        pool.attach_observer(recorder.clone());
        let outcomes: Vec<JobOutcome> = solve_stream_staged(
            &mut pool,
            jobs,
            DispatchPolicy::LeastLoaded,
            6,
            micro,
            sched,
        )
        .with_admission(AdmissionConfig::default())
        .collect();
        assert_eq!(outcomes.len(), 24);
        assert!(
            pool.devices()[1].is_lost(),
            "vacuous: the loss never came due"
        );
        assert!(
            count(&outcomes, Disposition::Shed) > 0,
            "vacuous: nothing shed"
        );
        assert!(
            count(&outcomes, Disposition::Degraded) > 0,
            "vacuous: nothing degraded"
        );
        assert!(
            count(&outcomes, Disposition::Retried) > 0,
            "vacuous: the loss interrupted nothing"
        );
        got.push(digest(&outcomes, &recorder.events()));
    }
    tables.check("admitted stream", &got, &STREAM_ADMITTED);
    tables.finish();
}

fn tenant_jobs(
    count: usize,
    id_base: u64,
    digits: u32,
    seed: u64,
    tenant: TenantId,
    slo: SloClass,
    spacing_ms: f64,
) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            diag_job(id_base + i, 8, digits, &mut rng)
                .with_tenant(tenant)
                .with_slo(slo)
                .with_release_ms(i as f64 * spacing_ms)
        })
        .collect()
}

const SERVE_FUNCTIONAL: u64 = 0x43d9_a7c8_ddad_19f4;
const SERVE_MODEL: u64 = 0xf9cc_0af2_f96a_70be;

#[test]
fn serve_reproduces_the_recorded_runs() {
    // functional: three tenants, transients on device 1, a deadline
    // class that sheds — identical across host worker counts
    let (t1, t2, t3) = (TenantId(1), TenantId(2), TenantId(3));
    let mut jobs = tenant_jobs(12, 0, 40, 0xde7e, t1, SloClass::Premium, 0.7);
    jobs.extend(tenant_jobs(
        12,
        100,
        25,
        0x4e11,
        t2,
        SloClass::Standard,
        0.3,
    ));
    jobs.extend(tenant_jobs(
        10,
        200,
        30,
        0xbe57,
        t3,
        SloClass::BestEffort,
        0.0,
    ));
    for job in jobs.iter_mut().filter(|j| j.id % 9 == 2) {
        job.deadline_ms = Some(job.release() + 1.0e-6);
    }
    let specs = [
        TenantSpec::new(t1, "alpha").with_weight(2),
        TenantSpec::new(t2, "beta"),
        TenantSpec::new(t3, "gamma").with_queue(4, Backpressure::Block),
    ];
    let run = |workers: usize| {
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        pool.set_fault_plan(1, FaultPlan::seeded(0x7ea5, 10.0, 1.5));
        let recorder = Arc::new(Recorder::new());
        pool.attach_observer(recorder.clone());
        let cfg = ServiceConfig {
            host_workers: workers,
            ..ServiceConfig::default()
        };
        let report = serve(&mut pool, &jobs, &specs, &cfg);
        assert!(count(&report.outcomes, Disposition::Shed) > 0);
        assert!(count(&report.outcomes, Disposition::Retried) > 0);
        digest(&report.outcomes, &recorder.events())
    };
    let mut tables = Tables::default();
    tables.check(
        "serve, functional, workers 1 and 4",
        &[run(1), run(4)],
        &[SERVE_FUNCTIONAL; 2],
    );

    // model-only: a quota, overload thresholds, ShedOldest and Block
    // queues, a breaker that opens, probes and closes on device 1, and
    // a sticky loss on device 2 that re-queues what it interrupts
    let (metered, burster, blocked) = (TenantId(1), TenantId(2), TenantId(3));
    let mut jobs = tenant_jobs(60, 0, 25, 0x90a7, metered, SloClass::Standard, 0.2);
    jobs.extend(tenant_jobs(
        200,
        1000,
        50,
        0xb1a57,
        burster,
        SloClass::BestEffort,
        0.0,
    ));
    jobs.extend(tenant_jobs(
        60,
        2000,
        30,
        0xb10c,
        blocked,
        SloClass::Premium,
        0.05,
    ));
    let cost = Planner::new()
        .plan_fused(&Gpu::v100(), 8, 8, 25, 1)
        .1
        .predicted_ms;
    let specs = [
        TenantSpec::new(metered, "metered").with_quota(4.0 * cost, 40.0 * cost),
        TenantSpec::new(burster, "burster").with_queue(48, Backpressure::ShedOldest),
        TenantSpec::new(blocked, "blocked").with_queue(2, Backpressure::Block),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        overload: OverloadConfig::thresholds(8.0 * cost, 20.0 * cost),
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 50.0,
            max_faults: 2,
            backoff_ms: 5.0,
        },
        ..ServiceConfig::default()
    };
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 3);
    pool.set_fault_plan(1, FaultPlan::seeded(0xf00d, 3.0, 0.3));
    pool.set_fault_plan(2, FaultPlan::none().with_device_lost(40.5 * cost));
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let report = serve(&mut pool, &jobs, &specs, &cfg);
    let events = recorder.events();
    let saw = |what: &str, hit: &dyn Fn(&Event) -> bool| {
        assert!(events.iter().any(hit), "vacuous: no {what} event");
    };
    saw("CircuitOpen", &|e| matches!(e, Event::CircuitOpen { .. }));
    saw("CircuitProbe", &|e| matches!(e, Event::CircuitProbe { .. }));
    saw("CircuitClose", &|e| matches!(e, Event::CircuitClose { .. }));
    saw("QuotaExhausted", &|e| {
        matches!(e, Event::QuotaExhausted { .. })
    });
    saw("JobDegraded", &|e| matches!(e, Event::JobDegraded { .. }));
    saw("evict", &|e| {
        matches!(
            e,
            Event::TenantShed {
                reason: "evict",
                ..
            }
        )
    });
    saw("overload", &|e| {
        matches!(
            e,
            Event::TenantShed {
                reason: "overload",
                ..
            }
        )
    });
    assert!(pool.devices()[2].is_lost(), "vacuous: device 2 never died");
    assert!(
        count(&report.outcomes, Disposition::Retried) > 0,
        "vacuous: nothing retried"
    );
    let mut h = Fnv::new();
    h.word(digest(&report.outcomes, &events));
    for b in &report.breakers {
        for v in [b.opens, b.probes, b.closes] {
            h.word(v as u64);
        }
    }
    h.ms(report.makespan_ms);
    tables.check("serve, model-only", &[h.0], &[SERVE_MODEL]);
    tables.finish();
}
