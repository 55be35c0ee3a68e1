//! Direct-call probes of single layers, run in the traced pass on
//! inputs taken from the workload (its shapes, the `StageReq`s of its
//! plans). Single-threaded; every probe loops until it has measured
//! at least [`MIN_SECS`] and prints its loop count beside the value.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gpusim::{DeviceMat, ExecMode, FaultPlan, Gpu, KernelCost, Profile, Sim};
use mdls_backsub::{backsub, backsub_model_profile, BacksubOptions};
use mdls_core::{lstsq_factor_batched, lstsq_model_profiles, LstsqOptions};
use mdls_matrix::HostMat;
use mdls_obs::metrics::Metrics;
use mdls_obs::trace::chrome_trace;
use mdls_obs::{Event, Observer, Recorder, StageKind};
use mdls_pipeline::{
    dispatch_one, plan_groups, solve_batch_resilient, DevicePool, DispatchPolicy, Job, JobShape,
    MicrobatchConfig, Planner, RebookMode, ResilienceConfig, StageBooking, StageReq,
    StageSchedConfig,
};
use mdls_qr::{householder_qr_host, qr_decompose, qr_model_profile, QrOptions};
use multidouble::{Dd, MdReal, MdScalar, Od, OpCounts, Qd};

use crate::report::Values;
use crate::runner::{run_rep, LadderSample};
use crate::spans::Spans;
use crate::workloads::{
    ladder_direct, tracker_stream, Frozen, Inputs, LadderSolve, Payload, LADDER_DIM,
    SERVICE_DEVICES,
};

/// Every probe measures at least this long (quick mode: 5 ms).
const MIN_SECS: f64 = 0.2;

/// What the probes take from the workload.
pub struct Ctx {
    /// The workload's distinct job shapes (first 32).
    pub shapes: Vec<JobShape>,
    /// Shapes of its first 4 096 jobs, in submission order.
    pub queue: Vec<JobShape>,
    /// Device models of its pool.
    pub gpus: Vec<Gpu>,
}

impl Ctx {
    fn new(queue: Vec<JobShape>, gpus: Vec<Gpu>) -> Ctx {
        let mut shapes: Vec<JobShape> = Vec::new();
        for s in &queue {
            if shapes.len() < 32 && !shapes.contains(s) {
                shapes.push(*s);
            }
        }
        Ctx {
            shapes,
            queue,
            gpus,
        }
    }

    /// Shapes of the workload's first 4 096 jobs and its pool's devices.
    pub fn of(inputs: &Inputs) -> Ctx {
        let shapes = |jobs: &[Job]| -> Vec<JobShape> {
            jobs.iter().take(4096).map(JobShape::from).collect()
        };
        match &inputs.payload {
            Payload::Service { jobs, .. } => {
                Ctx::new(shapes(jobs), vec![Gpu::v100(); SERVICE_DEVICES])
            }
            Payload::Stream { jobs } => Ctx::new(shapes(jobs), vec![Gpu::v100(); 4]),
            Payload::Batch { jobs } => Ctx::new(shapes(jobs), vec![Gpu::v100(), Gpu::p100()]),
            // direct solves carry no target; probe at each rung's digits
            Payload::Ladder { solves } => Ctx::new(
                solves
                    .iter()
                    .map(|s| {
                        let (dim, target_digits) = match s {
                            LadderSolve::Dd(a, _) => (a.cols, 29),
                            LadderSolve::Qd(a, _) => (a.cols, 60),
                            LadderSolve::Od(a, _) => (a.cols, 123),
                        };
                        JobShape {
                            rows: dim,
                            cols: dim,
                            target_digits,
                        }
                    })
                    .collect(),
                vec![Gpu::v100()],
            ),
        }
    }
}

/// Records probe values; owns the timing loops so every probe
/// measures the same way and prints its loop count.
struct Sink<'a> {
    values: &'a mut Values,
    spans: &'a mut Spans,
    /// Shortest measurement per probe, seconds.
    min_secs: f64,
    /// Quick mode: small dimensions, numbers not comparable.
    quick: bool,
}

impl Sink<'_> {
    /// Loop `f` until `min_secs` have been measured, inside one span;
    /// `scale` converts seconds per call into the metric's unit.
    fn timed<T>(&mut self, name: &'static str, scale: f64, mut f: impl FnMut() -> T) {
        let min_secs = self.min_secs;
        let ((secs, iters), _) = self.spans.time(name, |_| {
            let start = Instant::now();
            let mut iters = 0usize;
            loop {
                black_box(f());
                iters += 1;
                let secs = start.elapsed().as_secs_f64();
                if secs >= min_secs {
                    return (secs / iters as f64, iters);
                }
            }
        });
        println!("probe {name} loops {iters}");
        self.values.set(name, secs * scale);
    }

    /// Like [`Sink::timed`], for operations that consume state:
    /// `setup` builds the state untimed, `f` is timed and returns how
    /// many operations it performed.
    fn timed_with<S>(
        &mut self,
        name: &'static str,
        scale: f64,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> usize,
    ) {
        let min_secs = self.min_secs;
        let ((secs, ops), _) = self.spans.time(name, |_| {
            let (mut secs, mut ops) = (0.0, 0usize);
            while secs < min_secs {
                let state = setup();
                let t = Instant::now();
                ops += f(state);
                secs += t.elapsed().as_secs_f64();
            }
            (secs / ops as f64, ops)
        });
        println!("probe {name} loops {ops}");
        self.values.set(name, secs * scale);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.set(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).expect("probe order: set before read")
    }
}

fn seeded_vec<S: MdScalar>(len: usize, rng: &mut Frozen) -> Vec<S> {
    (0..len).map(|_| S::rand(rng)).collect()
}

/// Seeded triples per arithmetic probe.
const TRIPLES: usize = 4096;

fn fma<S: MdScalar>(sink: &mut Sink, rng: &mut Frozen, name: &'static str) {
    let (xs, ys) = (seeded_vec::<S>(TRIPLES, rng), seeded_vec::<S>(TRIPLES, rng));
    sink.timed(name, 1e9 / TRIPLES as f64, || {
        let mut acc = S::zero();
        for (x, y) in black_box(&xs).iter().zip(black_box(&ys)) {
            acc += *x * *y;
        }
        acc
    });
}

fn add<S: MdScalar>(sink: &mut Sink, rng: &mut Frozen, name: &'static str) {
    let xs = seeded_vec::<S>(TRIPLES, rng);
    sink.timed(name, 1e9 / TRIPLES as f64, || {
        let mut acc = S::zero();
        for x in black_box(&xs) {
            acc += *x;
        }
        acc
    });
}

fn multidouble(sink: &mut Sink, rng: &mut Frozen) {
    fma::<Dd>(sink, rng, "multidouble.dd_fma_ns");
    fma::<Qd>(sink, rng, "multidouble.qd_fma_ns");
    fma::<Od>(sink, rng, "multidouble.od_fma_ns");
    add::<Dd>(sink, rng, "multidouble.dd_add_ns");
    add::<Qd>(sink, rng, "multidouble.qd_add_ns");
    add::<Od>(sink, rng, "multidouble.od_add_ns");
    let (dd, qd, od) = (
        sink.get("multidouble.dd_fma_ns"),
        sink.get("multidouble.qd_fma_ns"),
        sink.get("multidouble.od_fma_ns"),
    );
    sink.set("multidouble.qd_over_dd", qd / dd);
    sink.set("multidouble.od_over_qd", od / qd);
}

fn matrix(sink: &mut Sink, rng: &mut Frozen) {
    let n = if sink.quick { 24 } else { 192 };
    let a = HostMat::<Od>::random(n, n, rng);
    let (x, b) = (seeded_vec::<Od>(n, rng), seeded_vec::<Od>(n, rng));
    sink.timed("matrix.residual_od_ms", 1e3, || a.residual(&x, &b));
    let a = HostMat::<Qd>::random(n, n, rng);
    let x = seeded_vec::<Qd>(n, rng);
    sink.timed("matrix.matvec_qd_ms", 1e3, || a.matvec(&x));
}

fn gpusim_layer(sink: &mut Sink) {
    let cost = KernelCost::of::<Dd>(OpCounts::ZERO, 0, 0);
    for (name, mode, scale) in [
        ("gpusim.launch_seq_us", ExecMode::Sequential, 1e6),
        ("gpusim.launch_par_us", ExecMode::Parallel, 1e6),
        ("gpusim.launch_model_ns", ExecMode::ModelOnly, 1e9),
    ] {
        let sim = Sim::new(Gpu::v100(), mode);
        sink.timed(name, scale, || sim.launch("probe", 64, 32, cost, |_| {}));
    }
    let m = DeviceMat::<Dd>::zeroed(64, 64);
    sink.timed("gpusim.buf_rw_ns", 1e9 / (64.0 * 64.0), || {
        for c in 0..64 {
            for r in 0..64 {
                m.set(r, c, m.get(r, c));
            }
        }
    });
}

/// Functional QR at one rung (64×64 as 4×16; quick: 16×16 as 4×4):
/// host ms and computed flops per byte.
fn qr_rung<S: MdScalar>(
    sink: &mut Sink,
    rng: &mut Frozen,
    host: &'static str,
    intensity: &'static str,
) {
    let opts = QrOptions {
        tiles: 4,
        tile_size: if sink.quick { 4 } else { 16 },
    };
    let a = HostMat::<S>::random(opts.cols(), opts.cols(), rng);
    let gpu = Gpu::v100();
    let mut profile = None;
    sink.timed(host, 1e3, || {
        profile = Some(qr_decompose(&gpu, ExecMode::Sequential, &a, &opts).profile)
    });
    let p = profile.expect("the probe ran at least once");
    // from the profile's flop and byte counts, not from hardware
    sink.set(intensity, p.total_flops_paper() / p.total_bytes() as f64);
}

fn qr(sink: &mut Sink, rng: &mut Frozen) {
    qr_rung::<Dd>(sink, rng, "qr.host_ms_dd", "qr.flops_per_byte_dd");
    qr_rung::<Qd>(sink, rng, "qr.host_ms_qd", "qr.flops_per_byte_qd");
    qr_rung::<Od>(sink, rng, "qr.host_ms_od", "qr.flops_per_byte_od");
    // the simulator's functional-execution tax: the same f64 matrix
    // (256×256; quick: 64×64) through the simulated device kernels and
    // through a plain loop
    let opts = QrOptions {
        tiles: 8,
        tile_size: if sink.quick { 8 } else { 32 },
    };
    let a = HostMat::<f64>::random(opts.cols(), opts.cols(), rng);
    let gpu = Gpu::v100();
    sink.timed("qr.host_ms_d1_256", 1e3, || {
        qr_decompose(&gpu, ExecMode::Sequential, &a, &opts).profile
    });
    sink.timed("qr.host_ref_ms_d1_256", 1e3, || householder_qr_host(&a));
    let (sim_ms, ref_ms) = (
        sink.get("qr.host_ms_d1_256"),
        sink.get("qr.host_ref_ms_d1_256"),
    );
    println!("probe qr.host_sim_over_ref = {sim_ms:.3} ms / {ref_ms:.3} ms");
    sink.set("qr.host_sim_over_ref", sim_ms / ref_ms);
    // the paper's teraflop claim, model-only at 1024 = 8 × 128
    let big = QrOptions {
        tiles: 8,
        tile_size: 128,
    };
    let (v100, p100) = (Gpu::v100(), Gpu::p100());
    for (name, gflops) in [
        (
            "qr.sim_gflops_v100_dd_1024",
            qr_model_profile::<Dd>(&v100, 1024, &big).kernel_gflops(),
        ),
        (
            "qr.sim_gflops_v100_qd_1024",
            qr_model_profile::<Qd>(&v100, 1024, &big).kernel_gflops(),
        ),
        (
            "qr.sim_gflops_v100_od_1024",
            qr_model_profile::<Od>(&v100, 1024, &big).kernel_gflops(),
        ),
        (
            "qr.sim_gflops_p100_dd_1024",
            qr_model_profile::<Dd>(&p100, 1024, &big).kernel_gflops(),
        ),
    ] {
        sink.set(name, gflops);
    }
}

/// Tiled back substitution at dimension 256 = 16 × 16 (quick: 4 × 16).
fn backsub_rung<S: MdScalar>(sink: &mut Sink, rng: &mut Frozen, name: &'static str) {
    let opts = BacksubOptions {
        tiles: if sink.quick { 4 } else { 16 },
        tile_size: 16,
    };
    let dim = opts.dim();
    // diagonally dominant, so well conditioned without an O(n³) LU
    let shrink = <S::Real as MdReal>::from_f64(1.0 / dim as f64);
    let mut u = HostMat::<S>::zeros(dim, dim);
    for c in 0..dim {
        for r in 0..=c {
            let v = S::rand(rng);
            let entry = if r == c {
                v + S::from_f64(3.0)
            } else {
                v.scale(shrink)
            };
            u.set(r, c, entry);
        }
    }
    let b = seeded_vec::<S>(dim, rng);
    let gpu = Gpu::v100();
    sink.timed(name, 1e3, || {
        backsub(&gpu, ExecMode::Sequential, &u, &b, &opts).profile
    });
}

fn backsub_layer(sink: &mut Sink, rng: &mut Frozen) {
    backsub_rung::<Dd>(sink, rng, "backsub.host_ms_dd");
    backsub_rung::<Qd>(sink, rng, "backsub.host_ms_qd");
    backsub_rung::<Od>(sink, rng, "backsub.host_ms_od");
    // the abstract's 1 TF point: 80 tiles of 224
    let p = backsub_model_profile::<Qd>(
        &Gpu::v100(),
        &BacksubOptions {
            tiles: 80,
            tile_size: 224,
        },
    );
    sink.set("backsub.sim_gflops_v100_qd_17920", p.kernel_gflops());
}

/// Per-rung samples of direct solves → the `core.*` ladder metrics:
/// the paper's cost-overhead factors on both clocks.
pub fn core_ladder(values: &mut Values, ladder: &[Vec<LadderSample>; 3]) {
    let median = |rung: usize, pick: fn(&LadderSample) -> f64| {
        let mut v: Vec<f64> = ladder[rung].iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let host: Vec<f64> = (0..3).map(|r| median(r, |s| s.host_s)).collect();
    let wall: Vec<f64> = (0..3).map(|r| median(r, |s| s.sim_wall_ms)).collect();
    for (samples, tag) in ladder.iter().zip(["dd", "qd", "od"]) {
        println!("probe core.lstsq_host_ms_{tag} samples {}", samples.len());
    }
    values.set("core.lstsq_host_ms_dd", host[0] * 1e3);
    values.set("core.lstsq_host_ms_qd", host[1] * 1e3);
    values.set("core.lstsq_host_ms_od", host[2] * 1e3);
    values.set("core.host_overhead_dd_qd", host[1] / host[0]);
    values.set("core.host_overhead_qd_od", host[2] / host[1]);
    values.set("core.sim_overhead_dd_qd", wall[1] / wall[0]);
    values.set("core.sim_overhead_qd_od", wall[2] / wall[1]);
    values.set("core.sim_backsub_share_dd", median(0, |s| s.backsub_share));
    values.set("core.sim_backsub_share_qd", median(1, |s| s.backsub_share));
    values.set("core.sim_backsub_share_od", median(2, |s| s.backsub_share));
    values.set("core.digits_dd", median(0, |s| s.digits));
    values.set("core.digits_qd", median(1, |s| s.digits));
    values.set("core.digits_od", median(2, |s| s.digits));
}

/// Direct solves for the `core.*` ladder metrics, for workloads that
/// do not run the ladder themselves: 3 dd, 1 qd, 1 od.
pub fn ladder_samples(spans: &mut Spans, quick: bool) -> [Vec<LadderSample>; 3] {
    let dim = if quick { 16 } else { LADDER_DIM };
    let inputs = ladder_direct(64, (3, 1, 1), dim);
    run_rep(&inputs, &None, spans, false, false).facts.ladder
}

fn core_model(sink: &mut Sink, rng: &mut Frozen) {
    let opts = LstsqOptions::tiled(8, 128, ExecMode::ModelOnly);
    let gpu = Gpu::v100();
    let wall = |p: (Profile, Profile)| p.0.wall_ms() + p.1.wall_ms();
    let dd = wall(lstsq_model_profiles::<Dd>(&gpu, &opts));
    let qd = wall(lstsq_model_profiles::<Qd>(&gpu, &opts));
    let od = wall(lstsq_model_profiles::<Od>(&gpu, &opts));
    sink.set("core.sim_overhead_dd_qd_1024", qd / dd);
    sink.set("core.sim_overhead_qd_od_1024", od / qd);
    // the fused factor phase the stream's micro-batches run
    let systems: Vec<HostMat<Dd>> = (0..8).map(|_| HostMat::random(16, 16, rng)).collect();
    let refs: Vec<&HostMat<Dd>> = systems.iter().collect();
    let opts = LstsqOptions::tiled(1, 16, ExecMode::Sequential);
    sink.timed("core.factor_batched_host_ms", 1e3, || {
        lstsq_factor_batched(&gpu, &refs, &opts).group_size()
    });
}

fn planner(sink: &mut Sink, ctx: &Ctx) {
    let gpu = &ctx.gpus[0];
    let per_shape = 1.0 / ctx.shapes.len() as f64;
    let plan_all = |p: &Planner| {
        for s in &ctx.shapes {
            black_box(p.plan(gpu, s.rows, s.cols, s.target_digits));
        }
    };
    sink.timed_with("planner.plan_miss_us", 1e6 * per_shape, Planner::new, |p| {
        plan_all(&p);
        1
    });
    let warm = Planner::new();
    plan_all(&warm);
    sink.timed("planner.plan_hit_ns", 1e9 * per_shape, || plan_all(&warm));
    let fused_all = |p: &Planner| {
        for s in &ctx.shapes {
            black_box(p.plan_fused(gpu, s.rows, s.cols, s.target_digits, 1));
        }
    };
    fused_all(&warm);
    sink.timed("planner.plan_fused_hit_ns", 1e9 * per_shape, || {
        fused_all(&warm)
    });
    let micro = MicrobatchConfig::default();
    sink.timed_with(
        "planner.group_size_miss_us",
        1e6 * per_shape,
        Planner::new,
        |p| {
            for s in &ctx.shapes {
                black_box(p.preferred_group_size(
                    s.rows,
                    s.cols,
                    s.target_digits,
                    micro.max_group,
                    micro.tolerance,
                ));
            }
            1
        },
    );
}

/// Live-booking counts the pool probes run at.
const LIVE: [usize; 3] = [256, 1024, 4096];
const POOL_PROBES: [[&str; 4]; 3] = [
    [
        "pool.commit_us_at_256",
        "pool.preview_us_at_256",
        "pool.rebook_compact_us_at_256",
        "pool.mark_settled_us_at_256",
    ],
    [
        "pool.commit_us_at_1024",
        "pool.preview_us_at_1024",
        "pool.rebook_compact_us_at_1024",
        "pool.mark_settled_us_at_1024",
    ],
    [
        "pool.commit_us_at_4096",
        "pool.preview_us_at_4096",
        "pool.rebook_compact_us_at_4096",
        "pool.mark_settled_us_at_4096",
    ],
];

fn pool(sink: &mut Sink, ctx: &Ctx) {
    // the workload's own stage requests, one list per distinct shape
    let planner = Planner::new();
    let reqs: Vec<Vec<StageReq>> = ctx
        .shapes
        .iter()
        .map(|s| {
            let (plan, fused) =
                planner.plan_fused(&ctx.gpus[0], s.rows, s.cols, s.target_digits, 1);
            fused.stage_reqs(plan.stages.len())
        })
        .collect();
    let devices = ctx.gpus.len();
    let commit = |p: &mut DevicePool, i: usize| {
        p.commit_stages(i % devices, &reqs[i % reqs.len()], 0.0, 0.0, 1, true, 0.0)
    };
    for (live, names) in LIVE.into_iter().zip(POOL_PROBES) {
        // `live` unsettled bookings, round-robin over the devices
        let mut base = DevicePool::new(ctx.gpus.clone());
        let bookings: Vec<StageBooking> = (0..live).map(|i| commit(&mut base, i)).collect();
        sink.timed_with(
            names[0],
            1e6,
            || base.clone(),
            |mut p| {
                for i in 0..32 {
                    black_box(commit(&mut p, i));
                }
                32
            },
        );
        let mut i = 0usize;
        sink.timed(names[1], 1e6, || {
            i += 1;
            base.preview_stages(i % devices, &reqs[i % reqs.len()], true, 0.0)
        });
        // hand back everything after the first stage of a booking in
        // the middle of the schedule: later bookings slide left
        let mid = &bookings[live / 2];
        sink.timed_with(
            names[2],
            1e6,
            || base.clone(),
            |mut p| {
                black_box(p.rebook(mid, 1, RebookMode::Compact));
                1
            },
        );
        sink.timed_with(
            names[3],
            1e6,
            || base.clone(),
            |mut p| {
                for b in &bookings[live / 2..live / 2 + 16] {
                    p.mark_settled(b.id);
                }
                16
            },
        );
        if live == 1024 {
            let at_ms = mid.start_ms();
            sink.timed_with(
                "pool.fail_device_us_at_1024",
                1e6,
                || base.clone(),
                |mut p| {
                    black_box(p.fail_device(devices - 1, at_ms));
                    1
                },
            );
        }
    }
    let (small, large) = (
        sink.get("pool.commit_us_at_256"),
        sink.get("pool.commit_us_at_4096"),
    );
    println!("probe pool.commit_growth_exp = ln({large:.3} us / {small:.3} us) / ln 16");
    sink.set("pool.commit_growth_exp", (large / small).ln() / 16f64.ln());
}

fn scheduling(sink: &mut Sink, ctx: &Ctx) {
    let planner = Planner::new();
    for s in &ctx.shapes {
        for g in &ctx.gpus {
            planner.plan(g, s.rows, s.cols, s.target_digits);
        }
    }
    let burst = ctx.queue.len().min(256);
    sink.timed_with(
        "scheduler.dispatch_us",
        1e6,
        || DevicePool::new(ctx.gpus.clone()),
        |mut p| {
            for (i, s) in ctx.queue.iter().take(burst).enumerate() {
                black_box(dispatch_one(
                    &mut p,
                    &planner,
                    i,
                    s,
                    DispatchPolicy::ShortestExpectedCompletion,
                ));
            }
            burst
        },
    );
    let micro = MicrobatchConfig::default();
    black_box(plan_groups(&planner, &ctx.queue, &micro));
    sink.timed(
        "microbatch.plan_groups_us_per_job",
        1e6 / ctx.queue.len() as f64,
        || plan_groups(&planner, &ctx.queue, &micro),
    );
}

/// 48 tracker-shaped jobs on 4×V100 with device 3 lost for good in
/// mid-batch: the recovery layer re-plans the interrupted groups.
fn recovery(sink: &mut Sink) {
    let Payload::Stream { jobs } = tracker_stream(48, 48).payload else {
        unreachable!("tracker_stream builds a stream payload")
    };
    let run = || {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
        pool.set_fault_plan(3, FaultPlan::none().with_device_lost(75.0));
        solve_batch_resilient(
            &mut pool,
            &jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            &MicrobatchConfig::default(),
            &StageSchedConfig::staged(),
            &ResilienceConfig::default(),
        )
    };
    let completed = run()
        .outcomes
        .iter()
        .filter(|o| o.disposition.completed())
        .count();
    sink.set(
        "resilient.completed_frac",
        completed as f64 / jobs.len() as f64,
    );
    sink.timed("resilient.host_ms_48", 1e3, || run().outcomes.len());
}

/// A synthetic stream with the event mix of a staged run.
fn synthetic_events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.01;
            match i % 4 {
                0 => Event::StageBooked {
                    device: i % 4,
                    job: i as u64,
                    stage: i % 3,
                    kind: StageKind::Factor,
                    rung: "2d",
                    host_start_ms: t,
                    host_end_ms: t + 0.004,
                    dev_start_ms: t + 0.004,
                    dev_end_ms: t + 0.01,
                },
                1 => Event::SectPreview {
                    device: i % 4,
                    end_ms: t,
                },
                2 => Event::StageTime {
                    device: i % 4,
                    rows: 16,
                    cols: 16,
                    kind: StageKind::Factor,
                    rung: "2d",
                    predicted_ms: 0.01,
                    settled_ms: 0.01,
                },
                _ => Event::JobSettled {
                    job: i as u64,
                    device: i % 4,
                    tenant: 0,
                    priority: (i % 2) as i32,
                    start_ms: t,
                    end_ms: t + 0.01,
                    release_ms: t,
                    deadline_ms: 0.0,
                    has_deadline: false,
                    fused: 1,
                    corrections: 1,
                    refunded_ms: 0.0,
                    extended_ms: 0.0,
                    achieved_digits: 30.0,
                },
            }
        })
        .collect()
}

fn obs(sink: &mut Sink) {
    let n = if sink.quick { 5_000 } else { 100_000 };
    let events = synthetic_events(n);
    sink.timed_with(
        "obs.recorder_ns_per_event",
        1e9 / n as f64,
        || Arc::new(Recorder::new()),
        |rec| {
            for ev in &events {
                rec.on_event(ev);
            }
            1
        },
    );
    let per_100k = 100_000.0 / n as f64;
    sink.timed("obs.metrics_ms_per_100k_events", 1e3 * per_100k, || {
        Metrics::from_events(&events)
    });
    sink.timed(
        "obs.chrome_trace_ms_per_100k_events",
        1e3 * per_100k,
        || chrome_trace(&events).len(),
    );
}

/// Run every probe. Values land in `values`; each probe is one span.
pub fn run_all(ctx: &Ctx, quick: bool, values: &mut Values, spans: &mut Spans) {
    let mut rng = Frozen::new(0x9e37, 7);
    let mut sink = Sink {
        values,
        spans,
        min_secs: if quick { 0.005 } else { MIN_SECS },
        quick,
    };
    multidouble(&mut sink, &mut rng);
    matrix(&mut sink, &mut rng);
    gpusim_layer(&mut sink);
    qr(&mut sink, &mut rng);
    backsub_layer(&mut sink, &mut rng);
    core_model(&mut sink, &mut rng);
    planner(&mut sink, ctx);
    pool(&mut sink, ctx);
    scheduling(&mut sink, ctx);
    recovery(&mut sink);
    obs(&mut sink);
}
