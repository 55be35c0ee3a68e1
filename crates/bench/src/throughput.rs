//! Pipeline throughput experiments: batch size × device count ×
//! precision sweeps over the batched solve service, plus the
//! greedy-vs-SECT dispatch-policy A/B.
//!
//! Unless marked functional, runs are model-only — the scheduler books
//! each job's modeled stages onto its device's timeline, which is exact for the
//! functional solver too (the analytic model is data independent), so
//! these sweeps scale to paper-sized dimensions instantly.

use std::sync::Arc;

use gpusim::Gpu;
use mdls_matrix::HostMat;
use mdls_obs::metrics::Metrics;
use mdls_obs::Recorder;
use mdls_pipeline::{
    bursty_tracker_jobs, refinement_mix, schedule, schedule_staged, solve_batch_staged,
    solve_stream_staged, workload_mix, BatchReport, DevicePool, DispatchPolicy, Job, JobOutcome,
    JobShape, MicrobatchConfig, Planner, RebookMode, StageSchedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tables::TextTable;

/// Decimal-digit targets landing on the 2d / 4d / 8d rungs.
const RUNG_DIGITS: [(u32, &str); 3] = [(25, "2d"), (50, "4d"), (100, "8d")];

/// A mixed-shape queue: power-flow-scaled square and tall systems.
fn mixed_shapes(count: usize, target_digits: u32) -> Vec<JobShape> {
    (0..count)
        .map(|i| {
            let cols = [64, 96, 128, 256][i % 4];
            JobShape {
                rows: cols + [0, 32][i % 2],
                cols,
                target_digits,
            }
        })
        .collect()
}

fn solves_per_sec(gpu: &Gpu, devices: usize, shapes: &[JobShape], planner: &Planner) -> f64 {
    let mut pool = DevicePool::homogeneous(gpu, devices);
    schedule(&mut pool, planner, shapes, DispatchPolicy::LeastLoaded);
    pool.solves_per_sec()
}

/// Throughput scaling: simulated solves/sec of a 256-job mixed queue on
/// 1, 2, 4 and 8 pooled V100s, per precision rung.
pub fn throughput_scaling() -> TextTable {
    let gpu = Gpu::v100();
    let planner = Planner::new();
    let mut t = TextTable::new(
        "Pipeline throughput: 256 mixed jobs (64..256 cols) on pooled V100s, \
         simulated solves/sec (speedup vs 1 device)",
        "precision",
    );
    for d in [1usize, 2, 4, 8] {
        t.col(format!("{d} dev"));
    }
    for (digits, tag) in RUNG_DIGITS {
        let shapes = mixed_shapes(256, digits);
        let rates: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&d| solves_per_sec(&gpu, d, &shapes, &planner))
            .collect();
        let base = rates[0];
        let cells: Vec<String> = rates
            .iter()
            .map(|s| format!("{s:.1} ({:.2}x)", s / base))
            .collect();
        t.row(tag, cells);
    }
    t
}

/// Batch-depth sweep: solves/sec of quad double queues of growing depth
/// on four pooled V100s — shallow queues underfill the pool.
pub fn batch_size_sweep() -> TextTable {
    let gpu = Gpu::v100();
    let planner = Planner::new();
    let mut t = TextTable::new(
        "Pipeline batch-depth sweep: quad double jobs on 4 pooled V100s",
        "batch size",
    );
    t.col("solves/sec").col("makespan ms").col("pool util");
    for depth in [4usize, 16, 64, 256, 1024] {
        let shapes = mixed_shapes(depth, 50);
        let mut pool = DevicePool::homogeneous(&gpu, 4);
        schedule(&mut pool, &planner, &shapes, DispatchPolicy::LeastLoaded);
        let util: f64 = pool.stats().iter().map(|s| s.utilization).sum::<f64>() / pool.len() as f64;
        t.row(
            format!("{depth}"),
            vec![
                format!("{:.1}", pool.solves_per_sec()),
                format!("{:.1}", pool.makespan_ms()),
                format!("{:.0}%", 100.0 * util),
            ],
        );
    }
    t
}

/// Planner choices: the staged plan the search picks per job shape and
/// rung on the V100 — structure (direct vs refinement, factor tiling)
/// plus predicted wall clock.
pub fn planner_choices() -> TextTable {
    let gpu = Gpu::v100();
    let planner = Planner::new();
    let mut t = TextTable::new(
        "Planner execution plans on the V100 (structure, predicted wall ms)",
        "shape",
    );
    for (_, tag) in RUNG_DIGITS {
        t.col(tag);
    }
    for (rows, cols) in [(64, 64), (128, 128), (256, 256), (288, 256), (1024, 1024)] {
        let cells: Vec<String> = RUNG_DIGITS
            .iter()
            .map(|&(digits, _)| {
                let p = planner.plan(&gpu, rows, cols, digits);
                format!("{} ({:.2} ms)", p.summary(), p.predicted_ms)
            })
            .collect();
        t.row(format!("{rows}x{cols}"), cells);
    }
    t
}

/// Direct-vs-refinement A/B: for each shape and digit target, the
/// cheapest single-rung direct plan against the searched staged plan,
/// on the V100 reference. The paper's premise in one table: each rung
/// multiplies the cost of every flop, so factoring at a cheap rung and
/// buying the digits back with O(m·n) residual/correct passes beats
/// paying the deep-rung O(m·n²) factorization — increasingly so as the
/// dimension grows and the factorization dominates.
pub fn refinement_ab() -> TextTable {
    let gpu = Gpu::v100();
    let planner = Planner::new();
    let mut t = TextTable::new(
        "Direct-vs-refinement A/B on the V100: predicted wall ms \
         (plan structure), searched plan gain",
        "shape, target",
    );
    t.col("direct").col("searched").col("gain");
    for (rows, cols, digits) in [
        (128, 128, 25),
        (256, 256, 50),
        (512, 512, 50),
        (1024, 1024, 50),
        (1024, 1024, 100),
    ] {
        let direct = planner.plan_direct(&gpu, rows, cols, digits);
        let plan = planner.plan(&gpu, rows, cols, digits);
        t.row(
            format!("{rows}x{cols} d{digits}"),
            vec![
                format!("{:.2} ({})", direct.predicted_ms, direct.summary()),
                format!("{:.2} ({})", plan.predicted_ms, plan.summary()),
                format!(
                    "{:+.1}%",
                    100.0 * (direct.predicted_ms - plan.predicted_ms) / direct.predicted_ms
                ),
            ],
        );
    }
    t
}

/// The small-shape grid of the micro-batching A/B: the paper's
/// tracker-mix sizes at the d and dd rungs (where one solve most badly
/// underfills a device), plus a 4d row to show the win fade as the
/// arithmetic deepens and a big-shape row to show it vanish once a
/// single solve already fills the waves.
const MICROBATCH_SHAPES: [(usize, u32, &str); 8] = [
    (32, 12, "1d"),
    (64, 12, "1d"),
    (128, 12, "1d"),
    (32, 25, "2d"),
    (64, 25, "2d"),
    (128, 25, "2d"),
    (128, 50, "4d"),
    (1024, 25, "2d"),
];

/// Fused-vs-singleton A/B: per-job predicted cost of small QR solves,
/// singleton launches against a fused group at the occupancy-aware
/// preferred size, on the V100. The speedup is the device-level
/// micro-batching win: one grid carries the whole group, occupancy
/// climbs out of the wave-quantization floor, and per-launch constants
/// amortize across members.
pub fn microbatch_ab() -> TextTable {
    let gpu = Gpu::v100();
    let planner = Planner::new();
    // measure exactly the configuration solve_batch ships with
    let cfg = MicrobatchConfig::default();
    let mut t = TextTable::new(
        "Micro-batching A/B on the V100: per-job predicted wall ms, \
         singleton launches vs fused group at the preferred size",
        "shape, rung",
    );
    t.col("singleton").col("fused").col("group").col("speedup");
    for (n, digits, tag) in MICROBATCH_SHAPES {
        let single = planner.plan(&gpu, n, n, digits);
        let k = planner.preferred_group_size(n, n, digits, cfg.max_group, cfg.tolerance);
        let (_, fused) = planner.plan_fused(&gpu, n, n, digits, k);
        t.row(
            format!("{n}x{n} {tag}"),
            vec![
                format!("{:.4}", single.predicted_ms),
                format!("{:.4}", fused.per_job_ms()),
                format!("x{k}"),
                format!("{:.1}x", single.predicted_ms / fused.per_job_ms()),
            ],
        );
    }
    t
}

/// Queue-level micro-batching A/B: solves/sec of a small-shape queue
/// (the tracker mix's 32..128-unknown systems at d/dd rungs) over
/// pooled V100s, scheduled unfused vs micro-batched. The fused
/// schedule books grouped launch sequences, so the same pool clears
/// the queue several times over.
pub fn microbatch_queue_ab(jobs: usize) -> TextTable {
    let shapes: Vec<JobShape> = (0..jobs)
        .map(|i| {
            let cols = [32, 64, 96, 128][i % 4];
            JobShape {
                rows: cols,
                cols,
                target_digits: [12, 25][i % 2],
            }
        })
        .collect();
    let mut t = TextTable::new(
        format!(
            "Micro-batched queue throughput: {jobs} small jobs \
             (32..128 cols, 1d/2d) on pooled V100s, solves/sec"
        ),
        "devices",
    );
    t.col("unfused").col("fused").col("gain");
    for devices in [1usize, 2, 4] {
        let planner = Planner::new();
        let mut plain = DevicePool::homogeneous(&Gpu::v100(), devices);
        schedule(&mut plain, &planner, &shapes, DispatchPolicy::LeastLoaded);
        let mut micro = DevicePool::homogeneous(&Gpu::v100(), devices);
        schedule_staged(
            &mut micro,
            &planner,
            &shapes,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::sequential(),
        );
        t.row(
            format!("{devices}"),
            vec![
                format!("{:.1}", plain.solves_per_sec()),
                format!("{:.1}", micro.solves_per_sec()),
                format!("{:.1}x", micro.solves_per_sec() / plain.solves_per_sec()),
            ],
        );
    }
    t
}

/// The named pools of the dispatch-policy A/B: one homogeneous control
/// (any SECT gain there comes from LPT ordering alone, not from
/// device awareness) and two mixed pools of increasing speed spread.
fn ab_pools() -> Vec<(&'static str, Vec<Gpu>)> {
    vec![
        ("4x V100", vec![Gpu::v100(); 4]),
        ("2x V100 + 2x P100", {
            vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()]
        }),
        (
            "V100 + P100 + A100",
            vec![Gpu::v100(), Gpu::p100(), Gpu::a100()],
        ),
    ]
}

/// Makespan of `shapes` over `gpus` under `policy` with contiguous
/// (sequential) stage booking and fusion off, ms.
pub fn policy_makespan(gpus: &[Gpu], shapes: &[JobShape], policy: DispatchPolicy) -> f64 {
    let planner = Planner::new();
    let mut pool = DevicePool::new(gpus.to_vec());
    schedule_staged(
        &mut pool,
        &planner,
        shapes,
        policy,
        &MicrobatchConfig::off(),
        &StageSchedConfig::sequential(),
    );
    pool.makespan_ms()
}

/// Greedy-vs-SECT A/B: makespan of the workload mix under both dispatch
/// policies on homogeneous and heterogeneous pools. On identical
/// devices SECT's LPT ordering can only help a little; on mixed pools
/// SECT stops parking long deep-precision solves on the slowest idle
/// device and wins outright. The gap is widest at service-window
/// depths (tens of jobs in flight): as the queue grows unboundedly
/// both heuristics approach the pool's capacity bound and the policy
/// choice recedes into the tail.
pub fn policy_ab(jobs: usize) -> TextTable {
    let shapes = workload_mix(jobs);
    let mut t = TextTable::new(
        format!(
            "Dispatch-policy A/B: {jobs}-job workload mix (32..256 cols, 1d..8d), \
             makespan ms by pool"
        ),
        "pool",
    );
    t.col("greedy").col("sect").col("sect gain");
    for (name, gpus) in ab_pools() {
        let greedy = policy_makespan(&gpus, &shapes, DispatchPolicy::LeastLoaded);
        let sect = policy_makespan(&gpus, &shapes, DispatchPolicy::ShortestExpectedCompletion);
        t.row(
            name,
            vec![
                format!("{greedy:.1}"),
                format!("{sect:.1}"),
                format!("{:+.1}%", 100.0 * (greedy - sect) / greedy),
            ],
        );
    }
    t
}

/// Makespan of the refinement mix on `gpus` under stage-level SECT
/// with the given booking config, ms.
pub fn staged_makespan(gpus: &[Gpu], shapes: &[JobShape], sched: &StageSchedConfig) -> f64 {
    let planner = Planner::new();
    let mut pool = DevicePool::new(gpus.to_vec());
    schedule_staged(
        &mut pool,
        &planner,
        shapes,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::off(),
        sched,
    );
    pool.makespan_ms()
}

/// Stage-overlap A/B: SECT makespan of the refinement-heavy tracker
/// mix with sequential stage booking (the control: one contiguous
/// interval per job) against cross-job overlap (the next job's
/// factorization prep books under the current job's residual/correct
/// passes). Makespans move; bits never do — every booking mode runs
/// the same interpreter on the same plans.
pub fn stage_overlap_ab(jobs: usize) -> TextTable {
    let shapes = refinement_mix(jobs);
    let mut t = TextTable::new(
        format!(
            "Stage-overlap A/B: {jobs}-job refinement-heavy tracker mix \
             (64..256 cols, 30..100 digits), SECT makespan ms by booking"
        ),
        "pool",
    );
    t.col("sequential").col("overlap").col("overlap gain");
    for (name, gpus) in ab_pools() {
        let seq = staged_makespan(&gpus, &shapes, &StageSchedConfig::sequential());
        let overlap = staged_makespan(&gpus, &shapes, &StageSchedConfig::overlap_only());
        t.row(
            name,
            vec![
                format!("{seq:.1}"),
                format!("{overlap:.1}"),
                format!("{:+.1}%", 100.0 * (seq - overlap) / seq),
            ],
        );
    }
    t
}

/// Deterministic jobs whose worst-case pass bookings overshoot: 30-
/// and 90-digit targets book one more residual/correct pass than the
/// measured residual needs on well-conditioned data, so every solve
/// hands booked time back — the workload online re-booking exists for.
pub fn refund_heavy_jobs(count: usize, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|id| {
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

/// Online re-booking A/B (functional): the refund-heavy mix under
/// stage-level SECT with worst-case pass bookings, refunds handled
/// post-hoc (busy books only — the schedule keeps every booked
/// interval) vs re-booked online. Since the staged batch engine books
/// every group up front, a tail-only re-book frees little more than
/// each device's final booking — the schedule-level win now comes from
/// compacting re-books ([`timeline_ab`]), which slide queued
/// dispatches into mid-schedule holes. Same arithmetic, same refunded
/// time in every arm.
pub fn rebooking_ab(jobs: usize) -> TextTable {
    let jobs = refund_heavy_jobs(jobs, 0xeb00);
    let gpus = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
    let mut t = TextTable::new(
        format!(
            "Online re-booking A/B: {} refund-heavy jobs (96..192 cols, \
             30/90 digits) on 2x V100 + 2x P100, stage-level SECT",
            jobs.len()
        ),
        "refund handling",
    );
    t.col("makespan ms").col("refunded ms").col("gain");
    let mut rebook = StageSchedConfig::overlap_only();
    rebook.refund = RebookMode::TailOnly;
    let run = |sched: &StageSchedConfig| {
        let mut pool = DevicePool::new(gpus.clone());
        let report = solve_batch_staged(
            &mut pool,
            &jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            &MicrobatchConfig::off(),
            sched,
        );
        let refunded: f64 = report.outcomes.iter().map(|o| o.refunded_ms).sum();
        (report.makespan_ms, refunded)
    };
    let (post_ms, post_refund) = run(&StageSchedConfig::overlap_only());
    let (re_ms, re_refund) = run(&rebook);
    let (exp_ms, exp_refund) = run(&StageSchedConfig::staged());
    t.row(
        "post-hoc",
        vec![
            format!("{post_ms:.1}"),
            format!("{post_refund:.1}"),
            "-".into(),
        ],
    );
    t.row(
        "re-booked online",
        vec![
            format!("{re_ms:.1}"),
            format!("{re_refund:.1}"),
            format!("{:+.1}%", 100.0 * (post_ms - re_ms) / post_ms),
        ],
    );
    t.row(
        "expected-pass booking",
        vec![
            format!("{exp_ms:.1}"),
            format!("{exp_refund:.1}"),
            format!("{:+.1}%", 100.0 * (post_ms - exp_ms) / post_ms),
        ],
    );
    t
}

/// One functional staged run of `jobs` on `gpus` with a recorder
/// attached: the batch report plus the folded event metrics.
fn staged_observed(gpus: &[Gpu], jobs: &[Job], sched: &StageSchedConfig) -> (BatchReport, Metrics) {
    let mut pool = DevicePool::new(gpus.to_vec());
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let report = solve_batch_staged(
        &mut pool,
        jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::off(),
        sched,
    );
    let metrics = Metrics::from_events(&recorder.events());
    (report, metrics)
}

/// The three refund-handling arms of the interval-timeline A/B, in
/// makespan order of construction: post-hoc (keep every booked
/// interval), tail-only re-booking (free only spans still at the lane
/// tail — mid-schedule holes strand), and compacting re-booking
/// (free mid-schedule spans and slide queued, unexecuted dispatches
/// left into the hole).
fn timeline_arms() -> [(&'static str, StageSchedConfig); 3] {
    let post = StageSchedConfig::overlap_only();
    let mut tail = StageSchedConfig::overlap_only();
    tail.refund = RebookMode::TailOnly;
    let mut compact = tail;
    compact.refund = RebookMode::Compact;
    [
        ("post-hoc", post),
        ("tail-only", tail),
        ("compaction", compact),
    ]
}

/// Interval-timeline compaction A/B (functional): the refund-heavy mix
/// with worst-case pass bookings on the mixed pool, post-hoc vs
/// tail-only vs compacting re-books. The batch engine books every
/// group up front, so when a booking certifies early the freed span
/// sits *mid-schedule*; tail-only re-booking strands it, compaction
/// slides the queued dispatches behind it left. `slid` counts
/// dispatches moved, from the recorded [`mdls_obs::Event::Compacted`]
/// stream.
pub fn timeline_ab(jobs: usize) -> TextTable {
    let jobs = refund_heavy_jobs(jobs, 0xeb00);
    let gpus = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
    let mut t = TextTable::new(
        format!(
            "Interval-timeline compaction A/B: {} refund-heavy jobs (96..192 \
             cols, 30/90 digits) on 2x V100 + 2x P100, stage-level SECT",
            jobs.len()
        ),
        "refund handling",
    );
    t.col("makespan ms")
        .col("refunded ms")
        .col("slid")
        .col("gain");
    let mut post_ms = 0.0;
    for (i, (name, sched)) in timeline_arms().iter().enumerate() {
        let (report, m) = staged_observed(&gpus, &jobs, sched);
        if i == 0 {
            post_ms = report.makespan_ms;
        }
        let refunded: f64 = report.outcomes.iter().map(|o| o.refunded_ms).sum();
        t.row(
            *name,
            vec![
                format!("{:.1}", report.makespan_ms),
                format!("{refunded:.1}"),
                format!("{}", m.slid_dispatches),
                if i == 0 {
                    "-".into()
                } else {
                    format!("{:+.1}%", 100.0 * (post_ms - report.makespan_ms) / post_ms)
                },
            ],
        );
    }
    t
}

/// One model-only staged schedule of `shapes` on `gpus` with `k` host
/// staging workers: (makespan ms, staging waits, total wait ms).
fn staging_run(gpus: &[Gpu], shapes: &[JobShape], k: usize) -> (f64, u64, f64) {
    let planner = Planner::new();
    let mut pool = DevicePool::new(gpus.to_vec());
    pool.set_staging_workers(k);
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    schedule_staged(
        &mut pool,
        &planner,
        shapes,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::off(),
        &StageSchedConfig::overlap_only(),
    );
    let m = Metrics::from_events(&recorder.events());
    (pool.makespan_ms(), m.staging_waits, m.staging_wait_ms)
}

/// Host-staging contention A/B (model): the refinement-heavy mix on 4
/// pooled V100s with the pool-wide CPU staging model at `k` = N, 2 and
/// 1 workers. Every prep interval books a worker slot *and* its
/// device's prep lane; with `k` < N concurrent preps across devices
/// queue on the workers and the waits (counted from
/// [`mdls_obs::Event::StagingWait`]) stretch the makespan.
pub fn staging_ab(jobs: usize) -> TextTable {
    let shapes = refinement_mix(jobs);
    let gpus = vec![Gpu::v100(); 4];
    let mut t = TextTable::new(
        format!(
            "Host-staging contention A/B: {jobs}-job refinement-heavy mix on \
             4x V100, stage-level SECT, k CPU staging workers"
        ),
        "workers",
    );
    t.col("makespan ms")
        .col("staging waits")
        .col("wait ms")
        .col("vs k=N");
    let (base_ms, _, _) = staging_run(&gpus, &shapes, gpus.len());
    for k in [gpus.len(), 2, 1] {
        let (ms, waits, wait_ms) = staging_run(&gpus, &shapes, k);
        t.row(
            if k == gpus.len() {
                "k = N = 4".into()
            } else {
                format!("k = {k}")
            },
            vec![
                format!("{ms:.1}"),
                format!("{waits}"),
                format!("{wait_ms:.1}"),
                format!("{:+.1}%", 100.0 * (ms - base_ms) / base_ms),
            ],
        );
    }
    t
}

/// Escape a string for a JSON literal (the scenario names are ASCII
/// identifiers, but stay correct regardless).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable throughput results: per-scenario makespan and
/// latency for the interval-timeline and host-staging A/Bs, as a JSON
/// document (written to `target/bench-throughput.json` by
/// `repro throughput` / `throughput-smoke` and validated with
/// [`mdls_obs::json`]).
pub fn bench_json(jobs: usize) -> String {
    let mut scenarios = Vec::new();
    let refund = refund_heavy_jobs(jobs, 0xeb00);
    let mixed = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
    for (name, sched) in timeline_arms() {
        let (report, m) = staged_observed(&mixed, &refund, &sched);
        scenarios.push(format!(
            "{{\"name\":\"timeline_{}\",\"makespan_ms\":{:.6},\"solves_per_sec\":{:.6},\
             \"p50_ms\":{:.6},\"p99_ms\":{:.6},\"slid_dispatches\":{}}}",
            json_escape(name),
            report.makespan_ms,
            report.solves_per_sec,
            report.latency.p50_ms,
            report.latency.p99_ms,
            m.slid_dispatches
        ));
    }
    let shapes = refinement_mix(jobs.max(8) * 2);
    let homog = vec![Gpu::v100(); 4];
    for k in [homog.len(), 2, 1] {
        let (ms, waits, wait_ms) = staging_run(&homog, &shapes, k);
        scenarios.push(format!(
            "{{\"name\":\"staging_k{k}\",\"makespan_ms\":{ms:.6},\
             \"staging_waits\":{waits},\"staging_wait_ms\":{wait_ms:.6}}}"
        ));
    }
    format!("{{\"scenarios\":[{}]}}", scenarios.join(","))
}

/// Bursty-arrival deadline misses (functional): tracker jobs arriving
/// in bursts stream through a 2-device pool; a miss is an outcome
/// whose completion lands after its deadline — countable only now
/// that jobs carry real release times. Stage-level scheduling clears
/// the queue sooner; on an overloaded burst cadence the miss count is
/// arrival-limited (the same correctors drain first either way), which
/// is exactly what the table makes visible.
pub fn bursty_deadline_table(jobs: usize) -> TextTable {
    let mut rng = StdRng::seed_from_u64(0xb57);
    let jobs = bursty_tracker_jobs(jobs, 6, 30.0, &mut rng);
    let mut t = TextTable::new(
        format!(
            "Bursty stream deadline misses: {} tracker jobs in bursts of 6 \
             every 30 ms on V100 + P100",
            jobs.len()
        ),
        "scheduler",
    );
    t.col("makespan ms")
        .col("deadline misses")
        .col("p99 turnaround ms");
    let with_deadline = jobs.iter().filter(|j| j.deadline_ms.is_some()).count();
    for (name, sched) in [
        ("sequential booking", StageSchedConfig::sequential()),
        ("staged online", StageSchedConfig::staged()),
    ] {
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        let outs: Vec<JobOutcome> = solve_stream_staged(
            &mut pool,
            jobs.clone(),
            DispatchPolicy::ShortestExpectedCompletion,
            8,
            MicrobatchConfig::default(),
            sched,
        )
        .collect();
        let lat = mdls_pipeline::latency_summary(&outs);
        t.row(
            name,
            vec![
                format!("{:.1}", pool.makespan_ms()),
                format!("{} / {}", lat.deadline_misses, with_deadline),
                format!("{:.1}", lat.p99_ms),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_reaches_1_8x_at_two_devices() {
        // the acceptance bar of the pipeline issue, at every rung
        let gpu = Gpu::v100();
        let planner = Planner::new();
        for (digits, tag) in RUNG_DIGITS {
            let shapes = mixed_shapes(256, digits);
            let t1 = solves_per_sec(&gpu, 1, &shapes, &planner);
            let t2 = solves_per_sec(&gpu, 2, &shapes, &planner);
            assert!(t2 >= 1.8 * t1, "{tag}: 1→2 devices only {:.2}x", t2 / t1);
        }
    }

    #[test]
    fn tables_render() {
        assert!(throughput_scaling().render().contains("2d"));
        assert!(batch_size_sweep().render().contains("1024"));
        assert!(planner_choices().render().contains("x"));
        assert!(policy_ab(60).render().contains("sect"));
        assert!(refinement_ab().render().contains("direct"));
        assert!(microbatch_ab().render().contains("speedup"));
        assert!(microbatch_queue_ab(64).render().contains("fused"));
        assert!(stage_overlap_ab(24).render().contains("overlap"));
        assert!(timeline_ab(12).render().contains("compaction"));
        assert!(staging_ab(16).render().contains("k = 1"));
        assert!(bursty_deadline_table(18).render().contains("misses"));
    }

    #[test]
    fn stage_overlap_beats_per_plan_sect_by_10_percent() {
        // the acceptance bar: on the 2x V100 + 2x P100 refinement-heavy
        // tracker mix, stage booking with cross-job overlap cuts the
        // SECT makespan by >= 10% vs the sequential-booking control
        // (one contiguous interval per plan)
        let shapes = refinement_mix(48);
        let mixed = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
        let per_plan = staged_makespan(&mixed, &shapes, &StageSchedConfig::sequential());
        let overlap = staged_makespan(&mixed, &shapes, &StageSchedConfig::overlap_only());
        assert!(
            overlap <= 0.90 * per_plan,
            "overlap {overlap:.1} ms not >=10% under per-plan {per_plan:.1} ms"
        );
        // and overlap never loses on any A/B pool
        for (name, gpus) in ab_pools() {
            let p = policy_makespan(&gpus, &shapes, DispatchPolicy::ShortestExpectedCompletion);
            let o = staged_makespan(&gpus, &shapes, &StageSchedConfig::overlap_only());
            assert!(
                o <= p * (1.0 + 1e-9),
                "{name}: overlap {o:.1} regressed {p:.1}"
            );
        }
    }

    #[test]
    fn online_rebooking_wins_makespan() {
        // re-booking hands refunded time to later dispatches. The batch
        // engine books every group up front, so a tail-only re-book can
        // only trim each device's final booking — it must never lose to
        // post-hoc, but the schedule-level win is compaction's: queued
        // dispatches slide into the mid-schedule holes and the makespan
        // drops strictly. Expected-pass booking (which also compacts)
        // must at least hold that line.
        let jobs = refund_heavy_jobs(12, 0xeb01);
        let gpus = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
        let run = |sched: &StageSchedConfig| {
            let mut pool = DevicePool::new(gpus.clone());
            let report = solve_batch_staged(
                &mut pool,
                &jobs,
                DispatchPolicy::ShortestExpectedCompletion,
                &MicrobatchConfig::off(),
                sched,
            );
            let refunded: f64 = report.outcomes.iter().map(|o| o.refunded_ms).sum();
            (report.makespan_ms, refunded)
        };
        let [(_, post), (_, tail), (_, compact)] = timeline_arms();
        let (post_ms, post_refund) = run(&post);
        assert!(
            post_refund > 0.0,
            "no refunds on the refund-heavy mix — the A/B is vacuous"
        );
        let (tail_ms, _) = run(&tail);
        assert!(
            tail_ms <= post_ms + 1e-9,
            "tail-only re-booking {tail_ms:.2} ms regressed post-hoc {post_ms:.2} ms"
        );
        let (compact_ms, _) = run(&compact);
        assert!(
            compact_ms < post_ms,
            "compaction {compact_ms:.2} ms not strictly under post-hoc {post_ms:.2} ms"
        );
        let (exp_ms, _) = run(&StageSchedConfig::staged());
        assert!(
            exp_ms <= compact_ms + 1e-9,
            "expected-pass booking {exp_ms:.2} ms worse than worst-case compaction {compact_ms:.2} ms"
        );
    }

    #[test]
    fn compaction_never_loses_to_tail_only_rebooking() {
        // across seeded refund-heavy runs, compaction's makespan is
        // never above tail-only's, and wins strictly somewhere — the
        // holes it fills are exactly the spans tail-only strands
        let gpus = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
        let [_, (_, tail), (_, compact)] = timeline_arms();
        let mut strict_wins = 0;
        for seed in [0xeb01u64, 0xeb02, 0xeb03] {
            let jobs = refund_heavy_jobs(12, seed);
            let run = |sched: &StageSchedConfig| {
                let mut pool = DevicePool::new(gpus.clone());
                solve_batch_staged(
                    &mut pool,
                    &jobs,
                    DispatchPolicy::ShortestExpectedCompletion,
                    &MicrobatchConfig::off(),
                    sched,
                )
                .makespan_ms
            };
            let tail_ms = run(&tail);
            let compact_ms = run(&compact);
            assert!(
                compact_ms <= tail_ms + 1e-9,
                "seed {seed:#x}: compaction {compact_ms:.2} ms above tail-only {tail_ms:.2} ms"
            );
            if compact_ms < tail_ms - 1e-9 {
                strict_wins += 1;
            }
        }
        assert!(
            strict_wins >= 1,
            "compaction never beat tail-only strictly on any seed"
        );
    }

    #[test]
    fn staging_contention_costs_makespan() {
        // k = N staging workers reproduce the per-device prep-lane
        // model exactly (zero waits); starving the pool to one worker
        // must generate waits and stretch the makespan
        let shapes = refinement_mix(24);
        let gpus = vec![Gpu::v100(); 4];
        let (full_ms, full_waits, _) = staging_run(&gpus, &shapes, gpus.len());
        assert_eq!(full_waits, 0, "k = N must not generate staging waits");
        let (one_ms, one_waits, one_wait_ms) = staging_run(&gpus, &shapes, 1);
        assert!(one_waits > 0, "k = 1 generated no staging contention");
        assert!(one_wait_ms > 0.0);
        assert!(
            one_ms >= full_ms,
            "k = 1 makespan {one_ms:.2} ms under k = N {full_ms:.2} ms"
        );
    }

    #[test]
    fn bench_json_is_valid_and_complete() {
        let doc = mdls_obs::json::parse(&bench_json(8)).expect("bench json parses");
        let scenarios = doc
            .get("scenarios")
            .and_then(mdls_obs::json::Json::as_arr)
            .expect("scenarios array");
        assert!(scenarios.len() >= 6);
        for s in scenarios {
            let name = s
                .get("name")
                .and_then(mdls_obs::json::Json::as_str)
                .expect("scenario name");
            let ms = s
                .get("makespan_ms")
                .and_then(mdls_obs::json::Json::as_f64)
                .expect("scenario makespan");
            assert!(ms > 0.0, "{name}: nonpositive makespan");
        }
    }

    #[test]
    fn microbatching_doubles_small_shape_throughput() {
        // the acceptance bar of the micro-batching issue: >= 2x
        // predicted solves/sec on every small shape (32..128 unknowns)
        // at the d and dd rungs, fused vs per-job launches
        let gpu = Gpu::v100();
        let planner = Planner::new();
        // guard the shipped configuration, not a private tuning point
        let cfg = MicrobatchConfig::default();
        for (n, digits, tag) in MICROBATCH_SHAPES {
            if n > 128 || digits > 25 {
                continue; // the bar is for the small d/dd shapes
            }
            let single = planner.plan(&gpu, n, n, digits);
            let k = planner.preferred_group_size(n, n, digits, cfg.max_group, cfg.tolerance);
            let (_, fused) = planner.plan_fused(&gpu, n, n, digits, k);
            let speedup = single.predicted_ms / fused.per_job_ms();
            assert!(
                speedup >= 2.0,
                "{n}x{n} {tag}: fused x{k} only {speedup:.2}x"
            );
        }
        // and the queue-level schedule shows it end to end on one device
        let shapes: Vec<JobShape> = (0..128)
            .map(|i| {
                let cols = [32, 64, 96, 128][i % 4];
                JobShape {
                    rows: cols,
                    cols,
                    target_digits: [12, 25][i % 2],
                }
            })
            .collect();
        let mut plain = DevicePool::homogeneous(&gpu, 1);
        schedule(&mut plain, &planner, &shapes, DispatchPolicy::LeastLoaded);
        let mut micro = DevicePool::homogeneous(&gpu, 1);
        schedule_staged(
            &mut micro,
            &planner,
            &shapes,
            DispatchPolicy::LeastLoaded,
            &MicrobatchConfig::default(),
            &StageSchedConfig::sequential(),
        );
        assert!(
            micro.solves_per_sec() >= 2.0 * plain.solves_per_sec(),
            "queue: fused {:.1}/s vs unfused {:.1}/s",
            micro.solves_per_sec(),
            plain.solves_per_sec()
        );
    }

    #[test]
    fn planner_choices_differ_somewhere() {
        let gpu = Gpu::v100();
        let planner = Planner::new();
        let a = planner.plan(&gpu, 64, 64, 50);
        let b = planner.plan(&gpu, 1024, 1024, 50);
        assert_ne!(a.stages, b.stages);
    }

    #[test]
    fn refinement_beats_direct_at_the_paper_dimension() {
        // the acceptance bar: at 1024 x 1024 with a quad double target
        // the searched plan factors at double double and refines, and
        // its predicted wall clock beats the direct quad double solve
        let gpu = Gpu::v100();
        let planner = Planner::new();
        let direct = planner.plan_direct(&gpu, 1024, 1024, 50);
        let plan = planner.plan(&gpu, 1024, 1024, 50);
        assert!(!plan.is_direct(), "search kept {}", plan.summary());
        assert!(
            plan.predicted_ms < direct.predicted_ms,
            "refinement {:.2} ms not under direct {:.2} ms",
            plan.predicted_ms,
            direct.predicted_ms
        );
        assert!(plan.predicted_digits >= 50);
    }

    #[test]
    fn sect_beats_greedy_on_the_mixed_ab_pool() {
        // the acceptance bar: ≥ 5% makespan gain on the mixed
        // 2x V100 + 2x P100 pool over the workload mix at
        // service-window depth, and no regression anywhere. (Before
        // staged plans the 5% bar also held on the 2-device V100+P100
        // pool; refinement compressed the cost spread between rungs —
        // an 8d job now costs a dd factorization plus a few cheap
        // passes instead of a full 8d factorization — so greedy's
        // worst case, a long deep job parked on the slow idle device,
        // simply hurts less. SECT must still never lose.)
        let shapes = workload_mix(60);
        let mixed4 = vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()];
        let greedy = policy_makespan(&mixed4, &shapes, DispatchPolicy::LeastLoaded);
        let sect = policy_makespan(&mixed4, &shapes, DispatchPolicy::ShortestExpectedCompletion);
        assert!(
            sect <= 0.95 * greedy,
            "4 devices: SECT {sect:.1} ms not ≥5% under greedy {greedy:.1} ms"
        );
        for pool in [vec![Gpu::v100(), Gpu::p100()], vec![Gpu::v100(); 4]] {
            let g = policy_makespan(&pool, &shapes, DispatchPolicy::LeastLoaded);
            let s = policy_makespan(&pool, &shapes, DispatchPolicy::ShortestExpectedCompletion);
            assert!(
                s <= g * (1.0 + 1e-9),
                "{} devices: SECT {s:.1} ms regressed greedy {g:.1} ms",
                pool.len()
            );
        }
    }
}
