//! One repetition of a workload: the call into the program (timed on
//! the host clock), then — outside the timed region — the simulated
//! metrics, the output checks and a digest of everything that must
//! repeat exactly.

use std::sync::Arc;

use gpusim::{ExecMode, Gpu, Profile};
use mdls_core::{lstsq, LstsqOptions, LstsqRun};
use mdls_matrix::{vec_norm2, HostMat};
use mdls_pipeline::{
    digits_from_residual, serve, solve_batch_staged_with, solve_planned_traced_with,
    solve_stream_staged, DevicePool, DeviceStats, DispatchPolicy, Job, JobOutcome,
    MicrobatchConfig, SloClass, StageSchedConfig,
};
use multidouble::{MdReal, MdScalar};

use crate::spans::{Counter, Spans};
use crate::workloads::{
    refine_pool, service_pool, Digest, Inputs, LadderSolve, Payload, LADDER_TILES, TRACKER_WINDOW,
};

/// Simulated-clock results of one repetition. Bit-repeatable: the
/// same inputs give the same bits on every run and thread count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sim {
    pub makespan_ms: f64,
    pub solves_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub priority_p99_ms: f64,
    pub deadline_met_frac: f64,
    pub ok_frac: f64,
    pub gflops: f64,
}

/// Layer facts read off one repetition's report (traced pass).
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Min over completed functional jobs of achieved − target digits.
    pub digits_margin_min: f64,
    pub pool_utilization: f64,
    pub pool_refunded_ms: f64,
    pub corrections_run_mean: f64,
    /// `ladder_direct`'s solves by rung: dd, qd, od.
    pub ladder: [Vec<LadderSample>; 3],
}

/// One direct solve on both clocks.
#[derive(Clone, Copy, Debug)]
pub struct LadderSample {
    pub host_s: f64,
    pub sim_wall_ms: f64,
    /// Back-substitution share of the simulated wall.
    pub backsub_share: f64,
    /// Digits the measured residual certifies.
    pub digits: f64,
}

pub struct Rep {
    /// Host wall time of the call(s) into the program, seconds.
    pub host_s: f64,
    pub sim: Sim,
    pub submitted: usize,
    /// Operations that ended other than the workload expects.
    pub failed: usize,
    /// Names of failed output checks (empty = all passed).
    pub check_failures: Vec<String>,
    /// Digest of every outcome's placement, times, disposition and
    /// solution bits.
    pub digest: u64,
    pub facts: Facts,
}

fn digest_outcome(d: &mut Digest, o: &JobOutcome) {
    d.word(o.job_id);
    d.word(o.device as u64);
    d.word(o.start_ms.to_bits());
    d.word(o.end_ms.to_bits());
    d.word(o.disposition as u64);
    d.word(o.corrections_run as u64);
    d.word(o.residual.to_bits());
    for v in o.x.leading_f64() {
        d.word(v.to_bits());
    }
}

/// Exact nearest-rank percentile (the program's own convention).
fn percentile(sample: &mut [f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let rank = ((q * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
    sample[rank - 1]
}

/// What the pipeline workloads share: turn a full outcome list into
/// a [`Rep`] — the simulated metrics, the per-job checks, the digest.
///
/// `outcomes[i]` must answer `jobs[i]`. `paying` marks the latency
/// class `sim_priority_p99_ms` reports (every job when the workload
/// has no such class). `by_design` marks jobs the service may refuse
/// or degrade by contract: one that is counts against `ok_frac` but
/// not as a failed operation.
fn evaluate(
    host_s: f64,
    jobs: &[Job],
    outcomes: &[JobOutcome],
    stats: &[DeviceStats],
    functional: bool,
    paying: impl Fn(&Job) -> bool,
    by_design: impl Fn(&Job) -> bool,
) -> Rep {
    let mut checks = Vec::new();
    if outcomes.len() != jobs.len() || outcomes.iter().zip(jobs).any(|(o, j)| o.job_id != j.id) {
        checks.push("one_outcome_per_job".to_string());
    }
    let mut digest = Digest::new();
    let mut all = Vec::new();
    let mut paid = Vec::new();
    let (mut ok, mut failed, mut deadlined, mut on_time) = (0usize, 0usize, 0usize, 0usize);
    let mut makespan = 0.0f64;
    let mut margin = f64::INFINITY;
    let mut corrections = 0usize;
    let mut uncertified = 0usize;
    for (job, o) in jobs.iter().zip(outcomes) {
        digest_outcome(&mut digest, o);
        let done = o.disposition.completed();
        // a completed functional job certifies the plan it ran under;
        // a degraded one ran a cheaper plan than requested
        let certified = !functional || o.achieved_digits >= o.plan.target_digits as f64;
        let as_asked = done && certified && o.plan.target_digits >= o.requested_digits;
        if done {
            let t = o.turnaround_ms();
            all.push(t);
            if paying(job) {
                paid.push(t);
            }
            makespan = makespan.max(o.end_ms);
            corrections += o.corrections_run;
            if functional {
                margin = margin.min(o.achieved_digits - o.plan.target_digits as f64);
                if !certified {
                    uncertified += 1;
                }
            }
        }
        if job.deadline_ms.is_some() {
            deadlined += 1;
            if done && !o.missed_deadline() {
                on_time += 1;
            }
        }
        if as_asked {
            ok += 1;
        } else if !by_design(job) {
            failed += 1;
        }
    }
    if uncertified > 0 {
        checks.push(format!(
            "certified_target ({uncertified} jobs under target)"
        ));
    }
    let completed = all.len();
    let busy: f64 = stats.iter().map(|d| d.busy_ms).sum();
    let sim = Sim {
        makespan_ms: makespan,
        solves_per_s: if makespan > 0.0 {
            completed as f64 / (makespan * 1e-3)
        } else {
            0.0
        },
        p50_ms: percentile(&mut all, 0.50),
        p99_ms: percentile(&mut all, 0.99),
        priority_p99_ms: percentile(&mut paid, 0.99),
        deadline_met_frac: if deadlined > 0 {
            on_time as f64 / deadlined as f64
        } else {
            1.0
        },
        ok_frac: ok as f64 / jobs.len().max(1) as f64,
        // busy-weighted kernel gigaflops of the pool
        gflops: if busy > 0.0 {
            stats
                .iter()
                .map(|d| d.busy_ms * d.kernel_gflops)
                .sum::<f64>()
                / busy
        } else {
            0.0
        },
    };
    let facts = Facts {
        digits_margin_min: if margin.is_finite() { margin } else { 0.0 },
        pool_utilization: stats.iter().map(|d| d.utilization).sum::<f64>()
            / stats.len().max(1) as f64,
        pool_refunded_ms: stats.iter().map(|d| d.refunded_ms).sum(),
        corrections_run_mean: corrections as f64 / completed.max(1) as f64,
        ..Facts::default()
    };
    Rep {
        host_s,
        sim,
        submitted: jobs.len(),
        failed,
        check_failures: checks,
        digest: digest.0,
        facts,
    }
}

fn attach(pool: &mut DevicePool, obs: &Option<Arc<Counter>>) {
    if let Some(o) = obs {
        pool.attach_observer(o.clone());
    }
}

/// Residual thresholds of `repro verify`, as certified digits.
const LADDER_DIGITS: [f64; 3] = [25.0, 55.0, 112.0];

struct LadderOut {
    sample: LadderSample,
    profile: Profile,
    x_bits: Vec<u64>,
}

fn ladder_solve<S: MdScalar>(
    gpu: &Gpu,
    a: &HostMat<S>,
    b: &[S],
    name: &str,
    spans: &mut Spans,
) -> LadderOut {
    let opts = LstsqOptions {
        tiles: LADDER_TILES,
        tile_size: a.cols / LADDER_TILES,
        mode: ExecMode::Sequential,
    };
    let (run, host_s): (LstsqRun<S>, f64) = spans.time(name, |_| lstsq(gpu, a, b, &opts));
    let profile = run.total_profile();
    let residual = a.residual(&run.x, b).to_f64() / vec_norm2(b).to_f64();
    LadderOut {
        sample: LadderSample {
            host_s,
            sim_wall_ms: profile.wall_ms(),
            backsub_share: run.bs_profile.wall_ms() / profile.wall_ms(),
            digits: digits_from_residual(residual),
        },
        profile,
        x_bits: run.x.iter().map(|v| v.plane(0).to_bits()).collect(),
    }
}

/// Run one repetition. `host_parallel` only matters to `batch_refine`.
/// `deep` adds the once-per-process re-solve check.
pub fn run_rep(
    inputs: &Inputs,
    obs: &Option<Arc<Counter>>,
    spans: &mut Spans,
    host_parallel: bool,
    deep: bool,
) -> Rep {
    match &inputs.payload {
        Payload::Service {
            jobs,
            specs,
            cfg,
            fault,
        } => {
            let ((report, stats), host_s) = spans.time("service.serve", |_| {
                let mut pool = service_pool(fault);
                attach(&mut pool, obs);
                let report = serve(&mut pool, jobs, specs, cfg);
                (report, pool.stats())
            });
            let mut rep = evaluate(
                host_s,
                jobs,
                &report.outcomes,
                &stats,
                false,
                |j| j.slo == SloClass::Premium,
                // best-effort work is what the service sacrifices by
                // contract: the burster's overflow is shed at the door
                // of its bounded queue, and the overload ladder may
                // down-ladder or shed best-effort jobs while a wave
                // drains. A premium or standard job not served as
                // asked is a failed operation.
                |j| j.slo == SloClass::BestEffort,
            );
            if report.outcomes.iter().any(|o| !o.x.is_empty()) {
                rep.check_failures
                    .push("model_only_outcomes_carry_no_solution".into());
            }
            rep
        }
        Payload::Stream { jobs } => {
            let owned = jobs.clone();
            let ((mut outcomes, stats), host_s) =
                spans.time("stream.solve_stream_staged", |spans| {
                    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
                    attach(&mut pool, obs);
                    let mut stream = solve_stream_staged(
                        &mut pool,
                        owned,
                        DispatchPolicy::ShortestExpectedCompletion,
                        TRACKER_WINDOW,
                        MicrobatchConfig::default(),
                        StageSchedConfig::staged(),
                    );
                    let mut outcomes = Vec::with_capacity(jobs.len());
                    while let (Some(o), _) = spans.time("stream.next", |_| stream.next()) {
                        outcomes.push(o);
                    }
                    drop(stream);
                    (outcomes, pool.stats())
                });
            // the stream yields in dispatch order; ids are submission
            // indices, so sorting restores submission order
            outcomes.sort_by_key(|o| o.job_id);
            evaluate(
                host_s,
                jobs,
                &outcomes,
                &stats,
                true,
                |j| j.priority > 0,
                |_| false,
            )
        }
        Payload::Batch { jobs } => {
            let sched = StageSchedConfig::staged();
            let (report, host_s) = spans.time("batch.solve_batch_staged_with", |_| {
                let mut pool = refine_pool();
                attach(&mut pool, obs);
                solve_batch_staged_with(
                    &mut pool,
                    jobs,
                    DispatchPolicy::ShortestExpectedCompletion,
                    &MicrobatchConfig::default(),
                    &sched,
                    host_parallel,
                )
            });
            let mut rep = evaluate(
                host_s,
                jobs,
                &report.outcomes,
                &report.device_stats,
                true,
                |_| true,
                |_| false,
            );
            if deep {
                // the two cheapest jobs, re-interpreted sequentially,
                // must reproduce the batch's bits
                let pool = refine_pool();
                for (job, o) in jobs.iter().zip(&report.outcomes).take(2) {
                    let again = solve_planned_traced_with(
                        pool.gpu(o.device),
                        job,
                        &o.plan,
                        sched.max_extra_passes,
                    );
                    if again.x != o.x {
                        rep.check_failures
                            .push(format!("resolve_bit_identical (job {})", job.id));
                    }
                }
            }
            rep
        }
        Payload::Ladder { solves } => {
            let gpu = Gpu::v100();
            let (outs, host_s) = spans.time("core.ladder", |spans| {
                solves
                    .iter()
                    .map(|s| match s {
                        LadderSolve::Dd(a, b) => {
                            (0, ladder_solve(&gpu, a, b, "core.lstsq.dd", spans))
                        }
                        LadderSolve::Qd(a, b) => {
                            (1, ladder_solve(&gpu, a, b, "core.lstsq.qd", spans))
                        }
                        LadderSolve::Od(a, b) => {
                            (2, ladder_solve(&gpu, a, b, "core.lstsq.od", spans))
                        }
                    })
                    .collect::<Vec<(usize, LadderOut)>>()
            });
            let mut digest = Digest::new();
            let mut total = Profile::new();
            let mut walls = Vec::new();
            let mut facts = Facts {
                digits_margin_min: f64::INFINITY,
                ..Facts::default()
            };
            let mut uncertified = 0;
            for (rung, out) in &outs {
                total.absorb(&out.profile);
                walls.push(out.sample.sim_wall_ms);
                digest.word(out.sample.sim_wall_ms.to_bits());
                for &w in &out.x_bits {
                    digest.word(w);
                }
                let margin = out.sample.digits - LADDER_DIGITS[*rung];
                facts.digits_margin_min = facts.digits_margin_min.min(margin);
                if margin <= 0.0 {
                    uncertified += 1;
                }
                facts.ladder[*rung].push(out.sample);
            }
            // one client, closed loop: a solve's turnaround is its own
            // simulated wall, and the makespan is their sum
            let makespan: f64 = walls.iter().sum();
            let p99 = percentile(&mut walls, 0.99);
            let sim = Sim {
                makespan_ms: makespan,
                solves_per_s: outs.len() as f64 / (makespan * 1e-3),
                p50_ms: percentile(&mut walls, 0.50),
                p99_ms: p99,
                priority_p99_ms: p99,
                deadline_met_frac: 1.0,
                ok_frac: (outs.len() - uncertified) as f64 / outs.len() as f64,
                gflops: total.wall_gflops(),
            };
            let mut checks = Vec::new();
            if uncertified > 0 {
                checks.push(format!(
                    "ladder_residual ({uncertified} solves over threshold)"
                ));
            }
            Rep {
                host_s,
                sim,
                submitted: outs.len(),
                failed: uncertified,
                check_failures: checks,
                digest: digest.0,
                facts,
            }
        }
    }
}
