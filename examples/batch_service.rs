//! The batched solve service under load: thousands of randomized
//! power-flow-shaped jobs streamed through a heterogeneous multi-GPU
//! pool, solved *functionally* (real multiple double arithmetic, real
//! residuals) while the pool books simulated device time.
//!
//! ```sh
//! cargo run --release --example batch_service
//! ```

use multidouble_ls::pipeline::{
    power_flow_jobs, solve_batch, solve_batch_staged_with, solve_stream_staged, tracker_jobs,
    DevicePool, DispatchPolicy, JobOutcome, MicrobatchConfig, Precision, StageSchedConfig,
};
use multidouble_ls::sim::Gpu;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let jobs = {
        let mut rng = StdRng::seed_from_u64(2022);
        power_flow_jobs(2000, &mut rng)
    };
    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::v100(), Gpu::a100(), Gpu::p100()]);
    println!(
        "batch service: {} power-flow jobs over {} pooled devices",
        jobs.len(),
        pool.len()
    );

    #[expect(clippy::disallowed_methods, reason = "host-side demo timing")]
    let host_start = std::time::Instant::now();
    let report = solve_batch(&mut pool, &jobs);
    let host_ms = host_start.elapsed().as_secs_f64() * 1.0e3;

    // every job solved to its accuracy target
    let mut worst = (0u64, 0.0f64, 0u32);
    for (job, out) in jobs.iter().zip(&report.outcomes) {
        let margin = out.residual * 10f64.powi(job.target_digits as i32);
        if margin > worst.1 {
            worst = (job.id, margin, job.target_digits);
        }
        assert!(
            margin < 1.0,
            "job {} missed its {}-digit target: residual {:e}",
            job.id,
            job.target_digits,
            out.residual
        );
    }
    println!(
        "all {} residuals meet their targets (worst margin: job {} at {:.1e} of its {}-digit budget)",
        report.outcomes.len(),
        worst.0,
        worst.1,
        worst.2
    );

    // precision-ladder mix the planner chose
    for rung in Precision::LADDER {
        let n = report
            .outcomes
            .iter()
            .filter(|o| o.x.precision() == rung)
            .count();
        if n > 0 {
            println!("  {:>4} jobs solved in {}", n, rung.tag());
        }
    }
    // staged-plan mix: how many jobs ran mixed-precision refinement
    // (factor cheap, residual one rung up, correct) instead of a
    // direct deep-rung solve
    let refined: Vec<&multidouble_ls::pipeline::JobOutcome> = report
        .outcomes
        .iter()
        .filter(|o| !o.plan.is_direct())
        .collect();
    if !refined.is_empty() {
        let passes: usize = refined.iter().map(|o| o.plan.corrections()).sum();
        let spare = refined
            .iter()
            .map(|o| o.achieved_digits - o.plan.target_digits as f64)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  {:>4} jobs ran refinement plans ({:.1} passes avg, e.g. {}; worst digit margin {:+.1})",
            refined.len(),
            passes as f64 / refined.len() as f64,
            refined[0].plan.summary(),
            spare
        );
    }
    println!("  {} distinct plans memoized", report.distinct_plans);

    println!("\nper-device simulated throughput:");
    println!(
        "{:<4} {:<8} {:>7} {:>12} {:>7} {:>10} {:>12}",
        "id", "model", "solves", "busy ms", "util", "kernel GF", "solves/sec"
    );
    for s in &report.device_stats {
        println!(
            "{:<4} {:<8} {:>7} {:>12.1} {:>6.0}% {:>10.0} {:>12.1}",
            s.id,
            s.name,
            s.solves,
            s.busy_ms,
            100.0 * s.utilization,
            s.kernel_gflops,
            s.solves_per_busy_sec
        );
    }
    println!(
        "\nbatch makespan {:.1} ms simulated, {:.1} solves/sec aggregate \
         (host wall clock: {:.0} ms)",
        report.makespan_ms, report.solves_per_sec, host_ms
    );

    // dispatch-policy selection: on this mixed pool the shortest-
    // expected-completion policy stops parking long deep-precision
    // solves on whatever device happens to be idle
    pool.reset();
    let sect = solve_batch_staged_with(
        &mut pool,
        &jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        &MicrobatchConfig::default(),
        &StageSchedConfig::sequential(),
        true,
    );
    println!(
        "\ndispatch policy A/B on this pool: greedy {:.1} ms vs sect {:.1} ms ({:+.1}%)",
        report.makespan_ms,
        sect.makespan_ms,
        100.0 * (report.makespan_ms - sect.makespan_ms) / report.makespan_ms
    );
    assert_eq!(
        report.outcomes.iter().map(|o| &o.x).collect::<Vec<_>>(),
        sect.outcomes.iter().map(|o| &o.x).collect::<Vec<_>>(),
        "policies may move jobs, never change bits"
    );

    // power-series workload: one embedding matrix re-solved against a
    // fresh right hand side per series step — every step shares a shape
    // key, so the micro-batcher fuses the whole series into a few
    // batched launch sequences
    let steps = 200usize;
    let series_jobs: Vec<_> = {
        let mut rng = StdRng::seed_from_u64(2024);
        let template = power_flow_jobs(1, &mut rng).remove(0);
        (0..steps as u64)
            .map(|id| {
                let b: Vec<f64> = template
                    .b
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + (id as f64 + 1.0) * 1e-3 * (i as f64 + 1.0))
                    .collect();
                multidouble_ls::pipeline::Job::new(id, template.a.clone(), b, 50)
            })
            .collect()
    };
    pool.reset();
    let series = solve_batch(&mut pool, &series_jobs);
    let worst = series
        .outcomes
        .iter()
        .map(|o| o.achieved_digits)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\npower series: {} steps on one {}x{} matrix in {} fused groups ({}), \
         worst step certifies {worst:.1} digits",
        series.outcomes.len(),
        series_jobs[0].rows(),
        series_jobs[0].cols(),
        series.fused_groups,
        series.outcomes[0].plan.summary(),
    );
    assert!(worst >= 50.0, "a series step fell short of its 50 digits");

    // priority streaming: a path tracker's corrector solves (priority 1,
    // deadline-tagged) overtake speculative predictor solves inside the
    // stream's reorder window
    let tracker = {
        let mut rng = StdRng::seed_from_u64(2023);
        tracker_jobs(60, &mut rng)
    };
    let correctors: Vec<u64> = tracker
        .iter()
        .filter(|j| j.priority > 0)
        .map(|j| j.id)
        .collect();
    pool.reset();
    let drained: Vec<JobOutcome> = solve_stream_staged(
        &mut pool,
        tracker,
        DispatchPolicy::ShortestExpectedCompletion,
        16,
        MicrobatchConfig::default(),
        StageSchedConfig::sequential(),
    )
    .collect();
    let lead: Vec<bool> = drained
        .iter()
        .take(8)
        .map(|o| correctors.contains(&o.job_id))
        .collect();
    println!(
        "priority stream: first 8 of {} drained jobs corrector? {:?}",
        drained.len(),
        lead
    );
    assert!(lead[0], "a corrector must drain first");
}
