//! The batch executor splits a fused group across host lanes, gated.
//!
//! Fusing packs a group's launches into one *booking*; its members are
//! still independent solves. The executor's unit of work is one job and
//! its lanes pull jobs instead of owning a device, so a batch whose
//! host time is dominated by one fused pair runs that pair's two
//! members side by side. Here the pair holds most of the serial host
//! time; parallel / serial read ≈ 0.95 while a whole group ran on the
//! lane of its device, and ≈ 0.5 since.
#![expect(clippy::disallowed_methods, reason = "a host-time gate")]

use std::time::Instant;

use gpusim::Gpu;
use mdls_pipeline::{
    jobs_for_shapes, solve_batch_staged_with, DevicePool, DispatchPolicy, JobShape,
    MicrobatchConfig, StageSchedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn dominant_fused_group_splits_across_lanes() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipped: {cores} core(s), the gate needs two host threads");
        return;
    }
    // one qd → od refinement pair, then small fillers of other shapes
    let pair = JobShape {
        rows: 128,
        cols: 96,
        target_digits: 100,
    };
    let mut shapes = vec![pair; 2];
    for (rows, cols) in [(48, 32), (64, 48), (40, 40), (56, 32)] {
        shapes.push(JobShape {
            rows,
            cols,
            target_digits: 30,
        });
    }
    let jobs = jobs_for_shapes(&shapes, &mut StdRng::seed_from_u64(2022));
    let (micro, sched) = (MicrobatchConfig::default(), StageSchedConfig::staged());
    let run = |host_parallel: bool| {
        let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
        let t0 = Instant::now();
        let report = solve_batch_staged_with(
            &mut pool,
            &jobs,
            DispatchPolicy::ShortestExpectedCompletion,
            &micro,
            &sched,
            host_parallel,
        );
        let wall = t0.elapsed().as_secs_f64();
        assert!(report.outcomes[..2].iter().all(|o| o.fused_group == 2));
        wall
    };
    let median = |host_parallel: bool| {
        let mut t: Vec<f64> = (0..5).map(|_| run(host_parallel)).collect();
        t.sort_by(f64::total_cmp);
        t[2]
    };
    let (serial, parallel) = (median(false), median(true));
    let ratio = parallel / serial;
    assert!(
        ratio <= 0.7,
        "parallel {:.1} ms vs serial {:.1} ms: ratio {ratio:.2} (gate 0.7)",
        parallel * 1e3,
        serial * 1e3
    );
}
