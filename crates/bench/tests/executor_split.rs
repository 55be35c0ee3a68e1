//! The batch executor splits a fused group across host lanes, gated.
//!
//! Fusing packs a group's launches into one *booking*; its members are
//! still independent solves. The executor's unit of work is one job and
//! its lanes pull jobs instead of owning a device, so a batch whose
//! host time is dominated by one fused pair runs that pair's two
//! members side by side. Here the pair holds most of the serial host
//! time; parallel / serial read ≈ 0.95 while a whole group ran on the
//! lane of its device, and ≈ 0.5 since. The gate reads the median of 11
//! rounds, each one serial and one parallel run back to back: with the
//! five serial runs all ahead of the five parallel ones, one slow stretch
//! of the second core on a two-core host failed it about one run in four.
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
    // serial and parallel runs interleaved, which goes first alternating,
    // so that a slow stretch of the second core lands on both sides of a
    // round: the median round by its ratio
    let mut rounds: Vec<(f64, f64)> = (0..11)
        .map(|round| {
            if round % 2 == 0 {
                let serial = run(false);
                (serial, run(true))
            } else {
                let parallel = run(true);
                (run(false), parallel)
            }
        })
        .collect();
    rounds.sort_by(|p, q| (p.1 / p.0).total_cmp(&(q.1 / q.0)));
    let (serial, parallel) = rounds[rounds.len() / 2];
    let ratio = parallel / serial;
    println!(
        "parallel {:.1} ms vs serial {:.1} ms: ratio {ratio:.3}",
        parallel * 1e3,
        serial * 1e3
    );
    assert!(
        ratio <= 0.7,
        "parallel {:.1} ms vs serial {:.1} ms: ratio {ratio:.2} (gate 0.7)",
        parallel * 1e3,
        serial * 1e3
    );
}
