//! Property-based tests over the whole stack: arithmetic identities on
//! random multi-limb values, and solver invariants on random shapes.
//!
//! Written as seeded random-case loops (the offline build has no
//! `proptest`); every case prints enough context in its assertion
//! message to reproduce from the seed.

use multidouble_ls::matrix::{vec_norm2, HostMat};
use multidouble_ls::md::{Dd, MdReal, MdScalar, Od, Qd};
use multidouble_ls::sim::{ExecMode, Gpu};
use multidouble_ls::solver::{lstsq, LstsqOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a full-entropy multiple double from four raw doubles.
fn md_from_parts<T: MdReal>(parts: [f64; 4]) -> T {
    let mut acc = T::zero();
    let mut scale = 1.0f64;
    for (i, p) in parts.iter().enumerate() {
        if i >= T::LIMBS {
            break;
        }
        acc += T::from_f64(*p).mul_pwr2(scale);
        scale *= 2f64.powi(-53);
    }
    acc
}

/// Four uniform doubles in `(-1e3, 1e3)` — the proptest strategy's range.
fn finite_parts(rng: &mut StdRng) -> [f64; 4] {
    [
        rng.random_range(-1.0e3..1.0e3),
        rng.random_range(-1.0e3..1.0e3),
        rng.random_range(-1.0e3..1.0e3),
        rng.random_range(-1.0e3..1.0e3),
    ]
}

const ARITH_CASES: usize = 64;

macro_rules! arithmetic_props {
    ($mod_name:ident, $T:ty, $ulps:expr, $seed:expr) => {
        mod $mod_name {
            use super::*;

            fn close(a: $T, b: $T) -> bool {
                let scale = MdScalar::abs_val(b).to_f64().max(1.0);
                (a - b).abs().to_f64() <= $ulps * <$T as MdReal>::EPS * scale
            }

            #[test]
            fn add_commutes() {
                let mut rng = StdRng::seed_from_u64($seed);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng));
                    let y = md_from_parts::<$T>(finite_parts(&mut rng));
                    assert_eq!(x + y, y + x, "case {case}");
                }
            }

            #[test]
            fn sub_inverts_add() {
                let mut rng = StdRng::seed_from_u64($seed + 1);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng));
                    let y = md_from_parts::<$T>(finite_parts(&mut rng));
                    assert!(close((x + y) - y, x), "case {case}: x {x}, y {y}");
                }
            }

            #[test]
            fn mul_div_roundtrip() {
                let mut rng = StdRng::seed_from_u64($seed + 2);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng));
                    let y = md_from_parts::<$T>(finite_parts(&mut rng));
                    if MdScalar::abs_val(y).to_f64() <= 1e-3 {
                        continue;
                    }
                    assert!(close((x * y) / y, x), "case {case}: x {x}, y {y}");
                }
            }

            #[test]
            fn distributive() {
                let mut rng = StdRng::seed_from_u64($seed + 3);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng));
                    let y = md_from_parts::<$T>(finite_parts(&mut rng));
                    let z = md_from_parts::<$T>(finite_parts(&mut rng));
                    // the roundoff of `x*y + x*z` scales with the summand
                    // magnitudes, which cancellation can dwarf the result by
                    let scale = (MdScalar::abs_val(x * y).to_f64()
                        + MdScalar::abs_val(x * z).to_f64())
                    .max(1.0);
                    let diff = (x * (y + z) - (x * y + x * z)).abs().to_f64();
                    assert!(
                        diff <= $ulps * <$T as MdReal>::EPS * scale,
                        "case {case}: x {x}, y {y}, z {z}"
                    );
                }
            }

            #[test]
            fn sqrt_squares_back() {
                let mut rng = StdRng::seed_from_u64($seed + 4);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng)).abs();
                    if x.to_f64() <= 1e-6 {
                        continue;
                    }
                    let r = x.sqrt();
                    assert!(close(r * r, x), "case {case}: x {x}");
                }
            }

            #[test]
            fn normalized_limbs() {
                let mut rng = StdRng::seed_from_u64($seed + 5);
                for case in 0..ARITH_CASES {
                    let x = md_from_parts::<$T>(finite_parts(&mut rng))
                        * md_from_parts::<$T>(finite_parts(&mut rng));
                    // ulp-nonoverlapping: adding a lower limb to the one
                    // above must not change it
                    for i in 0..<$T as MdReal>::LIMBS - 1 {
                        let (hi, lo) = (x.limb(i), x.limb(i + 1));
                        if lo != 0.0 {
                            assert_eq!(hi + lo, hi, "case {case}: limb {i} overlaps in {x}");
                        }
                    }
                }
            }
        }
    };
}

arithmetic_props!(dd_props, Dd, 8.0, 0xdd00);
arithmetic_props!(qd_props, Qd, 64.0, 0x4d00);
arithmetic_props!(od_props, Od, 512.0, 0x0d00);

/// The solver's residual lands at the working precision for random
/// tilings (tile geometry must never affect correctness).
#[test]
fn solver_correct_for_any_tiling() {
    let mut rng = StdRng::seed_from_u64(0x50_1e);
    for case in 0..8 {
        let tiles = 1 + (rng.random_range(0.0..4.0) as usize); // 1..=4
        let tile = 1 << (2 + (rng.random_range(0.0..2.0) as usize)); // 4 or 8
        let seed = rng.random_range(0.0..1000.0) as u64;
        let opts = LstsqOptions {
            tiles,
            tile_size: tile,
            mode: ExecMode::Sequential,
        };
        let n = opts.cols();
        let mut data_rng = StdRng::seed_from_u64(seed);
        let a = HostMat::<Dd>::random(n, n, &mut data_rng);
        let xt: Vec<Dd> = multidouble_ls::matrix::random_vector(n, &mut data_rng);
        let b = a.matvec(&xt);
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        let res = a.residual(&run.x, &b).to_f64() / vec_norm2(&b).to_f64();
        assert!(
            res < 1e-26,
            "case {case}: tiles {tiles} x {tile}, seed {seed}: residual {res:e}"
        );
    }
}

/// Kernel time and flop accounting are strictly monotone in the
/// problem size (sanity of the analytic model).
#[test]
fn model_monotone_in_dimension() {
    let f = |tiles: usize| {
        multidouble_ls::backsub::backsub_model_profile::<Qd>(
            &Gpu::v100(),
            &multidouble_ls::backsub::BacksubOptions {
                tiles,
                tile_size: 32,
            },
        )
    };
    for k in 1..6 {
        let a = f(k);
        let b = f(k + 1);
        assert!(b.all_kernels_ms() > a.all_kernels_ms(), "tiles {k}");
        assert!(b.total_flops_paper() > a.total_flops_paper(), "tiles {k}");
    }
}

// ---------------------------------------------------------------------------
// Interval-timeline and staged-engine properties (stage-level scheduling)
// ---------------------------------------------------------------------------

mod timeline_props {
    use super::*;
    use multidouble_ls::obs::{Event, Recorder};
    use multidouble_ls::pipeline::{
        power_flow_jobs, solve_batch_resilient, solve_batch_staged_with, BatchReport, DevicePool,
        DispatchPolicy, Disposition, MicrobatchConfig, RebookMode, ResilienceConfig, StageBooking,
        StageReq, StageSchedConfig, Timeline,
    };
    use multidouble_ls::sim::FaultPlan;
    use std::sync::Arc;

    /// Every lane invariant the pool promises: intervals are non-empty,
    /// sorted by start, pairwise disjoint, and the cursor sits exactly
    /// at the last interval's end.
    fn assert_lane_invariants(label: &str, tl: &Timeline) {
        let ivs = tl.intervals();
        for (i, iv) in ivs.iter().enumerate() {
            assert!(iv.1 > iv.0, "{label}: interval {i} {iv:?} has no width");
            if i > 0 {
                assert!(
                    ivs[i - 1].1 <= iv.0,
                    "{label}: intervals {:?} and {iv:?} out of order or overlapping",
                    ivs[i - 1]
                );
            }
        }
        let tail = ivs.last().map(|iv| iv.1).unwrap_or(0.0);
        assert_eq!(
            tl.cursor_ms().to_bits(),
            tail.to_bits(),
            "{label}: cursor {} is not the last interval end {}",
            tl.cursor_ms(),
            tail
        );
    }

    fn random_reqs(rng: &mut StdRng) -> Vec<StageReq> {
        let n_stages = 1 + rng.random_range(0.0..4.0) as usize;
        (0..n_stages)
            .map(|s| StageReq {
                host_ms: if s == 0 {
                    rng.random_range(0.0..3.0)
                } else {
                    0.0
                },
                device_ms: 0.5 + rng.random_range(0.0..6.0),
            })
            .collect()
    }

    /// Random booking / re-booking sequences never break a lane: the
    /// interval lists stay sorted and disjoint and the cursor tracks the
    /// tail, on both device lanes and every staging worker, after every
    /// single operation.
    #[test]
    fn timelines_stay_sorted_disjoint_with_cursor_at_tail() {
        let mut rng = StdRng::seed_from_u64(0x11_f0);
        for round in 0..6usize {
            let workers = 1 + round % 3;
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
            pool.set_staging_workers(workers);
            let mut live: Vec<StageBooking> = Vec::new();
            for op in 0..32 {
                let dev = rng.random_range(0.0..2.0) as usize;
                let reqs = random_reqs(&mut rng);
                let overlap = rng.random_range(0.0..1.0) < 0.7;
                let nb_ms = rng.random_range(0.0..25.0);
                let kernel_ms: f64 = reqs.iter().map(|r| r.device_ms).sum();
                live.push(pool.commit_stages(dev, &reqs, kernel_ms, 0.0, 1, overlap, nb_ms));
                if rng.random_range(0.0..1.0) < 0.4 {
                    let pick = rng.random_range(0.0..live.len() as f64) as usize;
                    let victim = live.swap_remove(pick);
                    let from = rng.random_range(0.0..(victim.stages.len() + 1) as f64) as usize;
                    let mode = if rng.random_range(0.0..1.0) < 0.5 {
                        RebookMode::Compact
                    } else {
                        RebookMode::TailOnly
                    };
                    pool.rebook(&victim, from, mode);
                }
                for d in pool.devices() {
                    let id = d.id;
                    assert_lane_invariants(
                        &format!("round {round} op {op}: device {id} prep lane"),
                        d.host_timeline(),
                    );
                    assert_lane_invariants(
                        &format!("round {round} op {op}: device {id} compute lane"),
                        d.device_timeline(),
                    );
                }
                for w in 0..workers {
                    assert_lane_invariants(
                        &format!("round {round} op {op}: staging worker {w}"),
                        pool.staging().worker(w),
                    );
                }
            }
        }
    }

    /// A booking that fits a mid-schedule hole lands inside it, and the
    /// bookings already on the timeline (the "executing" work) keep the
    /// exact spans they had — gap-filling never overlaps or moves them.
    #[test]
    fn gap_fill_never_overlaps_an_executing_booking() {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let stage = |device_ms: f64| StageReq {
            host_ms: 0.0,
            device_ms,
        };
        let head = pool.commit_stages(0, &[stage(10.0)], 10.0, 0.0, 1, false, 0.0);
        let tail = pool.commit_stages(0, &[stage(10.0)], 10.0, 0.0, 1, false, 20.0);
        // hole is [10, 20): a 5 ms booking must gap-fill at 10
        let filler = pool.commit_stages(0, &[stage(5.0)], 5.0, 0.0, 1, false, 0.0);
        assert_eq!(
            filler.stages[0].device.0.to_bits(),
            10f64.to_bits(),
            "filler did not gap-fill: starts at {}",
            filler.stages[0].device.0
        );
        for (name, old) in [("head", &head), ("tail", &tail)] {
            let now = pool.live_booking(old.id).expect("booking still live");
            for (so, sn) in old.stages.iter().zip(&now.stages) {
                assert_eq!(
                    so.device.0.to_bits(),
                    sn.device.0.to_bits(),
                    "{name} booking moved"
                );
                assert_eq!(
                    so.device.1.to_bits(),
                    sn.device.1.to_bits(),
                    "{name} booking resized"
                );
                // and the filler stays clear of it
                for f in &filler.stages {
                    assert!(
                        f.device.1 <= sn.device.0 || sn.device.1 <= f.device.0,
                        "filler {:?} overlaps {name} {:?}",
                        f.device,
                        sn.device
                    );
                }
            }
        }
    }

    /// Compacting re-books only ever move *unstarted* intervals, and
    /// never move any queued dispatch later: every interval that began
    /// before the refund point keeps its exact span, and every queued
    /// booking's completion is `<=` what it was before the compaction.
    #[test]
    fn compaction_never_moves_a_started_interval_or_delays_anyone() {
        let mut rng = StdRng::seed_from_u64(0xc0_4a);
        for case in 0..12 {
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
            pool.set_staging_workers(1);
            let refunder_reqs: Vec<StageReq> = (0..4)
                .map(|s| StageReq {
                    host_ms: if s == 0 { 2.0 } else { 0.0 },
                    device_ms: 4.0 + rng.random_range(0.0..4.0),
                })
                .collect();
            let kernel_ms: f64 = refunder_reqs.iter().map(|r| r.device_ms).sum();
            let refunder = pool.commit_stages(0, &refunder_reqs, kernel_ms, 0.0, 1, true, 0.0);
            let mut queued = Vec::new();
            for _ in 0..5 {
                let reqs = random_reqs(&mut rng);
                let wall_ms: f64 = reqs.iter().map(|r| r.device_ms).sum();
                let nb_ms = rng.random_range(0.0..8.0);
                queued.push(pool.commit_stages(0, &reqs, wall_ms, 0.0, 1, true, nb_ms));
            }
            // the refunder "executed" only stage 0; everything after is refunded
            let placed = pool.live_booking(refunder.id).expect("refunder live");
            let at_ms = placed.stages[0].end_ms();
            let before: Vec<StageBooking> = queued
                .iter()
                .map(|b| pool.live_booking(b.id).expect("queued booking live"))
                .collect();
            pool.rebook(&refunder, 1, RebookMode::Compact);
            for old in &before {
                let new = pool
                    .live_booking(old.id)
                    .expect("still live after compaction");
                assert!(
                    new.end_ms() <= old.end_ms(),
                    "case {case}: compaction delayed booking {}: {} -> {}",
                    old.id,
                    old.end_ms(),
                    new.end_ms()
                );
                for (i, (so, sn)) in old.stages.iter().zip(&new.stages).enumerate() {
                    if so.device.1 > so.device.0 && so.device.0 < at_ms {
                        assert_eq!(
                            so.device.0.to_bits(),
                            sn.device.0.to_bits(),
                            "case {case}: started device interval moved (booking {} stage {i})",
                            old.id
                        );
                        assert_eq!(so.device.1.to_bits(), sn.device.1.to_bits());
                    }
                    if so.host.1 > so.host.0 && so.host.0 < at_ms {
                        assert_eq!(
                            so.host.0.to_bits(),
                            sn.host.0.to_bits(),
                            "case {case}: started prep interval moved (booking {} stage {i})",
                            old.id
                        );
                        assert_eq!(so.host.1.to_bits(), sn.host.1.to_bits());
                    }
                }
            }
        }
    }

    fn assert_same_outcomes(label: &str, a: &BatchReport, b: &BatchReport) {
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (s, p) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(s.job_id, p.job_id, "{label}: settlement order diverged");
            assert_eq!(
                s.device, p.device,
                "{label}: job {} placement diverged",
                s.job_id
            );
            assert_eq!(s.x, p.x, "{label}: job {} bits diverged", s.job_id);
            assert_eq!(s.disposition, p.disposition, "{label}: job {}", s.job_id);
            assert_eq!(
                s.start_ms.to_bits(),
                p.start_ms.to_bits(),
                "{label}: job {}: start {} vs {}",
                s.job_id,
                s.start_ms,
                p.start_ms
            );
            assert_eq!(
                s.end_ms.to_bits(),
                p.end_ms.to_bits(),
                "{label}: job {}: end {} vs {}",
                s.job_id,
                s.end_ms,
                p.end_ms
            );
        }
        assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits(), "{label}");
    }

    /// The per-device-queue executor (scoped threads, one queue per
    /// device) is bit- and schedule-identical to the serial executor:
    /// same solution bits, same device placements, same simulated
    /// `start_ms`/`end_ms` on every outcome, same event stream — on a
    /// quiet pool and on one carrying a mid-batch `DeviceLost` plus
    /// transients (loss recovery and replays run under the same
    /// executor).
    #[test]
    fn staged_parallel_executor_matches_serial_bits_and_schedule() {
        let mut rng = StdRng::seed_from_u64(0x5e_91);
        let jobs = power_flow_jobs(24, &mut rng);
        let sched = StageSchedConfig::staged();
        let micro = MicrobatchConfig::default();
        let run = |faults: Option<f64>, host_parallel: bool| {
            let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
            pool.set_staging_workers(1);
            if let Some(lost_at) = faults {
                pool.set_fault_plan(0, FaultPlan::seeded(0xfa17, 1.0e4, 40.0));
                pool.set_fault_plan(1, FaultPlan::none().with_device_lost(lost_at));
            }
            let recorder = Arc::new(Recorder::new());
            pool.attach_observer(recorder.clone());
            let report = solve_batch_staged_with(
                &mut pool,
                &jobs,
                DispatchPolicy::ShortestExpectedCompletion,
                &micro,
                &sched,
                host_parallel,
            );
            (report, recorder.events())
        };
        let (serial, serial_events) = run(None, false);
        let (parallel, parallel_events) = run(None, true);
        assert_same_outcomes("quiet", &serial, &parallel);
        assert_eq!(serial_events, parallel_events, "quiet: event stream");
        assert!(serial
            .outcomes
            .iter()
            .all(|o| o.disposition == Disposition::Ok));

        // the P100 dies a third of the way in; the V100 flaps
        let lost_at = serial.makespan_ms / 3.0;
        let (serial_f, serial_events) = run(Some(lost_at), false);
        let (parallel_f, parallel_events) = run(Some(lost_at), true);
        assert_same_outcomes("faulty", &serial_f, &parallel_f);
        assert_eq!(serial_events, parallel_events, "faulty: event stream");
        let retried = serial_f
            .outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Retried)
            .count();
        assert!(retried > 0, "the fault plan touched nothing; vacuous");
        assert!(serial_events
            .iter()
            .any(|e| matches!(e, Event::DeviceLost { .. })));
        assert!(serial_events
            .iter()
            .any(|e| matches!(e, Event::RetryBooked { .. })));
        // recovery moves time, never arithmetic
        for (q, f) in serial.outcomes.iter().zip(&serial_f.outcomes) {
            assert_eq!(q.x, f.x, "job {}: recovery changed the bits", q.job_id);
        }
    }

    /// With every fault plan quiet and no deadlines the resilient entry
    /// point *is* the plain staged one: same outcomes, and the pools end
    /// with identical timelines.
    #[test]
    fn quiet_resilient_batch_is_the_staged_batch() {
        let mut rng = StdRng::seed_from_u64(0x9e_17);
        let jobs = power_flow_jobs(24, &mut rng);
        let micro = MicrobatchConfig::default();
        let policy = DispatchPolicy::ShortestExpectedCompletion;
        for sched in [StageSchedConfig::staged(), StageSchedConfig::sequential()] {
            let gpus = vec![Gpu::v100(), Gpu::p100()];
            let mut pool_s = DevicePool::new(gpus.clone());
            let staged = solve_batch_staged_with(&mut pool_s, &jobs, policy, &micro, &sched, true);
            let mut pool_r = DevicePool::new(gpus);
            let quiet = ResilienceConfig::default();
            let resilient =
                solve_batch_resilient(&mut pool_r, &jobs, policy, &micro, &sched, &quiet);
            assert_same_outcomes("quiet resilient", &staged, &resilient);
            for (s, r) in staged.outcomes.iter().zip(&resilient.outcomes) {
                assert_eq!(s.refunded_ms.to_bits(), r.refunded_ms.to_bits());
                assert_eq!(s.extended_ms.to_bits(), r.extended_ms.to_bits());
            }
            for (a, b) in pool_s.devices().iter().zip(pool_r.devices()) {
                assert_eq!(a.host_timeline().intervals(), b.host_timeline().intervals());
                assert_eq!(
                    a.device_timeline().intervals(),
                    b.device_timeline().intervals()
                );
                assert_eq!(a.busy_ms().to_bits(), b.busy_ms().to_bits());
            }
        }
    }
}
