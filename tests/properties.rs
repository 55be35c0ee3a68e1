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
        jobs_for_shapes, power_flow_jobs, solve_batch_resilient, solve_batch_staged_with,
        BatchReport, DevicePool, DispatchPolicy, Disposition, Job, JobShape, MicrobatchConfig,
        RebookMode, ResilienceConfig, StageBooking, StageReq, StageSchedConfig, Timeline,
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
                        RebookMode::BooksOnly
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

    /// The parallel executor (one host lane per device, lanes pulling
    /// jobs) is bit- and schedule-identical to the serial one: same
    /// solution bits, same device placements, same simulated
    /// `start_ms`/`end_ms` on every outcome, same event stream — on a
    /// quiet pool, on one carrying a mid-batch `DeviceLost` plus
    /// transients (loss recovery and replays run under the same
    /// executor), and on a round that is one fused group and nothing
    /// else (its two members are the round's two tasks, one per lane).
    #[test]
    fn staged_parallel_executor_matches_serial_bits_and_schedule() {
        let mut rng = StdRng::seed_from_u64(0x5e_91);
        let jobs = power_flow_jobs(24, &mut rng);
        let sched = StageSchedConfig::staged();
        let micro = MicrobatchConfig::default();
        let run_jobs = |jobs: &[Job], faults: Option<f64>, host_parallel: bool| {
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
                jobs,
                DispatchPolicy::ShortestExpectedCompletion,
                &micro,
                &sched,
                host_parallel,
            );
            (report, recorder.events())
        };
        let run = |faults, host_parallel| run_jobs(&jobs, faults, host_parallel);
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

        // one fused refinement pair and nothing else
        let shape = JobShape {
            rows: 48,
            cols: 32,
            target_digits: 60,
        };
        let pair = jobs_for_shapes(&[shape; 2], &mut rng);
        let (serial_p, serial_events) = run_jobs(&pair, None, false);
        let (parallel_p, parallel_events) = run_jobs(&pair, None, true);
        assert_eq!(serial_p.fused_groups, 1, "the pair did not fuse");
        assert!(serial_p.outcomes.iter().all(|o| o.fused_group == 2));
        assert_same_outcomes("fused pair", &serial_p, &parallel_p);
        assert_eq!(serial_events, parallel_events, "fused pair: event stream");
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

    fn same_span(a: (f64, f64), b: (f64, f64)) -> bool {
        a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
    }

    /// The differential test's reference model: the interval list with
    /// every query a scan from interval 0, as `Timeline` answered them
    /// before it bisected.
    #[derive(Default)]
    struct LinearTimeline(Vec<(f64, f64)>);

    impl LinearTimeline {
        fn is_free(&self, start: f64, end: f64) -> bool {
            self.0.iter().all(|iv| !(iv.0 < end && start < iv.1))
        }
        fn earliest_fit(&self, dur: f64, not_before: f64) -> f64 {
            let mut t = not_before;
            for &(s, e) in &self.0 {
                if dur <= 0.0 || e <= t {
                    continue;
                }
                if t + dur <= s {
                    return t;
                }
                t = t.max(e);
            }
            t
        }
        fn book(&mut self, start: f64, end: f64) {
            if end > start {
                let at = self.0.iter().take_while(|iv| iv.0 < start).count();
                self.0.insert(at, (start, end));
            }
        }
        fn free(&mut self, span: (f64, f64)) -> bool {
            // stored spans have width, so a zero-width one is never found
            let at = self.0.iter().position(|&iv| same_span(iv, span));
            at.map(|at| self.0.remove(at)).is_some()
        }
    }

    /// `Timeline` answers every query through a binary search; the
    /// linear scans it replaced are the specification. Seeded scripts of
    /// `book` / `free` / `earliest_fit` / `is_free` — on a
    /// quarter-millisecond grid so zero-width spans, touching endpoints
    /// and exact hits on stored starts and ends are the common case, with
    /// `not_before` before, inside and after the schedule and durations
    /// narrower and wider than the gaps — must agree bit for bit.
    #[test]
    fn binary_searched_timeline_matches_the_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0xb1_5ec7);
        let mut grid = |cells: f64| (rng.random_range(0.0..cells) as usize) as f64 * 0.25;
        for round in 0..8 {
            let mut tl = Timeline::default();
            let mut model = LinearTimeline::default();
            let horizon = 40.0 + 40.0 * round as f64;
            for op in 0..400 {
                let label = format!("round {round} op {op}");
                let t = grid(horizon * 4.0 + 40.0) - 5.0;
                let dur = grid(24.0);
                // a stored span (mid-list as often as not), when there is one
                let stored = (!model.0.is_empty())
                    .then(|| model.0[grid(model.0.len() as f64 * 4.0) as usize]);
                match grid(20.0) as usize {
                    0..=1 => {
                        // book wherever the span fits from `t` on
                        let start = model.earliest_fit(dur, t);
                        assert_eq!(tl.earliest_fit(dur, t).to_bits(), start.to_bits());
                        tl.book(start, start + dur);
                        model.book(start, start + dur);
                    }
                    2 => {
                        // book `[t, t + dur)` itself when it is free
                        assert_eq!(tl.is_free(t, t + dur), model.is_free(t, t + dur), "{label}");
                        if model.is_free(t, t + dur) {
                            tl.book(t, t + dur);
                            model.book(t, t + dur);
                        }
                    }
                    3 => {
                        // free a stored span, or one that shares only its start
                        let span = stored.map_or((t, t + dur), |iv| (iv.0, iv.1 + dur));
                        assert_eq!(tl.free(span), model.free(span), "{label}: free {span:?}");
                    }
                    4 => {
                        let span = stored.unwrap_or((t, t));
                        assert_eq!(tl.free(span), model.free(span), "{label}: free {span:?}");
                    }
                    _ => {}
                }
                assert_eq!(tl.intervals(), &model.0[..], "{label}");
                assert_lane_invariants(&label, &tl);
                // queries: at random grid points and on stored endpoints
                let (s, e) = stored.unwrap_or((t, t + dur));
                for nb in [
                    t,
                    s,
                    e,
                    s + 0.125,
                    -1.0,
                    tl.cursor_ms(),
                    tl.cursor_ms() + 1.0,
                ] {
                    for d in [dur, 0.0, 0.125, e - s, 1.0e3] {
                        assert_eq!(
                            tl.earliest_fit(d, nb).to_bits(),
                            model.earliest_fit(d, nb).to_bits(),
                            "{label}: earliest_fit({d}, {nb}) over {:?}",
                            model.0
                        );
                        assert_eq!(
                            tl.is_free(nb, nb + d),
                            model.is_free(nb, nb + d),
                            "{label}: is_free({nb}, {}) over {:?}",
                            nb + d,
                            model.0
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over 64-bit words (float bit patterns, ids, counts).
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for byte in w.to_le_bytes() {
                self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn ms(&mut self, ms: f64) {
            self.word(ms.to_bits());
        }
        fn lane(&mut self, tl: &Timeline) {
            self.word(tl.intervals().len() as u64);
            for iv in tl.intervals() {
                self.ms(iv.0);
                self.ms(iv.1);
            }
        }
        fn booking(&mut self, b: Option<&StageBooking>) {
            let Some(b) = b else {
                return self.word(u64::MAX);
            };
            self.word(b.id);
            self.word(b.device as u64);
            for s in &b.stages {
                for ms in [s.host.0, s.host.1, s.device.0, s.device.1] {
                    self.ms(ms);
                }
            }
        }
        /// Everything the pool exposes: every lane and staging worker,
        /// the current placement of every booking ever issued, and the
        /// per-device books.
        fn pool(&mut self, pool: &DevicePool, issued: u64) {
            for d in pool.devices() {
                self.lane(d.host_timeline());
                self.lane(d.device_timeline());
                self.word(d.lost_at_ms().map_or(u64::MAX, f64::to_bits));
            }
            for w in 0..pool.staging().len() {
                self.lane(pool.staging().worker(w));
            }
            for id in 0..issued {
                self.booking(pool.live_booking(id).as_ref());
            }
            for st in pool.stats() {
                self.word(st.solves);
                for v in [
                    st.busy_ms,
                    st.utilization,
                    st.kernel_gflops,
                    st.solves_per_busy_sec,
                    st.refunded_ms,
                ] {
                    self.ms(v);
                }
            }
        }
    }

    /// Digest of [`pool_script`]. Placement is a function of the
    /// interval lists alone, so a data-structure change must reproduce
    /// it exactly. Re-recorded once, when the tail-only rebook mode left
    /// the pool and the script's re-books became books-only or
    /// compacting: this value is what the *parent* of that change
    /// printed for the edited script, before any pool code moved.
    const POOL_SCRIPT_DIGEST: u64 = 0x56bc_ddfa_38a3_c539;

    /// A seeded script over the whole booking life cycle — commits
    /// (overlapped and sequential, release times before, inside and
    /// after the schedule), books-only and compacting re-books, plain
    /// settles, device losses and restores, under staging contention —
    /// folding every return value and, after every operation, the whole
    /// observable pool state. Returns the digest and
    /// `(books-only write-offs, slid dispatches, interrupted bookings)`
    /// so the caller can tell the script exercised the paths it is there
    /// for.
    fn pool_script() -> (u64, [usize; 3]) {
        let mut rng = StdRng::seed_from_u64(0xd1ff_9001);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut seen = [0usize; 3];
        for round in 0..6usize {
            let n_dev = 2 + round % 2;
            let mut pool = DevicePool::homogeneous(&Gpu::v100(), n_dev);
            pool.set_staging_workers(1 + round % 3);
            let mut open: Vec<StageBooking> = Vec::new();
            let mut issued = 0u64;
            for _ in 0..160 {
                let mut pick = |n: usize| rng.random_range(0.0..n as f64) as usize;
                let horizon = pool.makespan_ms();
                let at_ms = pick(4 * horizon as usize + 8) as f64 * 0.25;
                match pick(12) {
                    0..=5 => {
                        let dev = pick(n_dev);
                        if pool.devices()[dev].is_lost() {
                            pool.restore_device(dev, at_ms);
                        }
                        let overlap = pick(4) > 0;
                        let mut reqs = random_reqs(&mut rng);
                        if !overlap {
                            // on the quarter-ms grid, so touching ends are common
                            for r in &mut reqs {
                                r.host_ms = (r.host_ms * 2.0).floor() * 0.25;
                                r.device_ms = (r.device_ms * 4.0).ceil() * 0.25;
                            }
                        }
                        let kernel_ms: f64 = reqs.iter().map(|r| r.device_ms).sum();
                        let b = pool.commit_stages(dev, &reqs, kernel_ms, 1.0e6, 1, overlap, at_ms);
                        h.booking(Some(&b));
                        issued += 1;
                        open.push(b);
                    }
                    6..=9 if !open.is_empty() => {
                        let victim = open.swap_remove(pick(open.len()));
                        let from = pick(victim.stages.len() + 1);
                        let mode = [RebookMode::BooksOnly, RebookMode::Compact][pick(2)];
                        let r = pool.rebook(&victim, from, mode);
                        for ms in [r.freed_ms, r.refunded_ms, r.slid_ms] {
                            h.ms(ms);
                        }
                        h.word(r.slid as u64);
                        seen[0] += (mode == RebookMode::BooksOnly && r.refunded_ms > 0.0) as usize;
                        seen[1] += r.slid;
                    }
                    10 if !open.is_empty() => {
                        let done = open.swap_remove(pick(open.len()));
                        pool.mark_settled(done.id);
                    }
                    11 if pool.alive_count() > 1 => {
                        let dev = pick(n_dev);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the script drives the pool's loss path"
                        )]
                        let report = pool.fail_device(dev, at_ms);
                        h.ms(report.at_ms);
                        h.ms(report.lost_refund_ms);
                        for id in &report.interrupted {
                            h.word(*id);
                        }
                        seen[2] += report.interrupted.len();
                        open.retain(|b| !report.interrupted.contains(&b.id));
                    }
                    _ => {}
                }
                h.pool(&pool, issued);
            }
        }
        (h.0, seen)
    }

    #[test]
    fn pool_script_reproduces_the_recorded_schedule() {
        let (digest, [write_offs, slid, interrupted]) = pool_script();
        assert!(
            write_offs > 0 && slid > 0 && interrupted > 0,
            "vacuous script: {write_offs} books-only write-offs, {slid} slides, {interrupted} interrupted"
        );
        assert_eq!(
            digest, POOL_SCRIPT_DIGEST,
            "the pool placed, refunded or reported differently: got {digest:#018x}"
        );
    }
}
