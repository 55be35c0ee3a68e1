//! Allocation gate on the planner and the serve loop: a warm plan is
//! shared, not copied, and a model-only job's host path — plan, place,
//! book, settle — reuses buffers instead of allocating.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on parallel threads; each reads only its own
//! count). Bounds were set from the measured counts:
//!
//! * a warm `plan_fused` hit allocates 0 times: it hands out the memo's
//!   `Arc`s. It allocated 4 times while it cloned an `ExecPlan` and a
//!   `FusedProfile` (two `Vec`s each), and 16–30 while a plan carried
//!   per-stage kernel tables;
//! * a model-only `serve` of a `service_model`-shaped mix allocates
//!   ≈ 0.28 times per job (the bound is 0.35). It allocated ≈ 1.19 times
//!   while each singleton dispatch kept its one member in a `Vec`
//!   (`GroupDispatch::jobs`, now `Members`), ≈ 20.5 times while warm
//!   plans were cloned and every stage booking, preview and round built
//!   its own `Vec`s, and ≈ 81 before that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_pipeline::{
    serve, Backpressure, BreakerConfig, DevicePool, ExecutionMode, Job, OverloadConfig, Planner,
    ServiceConfig, SloClass, TenantId, TenantSpec,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus one tick of this thread's counter per allocation.
struct Counting;

fn tick() {
    // a const-initialised `Cell<u64>` has no destructor and never
    // allocates, so this cannot recurse into the allocator; `try_with`
    // only guards thread teardown
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: `ptr` was allocated by this allocator — that is, by
        // `System` — with `layout`, and the caller guarantees
        // `new_size` is non-zero and does not overflow when rounded up
        // to `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn warm_plan_fused_hit_does_not_allocate() {
    let planner = Planner::new();
    let gpu = Gpu::v100();
    // a direct plan, and refinement plans with one and two passes
    for (digits, passes) in [(12, 0), (25, 1), (40, 2)] {
        let _ = planner.plan_fused(&gpu, 8, 8, digits, 1); // warm both memos
        let (allocs, (plan, _)) = allocs_in(|| planner.plan_fused(&gpu, 8, 8, digits, 1));
        assert_eq!(
            plan.corrections(),
            passes,
            "8x8 d{digits}: {}",
            plan.summary()
        );
        assert_eq!(
            allocs,
            0,
            "8x8 d{digits} ({}): a warm plan_fused hit allocated",
            plan.summary()
        );
    }
}

/// The `service_model` benchmark workload's job mix, tenants and
/// service configuration at `n` jobs: 8×8 systems, 25/40-digit targets,
/// four steady tenants plus a burster, overload ladder and breakers on,
/// transient faults on device 1.
fn service_model_mix(n: usize) -> (Vec<Job>, Vec<TenantSpec>, ServiceConfig, FaultPlan) {
    const PERIOD_MS: f64 = 33.6;
    const WAVE: usize = 200;
    let mut seed = 0x5eed_u64;
    let mut unit = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let jobs = (0..n)
        .map(|i| {
            let block = (i / 10) as f64;
            let (tenant, slo, digits, release) = match i % 10 {
                0 | 1 => (1, SloClass::Premium, 40, block * PERIOD_MS),
                2..=4 => (2, SloClass::Standard, 25, block * PERIOD_MS),
                5 => (3, SloClass::Standard, 40, (block + 0.5) * PERIOD_MS),
                6 => (3, SloClass::Standard, 25, block * PERIOD_MS),
                7 => (4, SloClass::BestEffort, 25, block * PERIOD_MS),
                _ => {
                    let wave = (i / (WAVE * 5)) as f64 * PERIOD_MS * (WAVE / 2) as f64;
                    (5, SloClass::BestEffort, 25, wave)
                }
            };
            let a = HostMat::<f64>::from_fn(8, 8, |r, c| {
                2.0 * unit() - 1.0 + if r == c { 4.0 } else { 0.0 }
            });
            let b = (0..8).map(|_| 2.0 * unit() - 1.0).collect();
            Job::new(i as u64, a, b, digits)
                .with_tenant(TenantId(tenant))
                .with_slo(slo)
                .with_release_ms(release)
        })
        .collect();
    let steady = |id, name, weight| {
        TenantSpec::new(TenantId(id), name)
            .with_weight(weight)
            .with_queue(512, Backpressure::Block)
    };
    let specs = vec![
        steady(1, "premium", 4),
        steady(2, "std-a", 2),
        steady(3, "std-b", 2),
        steady(4, "batch", 1),
        TenantSpec::new(TenantId(5), "burster").with_queue(WAVE / 2, Backpressure::ShedOldest),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        overload: OverloadConfig::thresholds(200.0, 1510.0),
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 100.0,
            max_faults: 3,
            backoff_ms: 250.0,
        },
        host_workers: 1,
        ..ServiceConfig::default()
    };
    let horizon = (n / 10) as f64 * PERIOD_MS * 1.5 + 100.0;
    (jobs, specs, cfg, FaultPlan::seeded(0xfa17, horizon, 400.0))
}

#[test]
fn model_only_serve_allocates_under_a_third_of_a_time_per_job() {
    const JOBS: usize = 10_000;
    let (jobs, specs, cfg, fault) = service_model_mix(JOBS);
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
    pool.set_fault_plan(1, fault);
    let (allocs, report) = allocs_in(|| serve(&mut pool, &jobs, &specs, &cfg));
    assert_eq!(report.outcomes.len(), JOBS);
    assert!(
        report.outcomes.iter().any(|o| o.disposition.completed()),
        "vacuous: nothing completed"
    );
    let per_job = allocs as f64 / JOBS as f64;
    assert!(
        per_job <= 0.35,
        "model-only serve allocated {per_job:.2} times per job ({allocs} over {JOBS} jobs)"
    );
}
