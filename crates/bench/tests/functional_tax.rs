//! The simulator's functional-execution tax, gated.
//!
//! A simulated kernel should cost its arithmetic plus plain loads and
//! stores. The gate compares the blocked QR on the simulator with the
//! plain host Householder loop on the same `f64` matrix, on the same
//! machine, in the same process: the ratio was ≈ 80 while every element
//! access paid an atomic counter update and the product kernels walked
//! column-major operands by row, and reads ≈ 2 since. The bound is
//! generous on purpose — it catches the return of a per-element cost,
//! not a few percent of drift.
#![expect(clippy::disallowed_methods, reason = "a host-time gate")]

use std::time::Instant;

use gpusim::{ExecMode, Gpu};
use mdls_matrix::HostMat;
use mdls_qr::{householder_qr_host, qr_decompose, QrOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Median wall time of five runs of `f`, seconds.
fn median_of_5(mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[2]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn functional_tax_is_bounded() {
    let mut rng = StdRng::seed_from_u64(2022);
    let a = HostMat::<f64>::random(128, 128, &mut rng);
    let opts = QrOptions {
        tiles: 4,
        tile_size: 32,
    };
    let gpu = Gpu::v100();
    let sim = median_of_5(|| {
        std::hint::black_box(qr_decompose(
            &gpu,
            ExecMode::Sequential,
            std::hint::black_box(&a),
            &opts,
        ));
    });
    let host = median_of_5(|| {
        std::hint::black_box(householder_qr_host(std::hint::black_box(&a)));
    });
    let ratio = sim / host;
    assert!(
        ratio < 20.0,
        "simulated QR {:.3} ms vs host loop {:.3} ms: functional tax {ratio:.1}x (gate 20x)",
        sim * 1e3,
        host * 1e3
    );
}
