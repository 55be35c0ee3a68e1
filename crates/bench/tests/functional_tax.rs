//! The simulator's functional-execution tax, gated.
//!
//! A simulated kernel should cost its arithmetic plus plain loads and
//! stores. The gate compares the blocked QR on the simulator with the
//! plain host Householder loop on the same `f64` matrix, on the same
//! machine, in the same process: the ratio was ≈ 80 while every element
//! access paid an atomic counter update and the product kernels walked
//! column-major operands by row, 1.3–2.6 while the WY bodies computed
//! their zero trapezoid, and 1.1–1.3 since (≈ 0.9 on a CPU with AVX2
//! and FMA, where the kernels' inner loops run their FMA instantiation
//! and the plain loop keeps baseline code). The bound is
//! generous on purpose — it catches the return of a per-element cost,
//! not a few percent of drift.
//!
//! The other gates are on the arithmetic itself: a product with an
//! all-zero operand must skip the expansion, one with an f64-widened
//! operand (the refinement residual's promoted `A`) must take the
//! by-double kernel, and on a CPU with AVX2 and FMA the double double
//! QR must run the kernels' FMA instantiation (`gpusim::shared`), which
//! keeps it within 9× of the `f64` one.
#![expect(clippy::disallowed_methods, reason = "a host-time gate")]

use std::hint::black_box;
use std::time::Instant;

use gpusim::{ExecMode, Gpu};
use mdls_matrix::HostMat;
use mdls_qr::{householder_qr_host, qr_decompose, QrOptions};
use multidouble::{Dd, MdScalar, Od};
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

/// Median wall time of the simulated blocked QR of `a`, 4 tiles of 32,
/// seconds.
fn sim_qr(a: &HostMat<impl MdScalar>) -> f64 {
    let opts = QrOptions {
        tiles: 4,
        tile_size: 32,
    };
    let gpu = Gpu::v100();
    median_of_5(|| {
        black_box(qr_decompose(
            &gpu,
            ExecMode::Sequential,
            black_box(a),
            &opts,
        ));
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn functional_tax_is_bounded() {
    let mut rng = StdRng::seed_from_u64(2022);
    let a = HostMat::<f64>::random(128, 128, &mut rng);
    let sim = sim_qr(&a);
    let host = median_of_5(|| {
        black_box(householder_qr_host(black_box(&a)));
    });
    let ratio = sim / host;
    assert!(
        ratio < 20.0,
        "simulated QR {:.3} ms vs host loop {:.3} ms: functional tax {ratio:.1}x (gate 20x)",
        sim * 1e3,
        host * 1e3
    );
}

/// An od multiply by an all-zero operand costs < 0.1× a dense one. It
/// read 0.25–0.44 while zero operands ran the full 64-term expansion and
/// renormalization, and ≈ 0.01 since they short-circuit.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn zero_operand_products_are_cheap() {
    let mut rng = StdRng::seed_from_u64(2022);
    let xs: Vec<Od> = (0..4096).map(|_| Od::rand(&mut rng)).collect();
    let dense: Vec<Od> = (0..4096).map(|_| Od::rand(&mut rng)).collect();
    let zeros = vec![Od::ZERO; xs.len()];
    let products = |ys: &[Od]| {
        median_of_5(|| {
            for (x, y) in xs.iter().zip(ys) {
                black_box(*black_box(x) * *black_box(y));
            }
        })
    };
    let (zero, dense) = (products(&zeros), products(&dense));
    let ratio = zero / dense;
    assert!(
        ratio < 0.1,
        "od multiply by zero {:.1} ns vs dense {:.1} ns: ratio {ratio:.3} (gate 0.1)",
        zero / 4096.0 * 1e9,
        dense / 4096.0 * 1e9
    );
}

/// An od multiply by an f64-widened operand costs ≤ 0.3× a dense one. It
/// read 0.57–0.75 while such products ran the dense 64-term expansion,
/// and 0.14–0.19 since the `*` operator sends them to the by-double
/// kernel.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn widened_operand_products_are_cheap() {
    let mut rng = StdRng::seed_from_u64(2022);
    let xs: Vec<Od> = (0..4096).map(|_| Od::rand(&mut rng)).collect();
    let dense: Vec<Od> = (0..4096).map(|_| Od::rand(&mut rng)).collect();
    let widened: Vec<Od> = dense.iter().map(|y| Od::from_f64(y.0[0])).collect();
    let products = |ys: &[Od]| {
        median_of_5(|| {
            for (x, y) in xs.iter().zip(ys) {
                black_box(*black_box(x) * *black_box(y));
            }
        })
    };
    let (widened, dense) = (products(&widened), products(&dense));
    let ratio = widened / dense;
    assert!(
        ratio <= 0.3,
        "od multiply by a widened double {:.1} ns vs dense {:.1} ns: ratio {ratio:.3} (gate 0.3)",
        widened / 4096.0 * 1e9,
        dense / 4096.0 * 1e9
    );
}

/// The 128² simulated QR at `Dd` costs < 9× the same at `f64`. It read
/// 11.4–14.9 while every error-free product called the run-time `fma`
/// routine, and 6.4–8.4 since the kernels' inner loops have an AVX2+FMA
/// instantiation. Without those features there is no such path to gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
#[expect(
    clippy::disallowed_macros,
    reason = "the gate times the path `gpusim::shared` picks on these features"
)]
fn dd_qr_stays_within_9x_of_f64() {
    #[cfg(target_arch = "x86_64")]
    let fma = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    if !fma {
        println!("no AVX2+FMA on this CPU: the dd QR runs baseline code, nothing to gate");
        return;
    }
    let mut rng = StdRng::seed_from_u64(2022);
    let a = HostMat::<f64>::random(128, 128, &mut rng);
    let a_dd = HostMat::<Dd>::random(128, 128, &mut rng);
    let (d, dd) = (sim_qr(&a), sim_qr(&a_dd));
    let ratio = dd / d;
    assert!(
        ratio < 9.0,
        "simulated QR at dd {:.3} ms vs f64 {:.3} ms: ratio {ratio:.1}x (gate 9x)",
        dd * 1e3,
        d * 1e3
    );
}
