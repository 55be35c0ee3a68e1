//! Padé approximants for the holomorphic embedding load flow method —
//! the paper's second motivating application (§1.1, references [27], [28]).
//!
//! The holomorphic embedding method expands the steady state of a power
//! system as a power series in the embedding parameter and evaluates it
//! through Padé approximants. The Padé denominator coefficients solve a
//! Toeplitz linear system that becomes violently ill conditioned as the
//! approximation order grows — "multiprecision arithmetic adds
//! significant value" [22].
//!
//! This example builds the `[m/m]` Padé approximant of a series with a
//! known closed form (`f(z) = log(1+z)/z`, poles on the negative real
//! axis like a load flow voltage series), solving the Toeplitz system
//! with the simulated-GPU least squares solver in each precision, and
//! evaluates the approximant against the exact function.
//!
//! ```sh
//! cargo run --release --example power_flow
//! ```

use multidouble_ls::matrix::HostMat;
use multidouble_ls::md::{Dd, MdReal, MdScalar, Od, Qd};
use multidouble_ls::pipeline::{solve_batch, DevicePool, Job};
use multidouble_ls::sim::{ExecMode, Gpu};
use multidouble_ls::solver::{lstsq, LstsqOptions};

const M: usize = 20; // [20/20] Padé: the Toeplitz system is savagely ill conditioned

/// Series coefficients of log(1+z)/z: c_k = (-1)^k / (k+1).
fn series_coeff<S: MdScalar>(k: usize) -> S {
    let c = S::one().unscale(<S::Real as MdReal>::from_f64((k + 1) as f64));
    if k % 2 == 1 {
        -c
    } else {
        c
    }
}

/// Solve the Padé denominator system and return (denominator b, numerator a).
fn pade<S: MdScalar>() -> (Vec<S>, Vec<S>) {
    // Toeplitz system: sum_{j=1..m} c_{m-j+i} b_j = -c_{m+i}, i = 1..m
    let t = HostMat::<S>::from_fn(M, M, |i, j| series_coeff::<S>(M - (j + 1) + (i + 1)));
    let rhs: Vec<S> = (0..M).map(|i| -series_coeff::<S>(M + i + 1)).collect();
    let opts = LstsqOptions {
        tiles: 4,
        tile_size: M / 4,
        mode: ExecMode::Parallel,
    };
    let run = lstsq(&Gpu::v100(), &t, &rhs, &opts);
    let b = run.x; // b_1 .. b_m
                   // numerator by convolution: a_i = c_i + sum_{j=1..min(i,m)} b_j c_{i-j}
    let mut a = vec![S::zero(); M + 1];
    for (i, ai) in a.iter_mut().enumerate() {
        let mut acc = series_coeff::<S>(i);
        for j in 1..=i.min(M) {
            acc += b[j - 1] * series_coeff::<S>(i - j);
        }
        *ai = acc;
    }
    (b, a)
}

/// Evaluate the [m/m] approximant at a real point (in precision `S`).
fn eval_pade<S: MdScalar>(b: &[S], a: &[S], z: f64) -> S {
    let zs = S::from_f64(z);
    let mut num = S::zero();
    for ai in a.iter().rev() {
        num = num * zs + *ai;
    }
    let mut den = S::zero();
    for bj in b.iter().rev() {
        den = den * zs + *bj;
    }
    den = den * zs + S::one();
    num / den
}

fn exact(z: f64) -> f64 {
    (1.0 + z).ln() / z
}

fn main() {
    println!("[{M}/{M}] Pade approximant of log(1+z)/z via the GPU least squares solver\n");
    let zs = [0.5, 1.0, 2.0, 4.0, 8.0];

    let (b1, a1) = pade::<f64>();
    let (b2, a2) = pade::<Dd>();
    let (b4, a4) = pade::<Qd>();
    let (b8, a8) = pade::<Od>();

    println!(
        "{:<6} {:>13} {:>13} {:>13} {:>13}",
        "z", "1d error", "2d error", "4d error", "8d error"
    );
    println!("{}", "-".repeat(62));
    for z in zs {
        let want = exact(z);
        let e1 = (eval_pade(&b1, &a1, z) - want).abs();
        let e2 = (eval_pade(&b2, &a2, z).to_f64() - want).abs();
        let e4 = (eval_pade(&b4, &a4, z).to_f64() - want).abs();
        let e8 = (eval_pade(&b8, &a8, z).to_f64() - want).abs();
        println!("{z:<6} {e1:>13.3e} {e2:>13.3e} {e4:>13.3e} {e8:>13.3e}");
    }
    println!("\nthe Pade Toeplitz system is ill conditioned: the approximant built");
    println!("in hardware doubles degrades visibly away from the expansion point,");
    println!("while the multiple double builds stay at the truncation error of the");
    println!("[{M}/{M}] approximant — the holomorphic embedding use case of the paper.");

    service_view();
}

/// The same Toeplitz systems submitted to the solve service as `f64`
/// jobs: the planner picks each one's rungs, and the outcome reports
/// the digits the measured residual certifies. A system too ill
/// conditioned for its plan completes `degraded`, not `ok`.
fn service_view() {
    let jobs: Vec<Job> = [(8, 25), (12, 25), (16, 50), (20, 75), (20, 123)]
        .into_iter()
        .enumerate()
        .map(|(id, (m, digits))| {
            let a =
                HostMat::<f64>::from_fn(m, m, |i, j| series_coeff::<f64>(m - (j + 1) + (i + 1)));
            let b: Vec<f64> = (0..m).map(|i| -series_coeff::<f64>(m + i + 1)).collect();
            Job::new(id as u64, a, b, digits)
        })
        .collect();
    let mut pool = DevicePool::new(vec![Gpu::v100()]);
    let report = solve_batch(&mut pool, &jobs);
    println!("\nthe same systems as service jobs (f64 data, planner-chosen rungs):");
    println!(
        "{:<8} {:>7} {:>9} {:<24} {:>9}",
        "order", "target", "achieved", "plan", "outcome"
    );
    for (job, o) in jobs.iter().zip(&report.outcomes) {
        let order = format!("[{m}/{m}]", m = job.cols());
        println!(
            "{order:<8} {:>7} {:>9.1} {:<24} {:>9}",
            job.target_digits,
            o.achieved_digits,
            o.plan.summary(),
            o.disposition.tag(),
        );
    }
    println!("(solve_batch books no extra refinement passes; a stalled refinement");
    println!("stops at its plan's pass count and says so instead of reading ok)");
}
