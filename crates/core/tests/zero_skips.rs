//! What the host's exact-zero skips must not change.
//!
//! Products with an f64-widened operand take the by-double kernel, and
//! the QR's WY bodies skip their zero trapezoid. Both are bit-identical
//! on finite data, and neither may hide a non-finite entry:
//!
//! * the residual of a promoted system (an `f64` matrix and right hand
//!   side widened to quad or octo double, the refinement plans' residual
//!   rung) against a dense iterate is pinned by digest. The digests were
//!   recorded before the route existed; the golden-bits digests draw only
//!   dense limbs and never reach it;
//! * a NaN or ±inf anywhere in `A` leaves every component of `x`
//!   non-finite, at f64, double double and octo double.

use gpusim::{ExecMode, Gpu, Sim};
use mdls_core::{lstsq, residual_kernel, LstsqOptions};
use mdls_matrix::{random_vector, HostMat};
use multidouble::{Dd, MdReal, MdScalar, Od, Qd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit pattern of every limb.
fn digest<S: MdScalar>(values: &[S]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for p in 0..S::PLANES {
            for byte in v.plane(p).to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `r = b − A x` on the device for a promoted `rows × cols` system: `A`
/// quantized to 2⁻²⁰ with a dominant diagonal and one entry in seven an
/// exact zero, as the workloads draw it; `b` is `A` times a small-integer
/// solution, exact in f64; `x` is a dense iterate.
fn promoted_residual<S: MdReal>(rows: usize, cols: usize, seed: u64, mode: ExecMode) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = HostMat::<f64>::random(rows, cols, &mut rng);
    let a64 = HostMat::<f64>::from_fn(rows, cols, |r, c| {
        let q = (raw.get(r, c) * (1 << 20) as f64).round() / (1 << 20) as f64;
        if (r + 3 * c) % 7 == 0 {
            0.0
        } else {
            q + if r == c { 4.0 } else { 0.0 }
        }
    });
    let x_true: Vec<f64> = (0..cols).map(|j| (j % 9) as f64 - 4.0).collect();
    let b64 = a64.matvec(&x_true);
    let x: Vec<S> = random_vector(cols, &mut rng);

    let sim = Sim::new(Gpu::v100(), mode);
    let da = sim.alloc_mat::<S>(rows, cols);
    let dx = sim.alloc_vec::<S>(cols);
    let db = sim.alloc_vec::<S>(rows);
    let dr = sim.alloc_vec::<S>(rows);
    HostMat::<S>::from_fn(rows, cols, |r, c| S::from_f64(a64.get(r, c))).upload_to(&da);
    dx.upload(&x);
    db.upload(&b64.iter().map(|&v| S::from_f64(v)).collect::<Vec<S>>());
    residual_kernel(&sim, &da, &dx, &db, &dr, 8);
    digest(&dr.download())
}

/// `(rows, cols)`: square and tall.
const SHAPES: [(usize, usize); 2] = [(24, 24), (40, 16)];

/// Both execution modes must land on the recorded digest of each shape.
fn check_promoted<S: MdReal>(golden: [u64; 2]) {
    let got: Vec<[u64; 2]> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(rows, cols))| {
            [ExecMode::Sequential, ExecMode::Parallel]
                .map(|mode| promoted_residual::<S>(rows, cols, 2022 + i as u64, mode))
        })
        .collect();
    for (i, g) in got.iter().enumerate() {
        assert!(
            g[0] == golden[i] && g[1] == golden[i],
            "{} {:?}: recorded {:#018x}\nall (seq, par): {got:#018x?}",
            S::TAG,
            SHAPES[i],
            golden[i]
        );
    }
}

#[test]
fn promoted_residual_bits_qd() {
    check_promoted::<Qd>([0xe015_07c3_18d2_5ccd, 0x923a_0b66_e129_d035]);
}

#[test]
fn promoted_residual_bits_od() {
    check_promoted::<Od>([0x4372_2d69_4dd1_afae, 0x46e6_150a_f5ba_36be]);
}

/// A NaN or ±inf in a corner, the interior or the last tile of `A`
/// leaves no finite limb in `x`.
fn non_finite_poisons_x<S: MdScalar>() {
    // (rows, tiles, tile_size): square and tall
    for (rows, tiles, tile_size) in [(16, 4, 4), (20, 3, 4)] {
        let cols = tiles * tile_size;
        let spots = [
            (0, 0),
            (rows - 1, cols - 1),
            (rows / 2, cols / 2),
            (rows - 2, cols - tile_size + 1),
        ];
        for bad in [f64::NAN, f64::INFINITY, -f64::INFINITY] {
            for (r, c) in spots {
                let mut rng = StdRng::seed_from_u64(7);
                let mut a = HostMat::<S>::random(rows, cols, &mut rng);
                let b: Vec<S> = random_vector(rows, &mut rng);
                a.set(r, c, S::from_real(<S::Real as MdReal>::from_f64(bad)));
                let opts = LstsqOptions::tiled(tiles, tile_size, ExecMode::Sequential);
                let x = lstsq(&Gpu::v100(), &a, &b, &opts).x;
                let finite = x
                    .iter()
                    .flat_map(|v| (0..S::PLANES).map(move |p| v.plane(p)))
                    .filter(|l| l.is_finite())
                    .count();
                assert_eq!(
                    finite,
                    0,
                    "{} {rows}x{cols}, A[{r}, {c}] = {bad}: {finite} finite limbs in x",
                    S::TAG
                );
            }
        }
    }
}

#[test]
fn non_finite_entries_poison_x_f64() {
    non_finite_poisons_x::<f64>();
}

#[test]
fn non_finite_entries_poison_x_dd() {
    non_finite_poisons_x::<Dd>();
}

#[test]
fn non_finite_entries_poison_x_od() {
    non_finite_poisons_x::<Od>();
}
