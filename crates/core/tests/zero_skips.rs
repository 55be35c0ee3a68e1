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
//!   non-finite, at f64, double double and octo double;
//! * the residual of each pass of a refinement on an integral system,
//!   whose iterates carry a few nonzero limbs and a zero tail (on AVX-512
//!   the lane path's sparse case), equals the same column sweep without
//!   the lane path, bit for bit.

use gpusim::shared::axmy_without_lanes;
use gpusim::{ExecMode, Gpu, Sim};
use mdls_core::{lstsq, lstsq_factor_batched, residual_kernel, LstsqOptions};
use mdls_matrix::{random_vector, HostMat};
use multidouble::{convert_real, Dd, MdReal, MdScalar, Od, Qd};
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

/// A promoted `rows × cols` system as the workloads draw it: `A`
/// quantized to 2⁻²⁰ with a dominant diagonal and one entry in seven an
/// exact zero; `b` is `A` times a small-integer solution, exact in f64.
fn integral_system(rows: usize, cols: usize, rng: &mut StdRng) -> (HostMat<f64>, Vec<f64>) {
    let raw = HostMat::<f64>::random(rows, cols, rng);
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
    (a64, b64)
}

/// `r = b − A x` on the device for a promoted `rows × cols` system
/// ([`integral_system`]) and a dense iterate `x`.
fn promoted_residual<S: MdReal>(rows: usize, cols: usize, seed: u64, mode: ExecMode) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (a64, b64) = integral_system(rows, cols, &mut rng);
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

/// A refinement as the plans run it (`batch::refine_job`) on a promoted
/// integral system: factor at double double, then at rung `H` compute the
/// residual with `residual_kernel`, demote it, solve, and add the
/// correction, for four passes. Each pass's residual must equal, bit for
/// bit, the same sweep (`acc -= A[:, j] * x_j` for `j` in order, from `b`)
/// through `axmy_without_lanes`. The iterates converge to the integers,
/// so from the first correction on their components carry only a few
/// nonzero limbs, the rest ±0; the test checks that it saw such iterates.
fn refinement_residuals_match_the_path_without_lanes<H: MdReal>() {
    let (rows, cols, tiles, tile_size) = (40, 32, 4, 8);
    let mut rng = StdRng::seed_from_u64(42);
    let (a64, b64) = integral_system(rows, cols, &mut rng);
    let a_h = HostMat::<H>::from_fn(rows, cols, |r, c| H::from_f64(a64.get(r, c)));
    let b_h: Vec<H> = b64.iter().map(|&v| H::from_f64(v)).collect();
    let a_dd = HostMat::<Dd>::from_fn(rows, cols, |r, c| Dd::from_f64(a64.get(r, c)));
    let opts = LstsqOptions::tiled(tiles, tile_size, ExecMode::Sequential);
    let factored = lstsq_factor_batched(&Gpu::v100(), &[&a_dd], &opts);
    let fact = &factored.instances()[0];
    let b_dd: Vec<Dd> = b64.iter().map(|&v| Dd::from_f64(v)).collect();
    let mut x: Vec<H> = fact.solve(&b_dd).0.into_iter().map(convert_real).collect();

    let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
    let (da, db) = (sim.alloc_mat::<H>(rows, cols), sim.alloc_vec::<H>(rows));
    let (dx, dr) = (sim.alloc_vec::<H>(cols), sim.alloc_vec::<H>(rows));
    a_h.upload_to(&da);
    db.upload(&b_h);
    let mut sparse = 0;
    for pass in 0..4 {
        sparse += x
            .iter()
            .filter(|v| (0..H::LIMBS).any(|p| v.limb(p) == 0.0))
            .count();
        dx.upload(&x);
        residual_kernel(&sim, &da, &dx, &db, &dr, tile_size);
        let got = dr.download();
        let mut want = b_h.clone();
        let mut col = vec![H::zero(); rows];
        for (j, xj) in x.iter().enumerate() {
            for (r, v) in col.iter_mut().enumerate() {
                *v = a_h.get(r, j);
            }
            axmy_without_lanes(&mut want, &col, *xj);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (0..H::LIMBS).all(|p| g.limb(p).to_bits() == w.limb(p).to_bits()),
                "{} pass {pass}, row {i}: {g:?} against {w:?}",
                H::TAG
            );
        }
        let r_dd: Vec<Dd> = got.into_iter().map(convert_real).collect();
        for (xi, di) in x.iter_mut().zip(fact.solve(&r_dd).0) {
            *xi += convert_real::<Dd, H>(di);
        }
    }
    assert!(
        sparse >= cols,
        "{}: only {sparse} iterate components with a zero limb",
        H::TAG
    );
}

#[test]
fn refinement_residuals_match_the_path_without_lanes_qd() {
    refinement_residuals_match_the_path_without_lanes::<Qd>();
}

#[test]
fn refinement_residuals_match_the_path_without_lanes_od() {
    refinement_residuals_match_the_path_without_lanes::<Od>();
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
