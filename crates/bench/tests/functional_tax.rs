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
//! by-double kernel, a dense product's renormalization must presort its
//! magnitude classes and skip the insertion sort on an ordered scratch,
//! on a CPU with AVX2 and FMA the double double QR must run the
//! kernels' FMA instantiation (`gpusim::shared`), which keeps it within 9×
//! of the `f64` one, and on a CPU with AVX-512 the quad and octo double
//! `axpy` and the octo double residual step (with a dense iterate and
//! with the few-limb iterates refinement produces) must form their
//! products and sums eight at a time (`gpusim::shared`'s lane path), and
//! the double double `axpy` must run its AVX-512 instantiation.
//!
//! Two gates are on work a refinement pass must not repeat: a second
//! solve through one factorization must reuse the back substitution
//! operand (R's block with its diagonal tiles inverted) its first solve
//! built, and an octo double residual norm must round to `f64` from a
//! double double root, not an octo double one.
//!
//! One gate is on work the first panel of a QR must not do: while `Q` is
//! exactly the identity, its `Q*WYᵀ` update must form one term per entry,
//! not the full `M³` product.
#![expect(clippy::disallowed_methods, reason = "a host-time gate")]

use std::hint::black_box;
use std::time::Instant;

use gpusim::shared::{axmy, axmy_without_lanes, axpy, axpy_without_lanes, lanes_available};
use gpusim::{ExecMode, Gpu, Sim};
use mdls_core::{lstsq_factor_batched, LstsqOptions};
use mdls_matrix::{vec_norm2, vec_norm2_f64, HostMat};
use mdls_qr::{householder_qr_host, qr_decompose, qr_on_sim, QrDeviceState, QrOptions};
use multidouble::expansion::{renormalize, sort_by_magnitude, truncated_product, Scratch};
use multidouble::{Dd, MdScalar, Od, Qd};
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

/// Wall time of `f` over fresh copies of `inputs`, seconds; the copies
/// are made outside the clock.
fn time_fresh<T: Clone>(inputs: &[T], f: impl FnMut(&mut T)) -> f64 {
    let mut copies = inputs.to_vec();
    let t0 = Instant::now();
    copies.iter_mut().for_each(f);
    t0.elapsed().as_secs_f64()
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

/// An od multiply by an f64-widened operand costs ≤ 0.3× a dense one,
/// the median of nine interleaved rounds, so that a slow stretch of the
/// host hits both sides of a round. It read 0.57–0.75 while such products
/// ran the dense 64-term expansion, 0.14–0.21 once the `*` operator sent
/// them to the by-double kernel, and 0.17–0.22 since the dense product's
/// presort got faster (≈ 0.09 while the other gates run beside it; timed
/// one side after the other, five runs each, it read 0.16–0.27 and, under
/// load, about one run in ten 0.30–0.35).
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
        let t0 = Instant::now();
        for (x, y) in xs.iter().zip(ys) {
            black_box(*black_box(x) * *black_box(y));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut rounds: Vec<(f64, f64)> = (0..9)
        .map(|_| (products(&widened), products(&dense)))
        .collect();
    rounds.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let (widened, dense) = rounds[4];
    let ratio = widened / dense;
    assert!(
        ratio <= 0.3,
        "od multiply by a widened double {:.1} ns vs dense {:.1} ns: ratio {ratio:.3} (gate 0.3)",
        widened / 4096.0 * 1e9,
        dense / 4096.0 * 1e9
    );
}

/// The presort `renormalize` ran before its networks were straight-line
/// code, kept as the gate's yardstick: each class padded to 2, 4, 8 or
/// 16 lanes and sorted by walking a comparator table, on the key
/// `x.to_bits().rotate_left(1)`, then the insertion sort over the whole
/// scratch. `classes` are the class lengths.
fn table_presort_and_sort(x: &mut [f64], classes: &[usize]) {
    const NET2: [(u8, u8); 1] = [(0, 1)];
    const NET4: [(u8, u8); 5] = [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)];
    #[rustfmt::skip]
    const NET8: [(u8, u8); 19] = [
        (0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7),
        (0, 1), (2, 3), (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6),
        (1, 2), (3, 4), (5, 6),
    ];
    #[rustfmt::skip]
    const NET16: [(u8, u8); 60] = [
        (0, 13), (1, 12), (2, 15), (3, 14), (4, 8), (5, 6), (7, 11), (9, 10),
        (0, 5), (1, 7), (2, 9), (3, 4), (6, 13), (8, 14), (10, 15), (11, 12),
        (0, 1), (2, 3), (4, 5), (6, 8), (7, 9), (10, 11), (12, 13), (14, 15),
        (0, 2), (1, 3), (4, 10), (5, 11), (6, 7), (8, 9), (12, 14), (13, 15),
        (1, 2), (3, 12), (4, 6), (5, 7), (8, 10), (9, 11), (13, 14),
        (1, 4), (2, 6), (5, 8), (7, 10), (9, 13), (11, 14),
        (2, 4), (3, 6), (9, 12), (11, 13), (3, 5), (6, 8), (7, 9), (10, 12),
        (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (6, 7), (8, 9),
    ];
    fn walk<const L: usize>(x: &mut [f64], net: &[(u8, u8)]) {
        let mut k = [0u64; L];
        for (ki, xi) in k.iter_mut().zip(x.iter()) {
            *ki = xi.to_bits().rotate_left(1);
        }
        for &(hi, lo) in net {
            let (a, b) = (k[hi as usize], k[lo as usize]);
            k[hi as usize] = a.max(b);
            k[lo as usize] = a.min(b);
        }
        let mut ordered = k[0] >> 1 <= 0x7ff0_0000_0000_0000;
        for w in k.windows(2) {
            ordered &= (w[0] == w[1]) | (w[0] >> 1 != w[1] >> 1);
        }
        if ordered {
            for (xi, ki) in x.iter_mut().zip(k) {
                *xi = f64::from_bits(ki.rotate_right(1));
            }
        }
    }
    let mut start = 0;
    for &len in classes {
        let class = &mut x[start..start + len];
        match len {
            2 => walk::<2>(class, &NET2),
            3 | 4 => walk::<4>(class, &NET4),
            5..=8 => walk::<8>(class, &NET8),
            9..=16 => walk::<16>(class, &NET16),
            _ => {}
        }
        start += len;
    }
    sort_by_magnitude(x);
}

/// The scratch `od_mul` renormalizes: 64 terms, classes of at most 15.
type OdScratch = Scratch<f64, 64, 15>;

/// Ordering a dense od product's 64 terms costs < 0.8× what it did with
/// comparator tables. The ordering cost is `renormalize` on the scratch
/// `od_mul` fills (`truncated_product`, its push order and classes), less
/// `renormalize` on the same terms already in order (no classes: nothing
/// to order, only the sums); the yardstick is `table_presort_and_sort` on
/// the same terms. Both are ordering code, which another process on the
/// core slows alike; the ratio is the median of 64 interleaved rounds of
/// 512 products, short enough that most rounds see no preemption. It read 0.84–0.98 while
/// `renormalize` ran the yardstick's code, and reads 0.54–0.77 since its
/// presort is straight-line code at each class's exact size and an
/// ordered scratch skips the insertion sort (both ranges with the other
/// gates, a benchmark run or both sharing the host's two cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn presorting_a_dense_product_is_cheap() {
    const CLASSES: [usize; 8] = [1, 3, 5, 7, 9, 11, 13, 15];
    let mut rng = StdRng::seed_from_u64(2022);
    let classed: Vec<OdScratch> = (0..4096)
        .map(|_| truncated_product(&Od::rand(&mut rng).0, &Od::rand(&mut rng).0))
        .collect();
    let terms: Vec<Vec<f64>> = classed.iter().map(|s| s.terms().to_vec()).collect();
    let ordered: Vec<OdScratch> = terms
        .iter()
        .map(|t| {
            let mut t = t.clone();
            sort_by_magnitude(&mut t);
            let mut o = Scratch::new();
            t.iter().for_each(|&x| o.push(x));
            o
        })
        .collect();
    let renormalized = |s: &mut OdScratch| {
        let mut out = [0.0; 8];
        renormalize(black_box(s), &mut out);
        black_box(out);
    };
    let yardstick = |t: &mut Vec<f64>| table_presort_and_sort(black_box(t), &CLASSES);
    let mut rounds: Vec<[f64; 3]> = (0..64)
        .map(|r| {
            let chunk = r % 8 * 512..(r % 8 + 1) * 512;
            [
                time_fresh(&classed[chunk.clone()], renormalized),
                time_fresh(&ordered[chunk.clone()], renormalized),
                time_fresh(&terms[chunk], yardstick),
            ]
        })
        .collect();
    let ratio = |r: &[f64; 3]| (r[0] - r[1]) / r[2];
    rounds.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let median = rounds[32];
    let ns = |t: f64| t / 512.0 * 1e9;
    assert!(
        ratio(&median) < 0.8,
        "ordering a dense od product {:.1} ns ({:.1} - {:.1}) vs {:.1} ns with comparator tables: ratio {:.3} (gate 0.8)",
        ns(median[0] - median[1]),
        ns(median[0]),
        ns(median[1]),
        ns(median[2]),
        ratio(&median)
    );
}

/// The 128² simulated QR at `Dd` costs < 9× the same at `f64`. It read
/// 11.4–14.9 while every error-free product called the run-time `fma`
/// routine, 6.4–8.4 once the kernels' inner loops had an AVX2+FMA
/// instantiation, and 3.5–4.7 (ten reads) since the `axpy`/`axmy` of 16
/// elements and more run an AVX-512 one on a CPU with AVX-512. Without
/// AVX2 and FMA there is no such path to gate.
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
    println!(
        "simulated QR at dd {:.3} ms vs f64 {:.3} ms: ratio {ratio:.2}",
        dd * 1e3,
        d * 1e3
    );
    assert!(
        ratio < 9.0,
        "simulated QR at dd {:.3} ms vs f64 {:.3} ms: ratio {ratio:.1}x (gate 9x)",
        dd * 1e3,
        d * 1e3
    );
}

/// `axpy` (`sub` false) or `axmy` against the same loop without the
/// AVX-512 paths (`axpy_without_lanes`, `axmy_without_lanes`: the AVX2+FMA
/// instantiation on such a CPU) on 64-long slices: the median of nine
/// interleaved rounds of 200 calls of each, every call on a fresh copy of
/// `acc`, as `(ratio, ns/element with, ns/element without)`.
fn lane_ratio<S: MdScalar>(name: &str, sub: bool, x: &[S], acc: &[S], a: S) -> (f64, f64, f64) {
    type Step<S> = fn(&mut [S], &[S], S);
    let (with, without): (Step<S>, Step<S>) = if sub {
        (axmy, axmy_without_lanes)
    } else {
        (axpy, axpy_without_lanes)
    };
    let time = |f: Step<S>| {
        let mut y = acc.to_vec();
        let t0 = Instant::now();
        for _ in 0..200 {
            y.copy_from_slice(acc);
            f(black_box(&mut y), black_box(x), black_box(a));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut rounds: Vec<(f64, f64)> = (0..9).map(|_| (time(with), time(without))).collect();
    rounds.sort_by(|p, q| (p.0 / p.1).total_cmp(&(q.0 / q.1)));
    let (lane, scalar) = rounds[4];
    let ns = |t: f64| t / (200.0 * x.len() as f64) * 1e9;
    println!(
        "{name}: {:.1} ns/element on the lane path, {:.1} without, ratio {:.3}",
        ns(lane),
        ns(scalar),
        lane / scalar
    );
    (lane / scalar, ns(lane), ns(scalar))
}

/// A 64-long dense `Od` `axpy` on the lane path costs ≤ 0.4× the same
/// call without it (`axpy_without_lanes`: the AVX2+FMA instantiation on
/// such a CPU), the median of nine interleaved rounds of 200 calls: the
/// lane path forms the products and their sums eight per AVX-512
/// instruction. It reads 0.20–0.28 (AVX-512 Xeon, two cores; 0.36–0.45
/// while the sums were scalar, when the bound was 0.6). Without AVX-512
/// there is no lane path to gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn od_axpy_forms_its_products_in_lanes() {
    if !lanes_available() {
        println!("no AVX-512 on this CPU: the od axpy has no lane path, nothing to gate");
        return;
    }
    let mut rng = StdRng::seed_from_u64(2022);
    let x: Vec<Od> = (0..64).map(|_| Od::rand(&mut rng)).collect();
    let acc: Vec<Od> = (0..64).map(|_| Od::rand(&mut rng)).collect();
    let (ratio, ..) = lane_ratio("od axpy", false, &x, &acc, Od::rand(&mut rng));
    assert!(ratio <= 0.4, "od axpy: ratio {ratio:.3} (gate 0.4)");
}

/// A 64-long dense `Qd` `axpy` on the lane path costs ≤ 0.4× the same
/// call without it, as the od gate above. It reads 0.24–0.31 (≈ 0.32
/// while the sums were scalar). Without AVX-512 there is no lane path to
/// gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn qd_axpy_runs_in_lanes() {
    if !lanes_available() {
        println!("no AVX-512 on this CPU: the qd axpy has no lane path, nothing to gate");
        return;
    }
    let mut rng = StdRng::seed_from_u64(2022);
    let x: Vec<Qd> = (0..64).map(|_| Qd::rand(&mut rng)).collect();
    let acc: Vec<Qd> = (0..64).map(|_| Qd::rand(&mut rng)).collect();
    let (ratio, ..) = lane_ratio("qd axpy", false, &x, &acc, Qd::rand(&mut rng));
    assert!(ratio <= 0.4, "qd axpy: ratio {ratio:.3} (gate 0.4)");
}

/// The refinement residual's step in octo double, `axmy` of an
/// f64-widened column (a promoted column of `A`) by the iterate's
/// component `a`, costs ≤ 0.5× `axmy_without_lanes` in two shapes: a
/// dense `a` into a dense accumulator, and the shape the workloads
/// produce, an `a` of two nonzero limbs (their iterates converge to the
/// integers of an integral solution) into a widened accumulator (`b`
/// promoted). Both form their by-double products and sums in lanes. Ten
/// reads (AVX-512 Xeon, two cores): dense 0.355–0.363 (≈ 1.05 while
/// widened chunks ran without lanes), sparse 0.336–0.449 (≈ 1.0 while a
/// call whose `a` was not dense ran without lanes), both ≈ 86 ns per
/// element on the lane path. Without AVX-512 there is no lane path to
/// gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn residual_step_runs_in_lanes() {
    if !lanes_available() {
        println!("no AVX-512 on this CPU: the od axmy has no lane path, nothing to gate");
        return;
    }
    let mut rng = StdRng::seed_from_u64(2022);
    let mut widened =
        || -> Vec<Od> { (0..64).map(|_| Od::from_f64(f64::rand(&mut rng))).collect() };
    let (x, b) = (widened(), widened());
    let acc: Vec<Od> = (0..64).map(|_| Od::rand(&mut rng)).collect();
    let (dense, ..) = lane_ratio(
        "od residual step, dense",
        true,
        &x,
        &acc,
        Od::rand(&mut rng),
    );
    let iterate = Od::from_f64(3.0) + Od::from_f64(f64::rand(&mut rng) * 2f64.powi(-60));
    assert_eq!(iterate.0[2..], [0.0; 6]);
    let (sparse, ..) = lane_ratio("od residual step, 2-limb iterate", true, &x, &b, iterate);
    assert!(
        dense <= 0.5 && sparse <= 0.5,
        "od residual step: ratio {dense:.3} dense, {sparse:.3} sparse (gate 0.5)"
    );
}

/// A 64-long `Dd` `axpy`, the double double factor's inner loop, costs
/// ≤ 0.85× the same call without the AVX-512 paths: from 16 elements up
/// it runs the AVX-512 instantiation of its body, which vectorizes eight
/// wide, against AVX2's four. Ten reads: 0.519–0.750 (1.0–1.8 ns per
/// element against 2.0–2.4). Without AVX-512 there is no such
/// instantiation to gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn dd_axpy_runs_eight_wide() {
    if !lanes_available() {
        println!(
            "no AVX-512 on this CPU: the dd axpy has no AVX-512 instantiation, nothing to gate"
        );
        return;
    }
    let mut rng = StdRng::seed_from_u64(2022);
    let x: Vec<Dd> = (0..64).map(|_| Dd::rand(&mut rng)).collect();
    let acc: Vec<Dd> = (0..64).map(|_| Dd::rand(&mut rng)).collect();
    let (ratio, ..) = lane_ratio("dd axpy", false, &x, &acc, Dd::rand(&mut rng));
    assert!(ratio <= 0.85, "dd axpy: ratio {ratio:.3} (gate 0.85)");
}

/// The median of `rounds` interleaved `(a, b)` reads, by their ratio.
fn median_ratio(rounds: usize, mut read: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let mut reads: Vec<(f64, f64)> = (0..rounds).map(|_| read()).collect();
    reads.sort_by(|p, q| (p.0 / p.1).total_cmp(&(q.0 / q.1)));
    reads[rounds / 2]
}

/// A second dd solve through one 24-column factorization (one tile of
/// 24) costs ≤ 0.25× its first: the first solve copies R's block and
/// inverts its diagonal tile, and the factorization keeps that operand,
/// so later solves only price those two launches. The median of 15
/// rounds, each timing the first and then the second solve of 16 fresh
/// factorizations. Reads (AVX-512 Xeon, two cores): 0.143–0.158 alone,
/// 0.144–0.148 beside the other gates; first solves 49–62 µs, second
/// 7.1–9.8 µs, since the inversion solves only the stored triangle of
/// each tile inverse. While it walked every row, the ratio read
/// 0.064–0.077 (first solves 92–138 µs); while every solve re-ran the
/// inversion, 0.99–1.00.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn later_solves_reuse_the_inverted_tiles() {
    let mut rng = StdRng::seed_from_u64(2022);
    let opts = LstsqOptions::tiled(1, 24, ExecMode::Sequential);
    let gpu = Gpu::v100();
    let a = HostMat::<Dd>::random(28, 24, &mut rng);
    let b: Vec<Dd> = mdls_matrix::random_vector(28, &mut rng);
    let (first, second) = median_ratio(15, || {
        let facts: Vec<_> = (0..16)
            .map(|_| lstsq_factor_batched(&gpu, &[&a], &opts))
            .collect();
        let time = || {
            let t0 = Instant::now();
            for f in &facts {
                black_box(f.instances()[0].solve(black_box(&b)));
            }
            t0.elapsed().as_secs_f64() / 16.0
        };
        (time(), time())
    });
    let ratio = second / first;
    println!(
        "dd 24-column solves: first {:.1} µs, second {:.1} µs, ratio {ratio:.3}",
        first * 1e6,
        second * 1e6
    );
    assert!(
        ratio <= 0.25,
        "second / first dd solve: ratio {ratio:.3} (gate 0.25)"
    );
}

/// The `f64` norm of a 28-long octo double residual, `vec_norm2_f64`,
/// costs ≤ 0.6× `vec_norm2(..).to_f64()`, whose octo double square root
/// (four Newton steps) is most of the norm. The residual is
/// refinement-shaped: entries of one nonzero limb near `1e-40` (a
/// corrector's residual against its double double iterate is exact in
/// one limb, so its squares take the by-double product). The median of
/// 15 interleaved rounds of 64 norms each. Reads (AVX-512 Xeon, two
/// cores): 0.372–0.387 alone, 4.5–7.0 µs against 11.9–19.0 µs; 0.12–0.45
/// beside the other gates.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn certified_od_norm_skips_the_wide_root() {
    let mut rng = StdRng::seed_from_u64(2022);
    let r: Vec<Od> = (0..28)
        .map(|_| Od::from_f64(f64::rand(&mut rng) * 1e-40))
        .collect();
    assert_eq!(
        vec_norm2_f64(&r).to_bits(),
        vec_norm2(&r).to_f64().to_bits()
    );
    let time = |f: &dyn Fn(&[Od]) -> f64| {
        let t0 = Instant::now();
        for _ in 0..64 {
            black_box(f(black_box(&r)));
        }
        t0.elapsed().as_secs_f64() / 64.0
    };
    let (certified, wide) = median_ratio(15, || {
        (
            time(&|x| vec_norm2_f64(x)),
            time(&|x| vec_norm2(x).to_f64()),
        )
    });
    let ratio = certified / wide;
    println!(
        "od 28-vector norm: certified {:.2} µs, wide root {:.2} µs, ratio {ratio:.3}",
        certified * 1e6,
        wide * 1e6
    );
    assert!(
        ratio <= 0.6,
        "certified / wide od norm: ratio {ratio:.3} (gate 0.6)"
    );
}

/// A one-panel 96×96 dd `qr_on_sim` from `Q = I` costs ≤ 0.95× the same
/// factorization from a `Q` one low limb away from the identity: the
/// first runs the identity body of the `Q*WYᵀ` launch (one term per
/// entry), the second the full `M³` product, as every panel did before
/// the identity body. The median of 15 interleaved rounds; the setup
/// (allocation, upload, `Q`) is outside the clock. Reads (AVX-512 Xeon,
/// two cores): 0.836–0.860 alone, 0.853–0.895 beside the other gates; a
/// build whose identity check always failed read 1.000. The product is
/// only ≈ 15 % of a one-panel factorization, whose column-by-column
/// Householder stage dominates.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: run with `cargo test --release`"
)]
fn first_panel_skips_the_identity_product() {
    let mut rng = StdRng::seed_from_u64(2022);
    let a = HostMat::<Dd>::random(96, 96, &mut rng);
    let opts = QrOptions {
        tiles: 1,
        tile_size: 96,
    };
    let gpu = Gpu::v100();
    let time = |q_off_by_a_limb: bool| {
        let sim = Sim::new(gpu.clone(), ExecMode::Sequential);
        let st = QrDeviceState::<Dd>::alloc(&sim, a.rows, &opts);
        a.upload_to(&st.r);
        st.init_q_identity();
        if q_off_by_a_limb {
            st.q.set(48, 48, Dd::from_parts(1.0, 2f64.powi(-60)));
        }
        let t0 = Instant::now();
        qr_on_sim(&sim, &st, black_box(&opts));
        t0.elapsed().as_secs_f64()
    };
    let (identity, full) = median_ratio(15, || (time(false), time(true)));
    let ratio = identity / full;
    println!(
        "dd 96x96 one-panel QR: Q = I {:.2} ms, Q off by a limb {:.2} ms, ratio {ratio:.3}",
        identity * 1e3,
        full * 1e3
    );
    assert!(
        ratio <= 0.95,
        "Q = I / Q off by a limb: ratio {ratio:.3} (gate 0.95)"
    );
}
