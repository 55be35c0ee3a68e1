//! Block-local arithmetic: the inner loops of kernel bodies, over `[S]`
//! slices staged in the simulator's shared memory.
//!
//! Kernel bodies load columns with [`crate::DeviceMat::load_col`] and
//! run these unit-stride loops on them. Each helper *is* the order of
//! operations an output element sees — one `+=`/`-=` per call, in call
//! order — so a kernel written as a sequence of calls over `t` gives
//! every element the same `t`-ordered sum an element-at-a-time loop
//! would, bit for bit.
//!
//! The helpers are outlined (`inline(never)`): a call is paid per
//! column, not per element, and the multiple double arithmetic they
//! inline is not duplicated into every kernel body. Each scalar type
//! gets instantiations of one body: the baseline x86-64 (or other
//! target) code, and on x86-64 a copy compiled with AVX2 and FMA enabled,
//! picked per call when the CPU has both. On the baseline,
//! `f64::mul_add` — every error-free product's second half — is a call
//! into the run-time `fma` routine; with the features it is one
//! `vfmadd` and the double double loops vectorize. The two copies
//! cannot differ in a bit: Rust never contracts `a * b + c` into an fma,
//! floating-point operations are never reassociated, and an IEEE fma is
//! correctly rounded whichever instruction computes it. The scalar quad
//! and octo double products and renormalization are outlined, so they
//! keep their baseline code on both paths.
//!
//! On a CPU with AVX-512F/DQ/VL and FMA the loops take the AVX-512
//! paths. Real [`multidouble::Qd`] and [`multidouble::Od`] run in lanes,
//! as every GPU thread of the paper's CAMPARY kernels runs one
//! straight-line operation on its own element: the loops go in chunks of
//! eight, one lane per element. `axpy`/`axmy` with a finite `a` form a
//! chunk's products in [`multidouble::expansion::truncated_mul_lanes`]
//! when both `a` and the chunk's `x` are dense (every limb nonzero), or in
//! [`multidouble::expansion::mul_by_double_lanes`] when every `x` is an
//! f64 widened (the refinement residual's promoted columns) or zero,
//! whatever the limbs of `a` (the residual's iterate, whose components
//! converge to the integers of an integral solution and carry a few
//! nonzero limbs), and add them into the accumulators in
//! [`multidouble::expansion::add_lanes`]. Each element still sees one
//! `+=`/`-=`, of the same product, as on the other paths. `dot_conj` forms
//! dense chunks' products in lanes too, but its running sum stays scalar
//! and in index order (each step needs the last). A lane a kernel hands
//! back (a non-finite term, an unordered class, a tie, …) is recomputed
//! with the scalar operator, so every product and sum is the operator's
//! to the bit. Other chunks and the tail run the bodies above. Every other
//! scalar (`f64`, `Dd`, complex) runs a third instantiation of the
//! `axpy`/`axmy` bodies, compiled with the lane path's features, from 16
//! elements up (the double double loops vectorize eight wide; below 16
//! the AVX2 one is faster); `dot_conj` keeps the AVX2 one. A CPU without
//! AVX-512 runs the bodies above. The operation tallies that price the
//! simulated clock count the scalar functions, so no `sim_*` number
//! depends on the path.

use multidouble::MdScalar;

/// `acc[i] += x[i] * a` — one column-axpy step of a product kernel.
#[inline(never)]
pub fn axpy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes::update::<S, false>(acc, x, a) {
        return;
    }
    axpy_without_lanes(acc, x, a);
}

/// `acc[i] -= x[i] * a` — the downdating counterpart of [`axpy`].
#[inline(never)]
pub fn axmy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axmy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes::update::<S, true>(acc, x, a) {
        return;
    }
    axmy_without_lanes(acc, x, a);
}

/// `Σ_i conj(a[i]) * b[i]`, accumulated from zero in index order.
#[inline(never)]
pub fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot_conj length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(dot) = lanes::dot_conj(a, b) {
        return dot;
    }
    dot_conj_without_lanes(S::zero(), a, b)
}

/// [`axpy`] without the lane path: what a CPU without AVX-512 runs (the
/// AVX2+FMA instantiation where the CPU has both, baseline code
/// otherwise). Bit-identical to [`axpy`]; it exists to time the lane path
/// against, and the lane path runs it on the chunks it does not take.
#[inline(never)]
pub fn axpy_without_lanes<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::axpy(acc, x, a) };
    }
    axpy_body(acc, x, a);
}

/// [`axmy`] without the lane path, as [`axpy_without_lanes`].
#[inline(never)]
pub fn axmy_without_lanes<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axmy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::axmy(acc, x, a) };
    }
    axmy_body(acc, x, a);
}

/// [`dot_conj`] without the lane path, continuing the running sum `acc`.
#[inline(never)]
fn dot_conj_without_lanes<S: MdScalar>(acc: S, a: &[S], b: &[S]) -> S {
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::dot_conj_onto(acc, a, b) };
    }
    dot_conj_onto(acc, a, b)
}

/// `true` if this CPU runs the lane path of [`axpy`], [`axmy`] and
/// [`dot_conj`] on real quad and octo doubles, and the AVX-512
/// instantiation of `axpy`/`axmy` on other scalars (AVX-512F/DQ/VL and
/// FMA).
pub fn lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return lanes::available();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[inline(always)]
fn axpy_body<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    for (y, x) in acc.iter_mut().zip(x) {
        *y += *x * a;
    }
}

#[inline(always)]
fn axmy_body<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    for (y, x) in acc.iter_mut().zip(x) {
        *y -= *x * a;
    }
}

/// The [`dot_conj`] body, continuing the running sum `acc`.
#[inline(always)]
fn dot_conj_onto<S: MdScalar>(mut acc: S, a: &[S], b: &[S]) -> S {
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// The loops on real quad and octo doubles again, eight products and sums
/// per AVX-512 instruction (`multidouble::expansion`'s lane kernels), and
/// the `axpy`/`axmy` bodies compiled with the same features for every
/// other scalar, taken when the CPU has AVX-512F/DQ/VL and FMA.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use core::any::TypeId;
    use multidouble::expansion::{add_lanes, mul_by_double_lanes, truncated_mul_lanes, LANES};
    use multidouble::{MdScalar, Od, Qd};

    /// `true` if this CPU runs the lane kernel (std caches the probe).
    #[expect(
        clippy::disallowed_macros,
        reason = "the one owner of CPU feature dispatch for kernel arithmetic"
    )]
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl")
            && std::is_x86_feature_detected!("fma")
    }

    /// The limb count of `S` when the lane path takes it on this CPU: 4 for
    /// [`Qd`], 8 for [`Od`], 0 for every other scalar or CPU.
    #[inline(always)]
    pub(super) fn width<S: MdScalar>() -> usize {
        let limbs = if TypeId::of::<S>() == TypeId::of::<Qd>() {
            4
        } else if TypeId::of::<S>() == TypeId::of::<Od>() {
            8
        } else {
            return 0;
        };
        if available() {
            limbs
        } else {
            0
        }
    }

    /// `true` if [`super::axpy`]/[`super::axmy`] on `len` elements of a
    /// scalar the lane kernels do not take run the AVX-512 instantiation
    /// of their body: from [`WIDE_FROM`] elements up, on a CPU with the
    /// lane path's features.
    #[inline(always)]
    pub(super) fn wide(len: usize) -> bool {
        len >= WIDE_FROM && available()
    }

    /// The fewest elements for which `axpy`/`axmy` take the AVX-512
    /// instantiation of their body. Below it the AVX2 one is faster: the
    /// double double loop runs 8 wide, and a shorter call spends most of
    /// its time in the remainder. A `Dd` `axpy` reads 2.9–4.3 ns per
    /// element at lengths 8–15 against AVX2's 2.4–3.8, and 1.0–1.5
    /// against 1.9–2.3 at 16–224 (best of nine runs, AVX-512 Xeon).
    pub(super) const WIDE_FROM: usize = 16;

    /// [`super::axpy`] (`SUB` false) or [`super::axmy`] (`SUB` true) on the
    /// lane path, or for another scalar in the AVX-512 instantiation of the
    /// body ([`wide`]); `false`, touching nothing, where neither runs.
    #[inline(always)]
    pub(super) fn update<S: MdScalar, const SUB: bool>(acc: &mut [S], x: &[S], a: S) -> bool {
        match width::<S>() {
            // Safety: `width` saw AVX-512F/DQ/VL and FMA on this CPU.
            4 => unsafe { update_chunks::<S, 4, 16, 7>(acc, x, a, SUB) },
            // Safety: as above.
            8 => unsafe { update_chunks::<S, 8, 64, 15>(acc, x, a, SUB) },
            // Safety: `wide` saw AVX-512F/DQ/VL and FMA on this CPU.
            _ if wide(acc.len()) => unsafe {
                if SUB {
                    axmy_wide(acc, x, a)
                } else {
                    axpy_wide(acc, x, a)
                }
            },
            _ => return false,
        }
        true
    }

    /// [`super::axpy`]'s body compiled with the lane path's features.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    fn axpy_wide<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
        super::axpy_body(acc, x, a);
    }

    /// [`super::axmy`]'s body compiled with the lane path's features.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    fn axmy_wide<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
        super::axmy_body(acc, x, a);
    }

    /// [`super::dot_conj`] on the lane path; `None` where `S` or the CPU
    /// does not take it.
    #[inline(always)]
    pub(super) fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> Option<S> {
        match width::<S>() {
            // Safety: `width` saw AVX-512F/DQ/VL and FMA on this CPU.
            4 => Some(unsafe { dot_chunks::<S, 4, 16>(a, b) }),
            // Safety: as above.
            8 => Some(unsafe { dot_chunks::<S, 8, 64>(a, b) }),
            _ => None,
        }
    }

    /// Eight scalars limb-major (`[p][l]` is limb `p` of `x[l]`).
    type Planes<const N: usize> = [[f64; LANES]; N];

    /// The limbs of eight scalars, limb-major.
    #[inline(always)]
    fn planes<S: MdScalar, const N: usize>(x: &[S]) -> Planes<N> {
        core::array::from_fn(|p| core::array::from_fn(|l| x[l].plane(p)))
    }

    /// Scalar `l` of eight held limb-major.
    #[inline(always)]
    fn lane<S: MdScalar, const N: usize>(v: &Planes<N>, l: usize) -> S {
        S::from_plane_fn(|p| v[p][l])
    }

    /// The limbs of eight scalars, limb-major; `None` unless every limb is
    /// nonzero and finite (dense).
    #[inline(always)]
    fn dense<S: MdScalar, const N: usize>(x: &[S]) -> Option<Planes<N>> {
        let soa = planes::<S, N>(x);
        soa.iter()
            .flatten()
            .all(|v| *v != 0.0 && v.is_finite())
            .then_some(soa)
    }

    /// The leading limbs of eight scalars when each passes the `*`
    /// operator's one-limb test on its lower limbs (all `== 0.0`): an f64
    /// widened, or zero.
    #[inline(always)]
    fn widened<S: MdScalar, const N: usize>(x: &[S]) -> Option<[f64; LANES]> {
        x.iter()
            .all(|s| (1..N).all(|p| s.plane(p) == 0.0))
            .then(|| core::array::from_fn(|l| x[l].plane(0)))
    }

    /// `out`'s lanes outside `took` recomputed as `x[l] * y[l]` with the
    /// scalar `*`, so that every lane of `out` is the operator's product.
    #[inline(always)]
    fn mend<S: MdScalar, const N: usize>(took: u8, x: &[S], y: &[S], out: &mut Planes<N>) {
        for l in (0..LANES).filter(|l| took >> l & 1 == 0) {
            let p = handed_back(x[l], y[l]);
            for (q, limbs) in out.iter_mut().enumerate() {
                limbs[l] = p.plane(q);
            }
        }
    }

    /// The scalar `*` for a lane the kernel handed back, out of line: it
    /// is rare on dense operands.
    #[cold]
    #[inline(never)]
    fn handed_back<S: MdScalar>(x: S, y: S) -> S {
        x * y
    }

    /// The scalar `y + p` or `y - p` for a sum the kernel handed back.
    #[cold]
    #[inline(never)]
    fn sum_handed_back<S: MdScalar>(y: S, p: S, sub: bool) -> S {
        if sub {
            y - p
        } else {
            y + p
        }
    }

    /// `acc[i] += x[i] * a` (or `-=`) in chunks of eight, for a finite `a`:
    /// where `a` is dense, a chunk whose `x` is dense forms its products in
    /// [`truncated_mul_lanes`]; for any finite `a` (an iterate of a few
    /// nonzero limbs, zero), a chunk whose `x` is f64-widened or zero (the
    /// residual's promoted columns) forms them in [`mul_by_double_lanes`];
    /// and either adds them into its accumulators in [`add_lanes`]. Lanes a
    /// kernel hands back run the scalar operator. Every other chunk, the
    /// tail and a call whose `a` is not finite run the path without lanes.
    /// Each element sees the one `+=`/`-=` it sees there, of the same
    /// product, to the bit.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    fn update_chunks<S: MdScalar, const N: usize, const CAP: usize, const CAP_F: usize>(
        acc: &mut [S],
        x: &[S],
        a: S,
        sub: bool,
    ) {
        let body = if sub {
            super::axmy_without_lanes::<S>
        } else {
            super::axpy_without_lanes::<S>
        };
        let a8 = [a; LANES];
        let av = planes::<S, N>(&a8);
        if !av.iter().all(|v| v[0].is_finite()) {
            return body(acc, x, a);
        }
        let a_dense = av.iter().all(|v| v[0] != 0.0);
        let (mut ys, mut xs) = (acc.chunks_exact_mut(LANES), x.chunks_exact(LANES));
        for (y, x) in (&mut ys).zip(&mut xs) {
            let mut prod = [[0.0; LANES]; N];
            let dense_x = if a_dense { dense::<S, N>(x) } else { None };
            let took = if let Some(xv) = dense_x {
                // Safety: this function's features are the kernel's.
                unsafe { truncated_mul_lanes::<N, CAP>(&xv, &av, &mut prod) }
            } else if let Some(d) = widened::<S, N>(x) {
                // Safety: as above.
                unsafe { mul_by_double_lanes::<N, CAP_F>(&av, &d, &mut prod) }
            } else {
                body(y, x, a);
                continue;
            };
            mend(took, x, &a8, &mut prod);
            let mut sum = [[0.0; LANES]; N];
            // Safety: this function's features are the kernel's.
            let summed = unsafe { add_lanes::<N>(&planes(y), &prod, sub, &mut sum) };
            for (l, y) in y.iter_mut().enumerate() {
                *y = if summed >> l & 1 == 1 {
                    lane(&sum, l)
                } else {
                    sum_handed_back(*y, lane(&prod, l), sub)
                };
            }
        }
        body(ys.into_remainder(), xs.remainder(), a);
    }

    /// `Σ_i conj(a[i]) * b[i]` in chunks of eight: a chunk dense in both
    /// operands forms its products in the lane kernel; the running sum adds
    /// every product in index order, as the scalar body does.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    fn dot_chunks<S: MdScalar, const N: usize, const CAP: usize>(a: &[S], b: &[S]) -> S {
        let mut acc = S::zero();
        let (mut xs, mut ys) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        for (x, y) in (&mut xs).zip(&mut ys) {
            match (dense::<S, N>(x), dense::<S, N>(y)) {
                (Some(xv), Some(yv)) => {
                    let mut prod = [[0.0; LANES]; N];
                    // Safety: this function's features are the kernel's.
                    let took = unsafe { truncated_mul_lanes::<N, CAP>(&xv, &yv, &mut prod) };
                    mend(took, x, y, &mut prod);
                    for l in 0..LANES {
                        acc += lane(&prod, l);
                    }
                }
                _ => acc = super::dot_conj_without_lanes(acc, x, y),
            }
        }
        super::dot_conj_without_lanes(acc, xs.remainder(), ys.remainder())
    }
}

/// The bodies again, compiled with AVX2 and FMA enabled.
#[cfg(target_arch = "x86_64")]
mod fma {
    use multidouble::MdScalar;

    /// `true` if this CPU runs the instantiations below (std caches the
    /// probe, so a call is a load and a test).
    #[expect(
        clippy::disallowed_macros,
        reason = "the one owner of CPU feature dispatch for kernel arithmetic"
    )]
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn axpy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
        super::axpy_body(acc, x, a);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn axmy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
        super::axmy_body(acc, x, a);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn dot_conj_onto<S: MdScalar>(acc: S, a: &[S], b: &[S]) -> S {
        super::dot_conj_onto(acc, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, MdReal, Od, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn axpy_and_axmy_are_inverse_steps_on_exact_data() {
        let x = [Dd::from_f64(1.0), Dd::from_f64(-2.0), Dd::from_f64(0.5)];
        let mut acc = [Dd::from_f64(10.0); 3];
        axpy(&mut acc, &x, Dd::from_f64(4.0));
        assert_eq!(
            acc,
            [Dd::from_f64(14.0), Dd::from_f64(2.0), Dd::from_f64(12.0)]
        );
        axmy(&mut acc, &x, Dd::from_f64(4.0));
        assert_eq!(acc, [Dd::from_f64(10.0); 3]);
    }

    #[test]
    fn dot_conjugates_its_left_operand() {
        let i = Complex::new(Dd::ZERO, Dd::ONE);
        // conj(i) * i = 1
        assert_eq!(
            dot_conj(&[i, i], &[i, i]),
            Complex::from_real(Dd::from_f64(2.0))
        );
    }

    /// Bit-equal plane by plane; a NaN plane only needs a NaN opposite.
    fn same<S: MdScalar>(u: S, v: S) -> bool {
        (0..S::PLANES).all(|p| {
            let (x, y) = (u.plane(p), v.plane(p));
            if x.is_nan() || y.is_nan() {
                x.is_nan() && y.is_nan()
            } else {
                x.to_bits() == y.to_bits()
            }
        })
    }

    /// `x` with its limb `from` and later scaled by `2^60`: still dense,
    /// but its product's magnitude classes cross (a later class out-ranks
    /// the one before), so the lane kernel hands the lane back.
    fn crossed<S: MdScalar>(x: S, from: usize) -> S {
        S::from_plane_fn(|p| {
            let v = x.plane(p);
            if p % <S::Real as MdReal>::LIMBS >= from {
                v * 2f64.powi(60)
            } else {
                v
            }
        })
    }

    /// `x` with limb 1 negated: `x * y` for `y` = `x` has two terms of equal
    /// `|x|` and opposite sign in class 1, another lane kernel hand-back.
    fn tied<S: MdScalar>(x: S) -> S {
        S::from_plane_fn(|p| if p == 1 { -x.plane(p) } else { x.plane(p) })
    }

    /// The instantiation [`axpy`] and [`axmy`] run on `len` elements of
    /// `S`, by the predicates they dispatch on.
    fn instantiation<S: MdScalar>(len: usize) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        {
            if lanes::width::<S>() != 0 {
                return "AVX-512 lanes";
            }
            if lanes::wide(len) {
                return "AVX-512";
            }
            if fma::available() {
                return "AVX2+FMA";
            }
        }
        let _ = len;
        "baseline"
    }

    /// The dispatched helpers (and `axpy_without_lanes`, the path of a CPU
    /// without AVX-512) against the baseline bodies on seeded slices of
    /// every length in `LENS` (on real `Qd`/`Od` with AVX-512, the lane
    /// path: no chunk, one chunk with and without a tail, eight chunks;
    /// on other scalars, the AVX2+FMA instantiation below 16 elements and
    /// the AVX-512 one from 16 up, which the failure message and the
    /// printed table name), for a dense, each planted and each few-limb
    /// `a` (1 to `LIMBS - 1` nonzero limbs, then `-0`: an iterate), in
    /// seven plantings:
    /// * dense: every chunk goes to the lane kernels;
    /// * ±0, subnormals, ±inf and NaN at every third element: those
    ///   chunks run the scalar body;
    /// * a tie with `a` or crossing classes at every fifth element: dense
    ///   chunks whose planted lanes the product kernel hands back;
    /// * a zero-started accumulator (`HostMat::matvec`'s): every sum adds a
    ///   product to an all-`+0` operand;
    /// * f64-widened `x` (the residual's promoted columns of `A`), with
    ///   exact products (`x` of 0, 1 or 0.5) planted at every seventh
    ///   element: chunks for the by-double kernel;
    /// * widened `x` into a widened accumulator (the residual's first
    ///   column, whose accumulator is `b` promoted);
    /// * a chunk of zero `x` (a zero trapezoid of `Y`) and widened `x`
    ///   after it, into an accumulator zero-started in that chunk and at
    ///   odd elements after it: sums of a `+0` product, some onto `+0`.
    fn dispatched_matches_baseline<S: MdScalar>(seed: u64) {
        const LENS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 24, 64];
        let mut rng = StdRng::seed_from_u64(seed);
        let planted: Vec<S> = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]
        .into_iter()
        .map(S::from_f64)
        .chain([S::rand(&mut rng).scale(MdReal::from_f64(1e-300))])
        .collect();
        for n in LENS {
            let path = instantiation::<S>(n);
            println!("{} n={n}: {path}", S::TAG);
            for plant in 0..7 {
                let dense = S::rand(&mut rng);
                let mut x: Vec<S> = (0..n).map(|_| S::rand(&mut rng)).collect();
                let mut acc: Vec<S> = (0..n).map(|_| S::rand(&mut rng)).collect();
                let mut widened = || S::from_f64(f64::rand(&mut rng));
                let exact = [0.0, 1.0, 0.5].map(S::from_f64);
                match plant {
                    3 => acc.fill(S::zero()),
                    4 | 5 => {
                        x = (0..n).map(|_| widened()).collect();
                        for i in (0..n).step_by(7) {
                            x[i] = exact[i / 7 % exact.len()];
                        }
                        if plant == 5 {
                            acc = (0..n).map(|_| widened()).collect();
                        }
                    }
                    6 => {
                        x = (0..n)
                            .map(|i| if i < 8 { S::zero() } else { widened() })
                            .collect();
                        for i in (0..n).filter(|&i| i < 8 || i % 2 == 1) {
                            acc[i] = S::zero();
                        }
                    }
                    1 => {
                        for i in (0..n).step_by(3) {
                            x[i] = planted[(i / 3) % planted.len()];
                            acc[i] = planted[(i / 3 + 2) % planted.len()];
                        }
                    }
                    2 => {
                        for i in (0..n).step_by(5) {
                            x[i] = match i / 5 % 3 {
                                0 => tied(dense),
                                1 => crossed(x[i], 2),
                                _ => crossed(x[i], 1),
                            };
                        }
                    }
                    _ => {}
                }
                // `a` dense, planted, or an iterate of 1..LIMBS nonzero
                // limbs and a `-0` tail
                let limbs = <S::Real as MdReal>::LIMBS;
                let iterates = (1..limbs).map(|k| {
                    S::from_plane_fn(|p| if p % limbs < k { dense.plane(p) } else { -0.0 })
                });
                let scalars = [dense].into_iter().chain(planted.clone()).chain(iterates);
                for a in scalars {
                    let (mut got, mut want) = (acc.clone(), acc.clone());
                    let mut unlaned = acc.clone();
                    axpy(&mut got, &x, a);
                    axpy_without_lanes(&mut unlaned, &x, a);
                    axpy_body(&mut want, &x, a);
                    assert!(
                        got.iter().zip(&want).all(|(&u, &v)| same(u, v))
                            && unlaned.iter().zip(&want).all(|(&u, &v)| same(u, v)),
                        "axpy {} n={n} ({path}) plant={plant}",
                        S::TAG
                    );
                    axmy(&mut got, &x, a);
                    axmy_body(&mut want, &x, a);
                    assert!(
                        got.iter().zip(&want).all(|(&u, &v)| same(u, v)),
                        "axmy {} n={n} ({path}) plant={plant}",
                        S::TAG
                    );
                }
                assert!(
                    same(dot_conj(&x, &acc), dot_conj_onto(S::zero(), &x, &acc)),
                    "dot_conj {} n={n} plant={plant}",
                    S::TAG
                );
            }
        }
    }

    #[test]
    fn both_instantiations_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let two_paths = fma::available();
        #[cfg(not(target_arch = "x86_64"))]
        let two_paths = false;
        if !two_paths {
            println!("no AVX2+FMA instantiation on this CPU: compared baseline with baseline");
        }
        if !lanes_available() {
            println!("no AVX-512 on this CPU: Qd/Od compared without the lane path");
        }
        dispatched_matches_baseline::<f64>(1);
        dispatched_matches_baseline::<Dd>(2);
        dispatched_matches_baseline::<Qd>(3);
        dispatched_matches_baseline::<Od>(4);
        dispatched_matches_baseline::<Complex<Dd>>(5);
        dispatched_matches_baseline::<Complex<Od>>(6);
    }

    /// The lane kernel against `qd_mul`/`od_mul` by `to_bits`: 4 096 seeded
    /// chunks of eight dense products per width, one lane of each planted
    /// at every chunk position in turn with ±0 and subnormal limbs, ±inf
    /// and NaN, a one-limb operand, a tie of equal `|x|` and opposite sign
    /// or crossing classes. Every lane the kernel takes must carry the
    /// scalar product's bits; every planted lane but the subnormal one
    /// (whose product may be dense and in order) must be handed back; and
    /// the kernel must take nearly every unplanted lane.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_kernel_matches_the_scalar_products_bit_for_bit() {
        use multidouble::expansion::{truncated_mul_lanes, LANES};
        use multidouble::od::od_mul;
        use multidouble::qd::qd_mul;

        fn check<T: MdReal, const N: usize, const CAP: usize>(
            seed: u64,
            scalar: fn([f64; N], [f64; N]) -> [f64; N],
        ) {
            const KINDS: usize = 9;
            let limbs = |x: T| -> [f64; N] { core::array::from_fn(|p| x.limb(p)) };
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut clean, mut taken) = (0, 0);
            for trial in 0..4096 {
                let mut x: [[f64; N]; LANES] = core::array::from_fn(|_| limbs(T::rand(&mut rng)));
                let mut y: [[f64; N]; LANES] = core::array::from_fn(|_| limbs(T::rand(&mut rng)));
                let (at, kind) = (trial % LANES, trial / LANES % KINDS);
                let limb = trial / (LANES * KINDS) % N;
                let (xa, ya) = (&mut x[at], &mut y[at]);
                match kind {
                    0 => xa[limb] = 0.0,
                    1 => ya[limb] = -0.0,
                    2 => xa[limb] = f64::MIN_POSITIVE / 8.0,
                    3 => ya[limb] = f64::INFINITY,
                    4 => xa[limb] = -f64::INFINITY,
                    5 => ya[limb] = f64::NAN,
                    6 => xa[1..].fill(0.0),
                    7 => {
                        *ya = *xa;
                        ya[1] = -ya[1];
                    }
                    _ => xa[2.min(N - 1)..]
                        .iter_mut()
                        .for_each(|v| *v *= 2f64.powi(60)),
                }
                let soa = |v: &[[f64; N]; LANES]| -> [[f64; LANES]; N] {
                    core::array::from_fn(|p| core::array::from_fn(|l| v[l][p]))
                };
                let mut out = [[0.0; LANES]; N];
                // Safety: `lanes_available` saw the kernel's features.
                let took = unsafe { truncated_mul_lanes::<N, CAP>(&soa(&x), &soa(&y), &mut out) };
                for l in 0..LANES {
                    if l != at {
                        clean += 1;
                    }
                    if took >> l & 1 == 0 {
                        continue;
                    }
                    taken += usize::from(l != at);
                    assert!(
                        l != at || kind == 2,
                        "{N} limbs, trial {trial}: kind {kind} planted in lane {l} was taken"
                    );
                    let got: [f64; N] = core::array::from_fn(|p| out[p][l]);
                    assert_eq!(
                        got.map(f64::to_bits),
                        scalar(x[l], y[l]).map(f64::to_bits),
                        "{N} limbs, trial {trial}, lane {l}: {:?} * {:?}",
                        x[l],
                        y[l]
                    );
                }
            }
            assert!(
                taken * 100 >= clean * 99,
                "{N} limbs: {taken} of {clean} clean lanes taken"
            );
        }
        if !lanes_available() {
            println!("no AVX-512 on this CPU: no lane kernel to check");
            return;
        }
        check::<Qd, 4, 16>(7, qd_mul);
        check::<Od, 8, 64>(8, od_mul);
    }

    /// The lane sums and by-double products against their scalar
    /// operators by `to_bits`, one table row per operator: `od_add`,
    /// `od_sub`, `qd_add`, `qd_sub` ([`multidouble::expansion::add_lanes`])
    /// and `od_mul_f`, `qd_mul_f` (`mul_by_double_lanes`, whose double is
    /// limb 0 of `b`). 4 096 seeded chunks of eight per row, one lane of
    /// each planted at every chunk position in turn (`Plant`). Every lane a
    /// kernel takes must carry the scalar operator's bits; every lane
    /// planted with a kind the row lists must be handed back; the kernel
    /// must take nearly every unplanted lane; and each kind a row may take
    /// (say, an iterate of a few nonzero limbs and a `-0` tail, or two zero
    /// operands, which `renormalize` maps to `+0` limbs) must be taken at
    /// least once. A `Sparse` lane must be taken exactly where the row
    /// replays its zero pattern: every pattern at quad double (each one a
    /// branch of `qd_renorm5`), the patterns whose zeros trail at octo
    /// double, every pattern in a product by a double.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_sums_and_by_double_products_match_the_scalar_ops_bit_for_bit() {
        use multidouble::expansion::{add_lanes, mul_by_double_lanes, LANES};
        use multidouble::od::{od_add, od_mul_f, od_sub};
        use multidouble::qd::{qd_add, qd_mul_f, qd_sub};

        /// What lane `at` of a chunk gets in place of a seeded pair.
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Plant {
            /// `a`'s limb `limb % (N - 1)` is `+0`: an interior zero.
            Zero,
            /// `b`'s limb `limb % (N - 1)` is `-0`: an interior zero.
            NegZero,
            /// `a` keeps its first `limb` limbs, the rest `-0`: an iterate
            /// of `limb` nonzero limbs (none for `limb` 0).
            Prefix,
            /// `a` keeps its first `1 + limb % 2` limbs, the rest `+0` (a
            /// widened or 2-limb accumulator), and `b` its first `limb`,
            /// the rest `-0`.
            BothPrefix,
            /// `a`'s limb `limb` is subnormal.
            Subnormal,
            /// `b` is all `+0`.
            ZeroOperand,
            /// `a` is all `-0`.
            NegZeroOperand,
            /// `a` and `b` both all `+0`.
            BothZero,
            /// `a` and what `b` is added as both all `-0`: their sum's
            /// terms come out of the merge as `-0`, its limbs `+0`.
            BothNegZero,
            /// `a`'s limb `limb` is `+inf`.
            Inf,
            /// `a`'s limb `limb` is `+inf` and `b` is all `+0`.
            InfTimesZero,
            /// `b`'s limb `limb` is `-inf`.
            NegInf,
            /// `a`'s limb `limb` is NaN.
            Nan,
            /// `b`'s limb `limb` added as `-a`'s: equal `|x|`, opposite
            /// sign.
            Tie,
            /// `b`'s limb `limb` added as `a`'s: equal bits, no tie.
            Twin,
            /// `a`'s limbs `limb` and `limb + 1` swapped (wrapping).
            Unsorted,
            /// `b` added as `-a`.
            Cancel,
            /// `b`'s limb 0 in `[0.75, 0.875)` and `a`'s limb `i` (1 to
            /// `N - 1`) such that `a_i * b` rounds to minus the error of
            /// `a_{i-1} * b`: two terms of equal `|x|` and opposite sign in
            /// class `i` of the by-double product (a trial where no such
            /// `a_i` is found is skipped).
            ClassTie,
            /// `a`'s limbs after 0 kept where bit `p` of an odd pattern is
            /// set, `+0` elsewhere; in a sum `b` is all `+0`.
            Sparse,
        }
        use Plant::*;
        const KINDS: [Plant; 19] = [
            Zero,
            NegZero,
            Prefix,
            BothPrefix,
            Subnormal,
            ZeroOperand,
            NegZeroOperand,
            BothZero,
            BothNegZero,
            Inf,
            InfTimesZero,
            NegInf,
            Nan,
            Tie,
            Twin,
            Unsorted,
            Cancel,
            ClassTie,
            Sparse,
        ];

        struct Row<const N: usize> {
            name: &'static str,
            /// `Some(sub)`: `add_lanes`; `None`: `mul_by_double_lanes` by
            /// `b`'s limb 0.
            sum: Option<bool>,
            scalar: fn([f64; N], [f64; N]) -> [f64; N],
            /// Kinds the kernel must hand back.
            back: &'static [Plant],
            /// Kinds the kernel must take at least once.
            taken: &'static [Plant],
        }

        fn check<T: MdReal, const N: usize, const CAP_F: usize>(seed: u64, row: &Row<N>) {
            let limbs = |x: T| -> [f64; N] { core::array::from_fn(|p| x.limb(p)) };
            // what `b` is added as: `-b` in a difference
            let sign = if row.sum == Some(true) { -1.0 } else { 1.0 };
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut clean, mut took_clean) = (0, 0);
            let mut took_kind = [0usize; KINDS.len()];
            let mut sparse_seen = [0usize; 1 << 8];
            let mut ties = 0;
            for trial in 0..4096 {
                let mut a: [[f64; N]; LANES] = core::array::from_fn(|_| limbs(T::rand(&mut rng)));
                let mut b: [[f64; N]; LANES] = core::array::from_fn(|_| limbs(T::rand(&mut rng)));
                if row.sum.is_none() {
                    for b in b.iter_mut() {
                        b[1..].fill(0.0);
                    }
                }
                let (at, k) = (trial % LANES, trial / LANES % KINDS.len());
                let kind = KINDS[k];
                let limb = trial / (LANES * KINDS.len()) % N;
                // limb 0 and, across the trials that plant it, every
                // pattern of the others
                let pattern = (trial / (LANES * KINDS.len()) * LANES + at) % (1 << (N - 1)) * 2 + 1;
                let (x, y) = (&mut a[at], &mut b[at]);
                match kind {
                    Zero => x[limb % (N - 1)] = 0.0,
                    NegZero => y[limb % (N - 1)] = -0.0,
                    Prefix => x[limb..].fill(-0.0),
                    BothPrefix => {
                        x[1 + limb % 2..].fill(0.0);
                        y[limb..].fill(-0.0);
                    }
                    Subnormal => x[limb] = f64::MIN_POSITIVE / 8.0,
                    ZeroOperand => y.fill(0.0),
                    NegZeroOperand => x.fill(-0.0),
                    BothZero => {
                        x.fill(0.0);
                        y.fill(0.0);
                    }
                    BothNegZero => {
                        x.fill(-0.0);
                        y.fill(-sign * 0.0);
                    }
                    Inf => x[limb] = f64::INFINITY,
                    InfTimesZero => {
                        x[limb] = f64::INFINITY;
                        y.fill(0.0);
                    }
                    NegInf => y[limb] = f64::NEG_INFINITY,
                    Nan => x[limb] = f64::NAN,
                    Tie => y[limb] = -sign * x[limb],
                    Twin => y[limb] = sign * x[limb],
                    Unsorted => x.swap(limb, (limb + 1) % N),
                    Cancel => *y = x.map(|v| -sign * v),
                    ClassTie => {
                        let (i, d) = (1 + limb % (N - 1), 0.75 + y[0].abs() / 8.0);
                        y[0] = d;
                        let target = -x[i - 1].mul_add(d, -(x[i - 1] * d));
                        // the doubles around `target / d`, for one whose
                        // product rounds to `target`
                        let mut v = (target / d).next_down().next_down();
                        let hit = (0..5).find_map(|_| {
                            let hit = (target != 0.0 && v * d == target).then_some(v);
                            v = v.next_up();
                            hit
                        });
                        match hit {
                            Some(v) => x[i] = v,
                            None => continue,
                        }
                        ties += 1;
                    }
                    Sparse => {
                        for (p, v) in x.iter_mut().enumerate() {
                            if pattern >> p & 1 == 0 {
                                *v = 0.0;
                            }
                        }
                        if row.sum.is_some() {
                            y.fill(0.0);
                        }
                    }
                }
                let soa = |v: &[[f64; N]; LANES]| -> [[f64; LANES]; N] {
                    core::array::from_fn(|p| core::array::from_fn(|l| v[l][p]))
                };
                let mut out = [[0.0; LANES]; N];
                let (a_soa, b_soa) = (soa(&a), soa(&b));
                // Safety: `lanes_available` saw the kernels' features.
                let took = unsafe {
                    match row.sum {
                        Some(sub) => add_lanes::<N>(&a_soa, &b_soa, sub, &mut out),
                        None => mul_by_double_lanes::<N, CAP_F>(&a_soa, &b_soa[0], &mut out),
                    }
                };
                if kind == Sparse {
                    let taken = took >> at & 1 == 1;
                    sparse_seen[pattern] += 1;
                    // at octo double a sum takes a zero pattern only where
                    // its zeros trail
                    let trailing = (pattern + 1).is_power_of_two();
                    assert_eq!(
                        taken,
                        trailing || N == 4 || row.sum.is_none(),
                        "{}, trial {trial}: {kind:?} pattern {pattern:b}: {:?}",
                        row.name,
                        a[at]
                    );
                }
                for l in 0..LANES {
                    clean += usize::from(l != at);
                    if took >> l & 1 == 0 {
                        continue;
                    }
                    if l == at {
                        took_kind[k] += 1;
                    } else {
                        took_clean += 1;
                    }
                    assert!(
                        l != at || !row.back.contains(&kind),
                        "{}, trial {trial}: {kind:?} planted in lane {l} was taken: {:?}, {:?}",
                        row.name,
                        a[l],
                        b[l]
                    );
                    let got: [f64; N] = core::array::from_fn(|p| out[p][l]);
                    assert_eq!(
                        got.map(f64::to_bits),
                        (row.scalar)(a[l], b[l]).map(f64::to_bits),
                        "{}, trial {trial}, lane {l} ({kind:?} in lane {at}): {:?}, {:?}",
                        row.name,
                        a[l],
                        b[l]
                    );
                }
            }
            assert!(
                took_clean * 100 >= clean * 99,
                "{}: {took_clean} of {clean} clean lanes taken",
                row.name
            );
            for kind in row.taken {
                let k = KINDS.iter().position(|x| x == kind).unwrap();
                assert!(took_kind[k] > 0, "{}: no {kind:?} lane taken", row.name);
            }
            assert!(ties >= 64, "{}: {ties} class ties planted", row.name);
            // every zero pattern of the limbs after limb 0 was planted (at
            // quad double, one per branch of `qd_renorm5`)
            for pattern in (1..1 << N).step_by(2) {
                assert!(
                    sparse_seen[pattern] > 0,
                    "{}: pattern {pattern:b} never planted",
                    row.name
                );
            }
        }

        if !lanes_available() {
            println!("no AVX-512 on this CPU: no lane kernels to check");
            return;
        }
        // a non-finite operand goes back everywhere; every finite quad
        // double sum is taken (`qd_renorm5`'s whole branch tree); at octo
        // double an interior zero limb, an opposite-sign tie, unsorted limbs
        // and a cancellation go back, while zero tails (an iterate of a few
        // limbs, a widened accumulator), an all-zero operand (of either
        // sign) and two of them are taken; a product by a double takes any
        // finite operand, zero limbs and zero doubles included
        const QD: &[Plant] = &[Inf, InfTimesZero, NegInf, Nan];
        const QD_TAKEN: &[Plant] = &[
            Zero,
            NegZero,
            Prefix,
            BothPrefix,
            ZeroOperand,
            BothZero,
            Tie,
            Unsorted,
            Cancel,
            Sparse,
        ];
        const OD: &[Plant] = &[
            Zero,
            NegZero,
            Inf,
            InfTimesZero,
            NegInf,
            Nan,
            Tie,
            Unsorted,
            Cancel,
        ];
        const OD_TAKEN: &[Plant] = &[
            Prefix,
            BothPrefix,
            ZeroOperand,
            NegZeroOperand,
            BothZero,
            BothNegZero,
            Twin,
            Sparse,
        ];
        const MUL_F: &[Plant] = &[Inf, InfTimesZero, Nan, ClassTie];
        const MUL_F_TAKEN: &[Plant] = &[
            Zero,
            NegZero,
            Prefix,
            BothPrefix,
            ZeroOperand,
            BothZero,
            BothNegZero,
            Sparse,
        ];
        for (seed, row) in [
            Row {
                name: "qd_add",
                sum: Some(false),
                scalar: qd_add,
                back: QD,
                taken: QD_TAKEN,
            },
            Row {
                name: "qd_sub",
                sum: Some(true),
                scalar: qd_sub,
                back: QD,
                taken: QD_TAKEN,
            },
            Row {
                name: "qd_mul_f",
                sum: None,
                scalar: |a, b| qd_mul_f(a, b[0]),
                back: MUL_F,
                taken: MUL_F_TAKEN,
            },
        ]
        .iter()
        .enumerate()
        {
            check::<Qd, 4, 7>(11 + seed as u64, row);
        }
        for (seed, row) in [
            Row {
                name: "od_add",
                sum: Some(false),
                scalar: od_add,
                back: OD,
                taken: OD_TAKEN,
            },
            Row {
                name: "od_sub",
                sum: Some(true),
                scalar: od_sub,
                back: OD,
                taken: OD_TAKEN,
            },
            Row {
                name: "od_mul_f",
                sum: None,
                scalar: |a, b| od_mul_f(a, b[0]),
                back: MUL_F,
                taken: MUL_F_TAKEN,
            },
        ]
        .iter()
        .enumerate()
        {
            check::<Od, 8, 15>(14 + seed as u64, row);
        }
    }

    /// The quad double lane sums on operands whose limbs are small
    /// integers times powers of two (many exact sums, so many zero errors)
    /// against `qd_add`/`qd_sub` by `to_bits`: every lane must be taken
    /// with the scalar sum's bits, and the sums must reach each of the
    /// eight leaves of `qd_renorm5`'s branch tree (its three zero tests,
    /// read off the scalar sweep by `leaf`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn qd_lane_sums_take_every_renorm5_branch() {
        use multidouble::eft::{quick_two_sum, three_sum, three_sum2, two_diff, two_sum};
        use multidouble::expansion::{add_lanes, LANES};
        use multidouble::qd::{qd_add, qd_sub};
        use rand::RngCore;

        /// The leaf of `qd_renorm5`'s tree that `qd_add(a, b)` (`sub`
        /// false) or `qd_sub` reaches, its three zero tests as bits.
        fn leaf(a: [f64; 4], b: [f64; 4], sub: bool) -> usize {
            let first = |x, y| if sub { two_diff(x, y) } else { two_sum(x, y) };
            let (s0, t0) = first(a[0], b[0]);
            let (s1, t1) = first(a[1], b[1]);
            let (s2, t2) = first(a[2], b[2]);
            let (s3, t3) = first(a[3], b[3]);
            let (s1, t0) = two_sum(s1, t0);
            let (s2, t0, t1) = three_sum(s2, t0, t1);
            let (s3, t0) = three_sum2(s3, t0, t2);
            let t0 = t0 + t1 + t3;
            let (s, _) = quick_two_sum(s3, t0);
            let (s, c3) = quick_two_sum(s2, s);
            let (s, c2) = quick_two_sum(s1, s);
            let (c0, c1) = quick_two_sum(s0, s);
            let (mut leaf, mut cur) = if c1 != 0.0 { (1, c1) } else { (0, c0) };
            for c in [c2, c3] {
                let (r, e) = quick_two_sum(cur, c);
                leaf = 2 * leaf + usize::from(e != 0.0);
                cur = if e != 0.0 { e } else { r };
            }
            leaf
        }

        if !lanes_available() {
            println!("no AVX-512 on this CPU: no lane kernels to check");
            return;
        }
        let mut rng = StdRng::seed_from_u64(19);
        // limb p: a small integer (-3..=3) or a full 53-bit one, scaled
        // down by p random gaps of 0..=60 bits
        let mut operand = || -> [f64; 4] {
            let mut scale = 1.0;
            core::array::from_fn(|_| {
                let w = rng.next_u64();
                let k = if w & 1 == 0 { (w >> 1) % 7 } else { w >> 11 };
                let v = (k as f64 - if w & 1 == 0 { 3.0 } else { 0.0 }) * scale;
                scale *= 2f64.powi(-(((w >> 4) % 61) as i32));
                v
            })
        };
        for sub in [false, true] {
            let mut leaves = [0usize; 8];
            for trial in 0..4096 {
                let a: [[f64; 4]; LANES] = core::array::from_fn(|_| operand());
                let b: [[f64; 4]; LANES] = core::array::from_fn(|_| operand());
                let soa = |v: &[[f64; 4]; LANES]| -> [[f64; LANES]; 4] {
                    core::array::from_fn(|p| core::array::from_fn(|l| v[l][p]))
                };
                let mut out = [[0.0; LANES]; 4];
                // Safety: `lanes_available` saw the kernel's features.
                let took = unsafe { add_lanes::<4>(&soa(&a), &soa(&b), sub, &mut out) };
                assert_eq!(took, 0xff, "trial {trial}: finite lanes handed back");
                for l in 0..LANES {
                    leaves[leaf(a[l], b[l], sub)] += 1;
                    let want = if sub {
                        qd_sub(a[l], b[l])
                    } else {
                        qd_add(a[l], b[l])
                    };
                    let got: [f64; 4] = core::array::from_fn(|p| out[p][l]);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "sub {sub}, trial {trial}, lane {l}: {:?}, {:?}",
                        a[l],
                        b[l]
                    );
                }
            }
            println!("sub {sub}: leaves {leaves:?}");
            assert!(
                leaves.iter().all(|&n| n > 0),
                "sub {sub}: leaves {leaves:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(&mut [0.0f64; 2], &[1.0f64; 3], 1.0);
    }
}
