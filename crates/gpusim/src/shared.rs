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
//! gets two instantiations of one body: the baseline x86-64 (or other
//! target) code, and on x86-64 a copy compiled with AVX2 and FMA enabled,
//! picked per call when the CPU has both. On the baseline,
//! `f64::mul_add` — every error-free product's second half — is a call
//! into the run-time `fma` routine; with the features it is one
//! `vfmadd` and the double double loops vectorize. The two copies
//! cannot differ in a bit: Rust never contracts `a * b + c` into an fma,
//! floating-point operations are never reassociated, and an IEEE fma is
//! correctly rounded whichever instruction computes it. The quad and
//! octo double products and renormalization are outlined, so they keep
//! their baseline code on both paths.

use multidouble::MdScalar;

/// `acc[i] += x[i] * a` — one column-axpy step of a product kernel.
#[inline(never)]
pub fn axpy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::axpy(acc, x, a) };
    }
    axpy_body(acc, x, a);
}

/// `acc[i] -= x[i] * a` — the downdating counterpart of [`axpy`].
#[inline(never)]
pub fn axmy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axmy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::axmy(acc, x, a) };
    }
    axmy_body(acc, x, a);
}

/// `Σ_i conj(a[i]) * b[i]`, accumulated from zero in index order.
#[inline(never)]
pub fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot_conj length mismatch");
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // Safety: `available` saw AVX2 and FMA on this CPU, the
        // instantiation's only requirement.
        return unsafe { fma::dot_conj(a, b) };
    }
    dot_conj_body(a, b)
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

#[inline(always)]
fn dot_conj_body<S: MdScalar>(a: &[S], b: &[S]) -> S {
    let mut acc = S::zero();
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
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
    pub(super) fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> S {
        super::dot_conj_body(a, b)
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

    /// The dispatched helpers against the baseline bodies on seeded
    /// slices of every length in `LENS`, once dense and once with ±0,
    /// subnormals, ±inf and NaN planted, for a dense and each planted `a`.
    fn dispatched_matches_baseline<S: MdScalar>(seed: u64) {
        const LENS: [usize; 4] = [0, 1, 7, 64];
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
            for plant in [false, true] {
                let mut x: Vec<S> = (0..n).map(|_| S::rand(&mut rng)).collect();
                let mut acc: Vec<S> = (0..n).map(|_| S::rand(&mut rng)).collect();
                if plant {
                    for i in (0..n).step_by(3) {
                        x[i] = planted[(i / 3) % planted.len()];
                        acc[i] = planted[(i / 3 + 2) % planted.len()];
                    }
                }
                let scalars = [S::rand(&mut rng)].into_iter().chain(planted.clone());
                for a in scalars {
                    let (mut got, mut want) = (acc.clone(), acc.clone());
                    axpy(&mut got, &x, a);
                    axpy_body(&mut want, &x, a);
                    assert!(
                        got.iter().zip(&want).all(|(&u, &v)| same(u, v)),
                        "axpy {} n={n}",
                        S::TAG
                    );
                    axmy(&mut got, &x, a);
                    axmy_body(&mut want, &x, a);
                    assert!(
                        got.iter().zip(&want).all(|(&u, &v)| same(u, v)),
                        "axmy {} n={n}",
                        S::TAG
                    );
                }
                assert!(
                    same(dot_conj(&x, &acc), dot_conj_body(&x, &acc)),
                    "dot_conj {} n={n}",
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
        dispatched_matches_baseline::<f64>(1);
        dispatched_matches_baseline::<Dd>(2);
        dispatched_matches_baseline::<Qd>(3);
        dispatched_matches_baseline::<Od>(4);
        dispatched_matches_baseline::<Complex<Dd>>(5);
        dispatched_matches_baseline::<Complex<Od>>(6);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(&mut [0.0f64; 2], &[1.0f64; 3], 1.0);
    }
}
