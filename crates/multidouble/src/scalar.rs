//! [`MdScalar`]: the scalar abstraction the linear algebra and kernel
//! crates are generic over.
//!
//! Eight instantiations cover the paper's experiment grid:
//! `{f64, Dd, Qd, Od}` (real) and `Complex<{f64, Dd, Qd, Od}>`.

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::complex::Complex;
use crate::cost::{complex_cost, paper_real_cost, OpCost};
use crate::random::{rand_complex, rand_real};
use crate::real::MdReal;

/// A real or complex multiple double scalar.
///
/// `PLANES` is the number of `f64` *limb planes* in the staggered device
/// representation: `LIMBS` for real scalars, `2 * LIMBS` for complex ones
/// (real and imaginary parts are stored separately, each staggered by
/// significance — the paper's layout at the end of its Algorithm 1).
pub trait MdScalar:
    Copy
    + Clone
    + Default
    + PartialEq
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// The underlying real precision.
    type Real: MdReal;

    /// Number of `f64` planes per scalar.
    const PLANES: usize;
    /// Whether the scalar is complex.
    const IS_COMPLEX: bool;
    /// Bytes per scalar in device storage.
    const BYTES: usize;
    /// Human-readable tag, e.g. `"2d"` or `"complex 2d"`.
    const TAG: &'static str;

    /// Lift a real value.
    fn from_real(r: Self::Real) -> Self;
    /// Exact conversion from a double.
    fn from_f64(x: f64) -> Self {
        Self::from_real(<Self::Real as MdReal>::from_f64(x))
    }
    /// Additive identity.
    fn zero() -> Self {
        Self::from_real(<Self::Real as MdReal>::zero())
    }
    /// Multiplicative identity.
    fn one() -> Self {
        Self::from_real(<Self::Real as MdReal>::one())
    }
    /// `true` if exactly zero.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }

    /// Conjugate (identity for real scalars).
    fn conj(self) -> Self;
    /// Real part.
    fn re(self) -> Self::Real;
    /// Imaginary part (zero for real scalars).
    fn im(self) -> Self::Real;
    /// `|x|^2` as a real number.
    fn norm_sqr(self) -> Self::Real;
    /// `|x|` as a real number.
    fn abs_val(self) -> Self::Real {
        self.norm_sqr().sqrt()
    }
    /// Multiply by a real factor.
    fn scale(self, s: Self::Real) -> Self;
    /// Divide by a real factor.
    fn unscale(self, s: Self::Real) -> Self;

    /// Read plane `p` of the scalar (real limbs first, then imaginary).
    fn plane(self, p: usize) -> f64;
    /// Rebuild from a plane function: `f(p)` is plane `p`, asked once
    /// for every `p < PLANES` — the gather of a staggered device load.
    fn from_plane_fn(f: impl FnMut(usize) -> f64) -> Self;

    /// Paper-model cost table (Table 1, complex-expanded when needed).
    fn paper_cost() -> OpCost;

    /// Measured (FMA-convention) cost table for this scalar — what the
    /// simulated hardware actually executes. The timing model uses this;
    /// the reported gigaflops use [`MdScalar::paper_cost`], exactly as the
    /// paper divides Table 1 flops by observed time.
    fn measured_cost() -> OpCost;

    /// Uniform random value (components in `[-1, 1]`, all limbs random).
    fn rand<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl<T: MdReal> MdScalar for T {
    type Real = T;
    const PLANES: usize = T::LIMBS;
    const IS_COMPLEX: bool = false;
    const BYTES: usize = T::LIMBS * 8;
    const TAG: &'static str = T::TAG;

    #[inline(always)]
    fn from_real(r: T) -> Self {
        r
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn re(self) -> T {
        self
    }
    #[inline(always)]
    fn im(self) -> T {
        T::zero()
    }
    #[inline(always)]
    fn norm_sqr(self) -> T {
        self * self
    }
    #[inline(always)]
    fn abs_val(self) -> T {
        MdReal::abs(self)
    }
    #[inline(always)]
    fn scale(self, s: T) -> Self {
        self * s
    }
    #[inline(always)]
    fn unscale(self, s: T) -> Self {
        self / s
    }
    #[inline(always)]
    fn plane(self, p: usize) -> f64 {
        self.limb(p)
    }
    #[inline(always)]
    fn from_plane_fn(f: impl FnMut(usize) -> f64) -> Self {
        T::from_limb_fn(f)
    }
    fn paper_cost() -> OpCost {
        paper_real_cost(T::LIMBS)
    }
    fn measured_cost() -> OpCost {
        crate::cost::measured_real_cost_cached(T::LIMBS)
    }
    fn rand<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rand_real(rng)
    }
}

impl<T: MdReal> MdScalar for Complex<T> {
    type Real = T;
    const PLANES: usize = 2 * T::LIMBS;
    const IS_COMPLEX: bool = true;
    const BYTES: usize = 2 * T::LIMBS * 8;
    const TAG: &'static str = match T::LIMBS {
        1 => "complex 1d",
        2 => "complex 2d",
        4 => "complex 4d",
        8 => "complex 8d",
        _ => "complex",
    };

    #[inline(always)]
    fn from_real(r: T) -> Self {
        Complex::from_real(r)
    }
    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
    #[inline(always)]
    fn re(self) -> T {
        self.re
    }
    #[inline(always)]
    fn im(self) -> T {
        self.im
    }
    #[inline(always)]
    fn norm_sqr(self) -> T {
        Complex::norm_sqr(self)
    }
    #[inline(always)]
    fn scale(self, s: T) -> Self {
        Complex::scale(self, s)
    }
    #[inline(always)]
    fn unscale(self, s: T) -> Self {
        Complex::new(self.re / s, self.im / s)
    }
    #[inline(always)]
    fn plane(self, p: usize) -> f64 {
        if p < T::LIMBS {
            self.re.limb(p)
        } else {
            self.im.limb(p - T::LIMBS)
        }
    }
    #[inline(always)]
    fn from_plane_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let re = T::from_limb_fn(&mut f);
        Complex::new(re, T::from_limb_fn(|i| f(T::LIMBS + i)))
    }
    fn paper_cost() -> OpCost {
        complex_cost(paper_real_cost(T::LIMBS))
    }
    fn measured_cost() -> OpCost {
        complex_cost(crate::cost::measured_real_cost_cached(T::LIMBS))
    }
    fn rand<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rand_complex(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dd::Dd;
    use crate::od::Od;
    use crate::qd::Qd;

    fn plane_roundtrip<S: MdScalar>(x: S) {
        let planes: Vec<f64> = (0..S::PLANES).map(|p| x.plane(p)).collect();
        assert_eq!(S::from_plane_fn(|p| planes[p]), x);
    }

    #[test]
    fn plane_roundtrips_all_scalars() {
        plane_roundtrip(2.5f64);
        plane_roundtrip(Dd::PI);
        plane_roundtrip(Qd::PI);
        plane_roundtrip(Od::pi());
        plane_roundtrip(Complex::new(1.5f64, -2.5));
        plane_roundtrip(Complex::new(Dd::PI, Dd::from_f64(-1.0)));
        plane_roundtrip(Complex::new(Qd::PI, Qd::from_f64(0.25)));
        plane_roundtrip(Complex::new(Od::pi(), Od::from_f64(-0.125)));
    }

    #[test]
    fn plane_counts() {
        assert_eq!(<f64 as MdScalar>::PLANES, 1);
        assert_eq!(<Dd as MdScalar>::PLANES, 2);
        assert_eq!(<Complex<Qd> as MdScalar>::PLANES, 8);
        assert_eq!(<Complex<Od> as MdScalar>::BYTES, 128);
    }

    #[test]
    fn real_scalar_norms() {
        let x = Dd::from_f64(-3.0);
        assert_eq!(MdScalar::norm_sqr(x).to_f64(), 9.0);
        assert_eq!(MdScalar::abs_val(x).to_f64(), 3.0);
        assert_eq!(MdScalar::conj(x), x);
    }

    #[test]
    fn complex_scalar_norms() {
        let z = Complex::new(Qd::from_f64(3.0), Qd::from_f64(4.0));
        assert_eq!(MdScalar::norm_sqr(z).to_f64(), 25.0);
        assert_eq!(MdScalar::abs_val(z).to_f64(), 5.0);
    }

    #[test]
    fn tags() {
        assert_eq!(<Complex<Dd> as MdScalar>::TAG, "complex 2d");
        assert_eq!(<Qd as MdScalar>::TAG, "4d");
    }

    /// Every plane of a scalar, as bits.
    fn bits<S: MdScalar>(x: S) -> Vec<u64> {
        (0..S::PLANES).map(|p| x.plane(p).to_bits()).collect()
    }

    /// Seeded values plus planted traps: signed zeros, ±0 lower limbs, a
    /// single nonzero limb, negative leading limbs and exponents near
    /// 2^±1000.
    fn trap_reals<T: MdReal>(seed: u64) -> Vec<T> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = vec![T::zero(), -T::zero()];
        for _ in 0..6 {
            let x: T = crate::random::rand_real(&mut rng);
            let hi = x.hi();
            for k in 1..T::LIMBS {
                out.push(T::from_limb_fn(|i| if i < k { x.limb(i) } else { 0.0 }));
                out.push(T::from_limb_fn(|i| if i < k { x.limb(i) } else { -0.0 }));
            }
            out.push(T::from_f64(hi));
            out.push(T::from_limb_fn(|i| if i == 0 { hi } else { -0.0 }));
            for p in [1.0, 2f64.powi(1000), 2f64.powi(-1000)] {
                out.push(x.mul_pwr2(p));
                out.push((-x).mul_pwr2(p));
            }
        }
        out
    }

    /// The rule the blocked QR's identity body rests on
    /// (`mdls_qr::kernels`): a zero-started `+0 + 1·a` leaves every later
    /// `+ 0·b` a no-op bit for bit, and `+0 + 0·b` stays `+0`.
    fn zero_terms_are_no_ops<S: MdScalar>(values: &[S]) {
        let (zero, one) = (S::zero(), S::one());
        for &b in values {
            assert_eq!(bits(zero + zero * b), bits(zero), "{} +0 + 0*{b:?}", S::TAG);
            for &a in values {
                let s = zero + one * a;
                assert_eq!(
                    bits(s + zero * b),
                    bits(s),
                    "{} a = {a:?}, b = {b:?}",
                    S::TAG
                );
            }
        }
    }

    fn zero_terms_real_and_complex<T: MdReal>(seed: u64) {
        let reals = trap_reals::<T>(seed);
        zero_terms_are_no_ops(&reals);
        let step = reals.len() / 7 + 1;
        let complex: Vec<Complex<T>> = reals
            .iter()
            .flat_map(|&re| {
                reals
                    .iter()
                    .step_by(step)
                    .map(move |&im| Complex::new(re, im))
            })
            .collect();
        zero_terms_are_no_ops(&complex);
    }

    #[test]
    fn zero_terms_after_a_unit_product_are_no_ops() {
        zero_terms_real_and_complex::<f64>(61);
        zero_terms_real_and_complex::<Dd>(62);
        zero_terms_real_and_complex::<Qd>(63);
        zero_terms_real_and_complex::<Od>(64);
    }
}
