//! Double double arithmetic (the paper's `2d`, ~32 decimal digits).
//!
//! The algorithms are the *accurate* (IEEE-style) variants of QDlib
//! [Hida, Li, Bailey 2001], the library the paper extends.
//!
//! Every algorithm lives in a generic `dd_*` function over [`Fp`] so the
//! counting instrumentation of [`crate::count`] measures exactly the
//! production code. The public [`Dd`] type instantiates them with `f64`.

use crate::eft::{quick_two_sum, two_diff, two_prod, two_sqr, two_sum};
use crate::fp::Fp;

/// Generic double double value: an unevaluated sum `x[0] + x[1]` with
/// `|x[1]| <= ulp(x[0]) / 2`.
pub type Dd2<F> = [F; 2];

/// Accurate addition (QDlib `ieee_add`): 20 double operations, the same
/// count as the paper's Table 1 row "add" for double double.
#[inline(always)]
pub fn dd_add<F: Fp>(a: Dd2<F>, b: Dd2<F>) -> Dd2<F> {
    let (s1, s2) = two_sum(a[0], b[0]);
    let (t1, t2) = two_sum(a[1], b[1]);
    let s2 = s2 + t1;
    let (s1, s2) = quick_two_sum(s1, s2);
    let s2 = s2 + t2;
    let (hi, lo) = quick_two_sum(s1, s2);
    [hi, lo]
}

/// Accurate subtraction (mirrors `dd_add` on `two_diff`).
#[inline(always)]
pub fn dd_sub<F: Fp>(a: Dd2<F>, b: Dd2<F>) -> Dd2<F> {
    let (s1, s2) = two_diff(a[0], b[0]);
    let (t1, t2) = two_diff(a[1], b[1]);
    let s2 = s2 + t1;
    let (s1, s2) = quick_two_sum(s1, s2);
    let s2 = s2 + t2;
    let (hi, lo) = quick_two_sum(s1, s2);
    [hi, lo]
}

/// Add a double to a double double.
#[inline(always)]
pub fn dd_add_f<F: Fp>(a: Dd2<F>, b: F) -> Dd2<F> {
    let (s1, s2) = two_sum(a[0], b);
    let s2 = s2 + a[1];
    let (hi, lo) = quick_two_sum(s1, s2);
    [hi, lo]
}

/// Multiplication: one exact product plus the two cross terms.
#[inline(always)]
pub fn dd_mul<F: Fp>(a: Dd2<F>, b: Dd2<F>) -> Dd2<F> {
    let (p, e) = two_prod(a[0], b[0]);
    let e = e + (a[0] * b[1] + a[1] * b[0]);
    let (hi, lo) = quick_two_sum(p, e);
    [hi, lo]
}

/// Multiply a double double by a double.
#[inline(always)]
pub fn dd_mul_f<F: Fp>(a: Dd2<F>, b: F) -> Dd2<F> {
    let (p, e) = two_prod(a[0], b);
    let e = e + a[1] * b;
    let (hi, lo) = quick_two_sum(p, e);
    [hi, lo]
}

/// Square (saves one cross multiply relative to `dd_mul`).
#[inline(always)]
pub fn dd_sqr<F: Fp>(a: Dd2<F>) -> Dd2<F> {
    let (p, e) = two_sqr(a[0]);
    let t = a[0] * a[1];
    let e = e + (t + t);
    let (hi, lo) = quick_two_sum(p, e);
    [hi, lo]
}

/// Accurate division (QDlib `ieee_div`): three quotient digits with exact
/// remainder updates.
#[inline(always)]
pub fn dd_div<F: Fp>(a: Dd2<F>, b: Dd2<F>) -> Dd2<F> {
    let q1 = a[0] / b[0];
    let r = dd_sub(a, dd_mul_f(b, q1));
    let q2 = r[0] / b[0];
    let r = dd_sub(r, dd_mul_f(b, q2));
    let q3 = r[0] / b[0];
    let (q1, q2) = quick_two_sum(q1, q2);
    dd_add_f([q1, q2], q3)
}

/// Square root by Karp's high-precision trick:
/// `sqrt(a) ≈ a*x + (a - (a*x)^2) * x / 2` with `x = 1/sqrt(a0)`.
/// One double-precision seed plus one correction reaches full dd accuracy.
#[inline(always)]
pub fn dd_sqrt<F: Fp>(a: Dd2<F>) -> Dd2<F> {
    if a[0] == F::ZERO && a[1] == F::ZERO {
        return [F::ZERO, F::ZERO];
    }
    let x = F::ONE / a[0].fsqrt();
    let ax = a[0] * x;
    let ax2 = dd_sqr([ax, F::ZERO]);
    let diff = dd_sub(a, ax2);
    let half = F::from_f64(0.5);
    dd_add_f([ax, F::ZERO], diff[0] * x * half)
}

// ---------------------------------------------------------------------------
// Public type
// ---------------------------------------------------------------------------

/// A double double number: the unevaluated sum `hi + lo` of two doubles,
/// with about 32 significant decimal digits (106 bits).
///
/// This is the paper's `2d` precision. Its operators, conversions and
/// [`MdReal`](crate::MdReal) impl are emitted in [`crate::real`], by the
/// macro that also emits [`Qd`](crate::Qd)'s and [`Od`](crate::Od)'s.
///
/// Unlike those two, `Dd` is two named fields, not an array. The paper
/// customizes the CAMPARY code so an *m*-double is *m* separate variables,
/// and on x86-64 the calling convention agrees: a struct of two `f64`s is
/// passed and returned in two `xmm` registers, while a by-value `[f64; 2]`
/// (or a tuple struct around one) goes through memory whenever a call is
/// not inlined.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Dd {
    /// Most significant double.
    pub hi: f64,
    /// Least significant double, `|lo| <= ulp(hi)/2`.
    pub lo: f64,
}

impl Dd {
    /// Unit roundoff of double double: `2^-106`.
    pub const EPSILON: f64 = 1.232595164407831e-32;

    /// π to double double accuracy (QDlib constant).
    #[allow(clippy::approx_constant)]
    pub const PI: Dd = Dd {
        hi: 3.141_592_653_589_793,
        lo: 1.224_646_799_147_353_2e-16,
    };

    /// Build from a pair of doubles, renormalizing.
    #[inline]
    pub fn new(hi: f64, lo: f64) -> Self {
        let (h, l) = quick_two_sum(hi, lo);
        Dd { hi: h, lo: l }
    }

    /// Build from the raw components without renormalizing.
    #[inline]
    pub const fn from_parts(hi: f64, lo: f64) -> Self {
        Dd { hi, lo }
    }

    /// Build from the limbs, most significant first, without renormalizing.
    #[inline]
    pub(crate) const fn from_array(l: [f64; 2]) -> Self {
        Dd { hi: l[0], lo: l[1] }
    }

    /// The limbs as an array, most significant first.
    #[inline]
    pub const fn limbs(self) -> [f64; 2] {
        [self.hi, self.lo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_close(a: Dd, b: Dd, ulps: f64) -> bool {
        let d = (a - b).abs();
        let scale = b.abs().to_f64().max(1.0);
        d.to_f64() <= ulps * Dd::EPSILON * scale
    }

    #[test]
    fn add_exact_small_integers() {
        let a = Dd::from_f64(3.0);
        let b = Dd::from_f64(4.0);
        assert_eq!((a + b).hi, 7.0);
        assert_eq!((a + b).lo, 0.0);
    }

    #[test]
    fn add_captures_low_order_bits() {
        // 1 + 2^-80 is not representable in f64 but is in dd
        let tiny = 2f64.powi(-80);
        let s = Dd::from_f64(1.0) + Dd::from_f64(tiny);
        assert_eq!(s.hi, 1.0);
        assert_eq!(s.lo, tiny);
        let back = s - Dd::from_f64(1.0);
        assert_eq!(back.hi, tiny);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Dd::new(core::f64::consts::PI, 1.2246467991473532e-16);
        let b = Dd::new(core::f64::consts::E, 1.4456468917292502e-16);
        let q = (a * b) / b;
        assert!(ulp_close(q, a, 4.0), "q = {q:?}");
    }

    #[test]
    fn sqrt_squares_back() {
        let a = Dd::from_f64(2.0);
        let r = a.sqrt();
        assert!(ulp_close(r * r, a, 4.0), "r^2 = {:?}", r * r);
    }

    #[test]
    fn division_by_self_is_one() {
        let a = Dd::new(1.0 / 3.0, -1.850371707708594e-17);
        let one = a / a;
        assert!(ulp_close(one, Dd::ONE, 2.0));
    }

    #[test]
    fn normalization_invariant_after_ops() {
        let a = Dd::PI;
        let b = Dd::new(1.0e-10, 3.0e-27);
        for r in [a + b, a - b, a * b, a / b] {
            // |lo| <= ulp(hi)/2  <=>  hi + lo rounds to hi
            assert_eq!(r.hi + r.lo, r.hi, "not normalized: {r:?}");
        }
    }

    #[test]
    fn neg_and_abs() {
        let a = Dd::new(-2.0, 1e-20);
        assert!(a.abs().hi > 0.0);
        assert_eq!((-a).hi, 2.0);
    }

    #[test]
    fn ordering_uses_both_limbs() {
        let a = Dd::from_parts(1.0, 1e-20);
        let b = Dd::from_parts(1.0, 2e-20);
        assert!(a < b);
        assert!(b > a);
    }
}
