//! Quad double arithmetic (the paper's `4d`, ~64 decimal digits).
//!
//! Addition, renormalization and division follow QDlib's accurate
//! (`ieee`) algorithms; multiplication is the certified
//! diagonal-accumulation + renormalize scheme of CAMPARY (all partial
//! products of order `eps^3` or larger, with their error terms), written
//! once for quad and octo double in [`crate::expansion`], as is the Newton
//! square root. The operators, conversions and [`MdReal`](crate::MdReal)
//! impl that [`Qd`] shares with [`Dd`] and [`Od`](crate::Od) are emitted
//! once, in [`crate::real`].

use crate::dd::Dd;
use crate::eft::{quick_two_sum, three_sum, three_sum2, two_diff, two_sum};
use crate::expansion::{mul_by_double, newton_sqrt, truncated_mul};
use crate::fp::Fp;

/// Generic quad double value, most significant limb first.
pub type Qd4<F> = [F; 4];

/// QDlib's five-term renormalization: fold `(c0..c4)` into a normalized
/// four-term quad double.
#[inline(always)]
pub fn qd_renorm5<F: Fp>(c0: F, c1: F, c2: F, c3: F, c4: F) -> Qd4<F> {
    let (s, c4) = quick_two_sum(c3, c4);
    let (s, c3) = quick_two_sum(c2, s);
    let (s, c2) = quick_two_sum(c1, s);
    let (c0, c1) = quick_two_sum(c0, s);

    let mut s0 = c0;
    let mut s1 = c1;
    let mut s2 = F::ZERO;
    let mut s3 = F::ZERO;
    if s1 != F::ZERO {
        let (a, b) = quick_two_sum(s1, c2);
        s1 = a;
        s2 = b;
        if s2 != F::ZERO {
            let (a, b) = quick_two_sum(s2, c3);
            s2 = a;
            s3 = b;
            if s3 != F::ZERO {
                s3 = s3 + c4;
            } else {
                let (a, b) = quick_two_sum(s2, c4);
                s2 = a;
                s3 = b;
            }
        } else {
            let (a, b) = quick_two_sum(s1, c3);
            s1 = a;
            s2 = b;
            if s2 != F::ZERO {
                let (a, b) = quick_two_sum(s2, c4);
                s2 = a;
                s3 = b;
            } else {
                let (a, b) = quick_two_sum(s1, c4);
                s1 = a;
                s2 = b;
            }
        }
    } else {
        let (a, b) = quick_two_sum(s0, c2);
        s0 = a;
        s1 = b;
        if s1 != F::ZERO {
            let (a, b) = quick_two_sum(s1, c3);
            s1 = a;
            s2 = b;
            if s2 != F::ZERO {
                let (a, b) = quick_two_sum(s2, c4);
                s2 = a;
                s3 = b;
            } else {
                let (a, b) = quick_two_sum(s1, c4);
                s1 = a;
                s2 = b;
            }
        } else {
            let (a, b) = quick_two_sum(s0, c3);
            s0 = a;
            s1 = b;
            if s1 != F::ZERO {
                let (a, b) = quick_two_sum(s1, c4);
                s1 = a;
                s2 = b;
            } else {
                let (a, b) = quick_two_sum(s0, c4);
                s0 = a;
                s1 = b;
            }
        }
    }
    [s0, s1, s2, s3]
}

/// Accurate addition (QDlib `ieee_add`).
#[inline(always)]
pub fn qd_add<F: Fp>(a: Qd4<F>, b: Qd4<F>) -> Qd4<F> {
    let (s0, t0) = two_sum(a[0], b[0]);
    let (s1, t1) = two_sum(a[1], b[1]);
    let (s2, t2) = two_sum(a[2], b[2]);
    let (s3, t3) = two_sum(a[3], b[3]);

    let (s1, t0) = two_sum(s1, t0);
    let (s2, t0, t1) = three_sum(s2, t0, t1);
    let (s3, t0) = three_sum2(s3, t0, t2);
    let t0 = t0 + t1 + t3;

    qd_renorm5(s0, s1, s2, s3, t0)
}

/// Subtraction via the same scheme on exact differences.
#[inline(always)]
pub fn qd_sub<F: Fp>(a: Qd4<F>, b: Qd4<F>) -> Qd4<F> {
    let (s0, t0) = two_diff(a[0], b[0]);
    let (s1, t1) = two_diff(a[1], b[1]);
    let (s2, t2) = two_diff(a[2], b[2]);
    let (s3, t3) = two_diff(a[3], b[3]);

    let (s1, t0) = two_sum(s1, t0);
    let (s2, t0, t1) = three_sum(s2, t0, t1);
    let (s3, t0) = three_sum2(s3, t0, t2);
    let t0 = t0 + t1 + t3;

    qd_renorm5(s0, s1, s2, s3, t0)
}

/// Certified multiplication: all partial products `a_i * b_j` with
/// `i + j <= 2` carry their error terms; the `i + j == 3` diagonal
/// contributes plain products (their errors are below `eps^4`).
#[inline(always)]
pub fn qd_mul<F: Fp>(a: Qd4<F>, b: Qd4<F>) -> Qd4<F> {
    truncated_mul::<F, 4, 16, 7>(a, b)
}

/// Multiply a quad double by a double.
#[inline(always)]
pub fn qd_mul_f<F: Fp>(a: Qd4<F>, b: F) -> Qd4<F> {
    mul_by_double::<F, 4, 7>(a, b)
}

/// Accurate division: five quotient digits by exact remainder updates
/// (QDlib `ieee_div`).
#[inline]
pub fn qd_div<F: Fp>(a: Qd4<F>, b: Qd4<F>) -> Qd4<F> {
    let q0 = a[0] / b[0];
    let r = qd_sub(a, qd_mul_f(b, q0));
    let q1 = r[0] / b[0];
    let r = qd_sub(r, qd_mul_f(b, q1));
    let q2 = r[0] / b[0];
    let r = qd_sub(r, qd_mul_f(b, q2));
    let q3 = r[0] / b[0];
    let r = qd_sub(r, qd_mul_f(b, q3));
    let q4 = r[0] / b[0];
    qd_renorm5(q0, q1, q2, q3, q4)
}

/// Square root: [`newton_sqrt`] over the quad double kernels.
#[inline]
pub fn qd_sqrt<F: Fp>(a: Qd4<F>) -> Qd4<F> {
    newton_sqrt(a, qd_add, qd_sub, qd_mul, qd_mul_f)
}

// ---------------------------------------------------------------------------
// Public type
// ---------------------------------------------------------------------------

/// A quad double number: four-term expansion, ~64 significant decimal digits
/// (212 bits). The paper's `4d` precision.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Qd(pub [f64; 4]);

impl Qd {
    /// Unit roundoff of quad double: `2^-212`.
    pub const EPSILON: f64 = 1.215432671457254e-64;

    /// π to quad double accuracy (QDlib constant).
    #[allow(clippy::approx_constant)]
    pub const PI: Qd = Qd([
        3.141_592_653_589_793,
        1.224_646_799_147_353_2e-16,
        -2.994_769_809_718_339_7e-33,
        1.112_454_220_863_365_3e-49,
    ]);

    /// The limbs, most significant first.
    #[inline]
    pub const fn limbs(self) -> [f64; 4] {
        self.0
    }

    /// Widen a double double exactly.
    #[inline]
    pub const fn from_dd(x: Dd) -> Self {
        Qd([x.hi, x.lo, 0.0, 0.0])
    }
}

impl From<Dd> for Qd {
    #[inline]
    fn from(x: Dd) -> Self {
        Qd::from_dd(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Qd, b: Qd, ulps: f64) -> bool {
        let d = (a - b).abs().to_f64();
        let scale = b.abs().to_f64().max(1.0);
        d <= ulps * Qd::EPSILON * scale
    }

    #[test]
    fn add_captures_four_limbs() {
        let parts = [1.0, 2f64.powi(-60), 2f64.powi(-120), 2f64.powi(-180)];
        let mut s = Qd::ZERO;
        for p in parts {
            s += Qd::from_f64(p);
        }
        assert_eq!(s.0, parts);
    }

    #[test]
    fn mul_matches_dd_at_dd_precision() {
        let a = Dd::PI;
        let b = Dd::new(1.0 / 7.0, 7.93016446160826e-18);
        let qd_prod = Qd::from_dd(a) * Qd::from_dd(b);
        let dd_prod = a * b;
        let diff = (qd_prod - Qd::from_dd(dd_prod)).abs().to_f64();
        assert!(diff <= 4.0 * Dd::EPSILON, "diff = {diff:e}");
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Qd::PI;
        let b = Qd([
            1.0 / 3.0,
            -1.850371707708594e-17,
            1.0271626370065257e-33,
            -5.700_574_853_771_496e-50,
        ]);
        let q = (a * b) / b;
        assert!(close(q, a, 16.0), "q = {q:?}");
    }

    #[test]
    fn sqrt_of_two_squares_back() {
        let a = Qd::from_f64(2.0);
        let r = a.sqrt();
        assert!(close(r * r, a, 16.0), "r^2 = {:?}", r * r);
    }

    #[test]
    fn normalization_invariant() {
        let a = Qd::PI * Qd::PI + Qd::from_f64(1e-40);
        for i in 0..3 {
            assert_eq!(a.0[i] + a.0[i + 1], a.0[i], "limb {i} overlaps: {a:?}");
        }
    }

    #[test]
    fn cancellation_keeps_low_limbs() {
        let tiny = 2f64.powi(-200);
        let a = Qd::from_f64(1.0) + Qd::from_f64(tiny);
        let d = a - Qd::from_f64(1.0);
        assert_eq!(d.to_f64(), tiny);
    }

    #[test]
    fn div_by_self_is_one() {
        let a = Qd::PI;
        assert!(close(a / a, Qd::ONE, 4.0));
    }

    #[test]
    fn renorm5_handles_zero_components() {
        let r = qd_renorm5(1.0, 0.0, 2f64.powi(-110), 0.0, 2f64.powi(-170));
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 2f64.powi(-110));
        assert_eq!(r[2], 2f64.powi(-170));
    }
}
