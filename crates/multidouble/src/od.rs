//! Octo double arithmetic (the paper's `8d`, ~128 decimal digits).
//!
//! QDlib stops at quad double; the paper extends the definitions to octo
//! double with CAMPARY-generated code. Here the extension uses the
//! certified expansion algorithms of [`crate::expansion`]:
//!
//! * **addition** — merge the two 8-term expansions by magnitude (a pure
//!   comparison merge, both inputs are already ulp-nonoverlapping), then
//!   renormalize 16 → 8 (CAMPARY's `certifiedAdd`);
//! * **multiplication** — accumulate the partial-product diagonals
//!   `i + j = k` for `k < 8` with error terms for `k <= 6`, then
//!   renormalize (CAMPARY's truncated certified multiplication, written
//!   once for quad and octo double: [`crate::expansion::truncated_mul`]);
//! * **division** — nine-digit long division with exact remainder updates;
//! * **square root** — Newton on the reciprocal square root, written once
//!   for quad and octo double: [`crate::expansion::newton_sqrt`].
//!
//! The operators, conversions and [`MdReal`](crate::MdReal) impl that
//! [`Od`] shares with [`Dd`] and [`Qd`] are emitted once, in
//! [`crate::real`].

use crate::dd::Dd;
use crate::expansion::{mul_by_double, newton_sqrt, renormalize, truncated_mul, Scratch};
use crate::fp::Fp;
use crate::qd::Qd;

/// Generic octo double value, most significant limb first.
pub type Od8<F> = [F; 8];

const N: usize = 8;

/// Merge two expansions by decreasing magnitude (comparisons only).
#[inline]
fn merge<F: Fp>(a: &Od8<F>, b: &Od8<F>, s: &mut Scratch<F, 16, 0>) {
    let (mut i, mut j) = (0, 0);
    while i < N && j < N {
        if a[i].fabs() >= b[j].fabs() {
            s.push(a[i]);
            i += 1;
        } else {
            s.push(b[j]);
            j += 1;
        }
    }
    while i < N {
        s.push(a[i]);
        i += 1;
    }
    while j < N {
        s.push(b[j]);
        j += 1;
    }
}

/// Certified addition: merge + renormalize.
#[inline]
pub fn od_add<F: Fp>(a: Od8<F>, b: Od8<F>) -> Od8<F> {
    let mut s = Scratch::<F, 16, 0>::new();
    merge(&a, &b, &mut s);
    let mut out = [F::ZERO; N];
    renormalize(&mut s, &mut out);
    out
}

/// Subtraction as addition of the negation.
#[inline]
pub fn od_sub<F: Fp>(a: Od8<F>, b: Od8<F>) -> Od8<F> {
    od_add(a, od_neg(b))
}

/// Certified truncated multiplication.
#[inline(always)]
pub fn od_mul<F: Fp>(a: Od8<F>, b: Od8<F>) -> Od8<F> {
    truncated_mul::<F, 8, 64, 15>(a, b)
}

/// Multiply an octo double by a double.
#[inline(always)]
pub fn od_mul_f<F: Fp>(a: Od8<F>, b: F) -> Od8<F> {
    mul_by_double::<F, 8, 15>(a, b)
}

/// Long division: nine quotient digits with exact remainder updates,
/// then renormalization.
#[inline]
pub fn od_div<F: Fp>(a: Od8<F>, b: Od8<F>) -> Od8<F> {
    let mut s = Scratch::<F, 9, 0>::new();
    let mut r = a;
    for _ in 0..N + 1 {
        let q = r[0] / b[0];
        s.push(q);
        r = od_sub(r, od_mul_f(b, q));
    }
    let mut out = [F::ZERO; N];
    renormalize(&mut s, &mut out);
    out
}

/// Negate.
#[inline(always)]
pub fn od_neg<F: Fp>(a: Od8<F>) -> Od8<F> {
    [-a[0], -a[1], -a[2], -a[3], -a[4], -a[5], -a[6], -a[7]]
}

/// Square root: [`newton_sqrt`] over the octo double kernels.
#[inline]
pub fn od_sqrt<F: Fp>(a: Od8<F>) -> Od8<F> {
    newton_sqrt(a, od_add, od_sub, od_mul, od_mul_f)
}

// ---------------------------------------------------------------------------
// Public type
// ---------------------------------------------------------------------------

/// An octo double number: eight-term expansion, ~128 significant decimal
/// digits (424 bits). The paper's `8d` precision.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Od(pub [f64; 8]);

impl Od {
    /// Unit roundoff of octo double: `2^-424`.
    pub const EPSILON: f64 = 1.443_722_900_443_09e-128;

    /// The limbs, most significant first.
    #[inline]
    pub const fn limbs(self) -> [f64; 8] {
        self.0
    }

    /// Widen a double double exactly.
    #[inline]
    pub const fn from_dd(x: Dd) -> Self {
        Od([x.hi, x.lo, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    }

    /// Widen a quad double exactly.
    #[inline]
    pub const fn from_qd(x: Qd) -> Self {
        Od([x.0[0], x.0[1], x.0[2], x.0[3], 0.0, 0.0, 0.0, 0.0])
    }

    /// π to octo double accuracy (parsed from 135 decimal digits; see
    /// `fmt` tests for the round trip).
    pub fn pi() -> Self {
        crate::fmt::parse_md(
            "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628034825342117067982148086513282306647093844609550582",
        )
        .expect("pi literal parses")
    }
}

impl From<Dd> for Od {
    #[inline]
    fn from(x: Dd) -> Self {
        Od::from_dd(x)
    }
}

impl From<Qd> for Od {
    #[inline]
    fn from(x: Qd) -> Self {
        Od::from_qd(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Od, b: Od, ulps: f64) -> bool {
        let d = (a - b).abs().to_f64();
        let scale = b.abs().to_f64().max(1.0);
        d <= ulps * Od::EPSILON * scale
    }

    #[test]
    fn add_captures_eight_limbs() {
        let mut s = Od::ZERO;
        let mut want = [0.0; 8];
        for i in 0..8 {
            let p = 2f64.powi(-(60 * i as i32));
            want[i] = p;
            s += Od::from_f64(p);
        }
        assert_eq!(s.0, want);
    }

    #[test]
    fn mul_matches_qd_at_qd_precision() {
        let a = Qd::PI;
        let b = Qd([
            1.0 / 7.0,
            7.93016446160826e-18,
            9.154059786546312e-35,
            -9.434636863305835e-52,
        ]);
        let od_prod = Od::from_qd(a) * Od::from_qd(b);
        let qd_prod = a * b;
        let diff = (od_prod - Od::from_qd(qd_prod)).abs().to_f64();
        assert!(diff <= 8.0 * Qd::EPSILON, "diff = {diff:e}");
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Od::pi();
        let b = Od::ONE / Od::from_f64(3.0);
        let q = (a * b) / b;
        assert!(close(q, a, 64.0), "q = {q:?}");
    }

    #[test]
    fn sqrt_squares_back() {
        let a = Od::from_f64(2.0);
        let r = a.sqrt();
        assert!(close(r * r, a, 64.0), "r^2 = {:?}", r * r);
    }

    #[test]
    fn distributivity_within_eps() {
        let a = Od::pi();
        let b = Od::ONE / Od::from_f64(7.0);
        let c = Od::ONE / Od::from_f64(11.0);
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        assert!(close(lhs, rhs, 64.0));
    }

    #[test]
    fn normalization_invariant() {
        let x = Od::pi() * Od::pi();
        for i in 0..7 {
            if x.0[i + 1] != 0.0 {
                assert_eq!(x.0[i] + x.0[i + 1], x.0[i], "limb {i} overlaps: {x:?}");
            }
        }
    }

    #[test]
    fn cancellation_keeps_deep_limbs() {
        let tiny = 2f64.powi(-400);
        let a = Od::from_f64(1.0) + Od::from_f64(tiny);
        let d = a - Od::from_f64(1.0);
        assert_eq!(d.to_f64(), tiny);
    }

    #[test]
    fn div_by_self_is_one() {
        let a = Od::pi();
        assert!(close(a / a, Od::ONE, 16.0));
    }
}
