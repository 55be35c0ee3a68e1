//! Error-free transformations: the building blocks of every multiple double
//! operation.
//!
//! Each function returns a pair `(s, e)` such that the exact real-number
//! result equals `s + e`, with `s` the correctly rounded double result.
//! References: Knuth TAOCP vol. 2; Dekker 1971; the QDlib `inline.h`
//! primitives of Hida, Li and Bailey; and chapter 4 of the *Handbook of
//! Floating-Point Arithmetic* (the paper's reference \[19\]).

use crate::fp::Fp;

/// Exact sum of two doubles, no magnitude precondition. 6 operations.
#[inline(always)]
pub fn two_sum<F: Fp>(a: F, b: F) -> (F, F) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Exact sum assuming `|a| >= |b|` (or `a == 0`). 3 operations.
#[inline(always)]
pub fn quick_two_sum<F: Fp>(a: F, b: F) -> (F, F) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Exact difference of two doubles. 6 operations.
#[inline(always)]
pub fn two_diff<F: Fp>(a: F, b: F) -> (F, F) {
    let s = a - b;
    let bb = s - a;
    let e = (a - (s - bb)) - (b + bb);
    (s, e)
}

/// Exact product with error term; delegates to the `Fp` implementation
/// (FMA by default, Dekker split for the paper-style counting type).
#[inline(always)]
pub fn two_prod<F: Fp>(a: F, b: F) -> (F, F) {
    a.two_prod(b)
}

/// Exact square with error term.
#[inline(always)]
pub fn two_sqr<F: Fp>(a: F) -> (F, F) {
    let p = a * a;
    let e = a.mul_add(a, -p);
    (p, e)
}

/// Sum of three doubles, returning `(s, e1, e2)` with
/// `a + b + c == s + e1 + e2` exactly (QDlib `three_sum`).
#[inline(always)]
pub fn three_sum<F: Fp>(a: F, b: F, c: F) -> (F, F, F) {
    let (t1, t2) = two_sum(a, b);
    let (s, t3) = two_sum(c, t1);
    let (e1, e2) = two_sum(t2, t3);
    (s, e1, e2)
}

/// Sum of three doubles with a single folded error term
/// (QDlib `three_sum2`): `a + b + c ≈ s + e`.
#[inline(always)]
pub fn three_sum2<F: Fp>(a: F, b: F, c: F) -> (F, F) {
    let (t1, t2) = two_sum(a, b);
    let (s, t3) = two_sum(c, t1);
    (s, t2 + t3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_captures_the_rounding_error() {
        let a = 1.0e16;
        let b = 3.0; // a + b rounds: ulp(a) = 2, so fl(a+b) = a + 4
        let (s, e) = two_sum(a, b);
        assert_eq!(s, a + b); // s is the rounded sum
        assert_eq!(s, 1.0000000000000004e16);
        assert_eq!(e, -1.0); // and e recovers the exact total
    }

    #[test]
    fn quick_two_sum_matches_two_sum_when_ordered() {
        let cases = [(1.0e10, 3.5), (2.0, 2.0), (-7.0e8, 1.25e-3), (5.0, 0.0)];
        for (a, b) in cases {
            let (s1, e1) = two_sum(a, b);
            let (s2, e2) = quick_two_sum(a, b);
            assert_eq!(s1, s2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn two_diff_is_exact() {
        let a = 1.0 + 2f64.powi(-52);
        let b = 2f64.powi(-60);
        let (s, e) = two_diff(a, b);
        // reconstruct in higher precision: s + e == a - b exactly
        // (verify via two_sum of s and e against the components)
        let (r, r2) = two_sum(s, e);
        let (q, q2) = two_sum(a, -b);
        assert_eq!((r, r2), (q, q2));
    }

    #[test]
    fn three_sum_preserves_the_sum() {
        let (a, b, c) = (1.0e16, 3.0, -1.0e16);
        let (s, e1, e2) = three_sum(a, b, c);
        assert_eq!(s + e1 + e2, 3.0);
    }
}
