//! [`MdReal`]: the unifying trait over the four real precisions
//! `f64` (the paper's `1d`), [`Dd`] (`2d`), [`Qd`] (`4d`) and [`Od`] (`8d`).

use core::cmp::Ordering;
use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::dd::{dd_add, dd_div, dd_mul, dd_sqrt, dd_sub, Dd};
use crate::od::{od_add, od_div, od_mul, od_mul_f, od_sqrt, od_sub, Od};
use crate::qd::{qd_add, qd_div, qd_mul, qd_mul_f, qd_sqrt, qd_sub, Qd};

/// A real multiple double scalar.
///
/// Implemented by `f64`, [`Dd`], [`Qd`] and [`Od`]. The linear algebra
/// crates are generic over [`crate::MdScalar`], which is implemented for
/// every `MdReal` and for [`crate::Complex`] over every `MdReal`.
pub trait MdReal:
    Copy
    + Clone
    + Default
    + PartialEq
    + PartialOrd
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
    /// Number of doubles in the representation (1, 2, 4 or 8).
    const LIMBS: usize;
    /// Unit roundoff: `2^(-53 * LIMBS)` (approximately).
    const EPS: f64;
    /// The paper's shorthand: `"1d"`, `"2d"`, `"4d"`, `"8d"`.
    const TAG: &'static str;

    /// Exact conversion from a double.
    fn from_f64(x: f64) -> Self;
    /// Nearest double.
    fn to_f64(self) -> f64;
    /// The most significant limb.
    fn hi(self) -> f64;
    /// Limb `i` (0 = most significant); `i < LIMBS`.
    fn limb(self, i: usize) -> f64;
    /// Rebuild from a limb function: `f(i)` is limb `i` (0 = most
    /// significant), asked once for every `i < LIMBS`.
    fn from_limb_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// Rebuild from limbs, most significant first (`l.len() >= LIMBS`).
    #[inline(always)]
    fn from_limbs(l: &[f64]) -> Self {
        Self::from_limb_fn(|i| l[i])
    }

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    // NOTE: `is_zero` lives on `MdScalar` (implemented for every `MdReal`
    // through the blanket impl) so that method resolution stays
    // unambiguous for types carrying both traits.

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self {
        Self::one() / self
    }
    /// Exact multiplication by a power of two.
    fn mul_pwr2(self, p: f64) -> Self;
    /// Largest integer not above `self` (exact, limb-cascading).
    fn floor(self) -> Self;
}

impl MdReal for f64 {
    const LIMBS: usize = 1;
    const EPS: f64 = f64::EPSILON * 0.5; // unit roundoff 2^-53
    const TAG: &'static str = "1d";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn hi(self) -> f64 {
        self
    }
    #[inline(always)]
    fn limb(self, i: usize) -> f64 {
        debug_assert_eq!(i, 0);
        self
    }
    #[inline(always)]
    fn from_limb_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_pwr2(self, p: f64) -> Self {
        self * p
    }
    #[inline(always)]
    fn floor(self) -> Self {
        f64::floor(self)
    }
}

/// The type surface [`Dd`], [`Qd`] and [`Od`] share, written once over the
/// limb count `$n`, as CAMPARY generates its 2d, 4d and 8d kernels from one
/// template. The macro reads limbs through the type's own `limbs()` and
/// rebuilds through `$new`, its `const fn` constructor from a limb array.
/// It emits `ZERO`, `ONE` and the exact `from_f64`; the inherent `sqrt`,
/// `abs`, `recip` and `to_f64`; the arithmetic operators over the type's
/// kernels and their `*Assign` forms; `Neg`; `PartialOrd` (lexicographic
/// over the limbs); `From<f64>`; `Display` (16 digits per limb unless a
/// precision is given); and [`MdReal`], with the limb-cascading floor.
///
/// With `$mul_f`, `*` takes the by-double kernel on an f64-widened operand
/// (bit-identical to the dense one, `expansion::widened_operand`); without
/// it (`Dd`), `*` is the plain `$mul`.
macro_rules! expansion_real {
    ($T:ident, $n:literal, $new:path, $add:path, $sub:path, $mul:path, $div:path, $sqrt:path $(, $mul_f:path)?) => {
        impl $T {
            /// The value zero.
            pub const ZERO: $T = $new([0.0; $n]);
            /// The value one.
            pub const ONE: $T = $T::from_f64(1.0);

            /// Convert a double exactly.
            #[inline]
            pub const fn from_f64(x: f64) -> Self {
                let mut l = [0.0; $n];
                l[0] = x;
                $new(l)
            }

            /// Square root (NaN limbs for negative input, like `f64::sqrt`).
            #[inline]
            pub fn sqrt(self) -> Self {
                if self.limbs()[0] < 0.0 {
                    return $new([f64::NAN; $n]);
                }
                $new($sqrt(self.limbs()))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                let l = self.limbs();
                if l[0] < 0.0 || (l[0] == 0.0 && l[1] < 0.0) {
                    -self
                } else {
                    self
                }
            }

            /// Reciprocal.
            #[inline]
            pub fn recip(self) -> Self {
                $T::ONE / self
            }

            /// Nearest double.
            #[inline]
            pub fn to_f64(self) -> f64 {
                let l = self.limbs();
                l[0] + l[1]
            }
        }

        expansion_real!(@binop $T, $new, Add, add, $add);
        expansion_real!(@binop $T, $new, Sub, sub, $sub);
        expansion_real!(@binop $T, $new, Div, div, $div);
        expansion_real!(@assign $T, AddAssign, add_assign, +);
        expansion_real!(@assign $T, SubAssign, sub_assign, -);
        expansion_real!(@assign $T, MulAssign, mul_assign, *);
        expansion_real!(@assign $T, DivAssign, div_assign, /);

        impl Mul for $T {
            type Output = $T;
            #[inline(always)]
            fn mul(self, rhs: $T) -> $T {
                let (a, b) = (self.limbs(), rhs.limbs());
                $(
                    if let Some((x, d)) = crate::expansion::widened_operand(a, b) {
                        return $new($mul_f(x, d));
                    }
                )?
                $new($mul(a, b))
            }
        }

        impl Neg for $T {
            type Output = $T;
            #[inline(always)]
            fn neg(self) -> $T {
                $new(self.limbs().map(|x| -x))
            }
        }

        impl PartialOrd for $T {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                for (x, y) in self.limbs().iter().zip(&other.limbs()) {
                    match x.partial_cmp(y) {
                        Some(Ordering::Equal) => continue,
                        ord => return ord,
                    }
                }
                Some(Ordering::Equal)
            }
        }

        impl From<f64> for $T {
            #[inline]
            fn from(x: f64) -> Self {
                $T::from_f64(x)
            }
        }

        impl Display for $T {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let digits = f.precision().unwrap_or(16 * $n);
                f.write_str(&crate::fmt::to_decimal(*self, digits))
            }
        }

        impl MdReal for $T {
            const LIMBS: usize = $n;
            const EPS: f64 = $T::EPSILON;
            const TAG: &'static str = concat!($n, "d");

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                $T::from_f64(x)
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                $T::to_f64(self)
            }
            #[inline(always)]
            fn hi(self) -> f64 {
                self.limbs()[0]
            }
            #[inline(always)]
            fn limb(self, i: usize) -> f64 {
                self.limbs()[i]
            }
            #[inline(always)]
            fn from_limb_fn(f: impl FnMut(usize) -> f64) -> Self {
                $new(core::array::from_fn(f))
            }
            #[inline(always)]
            fn zero() -> Self {
                $T::ZERO
            }
            #[inline(always)]
            fn one() -> Self {
                $T::ONE
            }
            #[inline(always)]
            fn abs(self) -> Self {
                $T::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                $T::sqrt(self)
            }
            #[inline(always)]
            fn mul_pwr2(self, p: f64) -> Self {
                $new(self.limbs().map(|x| x * p))
            }
            /// Floor the leading limb; while a limb is already integral,
            /// floor the next one too.
            #[inline]
            fn floor(self) -> Self {
                let l = self.limbs();
                let mut out = [0.0; $n];
                out[0] = l[0].floor();
                if out[0] == l[0] {
                    for i in 1..$n {
                        out[i] = l[i].floor();
                        if out[i] != l[i] {
                            break;
                        }
                    }
                }
                // renormalize through the type's own addition
                $new(out) + $T::ZERO
            }
        }
    };
    (@binop $T:ident, $new:path, $trait:ident, $method:ident, $fn:path) => {
        impl $trait for $T {
            type Output = $T;
            #[inline(always)]
            fn $method(self, rhs: $T) -> $T {
                $new($fn(self.limbs(), rhs.limbs()))
            }
        }
    };
    (@assign $T:ident, $trait:ident, $method:ident, $op:tt) => {
        impl $trait for $T {
            #[inline(always)]
            fn $method(&mut self, rhs: $T) {
                *self = *self $op rhs;
            }
        }
    };
}

expansion_real!(
    Dd,
    2,
    Dd::from_array,
    dd_add,
    dd_sub,
    dd_mul,
    dd_div,
    dd_sqrt
);
expansion_real!(Qd, 4, Qd, qd_add, qd_sub, qd_mul, qd_div, qd_sqrt, qd_mul_f);
expansion_real!(Od, 8, Od, od_add, od_sub, od_mul, od_div, od_sqrt, od_mul_f);

/// Convert between precision rungs by limb transfer.
///
/// Widening (`B::LIMBS >= A::LIMBS`) is **exact**: the source limbs are
/// copied most-significant-first and the tail is zero, so a `Dd` promoted
/// to `Qd` represents the identical real number — the property the
/// mixed-precision refinement pipeline relies on when it accumulates a
/// low-rung correction into a high-rung iterate. Narrowing truncates the
/// trailing limbs (round toward the leading expansion), which is all the
/// refinement loop needs when it demotes a high-rung residual to the
/// factorization rung. The result is renormalized through the target
/// type's own addition, so non-canonical limb patterns cannot escape.
pub fn convert_real<A: MdReal, B: MdReal>(x: A) -> B {
    let mut limbs = [0.0f64; 8];
    let n = A::LIMBS.min(B::LIMBS);
    for (i, l) in limbs.iter_mut().enumerate().take(n) {
        *l = x.limb(i);
    }
    B::from_limbs(&limbs[..B::LIMBS]) + B::zero()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor_cases<T: MdReal>() {
        assert_eq!(T::from_f64(2.75).floor(), T::from_f64(2.0));
        assert_eq!(T::from_f64(-2.25).floor(), T::from_f64(-3.0));
        assert_eq!(T::from_f64(5.0).floor(), T::from_f64(5.0));
        // integral leading limb, fractional second limb
        let x = T::from_f64(3.0) + T::from_f64(1e-20);
        if T::LIMBS > 1 {
            assert_eq!(x.floor(), T::from_f64(3.0));
        }
    }

    #[test]
    fn floor_all_types() {
        floor_cases::<f64>();
        floor_cases::<Dd>();
        floor_cases::<Qd>();
        floor_cases::<Od>();
    }

    #[test]
    fn widening_is_exact_and_roundtrips() {
        let d = Dd::PI;
        let q: Qd = convert_real(d);
        let o: Od = convert_real(d);
        // exact embedding: leading limbs agree, tail is zero
        assert_eq!(q.limb(0), d.limb(0));
        assert_eq!(q.limb(1), d.limb(1));
        assert_eq!(q.limb(2), 0.0);
        assert_eq!(convert_real::<Od, Dd>(o), d);
        // narrowing back recovers the original exactly
        assert_eq!(convert_real::<Qd, Dd>(q), d);
        // f64 both ways
        let x = 1.0 / 3.0f64;
        let xq: Qd = convert_real(x);
        assert_eq!(xq.to_f64(), x);
        assert_eq!(convert_real::<Qd, f64>(Qd::PI), Qd::PI.to_f64());
    }

    #[test]
    fn narrowing_truncates_toward_leading_limbs() {
        let q = Qd::PI;
        let d: Dd = convert_real(q);
        // the narrowed value is the leading two-limb expansion
        assert_eq!(d.limb(0), q.limb(0));
        assert_eq!(d.limb(1), q.limb(1));
        let err = (convert_real::<Dd, Qd>(d) - q).abs().to_f64().abs();
        assert!(err < 1e-30, "truncation error {err:e} beyond dd roundoff");
    }

    #[test]
    fn limb_roundtrip() {
        let q = Qd::PI;
        let l: Vec<f64> = (0..4).map(|i| q.limb(i)).collect();
        assert_eq!(Qd::from_limbs(&l), q);
    }

    #[test]
    fn mul_pwr2_is_exact() {
        let x = Qd::PI;
        let y = x.mul_pwr2(8.0);
        assert_eq!(y.mul_pwr2(0.125), x);
    }

    #[test]
    fn tags_and_limbs() {
        assert_eq!(f64::TAG, "1d");
        assert_eq!(Dd::TAG, "2d");
        assert_eq!(Qd::TAG, "4d");
        assert_eq!(Od::TAG, "8d");
        assert_eq!(f64::LIMBS + Dd::LIMBS + Qd::LIMBS + Od::LIMBS, 15);
    }
}
