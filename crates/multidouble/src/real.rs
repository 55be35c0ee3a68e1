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

/// `2^e` for a normal exponent `e`.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// How close, relative to the root, [`certified_sqrt_f64`]'s double
/// double root may come to an `f64` rounding midpoint: `2^-80`.
const SQRT_MIDPOINT_MARGIN: f64 = pow2(-80);

/// `x.sqrt().to_f64()`, bit for bit, for every `x`, without the wide
/// square root where a double double one certifies the double. A quad or
/// octo double root is a 3- or 4-step Newton iteration at the full width
/// (at `Od`, most of what a short residual's norm costs); the double
/// double root is a few dozen flops.
///
/// `x.sqrt().to_f64()` is `s0 + s1` rounded, the two leading limbs of the
/// wide root `s`. When `s` is farther than its own tail from every `f64`
/// rounding midpoint, that is the double nearest `s`, and so the double
/// nearest `sqrt(x)` and the double nearest any other root close enough.
/// The double double root of `x`'s two leading limbs, `d = r + e` (`r` =
/// `d` rounded, as `dd_sqrt`'s last step leaves it), gives `r` when it
/// lies farther than `2^-80 · r` from the midpoint between `r` and its
/// neighbour on `e`'s side.
/// Relative to `sqrt(x)`, the errors this margin must dominate are:
///
/// * the dropped limbs: the fast path asks `|x2| + … ≤ 2^-100 x0`, so
///   `sqrt(x0 + x1)` is within `2^-101` of `sqrt(x)`;
/// * the double double root of the pair, asked to be normalized
///   (`|x1| ≤ 2^-52 x0`): its seed `x0 · (1 / √x0)` is within `2^-50`,
///   and one Karp correction leaves about `(2^-50)² / 2` plus its own
///   rounding, under `2^-98`;
/// * the wide root: Newton's 3 (`Qd`) or 4 (`Od`) steps from the 53-bit
///   seed pass `2^-200`, and its tail past `s0 + s1` is under `2^-104`;
/// * the margin test itself, whose one rounding is under `2^-105`.
///
/// Together they are under `2^-97`, so the margin dominates them by
/// `2^17`: `d`, `sqrt(x)` and `s0 + s1` lie on one side of every
/// midpoint, and `r` is the answer.
///
/// The full root runs for `f64` and [`Dd`], whose roots are already
/// cheap; for a leading limb that is zero, negative, non-finite or
/// outside `[2^-900, 2^1000]` (subnormal products in the double double
/// root, an overflowing square near `f64::MAX`); for a pair that is not
/// normalized or a tail that is not small; and within the margin.
#[inline]
pub fn sqrt_to_f64<T: MdReal>(x: T) -> f64 {
    match certified_sqrt_f64(x) {
        Some(r) => r,
        None => x.sqrt().to_f64(),
    }
}

/// [`sqrt_to_f64`]'s fast path: the double the double double root
/// certifies, or `None` where the full root must run.
#[inline]
fn certified_sqrt_f64<T: MdReal>(x: T) -> Option<f64> {
    if T::LIMBS < 4 {
        return None;
    }
    let (x0, x1) = (x.limb(0), x.limb(1));
    let tail: f64 = (2..T::LIMBS).map(|i| x.limb(i).abs()).sum();
    // written so that a NaN anywhere fails a comparison
    let usable = (pow2(-900)..=pow2(1000)).contains(&x0)
        && x1.abs() <= x0 * pow2(-52)
        && tail <= x0 * pow2(-100);
    if !usable {
        return None;
    }
    let [r, e] = dd_sqrt([x0, x1]);
    // d lies between r and the midpoint on e's side, half the gap to the
    // next double that way (the gap below a power of two is half the one
    // above)
    let toward = if e < 0.0 {
        r.to_bits() - 1
    } else {
        r.to_bits() + 1
    };
    let half_gap = (f64::from_bits(toward) - r).abs() * 0.5;
    (e.abs() < half_gap - r * SQRT_MIDPOINT_MARGIN).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::rand_real;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Assert `sqrt_to_f64(x)` is `x.sqrt().to_f64()` bit for bit (both
    /// NaN counts as equal) and report whether the certified path took it.
    fn certified_agrees<T: MdReal>(x: T) -> bool {
        let (got, want) = (sqrt_to_f64(x), x.sqrt().to_f64());
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{}: sqrt_to_f64 {got:e} against {want:e} for limbs {:?}",
            T::TAG,
            (0..T::LIMBS).map(|i| x.limb(i)).collect::<Vec<_>>()
        );
        certified_sqrt_f64(x).is_some()
    }

    /// A sum of `n` squares of random values, scaled by `2^e`.
    fn sum_of_squares<T: MdReal>(rng: &mut StdRng, n: usize, e: i32) -> T {
        let mut acc = T::zero();
        for _ in 0..n {
            let v: T = rand_real(rng);
            acc += v * v;
        }
        // two steps keep each factor a normal or subnormal double
        acc.mul_pwr2(2f64.powi(e / 2))
            .mul_pwr2(2f64.powi(e - e / 2))
    }

    fn exponent_range<T: MdReal>() {
        let mut rng = StdRng::seed_from_u64(44);
        let (mut fast, mut total) = (0, 0);
        for e in (-1080..=1020).step_by(3) {
            for n in [1, 3, 28] {
                let x: T = sum_of_squares(&mut rng, n, e);
                fast += certified_agrees(x) as usize;
                total += 1;
            }
        }
        // [2^-900, 2^1000] is most of the range
        assert!(
            fast * 100 > total * 85,
            "{}: fast path {fast} of {total}",
            T::TAG
        );
    }

    #[test]
    fn certified_root_matches_the_wide_root_over_the_exponent_range() {
        exponent_range::<Qd>();
        exponent_range::<Od>();
    }

    /// Residuals as a refinement pass meets them: an f64 right hand side
    /// promoted, and iterates' residuals shrinking pass by pass.
    fn refinement_shaped<T: MdReal>() {
        let mut rng = StdRng::seed_from_u64(45);
        let (mut fast, mut total) = (0, 0);
        for scale in [0, -40, -60, -90, -120, -150, -200] {
            for _ in 0..200 {
                let mut acc = T::zero();
                for _ in 0..28 {
                    let v = if scale == 0 {
                        T::from_f64(rand_real::<f64, _>(&mut rng))
                    } else {
                        rand_real::<T, _>(&mut rng).mul_pwr2(2f64.powi(scale))
                    };
                    acc += v * v;
                }
                fast += certified_agrees(acc) as usize;
                total += 1;
            }
        }
        // the vacuity guard: the fast path is what refinement takes
        assert_eq!(fast, total, "{}: fast path {fast} of {total}", T::TAG);
    }

    #[test]
    fn certified_root_takes_the_fast_path_on_refinement_residuals() {
        refinement_shaped::<Qd>();
        refinement_shaped::<Od>();
    }

    /// `(m (1 + δ))²` for a rounding midpoint `m`: its root lies `m δ`
    /// from `m`, inside the margin for `δ < 2^-80` (the fallback must
    /// run), outside it for larger `δ`.
    fn near_midpoints<T: MdReal>() {
        let mut rng = StdRng::seed_from_u64(46);
        for i in 0..400 {
            // every eighth a power of two, whose gap below is half the
            // gap above
            let r = match i % 8 {
                0 => 1.0,
                _ => 1.0 + rand_real::<f64, _>(&mut rng).abs(),
            };
            let e = [-440, -3, 0, 5, 480][i % 5];
            // the midpoint above r, and the one below
            let half_up = (f64::from_bits(r.to_bits() + 1) - r) * 0.5;
            let half_down = (r - f64::from_bits(r.to_bits() - 1)) * 0.5;
            for m in [
                T::from_f64(r) + T::from_f64(half_up),
                T::from_f64(r) - T::from_f64(half_down),
            ] {
                let m = m.mul_pwr2(2f64.powi(e));
                for (k, inside) in [
                    (60, false),
                    (84, true),
                    (90, true),
                    (120, true),
                    (200, true),
                ] {
                    for sign in [1.0, -1.0] {
                        let delta = T::from_f64(sign).mul_pwr2(2f64.powi(-k));
                        let root = m + m * delta;
                        let x = root * root;
                        let fast = certified_agrees(x);
                        assert_eq!(fast, !inside, "{}: δ = {sign} 2^-{k}, root {root}", T::TAG);
                    }
                }
                // the midpoint itself: the wide root decides the tie
                assert!(!certified_agrees(m * m));
            }
        }
    }

    #[test]
    fn certified_root_falls_back_within_the_margin_of_a_midpoint() {
        near_midpoints::<Qd>();
        near_midpoints::<Od>();
    }

    /// `lead` with limb `i` set to `v`, the other limbs zero.
    fn lead_and<T: MdReal>(lead: f64, i: usize, v: f64) -> T {
        T::from_limb_fn(|j| match j {
            0 => lead,
            _ if j == i => v,
            _ => 0.0,
        })
    }

    fn special_values<T: MdReal>() {
        let tiny = f64::from_bits(1); // the least subnormal
        let unusable = [
            T::zero(),
            -T::zero(),
            T::from_f64(tiny),
            T::from_f64(f64::MIN_POSITIVE),
            T::from_f64(pow2(-901)),
            T::from_f64(f64::MAX),
            T::from_f64(pow2(1001)),
            T::from_f64(f64::NAN),
            T::from_f64(f64::INFINITY),
            T::from_f64(f64::NEG_INFINITY),
            T::from_f64(-4.0),
            // a NaN or an infinity below the lead
            lead_and(4.0, 1, f64::NAN),
            lead_and(4.0, 3, f64::INFINITY),
            // not normalized: a second limb as large as the first, or a
            // third one past the checked tail
            lead_and(4.0, 1, 4.0),
            lead_and(4.0, 2, 1e-29),
        ];
        for x in unusable {
            assert!(!certified_agrees(x), "{}: {:?}", T::TAG, x);
        }
        for x in [pow2(-900), pow2(1000), 4.0, 2.0] {
            assert!(certified_agrees(T::from_f64(x)), "{}: {x:e}", T::TAG);
        }
    }

    #[test]
    fn certified_root_falls_back_on_special_values() {
        special_values::<Qd>();
        special_values::<Od>();
        // f64 and Dd always take their own (cheap) roots
        for x in [0.0, 2.0, 1e-310, f64::NAN] {
            assert!(!certified_agrees(x));
            assert!(!certified_agrees(Dd::from_f64(x) + Dd::from_f64(x * 1e-20)));
        }
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
