//! Decimal conversion for multiple double values: digit-by-digit
//! extraction for printing, digit accumulation for parsing.
//!
//! The conversions are accurate to a few units in the last place of the
//! working precision — enough to round-trip values and to define
//! high-precision constants from decimal literals (see [`crate::Od::pi`]).

use crate::real::MdReal;

/// `10^e` in precision `T` by repeated squaring (exact for small `e`).
pub fn pow10<T: MdReal>(e: i32) -> T {
    let mut base = T::from_f64(10.0);
    let mut n = e.unsigned_abs();
    let mut acc = T::one();
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        base = base * base;
        n >>= 1;
    }
    if e < 0 {
        T::one() / acc
    } else {
        acc
    }
}

/// Render `x` with `ndigits` significant decimal digits in scientific
/// notation (`-d.dddde±xx`); `ndigits` 0 prints one, as `f64`'s `{:.0e}`.
pub fn to_decimal<T: MdReal>(x: T, ndigits: usize) -> String {
    let ndigits = ndigits.max(1);
    // a NaN or infinite limb anywhere makes the value so, not only limb 0
    let sum: f64 = (0..T::LIMBS).map(|i| x.limb(i)).sum();
    if sum.is_nan() {
        return "NaN".into();
    }
    if sum.is_infinite() {
        return if sum > 0.0 {
            "inf".into()
        } else {
            "-inf".into()
        };
    }
    let hi = x.hi();
    if x == T::zero() {
        return format!("{:.*}e+00", ndigits.saturating_sub(1), 0.0);
    }
    let neg = hi < 0.0 || (hi == 0.0 && x < T::zero());
    let mut r = x.abs();
    let mut e10 = hi.abs().log10().floor() as i32;
    // normalize r into [1, 10); 10^-e10 overflows below e10 = -308
    // (subnormal x), so scale in two steps there
    if e10 < -300 {
        r *= pow10::<T>(300);
        r *= pow10::<T>(-e10 - 300);
    } else {
        r *= pow10::<T>(-e10);
    }
    let ten = T::from_f64(10.0);
    let one = T::one();
    while r >= ten {
        r /= ten;
        e10 += 1;
    }
    while r < one {
        r *= ten;
        e10 -= 1;
    }

    // extract ndigits + 1 digits, the last for rounding
    let mut digits = Vec::with_capacity(ndigits + 1);
    for _ in 0..=ndigits {
        let d = r.floor().to_f64() as i32;
        let d = d.clamp(0, 9);
        digits.push(d as u8);
        r = (r - T::from_f64(d as f64)) * ten;
    }
    // round
    if digits[ndigits] >= 5 {
        let mut i = ndigits;
        loop {
            if i == 0 {
                // overflow 9.99 -> 10.0
                digits.insert(0, 1);
                for d in digits.iter_mut().skip(1) {
                    *d = 0;
                }
                e10 += 1;
                break;
            }
            i -= 1;
            if digits[i] == 9 {
                digits[i] = 0;
            } else {
                digits[i] += 1;
                break;
            }
        }
    }
    digits.truncate(ndigits);

    let mut s = String::with_capacity(ndigits + 8);
    if neg {
        s.push('-');
    }
    s.push((b'0' + digits[0]) as char);
    if ndigits > 1 {
        s.push('.');
        for &d in &digits[1..] {
            s.push((b'0' + d) as char);
        }
    }
    s.push('e');
    if e10 < 0 {
        s.push('-');
    } else {
        s.push('+');
    }
    s.push_str(&format!("{:02}", e10.abs()));
    s
}

/// Parse a decimal literal (`[+-]ddd[.ddd][e±xx]`) into precision `T`.
pub fn parse_md<T: MdReal>(s: &str) -> Option<T> {
    let s = s.trim();
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return None;
    }
    let mut i = 0;
    let neg = match bytes[0] {
        b'-' => {
            i += 1;
            true
        }
        b'+' => {
            i += 1;
            false
        }
        _ => false,
    };
    let mut acc = T::zero();
    let ten = T::from_f64(10.0);
    let mut frac_digits: i32 = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut exp: i32 = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => {
                acc = acc * ten + T::from_f64((bytes[i] - b'0') as f64);
                if seen_dot {
                    frac_digits += 1;
                }
                seen_digit = true;
            }
            b'.' if !seen_dot => seen_dot = true,
            b'e' | b'E' => {
                let tail = &s[i + 1..];
                exp = tail.parse::<i32>().ok()?;
                i = bytes.len();
                continue;
            }
            _ => return None,
        }
        i += 1;
    }
    if !seen_digit {
        return None;
    }
    let scale = exp - frac_digits;
    let mut v = if scale != 0 {
        acc * pow10::<T>(scale)
    } else {
        acc
    };
    if neg {
        v = -v;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dd, Od, Qd};

    #[test]
    fn print_simple_values() {
        assert_eq!(to_decimal(Dd::from_f64(1.0), 5), "1.0000e+00");
        assert_eq!(to_decimal(Dd::from_f64(-0.5), 4), "-5.000e-01");
        assert_eq!(to_decimal(Qd::ZERO, 3), "0.00e+00");
    }

    #[test]
    fn rounding_carries() {
        let x = Dd::from_f64(0.9999999);
        assert_eq!(to_decimal(x, 4), "1.000e+00");
    }

    #[test]
    fn parse_then_print_pi_dd() {
        let s = "3.14159265358979323846264338327950288";
        let x: Dd = parse_md(s).unwrap();
        let err = (x - Dd::PI).abs().to_f64();
        assert!(err < 10.0 * Dd::EPSILON, "err = {err:e}");
    }

    #[test]
    fn parse_then_print_pi_qd() {
        let s = "3.1415926535897932384626433832795028841971693993751058209749445923078164";
        let x: Qd = parse_md(s).unwrap();
        let err = (x - Qd::PI).abs().to_f64();
        assert!(err < 100.0 * Qd::EPSILON, "err = {err:e}");
    }

    #[test]
    fn roundtrip_qd() {
        let x = Qd::PI / Qd::from_f64(7.0);
        let s = to_decimal(x, 66);
        let y: Qd = parse_md(&s).unwrap();
        let err = (x - y).abs().to_f64() / x.to_f64().abs();
        assert!(err < 1e-62, "err = {err:e}, s = {s}");
    }

    #[test]
    fn roundtrip_od() {
        let x = Od::pi() / Od::from_f64(3.0);
        let s = to_decimal(x, 132);
        let y: Od = parse_md(&s).unwrap();
        let err = (x - y).abs().to_f64() / x.to_f64().abs();
        assert!(err < 1e-125, "err = {err:e}");
    }

    /// `{:.0}` prints one significant digit, and subnormals print their
    /// digits (`f64`'s `{:.4e}` has the same five), in every precision.
    #[test]
    fn display_handles_zero_digits_and_subnormals() {
        fn check<T: MdReal>() {
            assert_eq!(format!("{:.0}", T::from_f64(3.7)), "4e+00");
            for v in [1e-310, 2.5e-320, 5e-324] {
                assert_eq!(format!("{:.5}", T::from_f64(v)), format!("{v:.4e}"));
            }
        }
        check::<Dd>();
        check::<Qd>();
        check::<Od>();
    }

    /// NaN or ±inf in a lower limb prints as the value it makes, in every
    /// precision, not as the digits of the finite leading limbs.
    #[test]
    fn display_sees_non_finite_lower_limbs() {
        fn check<T: MdReal>() {
            for at in 1..T::LIMBS {
                for (bad, want) in [
                    (f64::NAN, "NaN"),
                    (f64::INFINITY, "inf"),
                    (-f64::INFINITY, "-inf"),
                ] {
                    let x = T::from_limb_fn(|i| match i {
                        0 => 2.0,
                        _ if i == at => bad,
                        _ => 0.0,
                    });
                    assert_eq!(format!("{x}"), want, "{}: limb {at} = {bad}", T::TAG);
                }
            }
        }
        check::<Dd>();
        check::<Qd>();
        check::<Od>();
    }

    #[test]
    fn parse_exponent_forms() {
        let x: Dd = parse_md("2.5e3").unwrap();
        assert_eq!(x.to_f64(), 2500.0);
        let y: Dd = parse_md("-1.25e-2").unwrap();
        assert_eq!(y.to_f64(), -0.0125);
        assert!(parse_md::<Dd>("abc").is_none());
        assert!(parse_md::<Dd>("").is_none());
    }
}
