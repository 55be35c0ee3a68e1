//! Vector norms over multiple double scalars.

use multidouble::{sqrt_to_f64, MdReal, MdScalar};

/// `Σ |x_i|²`, accumulated in order.
fn sum_of_squares<S: MdScalar>(x: &[S]) -> S::Real {
    let mut acc = <S::Real as MdReal>::zero();
    for v in x {
        acc += v.norm_sqr();
    }
    acc
}

/// `Σ |x_i − y_i|²`, accumulated in order.
fn diff_sum_of_squares<S: MdScalar>(x: &[S], y: &[S]) -> S::Real {
    assert_eq!(x.len(), y.len());
    let mut acc = <S::Real as MdReal>::zero();
    for (a, b) in x.iter().zip(y.iter()) {
        acc += (*a - *b).norm_sqr();
    }
    acc
}

/// Euclidean norm `|| x ||_2`.
pub fn vec_norm2<S: MdScalar>(x: &[S]) -> S::Real {
    sum_of_squares(x).sqrt()
}

/// `vec_norm2(x).to_f64()`, bit for bit, without the wide square root
/// when the double double root certifies the double
/// ([`multidouble::sqrt_to_f64`]).
pub fn vec_norm2_f64<S: MdScalar>(x: &[S]) -> f64 {
    sqrt_to_f64(sum_of_squares(x))
}

/// Max norm `|| x ||_inf` (by modulus); NaN when any entry's modulus is.
pub fn vec_norm_inf<S: MdScalar>(x: &[S]) -> S::Real {
    let mut best = <S::Real as MdReal>::zero();
    for v in x {
        let m = v.norm_sqr();
        if (0..<S::Real as MdReal>::LIMBS).any(|i| m.limb(i).is_nan()) {
            return m;
        }
        if m > best {
            best = m;
        }
    }
    best.sqrt()
}

/// `|| x - y ||_2`.
pub fn vec_diff_norm2<S: MdScalar>(x: &[S], y: &[S]) -> S::Real {
    diff_sum_of_squares(x, y).sqrt()
}

/// `vec_diff_norm2(x, y).to_f64()`, bit for bit, by
/// [`multidouble::sqrt_to_f64`].
pub fn vec_diff_norm2_f64<S: MdScalar>(x: &[S], y: &[S]) -> f64 {
    sqrt_to_f64(diff_sum_of_squares(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd};

    #[test]
    fn pythagorean() {
        let x = [Dd::from_f64(3.0), Dd::from_f64(4.0)];
        assert_eq!(vec_norm2(&x).to_f64(), 5.0);
        assert_eq!(vec_norm_inf(&x).to_f64(), 4.0);
    }

    #[test]
    fn complex_norm() {
        let x = [Complex::new(Dd::from_f64(3.0), Dd::from_f64(4.0))];
        assert_eq!(vec_norm2(&x).to_f64(), 5.0);
    }

    #[test]
    fn max_norm_propagates_nan() {
        for x in [[f64::NAN, 4.0], [4.0, f64::NAN], [f64::NAN, f64::NAN]] {
            assert!(vec_norm_inf(&x).is_nan(), "{x:?}");
            let dd = x.map(Dd::from_f64);
            assert!(vec_norm_inf(&dd).to_f64().is_nan(), "{x:?}");
        }
        assert_eq!(vec_norm_inf(&[-3.0, 4.0, 0.5]), 4.0);
    }

    #[test]
    fn f64_norms_match_the_wide_roots() {
        use multidouble::{Od, Qd};
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(47);
        for n in [0, 1, 5, 28] {
            let x: Vec<Od> = crate::random_vector(n, &mut rng);
            let y: Vec<Od> = crate::random_vector(n, &mut rng);
            assert_eq!(
                vec_norm2_f64(&x).to_bits(),
                vec_norm2(&x).to_f64().to_bits()
            );
            assert_eq!(
                vec_diff_norm2_f64(&x, &y).to_bits(),
                vec_diff_norm2(&x, &y).to_f64().to_bits()
            );
            let z: Vec<Complex<Qd>> = crate::random_vector(n, &mut rng);
            assert_eq!(
                vec_norm2_f64(&z).to_bits(),
                vec_norm2(&z).to_f64().to_bits()
            );
        }
    }

    #[test]
    fn diff_norm() {
        let x = [Dd::from_f64(1.0), Dd::from_f64(2.0)];
        let y = [Dd::from_f64(1.0), Dd::from_f64(0.0)];
        assert_eq!(vec_diff_norm2(&x, &y).to_f64(), 2.0);
    }
}
