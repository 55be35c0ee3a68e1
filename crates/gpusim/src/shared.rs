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
//! column, not per element, and one copy per scalar type keeps the
//! multiple double arithmetic they inline from being duplicated into
//! every kernel body.

use multidouble::MdScalar;

/// `acc[i] += x[i] * a` — one column-axpy step of a product kernel.
#[inline(never)]
pub fn axpy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    for (y, x) in acc.iter_mut().zip(x) {
        *y += *x * a;
    }
}

/// `acc[i] -= x[i] * a` — the downdating counterpart of [`axpy`].
#[inline(never)]
pub fn axmy<S: MdScalar>(acc: &mut [S], x: &[S], a: S) {
    assert_eq!(acc.len(), x.len(), "axmy length mismatch");
    for (y, x) in acc.iter_mut().zip(x) {
        *y -= *x * a;
    }
}

/// `Σ_i conj(a[i]) * b[i]`, accumulated from zero in index order.
#[inline(never)]
pub fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot_conj length mismatch");
    let mut acc = S::zero();
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd};

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

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(&mut [0.0f64; 2], &[1.0f64; 3], 1.0);
    }
}
