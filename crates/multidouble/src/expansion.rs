//! Generalized floating-point expansion algorithms (CAMPARY style).
//!
//! An *expansion* is a slice of doubles, decreasing in magnitude, whose
//! unevaluated sum is the represented value. Quad and octo double
//! multiplication and octo double addition are implemented by forming a
//! longer intermediate expansion and *renormalizing* it to the target
//! length, following CAMPARY's `VecSum` / `VecSumErrBranch` pair
//! (Joldes, Muller, Popescu; the paper's reference \[12\]).

use crate::eft::two_sum;
use crate::fp::Fp;

/// A fixed-capacity scratch expansion, so renormalization never
/// allocates. Each producer sizes `CAP` to the number of terms it pushes
/// (7 to 64), so a quad double product does not zero-fill the 64 slots an
/// octo double product needs.
pub struct Scratch<F: Fp, const CAP: usize> {
    buf: [F; CAP],
    len: usize,
}

impl<F: Fp, const CAP: usize> Default for Scratch<F, CAP> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Fp, const CAP: usize> Scratch<F, CAP> {
    /// An empty scratch expansion.
    #[inline]
    pub fn new() -> Self {
        Scratch {
            buf: [F::ZERO; CAP],
            len: 0,
        }
    }

    /// Append a term (terms should be pushed roughly in decreasing
    /// magnitude order — diagonal by diagonal for products).
    #[inline(always)]
    pub fn push(&mut self, x: F) {
        self.buf[self.len] = x;
        self.len += 1;
    }

    /// The current terms.
    #[inline]
    pub fn terms(&self) -> &[F] {
        &self.buf[..self.len]
    }

    #[inline]
    fn terms_mut(&mut self) -> &mut [F] {
        &mut self.buf[..self.len]
    }
}

/// `VecSum`: an exact backward sweep of `two_sum`s. On return `x[0]` holds
/// the (rounded) total and `x[1..]` the cascading error terms; the total
/// unevaluated sum is unchanged.
#[inline]
pub fn vec_sum<F: Fp>(x: &mut [F]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let mut s = x[n - 1];
    for i in (0..n - 1).rev() {
        let (si, ei) = two_sum(x[i], s);
        s = si;
        x[i + 1] = ei;
    }
    x[0] = s;
}

/// `VecSumErrBranch`: compress a `VecSum`-ed expansion into at most `out.len()`
/// ulp-nonoverlapping components, most significant first, zero padded.
#[inline]
pub fn vec_sum_err_branch<F: Fp>(e: &[F], out: &mut [F]) {
    for o in out.iter_mut() {
        *o = F::ZERO;
    }
    let m = out.len();
    if e.is_empty() || m == 0 {
        return;
    }
    let mut j = 0usize;
    let mut eps = e[0];
    for &next in &e[1..] {
        // two_sum rather than quick_two_sum: after heavy cancellation the
        // error cascade is not guaranteed to be magnitude ordered.
        let (r, new_eps) = two_sum(eps, next);
        if new_eps != F::ZERO {
            if j >= m {
                return;
            }
            out[j] = r;
            j += 1;
            eps = new_eps;
        } else {
            eps = r;
        }
    }
    if j < m && eps != F::ZERO {
        out[j] = eps;
    }
}

/// Renormalize an intermediate expansion into `out.len()` components.
///
/// The scratch terms are first sorted by decreasing magnitude — producers
/// push terms in roughly that order already, but sparse operands (limbs
/// separated by more than 53 bits) break the diagonal-order heuristic,
/// and the `VecSum`/branch pair is only certified on sorted input. The
/// sort costs comparisons, not flops, so it does not disturb the
/// operation tallies. A second pass over the compact result tightens
/// components that may still overlap after heavy cancellation.
#[inline]
pub fn renormalize<F: Fp, const CAP: usize>(scratch: &mut Scratch<F, CAP>, out: &mut [F]) {
    sort_by_magnitude(scratch.terms_mut());
    vec_sum(scratch.terms_mut());
    vec_sum_err_branch(scratch.terms(), out);
    // Second normalization pass over the compact result: cheap (out is
    // short) and makes the output provably ulp-nonoverlapping.
    vec_sum(out);
    let mut tmp = [F::ZERO; 16];
    debug_assert!(out.len() <= 16);
    let n = out.len();
    tmp[..n].copy_from_slice_fp(out);
    vec_sum_err_branch(&tmp[..n], out);
}

/// Insertion sort by decreasing `|value|` (branch-efficient for the
/// nearly sorted sequences the producers push; comparisons only).
#[inline]
pub fn sort_by_magnitude<F: Fp>(x: &mut [F]) {
    for i in 1..x.len() {
        let v = x[i];
        let key = v.fabs();
        let mut j = i;
        while j > 0 && x[j - 1].fabs() < key {
            x[j] = x[j - 1];
            j -= 1;
        }
        x[j] = v;
    }
}

/// Helper trait: `copy_from_slice` for `F: Fp` without `Copy` slice bounds
/// noise at call sites.
trait CopySliceExt<F: Fp> {
    fn copy_from_slice_fp(&mut self, src: &[F]);
}
impl<F: Fp> CopySliceExt<F> for [F] {
    #[inline]
    fn copy_from_slice_fp(&mut self, src: &[F]) {
        for (d, s) in self.iter_mut().zip(src.iter()) {
            *d = *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact sum of a short expansion through octo double arithmetic.
    fn exact_total(x: &[f64]) -> crate::od::Od {
        let mut s = crate::od::Od::ZERO;
        for &v in x {
            s += crate::od::Od::from_f64(v);
        }
        s
    }

    #[test]
    fn vec_sum_preserves_total_exactly() {
        let mut x = [1.0e16, 3.0, -1.0e16, 2f64.powi(-40)];
        let before = exact_total(&x);
        vec_sum(&mut x);
        // vec_sum is an exact transformation: the unevaluated sum of the
        // components is unchanged (the leading term is only the
        // sequentially rounded sum, not necessarily the global one).
        assert_eq!(exact_total(&x), before);
    }

    #[test]
    fn renormalize_compacts_to_nonoverlapping() {
        let mut s = Scratch::<f64, 8>::new();
        // a deliberately overlapping pile of terms
        for t in [
            1.0,
            2f64.powi(-30),
            2f64.powi(-31),
            2f64.powi(-90),
            2f64.powi(-140),
        ] {
            s.push(t);
        }
        let mut out = [0.0; 4];
        renormalize(&mut s, &mut out);
        // components are ulp-nonoverlapping: adding a lower one to a higher
        // one must not change the higher one
        for i in 0..3 {
            if out[i] != 0.0 && out[i + 1] != 0.0 {
                assert_eq!(out[i] + out[i + 1], out[i], "overlap at {i}: {out:?}");
            }
        }
        // total preserved to quad-double accuracy
        let got: f64 = out.iter().sum();
        let want = 1.0 + 2f64.powi(-30) + 2f64.powi(-31) + 2f64.powi(-90) + 2f64.powi(-140);
        assert!((got - want).abs() <= want * f64::EPSILON);
    }

    #[test]
    fn renormalize_handles_zeros_and_cancellation() {
        let mut s = Scratch::<f64, 8>::new();
        for t in [1.0, -1.0, 0.0, 2f64.powi(-60), 0.0, -2f64.powi(-61)] {
            s.push(t);
        }
        let mut out = [0.0; 4];
        renormalize(&mut s, &mut out);
        let want = 2f64.powi(-61);
        assert_eq!(out[0], want, "{out:?}");
        assert_eq!(out[1], 0.0);
    }
}
