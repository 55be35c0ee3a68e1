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

/// Most magnitude classes a producer closes (`od_mul`, `od_mul_f`: 8).
const MAX_CLASSES: usize = 8;

/// A fixed-capacity scratch expansion, so renormalization never
/// allocates. Each producer sizes `CAP` to the number of terms it pushes
/// (7 to 64), so a quad double product does not zero-fill the 64 slots an
/// octo double product needs.
///
/// Products also mark *magnitude classes* with [`Scratch::close_class`]:
/// runs of consecutive terms of about the same order (the diagonal-`k`
/// products plus the diagonal-`(k-1)` errors). [`renormalize`] presorts
/// each class on its own before the sort over the whole scratch.
pub struct Scratch<F: Fp, const CAP: usize> {
    buf: [F; CAP],
    len: usize,
    class_end: [u8; MAX_CLASSES],
    classes: usize,
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
            class_end: [0; MAX_CLASSES],
            classes: 0,
        }
    }

    /// Append a term (terms should be pushed roughly in decreasing
    /// magnitude order — diagonal by diagonal for products).
    #[inline(always)]
    pub fn push(&mut self, x: F) {
        self.buf[self.len] = x;
        self.len += 1;
    }

    /// End the current magnitude class: the terms pushed since the last
    /// `close_class` (or since `new`) form one. Terms after the last
    /// closed class belong to none and are not presorted.
    #[inline(always)]
    pub fn close_class(&mut self) {
        self.class_end[self.classes] = self.len as u8;
        self.classes += 1;
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

/// `true` when one operand is all (signed) zeros and the other all finite.
/// Every partial product and every `two_prod` error of such a product is
/// ±0, and [`renormalize`] maps an all-zero scratch to `+0.0` limbs, so
/// `qd_mul`/`od_mul` return `[+0.0; N]` without forming the expansion.
/// Zero times inf or NaN is NaN and still takes the full path.
#[inline(always)]
pub(crate) fn is_zero_product<F: Fp>(a: &[F], b: &[F]) -> bool {
    let zero = |x: &[F]| x.iter().all(|&v| v == F::ZERO);
    let finite = |x: &[F]| x.iter().all(|&v| v.to_f64().is_finite());
    (zero(a) && finite(b)) || (zero(b) && finite(a))
}

/// The route of the `Od`/`Qd` `*` operators: `Some((x, d))` when both
/// operands are finite and one of them has only limb 0 nonzero (a double
/// `d` widened to the expansion), `x` being the other operand. An
/// all-zero operand stays with the dense kernel's zero shortcut. The
/// operator then multiplies by the double (`od_mul_f`/`qd_mul_f`), which
/// pushes the same nonzero terms in the same order as the dense product
/// (`od_mul`/`qd_mul`) minus its ±0 terms; [`renormalize`]'s stable sort
/// moves those zeros last, where `two_sum(x, ±0) = (x, +0)` leaves the
/// `VecSum` and `VecSumErrBranch` chains as they are. So every output
/// bit is the dense product's. The dense kernels keep no such check: they
/// are what the operation tallies count, and the Newton seeds of the
/// square roots are one-limb operands.
#[inline(always)]
pub(crate) fn widened_operand<const N: usize>(a: [f64; N], b: [f64; N]) -> Option<([f64; N], f64)> {
    let one_limb =
        |x: &[f64; N]| x[1..].iter().all(|&v| v == 0.0) && x[0] != 0.0 && x[0].is_finite();
    let finite = |x: &[f64; N]| x.iter().all(|v| v.is_finite());
    if one_limb(&b) && finite(&a) {
        Some((a, b[0]))
    } else if one_limb(&a) && finite(&b) {
        Some((b, a[0]))
    } else {
        None
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
///
/// Two shortcuts leave every output bit as it was without them:
///
/// * an all-zero scratch (±0 terms only — a product with a zero operand,
///   0 + 0) yields `+0.0` limbs directly, as the full path would;
/// * a scratch with no zero term has each closed magnitude class presorted
///   by a branch-free sorting network (`presort_class`), so the stable
///   insertion sort that follows only moves terms across class boundaries.
///   The presort keeps tied terms in push order, so the permutation — and
///   everything downstream — is the one the insertion sort alone produces.
///   Scratches holding zeros (f64-widened operands) skip it: there most of
///   the insertion sort's moves carry nonzero terms past the zeros of
///   earlier classes, which a per-class presort does not remove.
#[inline]
pub fn renormalize<F: Fp, const CAP: usize>(scratch: &mut Scratch<F, CAP>, out: &mut [F]) {
    let zeros = scratch.terms().iter().filter(|&&x| x == F::ZERO).count();
    if zeros == scratch.len {
        out.fill(F::ZERO);
        return;
    }
    if zeros == 0 {
        let mut start = 0;
        for &end in &scratch.class_end[..scratch.classes] {
            let class = &mut scratch.buf[start..end as usize];
            match class.len() {
                2 => presort_class::<F, 2>(class, &NET2),
                3 | 4 => presort_class::<F, 4>(class, &NET4),
                5..=8 => presort_class::<F, 8>(class, &NET8),
                9..=16 => presort_class::<F, 16>(class, &NET16),
                _ => {} // one term is sorted; longer classes are left to the insertion sort
            }
            start = end as usize;
        }
    }
    sort_by_magnitude(scratch.terms_mut());
    vec_sum(scratch.terms_mut());
    vec_sum_err_branch(scratch.terms(), out);
    // Second normalization pass over the compact result: cheap (out is
    // short) and makes the output provably ulp-nonoverlapping.
    vec_sum(out);
    let mut tmp = [F::ZERO; 16];
    debug_assert!(out.len() <= 16);
    let n = out.len();
    tmp[..n].copy_from_slice(out);
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

/// Sorting networks as compare-exchange lane pairs `(hi, lo)`; each leaves
/// the larger key in `hi`. Best-known comparator counts: 1, 5, 19, 60
/// (`networks_sort_every_zero_one_input` proves each one sorts).
const NET2: [(u8, u8); 1] = [(0, 1)];
const NET4: [(u8, u8); 5] = [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)];
#[rustfmt::skip]
const NET8: [(u8, u8); 19] = [
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
    (0, 1), (2, 3), (4, 5), (6, 7),
    (2, 4), (3, 5),
    (1, 4), (3, 6),
    (1, 2), (3, 4), (5, 6),
];
#[rustfmt::skip]
const NET16: [(u8, u8); 60] = [
    (0, 13), (1, 12), (2, 15), (3, 14), (4, 8), (5, 6), (7, 11), (9, 10),
    (0, 5), (1, 7), (2, 9), (3, 4), (6, 13), (8, 14), (10, 15), (11, 12),
    (0, 1), (2, 3), (4, 5), (6, 8), (7, 9), (10, 11), (12, 13), (14, 15),
    (0, 2), (1, 3), (4, 10), (5, 11), (6, 7), (8, 9), (12, 14), (13, 15),
    (1, 2), (3, 12), (4, 6), (5, 7), (8, 10), (9, 11), (13, 14),
    (1, 4), (2, 6), (5, 8), (7, 10), (9, 13), (11, 14),
    (2, 4), (3, 6), (9, 12), (11, 13),
    (3, 5), (6, 8), (7, 9), (10, 12),
    (3, 4), (5, 6), (7, 8), (9, 10), (11, 12),
    (6, 7), (8, 9),
];

/// Sort one magnitude class (at most `L` terms) by decreasing `|x|` with
/// the network `net`, on the lossless key `x.to_bits().rotate_left(1)`:
/// unsigned key order is `|x|` order with the sign as a tie breaker, and
/// the missing lanes are padded with `+0.0` (key 0, last). A class holding
/// a NaN (whose key sorts first) or two terms of equal `|x|` but opposite
/// sign (adjacent lanes after the sort) is left as pushed: there the
/// key order is not the insertion sort's order. Otherwise equal keys are
/// equal bits, so the result is the class's stable sort by `|x|`.
#[inline(always)]
fn presort_class<F: Fp, const L: usize>(x: &mut [F], net: &[(u8, u8)]) {
    const INF_BITS: u64 = 0x7ff0_0000_0000_0000;
    let mut k = [0u64; L];
    for (ki, xi) in k.iter_mut().zip(x.iter()) {
        *ki = xi.to_f64().to_bits().rotate_left(1);
    }
    for &(hi, lo) in net {
        let (a, b) = (k[hi as usize], k[lo as usize]);
        k[hi as usize] = a.max(b);
        k[lo as usize] = a.min(b);
    }
    let mut ordered = k[0] >> 1 <= INF_BITS;
    for w in k.windows(2) {
        ordered &= (w[0] == w[1]) | (w[0] >> 1 != w[1] >> 1);
    }
    if ordered {
        for (xi, ki) in x.iter_mut().zip(k) {
            *xi = F::from_f64(f64::from_bits(ki.rotate_right(1)));
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

    /// The renormalization before the fast paths (sort → `VecSum` →
    /// `VecSumErrBranch` → second pass): the oracle the equivalence tests
    /// hold the fast paths to, bit for bit.
    fn renormalize_reference(terms: &mut [f64], out: &mut [f64]) {
        sort_by_magnitude(terms);
        vec_sum(terms);
        vec_sum_err_branch(terms, out);
        vec_sum(out);
        let n = out.len();
        let mut tmp = [0.0; 16];
        tmp[..n].copy_from_slice(out);
        vec_sum_err_branch(&tmp[..n], out);
    }

    /// SplitMix64: a seeded stream that needs no dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn range(&mut self, lo: i32, hi: i32) -> i32 {
            lo + self.below((hi - lo + 1) as u64) as i32
        }

        fn sign(&mut self) -> f64 {
            if self.next() & 1 == 1 {
                -1.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn networks_sort_every_zero_one_input() {
        fn check<const L: usize>(net: &[(u8, u8)]) {
            for bits in 0u32..1 << L {
                let mut x: [f64; L] = core::array::from_fn(|i| 1.0 + ((bits >> i) & 1) as f64);
                presort_class::<f64, L>(&mut x, net);
                assert!(x.windows(2).all(|w| w[0] >= w[1]), "{L} lanes: {x:?}");
            }
        }
        check::<2>(&NET2);
        check::<4>(&NET4);
        check::<8>(&NET8);
        check::<16>(&NET16);
    }

    /// 10⁶ seeded scratches through `renormalize` and through the oracle,
    /// compared by `to_bits`. Trials mix dense product-shaped classes
    /// (the presort path), zero-heavy and all-zero scratches with ±0,
    /// subnormals, exact ±x copies of earlier terms, classes whose
    /// magnitudes overlap or invert (sparse limbs), ±inf and NaN, and
    /// output lengths 1–8.
    #[test]
    fn fast_paths_match_the_reference_bit_for_bit() {
        let mut rng = Mix(2022);
        for trial in 0..1_000_000 {
            let kind = rng.below(16);
            let mut s = Scratch::<f64, 64>::new();
            let mut terms = Vec::with_capacity(64);
            let offset = rng.range(-300, 300);
            let step = [0, 20, 53, 60, 106, 160][rng.below(6) as usize];
            let classes = 1 + rng.below(8) as i32;
            for c in 0..classes {
                let base = if rng.below(5) == 0 {
                    offset + rng.range(-400, 400)
                } else {
                    offset - step * c
                };
                let size = (1 + rng.below(16) as usize).min(64 - terms.len());
                for _ in 0..size {
                    let exp = match kind {
                        4 => rng.range(-1080, -1000),
                        _ => base + rng.range(-6, 6),
                    };
                    let mut t = rng.sign()
                        * (1.0 + rng.below(1 << 52) as f64 * f64::EPSILON)
                        * 2f64.powi(exp);
                    if !terms.is_empty() && rng.below(16) == 0 {
                        t = rng.sign() * terms[rng.below(terms.len() as u64) as usize];
                    }
                    if rng.below(64) == 0 {
                        t = rng.sign() * f64::from_bits(1 + rng.below((1 << 52) - 1));
                    }
                    match kind {
                        0 => t = rng.sign() * 0.0,
                        1 | 2 if rng.below(5) < 3 => t = rng.sign() * 0.0,
                        3 if rng.below(24) == 0 => {
                            t = [f64::INFINITY, -f64::INFINITY, f64::NAN][rng.below(3) as usize]
                        }
                        _ => {}
                    }
                    s.push(t);
                    terms.push(t);
                }
                s.close_class();
            }
            // a few unclassed trailing terms now and then
            while terms.len() < 64 && rng.below(4) == 0 {
                let t = rng.sign() * 2f64.powi(offset - 500);
                s.push(t);
                terms.push(t);
            }
            let input = terms.clone();
            let n = 1 + rng.below(8) as usize;
            let (mut got, mut want) = ([0.0; 8], [0.0; 8]);
            renormalize(&mut s, &mut got[..n]);
            renormalize_reference(&mut terms, &mut want[..n]);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "trial {trial}, {n} limbs, input {input:?}: {got:?} vs {want:?}"
            );
        }
    }

    /// A double for the route oracle: normal (now and then large enough
    /// for the product to overflow), on the workloads' 2⁻²⁰ grid (whose
    /// `two_prod` errors against grid doubles are exactly 0), subnormal
    /// or ±0.
    fn oracle_double(rng: &mut Mix) -> f64 {
        match rng.below(6) {
            0 | 1 => (rng.below(1 << 21) as f64 - (1 << 20) as f64) * 2f64.powi(-20),
            2 => rng.sign() * f64::from_bits(1 + rng.below((1 << 52) - 1)),
            3 => rng.sign() * 0.0,
            4 if rng.below(8) == 0 => rng.sign() * 2f64.powi(rng.range(900, 1023)),
            _ => {
                rng.sign()
                    * (1.0 + rng.below(1 << 52) as f64 * f64::EPSILON)
                    * 2f64.powi(rng.range(-300, 300))
            }
        }
    }

    /// An operand for the route oracle: a widened double (its other limbs
    /// ±0), or an expansion whose limbs step down 53–60 bits, with now
    /// and then a ±0, grid or subnormal limb, or a deep start that runs
    /// its tail into the subnormals, or a start near the overflow
    /// threshold. One expansion in four keeps only its first 2..N limbs
    /// (a widened double double or quad double: the dense path).
    fn oracle_operand<const N: usize>(rng: &mut Mix, widened: bool) -> [f64; N] {
        let mut x: [f64; N] = core::array::from_fn(|_| rng.sign() * 0.0);
        if widened {
            x[0] = oracle_double(rng);
            return x;
        }
        let kept = if rng.below(4) == 0 {
            2 + rng.below(N as u64 - 1) as usize
        } else {
            N
        };
        let mut exp = match rng.below(16) {
            0 | 1 => rng.range(-1000, -700),
            2 => rng.range(900, 1023),
            _ => rng.range(-60, 60),
        };
        for limb in x.iter_mut().take(kept) {
            *limb = match rng.below(12) {
                0 => rng.sign() * 0.0,
                1 => oracle_double(rng),
                _ => rng.sign() * (1.0 + rng.below(1 << 52) as f64 * f64::EPSILON) * 2f64.powi(exp),
            };
            exp -= rng.range(53, 60);
        }
        x
    }

    /// 10⁶ seeded products through the `Od`/`Qd`/`Complex<Od>` `*`
    /// operators against the dense kernels `od_mul`/`qd_mul`, compared by
    /// `to_bits`. The widened operand sits on either side (or both);
    /// one trial in 64 plants ±inf or NaN in a limb, which must keep
    /// the dense path (zero times inf is NaN).
    #[test]
    fn operator_products_match_the_dense_kernels_bit_for_bit() {
        use crate::complex::Complex;
        use crate::od::{od_add, od_mul, od_sub, Od};
        use crate::qd::{qd_mul, Qd};
        fn pair<const N: usize>(rng: &mut Mix) -> ([f64; N], [f64; N]) {
            let side = rng.below(4);
            let mut a = oracle_operand::<N>(rng, side == 0 || side == 2);
            let mut b = oracle_operand::<N>(rng, side == 1 || side == 2);
            if rng.below(64) == 0 {
                let bad = [f64::INFINITY, -f64::INFINITY, f64::NAN][rng.below(3) as usize];
                let x = if rng.below(2) == 0 { &mut a } else { &mut b };
                x[rng.below(N as u64) as usize] = bad;
                assert!(
                    widened_operand(a, b).is_none(),
                    "{a:?} * {b:?} left the dense path"
                );
            }
            (a, b)
        }
        let mut rng = Mix(2032);
        for trial in 0..1_000_000 {
            match trial % 8 {
                0..=3 => {
                    let (a, b) = pair::<8>(&mut rng);
                    let (got, want) = ((Od(a) * Od(b)).0, od_mul(a, b));
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "trial {trial}: od {a:?} * {b:?}: {got:?} vs {want:?}"
                    );
                }
                4..=6 => {
                    let (a, b) = pair::<4>(&mut rng);
                    let (got, want) = ((Qd(a) * Qd(b)).0, qd_mul(a, b));
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "trial {trial}: qd {a:?} * {b:?}: {got:?} vs {want:?}"
                    );
                }
                _ => {
                    let (are, bre) = pair::<8>(&mut rng);
                    let (aim, bim) = pair::<8>(&mut rng);
                    let got = Complex::new(Od(are), Od(aim)) * Complex::new(Od(bre), Od(bim));
                    let want = [
                        od_sub(od_mul(are, bre), od_mul(aim, bim)),
                        od_add(od_mul(are, bim), od_mul(aim, bre)),
                    ];
                    assert_eq!(
                        [got.re.0, got.im.0].map(|x| x.map(f64::to_bits)),
                        want.map(|x| x.map(f64::to_bits)),
                        "trial {trial}: complex od ({are:?}, {aim:?}) * ({bre:?}, {bim:?})"
                    );
                }
            }
        }
        let inf = Od::from_f64(f64::INFINITY);
        for p in [Od::ZERO * inf, inf * Od::ZERO] {
            assert!(p.0.iter().all(|x| x.is_nan()), "0 * inf = {p:?}");
        }
    }

    /// Each of the 2⁸ signed-zero operand patterns, times a finite, a
    /// negative finite and a zero operand (either side), yields `+0.0`
    /// limbs through `od_mul` and `qd_mul` (first four limbs) — as the
    /// full expansion did before the zero-operand short circuit. Zero
    /// times inf or NaN still takes the full path.
    #[test]
    fn signed_zero_operands_give_positive_zero_limbs() {
        use crate::{od::od_mul, qd::qd_mul};
        let quad = |x: [f64; 8]| [x[0], x[1], x[2], x[3]];
        let pi = crate::od::Od::pi().0;
        for pattern in 0u32..1 << 8 {
            let z: [f64; 8] =
                core::array::from_fn(|i| if (pattern >> i) & 1 == 1 { -0.0 } else { 0.0 });
            for y in [pi, pi.map(|x| -x), z, z.map(|x| -x)] {
                for p in [od_mul(z, y), od_mul(y, z)] {
                    assert_eq!(p.map(f64::to_bits), [0; 8], "{z:?} * {y:?}");
                }
                for p in [qd_mul(quad(z), quad(y)), qd_mul(quad(y), quad(z))] {
                    assert_eq!(p.map(f64::to_bits), [0; 4], "{z:?} * {y:?}");
                }
            }
        }
        for bad in [f64::INFINITY, f64::NAN] {
            let mut y = [0.0; 8];
            y[1] = bad;
            assert!(od_mul([0.0; 8], y)[0].is_nan());
            assert!(qd_mul(quad(y), [0.0; 4])[0].is_nan());
        }
    }
}
