//! Generalized floating-point expansion algorithms (CAMPARY style).
//!
//! An *expansion* is a slice of doubles, decreasing in magnitude, whose
//! unevaluated sum is the represented value. Quad and octo double
//! multiplication and octo double addition are implemented by forming a
//! longer intermediate expansion and *renormalizing* it to the target
//! length, following CAMPARY's `VecSum` / `VecSumErrBranch` pair
//! (Joldes, Muller, Popescu; the paper's reference \[12\]).
//!
//! The two products are written once over the limb count `N`, as CAMPARY
//! generates its kernels from one template: [`truncated_mul`] (`qd_mul`,
//! `od_mul`) and [`mul_by_double`] (`qd_mul_f`, `od_mul_f`). On x86-64,
//! the kernels' inner loops run eight operations at once, one per AVX-512
//! lane: `truncated_mul_lanes` replays `truncated_mul`,
//! `mul_by_double_lanes` replays `mul_by_double`, and `add_lanes` replays
//! `od_add`/`od_sub` (a merge network) and QDlib's `qd_add`/`qd_sub`
//! (`qd_renorm5`'s branch tree as a masked compaction). The octo double
//! sum and both products end in one lane tail, as their scalar forms end
//! in [`renormalize`]. That tail reads only the order of a lane's nonzero
//! terms (its stable sort moves the zeros last, where they change
//! nothing), so the by-double product and the octo double sum take the
//! zero terms of operands with few nonzero limbs: the refinement
//! residual's iterates and accumulators. A lane a kernel cannot replay to
//! the bit it hands back to the scalar operator.

use crate::eft::{two_prod, two_sum};
use crate::fp::Fp;

/// Most magnitude classes a producer closes: one per limb of the widest
/// product (octo double, 8).
const MAX_CLASSES: usize = 8;

/// The bits of `+inf`: a presort key `k` (a double's bits rotated left by
/// one) is finite when `k >> 1 < INF_BITS`.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// A fixed-capacity scratch expansion, so renormalization never
/// allocates. Each producer sizes `CAP` to the number of terms it pushes
/// (7 to 64), so a quad double product does not zero-fill the 64 slots an
/// octo double product needs.
///
/// Products also mark *magnitude classes* with [`Scratch::close_class`]:
/// runs of consecutive terms of about the same order (the diagonal-`k`
/// products plus the diagonal-`(k-1)` errors). [`renormalize`] presorts
/// each class on its own, then sorts the whole scratch only where the
/// classes still cross. `WIDEST` is the most terms a producer puts in one
/// class ([`truncated_mul`]: `2N - 1`, so 15 at octo and 7 at quad double;
/// [`mul_by_double`]: 2; the sums and `od_div`, which close none: 0), so a
/// `renormalize` instantiation carries only the sorting networks its
/// classes can reach.
#[derive(Clone)]
pub struct Scratch<F: Fp, const CAP: usize, const WIDEST: usize = CAP> {
    buf: [F; CAP],
    len: usize,
    class_end: [u8; MAX_CLASSES],
    classes: usize,
}

impl<F: Fp, const CAP: usize, const WIDEST: usize> Default for Scratch<F, CAP, WIDEST> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Fp, const CAP: usize, const WIDEST: usize> Scratch<F, CAP, WIDEST> {
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
    /// `close_class` (or since `new`) form one, of at most `WIDEST` terms.
    /// Terms after the last closed class belong to none and are not
    /// presorted.
    #[inline(always)]
    pub fn close_class(&mut self) {
        let start = match self.classes {
            0 => 0,
            c => self.class_end[c - 1] as usize,
        };
        debug_assert!(self.len - start <= WIDEST, "a class wider than WIDEST");
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
/// [`truncated_mul`] returns `[+0.0; N]` without forming the expansion.
/// Zero times inf or NaN is NaN and still takes the full path.
#[inline(always)]
fn is_zero_product<F: Fp>(a: &[F], b: &[F]) -> bool {
    let zero = |x: &[F]| x.iter().all(|&v| v == F::ZERO);
    let finite = |x: &[F]| x.iter().all(|&v| v.to_f64().is_finite());
    (zero(a) && finite(b)) || (zero(b) && finite(a))
}

/// The route of the `Qd`/`Od` `*` operators: `Some((x, d))` when both
/// operands are finite and one of them has only limb 0 nonzero (a double
/// `d` widened to the expansion), `x` being the other operand. An
/// all-zero operand stays with the dense kernel's zero shortcut. The
/// operator then multiplies by the double ([`mul_by_double`]), which
/// pushes the same nonzero terms in the same order as the dense product
/// ([`truncated_mul`]) minus its ±0 terms; [`renormalize`]'s stable sort
/// moves those zeros last, where `two_sum(x, ±0) = (x, +0)` leaves the
/// `VecSum` and `VecSumErrBranch` chains as they are. So every output
/// bit is the dense product's. The dense product keeps no such check: it
/// is what the operation tallies count, and the Newton seeds of the
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

/// The scratch of the certified truncated product of two `N`-limb
/// expansions: every partial product `a_i * b_j` with `i + j < N - 1` with
/// its `two_prod` error, and the plain products of the last diagonal
/// `i + j = N - 1` (their errors are below the `N`-limb unit roundoff).
/// The errors of diagonal `k` are of the order of diagonal `k + 1`, so
/// magnitude class `k` is diagonal `k`'s products followed by diagonal
/// `k - 1`'s errors: `2k + 1` terms, `CAP = N·N` in all, the widest
/// `WIDEST = 2N - 1`.
#[inline(always)]
pub fn truncated_product<F: Fp, const N: usize, const CAP: usize, const WIDEST: usize>(
    a: &[F; N],
    b: &[F; N],
) -> Scratch<F, CAP, WIDEST> {
    const { assert!(CAP == N * N && WIDEST + 1 == 2 * N && N <= MAX_CLASSES) };
    let mut s = Scratch::new();
    // class k fills slots k² .. (k + 1)²: diagonal k's k + 1 products,
    // then diagonal k - 1's k errors
    for k in 0..N {
        for i in 0..=k {
            if k == N - 1 {
                s.buf[k * k + i] = a[i] * b[k - i];
            } else {
                let (p, e) = two_prod(a[i], b[k - i]);
                s.buf[k * k + i] = p;
                s.buf[(k + 1) * (k + 1) + k + 2 + i] = e;
            }
        }
        s.class_end[k] = ((k + 1) * (k + 1)) as u8;
    }
    s.len = CAP;
    s.classes = N;
    s
}

/// Certified truncated multiplication of two `N`-limb expansions
/// (CAMPARY's): [`truncated_product`], renormalized to `N` limbs. A product
/// with an all-zero operand returns `+0.0` limbs (`is_zero_product`).
/// `qd_mul` and `od_mul` are its instantiations at `N` = 4 and 8.
#[inline]
pub fn truncated_mul<F: Fp, const N: usize, const CAP: usize, const WIDEST: usize>(
    a: [F; N],
    b: [F; N],
) -> [F; N] {
    if is_zero_product(&a, &b) {
        return [F::ZERO; N];
    }
    let mut s = truncated_product::<F, N, CAP, WIDEST>(&a, &b);
    let mut out = [F::ZERO; N];
    renormalize(&mut s, &mut out);
    out
}

/// Multiply an `N`-limb expansion by a double. With `e_i` the error of the
/// exact product `p_i = a_i * b`, the magnitude classes are `p_0`, then
/// `[p_i, e_{i-1}]`: `CAP = 2N - 1` terms, the last product plain.
/// `qd_mul_f` and `od_mul_f` are its instantiations at `N` = 4 and 8.
#[inline]
pub fn mul_by_double<F: Fp, const N: usize, const CAP: usize>(a: [F; N], b: F) -> [F; N] {
    const { assert!(CAP + 1 == 2 * N && N <= MAX_CLASSES) };
    let (mut p, mut e) = ([F::ZERO; N], [F::ZERO; N]);
    for i in 0..N - 1 {
        (p[i], e[i]) = two_prod(a[i], b);
    }
    p[N - 1] = a[N - 1] * b;
    let mut s = Scratch::<F, CAP, 2>::new();
    s.push(p[0]);
    s.close_class();
    for i in 1..N {
        s.push(p[i]);
        s.push(e[i - 1]);
        s.close_class();
    }
    let mut out = [F::ZERO; N];
    renormalize(&mut s, &mut out);
    out
}

/// Square root by Newton's iteration on the reciprocal square root,
/// `x <- x + x (1 - a x^2) / 2`, seeded by the hardware root and finished
/// with `sqrt(a) = a x`, over the width's own `add`, `sub`, `mul` and
/// `mul_f`. Each step doubles the correct bits (53, 106, 212, ...), so
/// `log2(N) + 1` steps pass the width's `53 N`: 3 for `qd_sqrt`, 4 for
/// `od_sqrt`.
#[inline]
pub fn newton_sqrt<F: Fp, const N: usize>(
    a: [F; N],
    add: impl Fn([F; N], [F; N]) -> [F; N],
    sub: impl Fn([F; N], [F; N]) -> [F; N],
    mul: impl Fn([F; N], [F; N]) -> [F; N],
    mul_f: impl Fn([F; N], F) -> [F; N],
) -> [F; N] {
    if a.iter().all(|&x| x == F::ZERO) {
        return [F::ZERO; N];
    }
    let half = F::from_f64(0.5);
    let (mut one, mut x) = ([F::ZERO; N], [F::ZERO; N]);
    one[0] = F::ONE;
    x[0] = F::ONE / a[0].fsqrt();
    for _ in 0..=N.ilog2() {
        let ax2 = mul(a, mul(x, x));
        x = add(x, mul_f(mul(x, sub(one, ax2)), half));
    }
    mul(a, x)
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
/// Three shortcuts leave every output bit as it was without them:
///
/// * an all-zero scratch (±0 terms only — a product with a zero operand,
///   0 + 0) yields `+0.0` limbs directly, as the full path would;
/// * a scratch with no zero term has each closed magnitude class presorted
///   by a branch-free sorting network of the class's exact size
///   (`presort_class`). The presort keeps tied terms in push order, so the
///   permutation — and everything downstream — is the one the insertion
///   sort alone produces;
/// * on that path one linear check, `|t[i]| >= |t[i + 1]|` for every `i`,
///   skips the insertion sort when it would move nothing. It fails where a
///   class's tail out-ranks the next class's head (sparse limbs), where a
///   class left as pushed is out of order, and on NaN; there the insertion
///   sort runs, the one fallback.
///
/// Scratches holding zeros (f64-widened operands) skip the presort and the
/// check: there most of the insertion sort's moves carry nonzero terms past
/// the zeros of earlier classes, which a per-class presort does not remove.
#[inline]
pub fn renormalize<F: Fp, const CAP: usize, const WIDEST: usize>(
    scratch: &mut Scratch<F, CAP, WIDEST>,
    out: &mut [F],
) {
    let zeros = scratch.terms().iter().filter(|&&x| x == F::ZERO).count();
    if zeros == scratch.len {
        out.fill(F::ZERO);
        return;
    }
    if zeros != 0 || !presort_classes(scratch) {
        sort_by_magnitude(scratch.terms_mut());
    }
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

/// Presort each closed magnitude class of a zero-free scratch
/// ([`presort_class`]), then `true` when the whole scratch is in decreasing
/// `|value|` order, ties allowed: the insertion sort would move nothing.
/// NaN fails every comparison.
#[inline(always)]
fn presort_classes<F: Fp, const CAP: usize, const WIDEST: usize>(
    scratch: &mut Scratch<F, CAP, WIDEST>,
) -> bool {
    let mut start = 0;
    for &end in &scratch.class_end[..scratch.classes] {
        presort_class::<F, WIDEST>(&mut scratch.buf[start..end as usize]);
        start = end as usize;
    }
    scratch
        .terms()
        .windows(2)
        .fold(true, |ok, w| ok & (w[0].fabs() >= w[1].fabs()))
}

/// Insertion sort by decreasing `|value|` (branch-efficient for the
/// nearly sorted sequences the producers push; comparisons only). The
/// last sorted key is carried in a register, so a term already in place
/// costs one load and one comparison: loading it beside its predecessor
/// let the compiler fuse the two into one 16-byte load over the 8-byte
/// stores of the previous step, a store-forwarding stall per term.
#[inline]
pub fn sort_by_magnitude<F: Fp>(x: &mut [F]) {
    let Some(&first) = x.first() else { return };
    let mut last = first.fabs();
    for i in 1..x.len() {
        let v = x[i];
        let key = v.fabs();
        if last >= key {
            last = key;
            continue;
        }
        let mut j = i;
        while j > 0 && x[j - 1].fabs() < key {
            x[j] = x[j - 1];
            j -= 1;
        }
        x[j] = v;
        last = x[i].fabs();
    }
}

/// A sorting-network key: the presort's `u64`, or on x86-64 eight of them
/// side by side (the lane kernel's `__m512i`).
trait Key: Copy {
    /// The larger of two keys.
    fn hi(self, other: Self) -> Self;
    /// The smaller of two keys.
    fn lo(self, other: Self) -> Self;
}

impl Key for u64 {
    #[inline(always)]
    fn hi(self, other: Self) -> Self {
        self.max(other)
    }
    #[inline(always)]
    fn lo(self, other: Self) -> Self {
        self.min(other)
    }
}

/// A straight-line sorting network over an array of keys, largest first.
trait Network {
    fn sort(&mut self);
}

/// Straight-line sorting networks over `L` keys: each `(hi, lo)` is a
/// compare-exchange that leaves the larger key in `hi`. The padded networks
/// have 1, 5, 19 and 60 comparators (optimal for 2, 4 and 8 lanes; the
/// best known for 16). [`presort`] runs them at a class's exact size, its
/// missing lanes the constant key 0, so every comparator that touches a
/// missing lane folds away: the sizes the products close, 3, 5, …, 15,
/// run 3, 9, 16, 26, 36, 46 and 56 (`networks_sort_every_zero_one_input`
/// proves each size sorts). The network is a trait method, not a value
/// passed in, so it is always inlined where the lane count is known: passed
/// as an `impl Fn`, the 16-lane network ran through an outlined `Fn::call`
/// shim that compared all 16 lanes whatever the class size.
macro_rules! network {
    ($l:literal: $($pair:tt),* $(,)?) => {
        impl<K: Key> Network for [K; $l] {
            #[inline(always)]
            fn sort(&mut self) {
                compare_exchange!(self: $($pair),*);
            }
        }
    };
}

/// The compare-exchanges `(hi, lo)` on the keys `$k`, in order.
macro_rules! compare_exchange {
    ($k:ident: $(($hi:literal, $lo:literal)),*) => {
        $(
            let (a, b) = ($k[$hi], $k[$lo]);
            $k[$hi] = a.hi(b);
            $k[$lo] = a.lo(b);
        )*
    };
}
network!(1:);
network!(2: (0, 1));
network!(4: (0, 1), (2, 3), (0, 2), (1, 3), (1, 2));
network!(8:
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
    (0, 1), (2, 3), (4, 5), (6, 7),
    (2, 4), (3, 5),
    (1, 4), (3, 6),
    (1, 2), (3, 4), (5, 6),
);
network!(16:
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
);

/// Merge two sorted runs of eight keys, `k[..8]` and `k[8..]`, largest
/// first: Batcher's odd-even merge, 25 comparators
/// (`merge_sorts_every_zero_one_pair_of_runs` proves it merges). The octo
/// double sum's comparison merge on the lane path (`od_add`'s `merge`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn merge_runs<K: Key>(k: &mut [K; 16]) {
    compare_exchange!(k:
        (0, 8), (4, 12), (2, 10), (6, 14), (1, 9), (5, 13), (3, 11), (7, 15),
        (4, 8), (6, 10), (5, 9), (7, 11),
        (2, 4), (6, 8), (10, 12), (3, 5), (7, 9), (11, 13),
        (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14)
    );
}

/// The first `S` of `keys` sorted, largest first, by the `L`-lane network,
/// the lanes past `S` holding the constant `zero`: the exact-size network.
#[inline(always)]
fn sort_exact<K: Key, const S: usize, const L: usize>(keys: &mut [K], zero: K)
where
    [K; L]: Network,
{
    let mut k = [zero; L];
    k[..S].copy_from_slice(&keys[..S]);
    k.sort();
    keys[..S].copy_from_slice(&k[..S]);
}

/// Presort one magnitude class of at most `WIDEST` terms by decreasing
/// `|x|` with the network of its exact size ([`presort`]). A class of one
/// term is sorted; wider classes than `WIDEST` or 16 are left to the
/// insertion sort. Each arm is compiled only where `WIDEST` reaches it.
/// The 16-lane sizes live out of line in [`presort_wide`]: only `od_mul`
/// closes such classes, and inlined into its `renormalize` their code grew
/// the benchmark binary by 15 % (its `ladder_direct` peak RSS by 6 %).
#[inline(always)]
fn presort_class<F: Fp, const WIDEST: usize>(class: &mut [F]) {
    match class.len() {
        2 if WIDEST >= 2 => presort::<F, 2, 2>(class),
        3 if WIDEST >= 3 => presort::<F, 3, 4>(class),
        4 if WIDEST >= 4 => presort::<F, 4, 4>(class),
        5 if WIDEST >= 5 => presort::<F, 5, 8>(class),
        6 if WIDEST >= 6 => presort::<F, 6, 8>(class),
        7 if WIDEST >= 7 => presort::<F, 7, 8>(class),
        8 if WIDEST >= 8 => presort::<F, 8, 8>(class),
        9..=16 if WIDEST >= 9 => presort_wide(class),
        _ => {}
    }
}

/// [`presort_class`] for 9 to 16 terms.
#[inline(never)]
fn presort_wide<F: Fp>(class: &mut [F]) {
    match class.len() {
        9 => presort::<F, 9, 16>(class),
        10 => presort::<F, 10, 16>(class),
        11 => presort::<F, 11, 16>(class),
        12 => presort::<F, 12, 16>(class),
        13 => presort::<F, 13, 16>(class),
        14 => presort::<F, 14, 16>(class),
        15 => presort::<F, 15, 16>(class),
        16 => presort::<F, 16, 16>(class),
        _ => {}
    }
}

/// Sort the `S` terms of `x` by decreasing `|x|` with the `L`-lane network
/// at its exact size ([`sort_exact`]), on the lossless key
/// `x.to_bits().rotate_left(1)`: unsigned key order is `|x|` order with
/// the sign as a tie breaker, and the lanes past `S` hold `+0.0` (key 0,
/// last). A class holding a NaN (whose key sorts
/// first) or two terms of equal `|x|` but opposite sign (adjacent lanes
/// after the sort) is left as pushed: there the key order is not the
/// insertion sort's order. Otherwise equal keys are equal bits, so the
/// result is the class's stable sort by `|x|`.
#[inline(always)]
fn presort<F: Fp, const S: usize, const L: usize>(x: &mut [F])
where
    [u64; L]: Network,
{
    let x = &mut x[..S];
    let mut k = [0u64; S];
    for (ki, xi) in k.iter_mut().zip(x.iter()) {
        *ki = xi.to_f64().to_bits().rotate_left(1);
    }
    sort_exact::<u64, S, L>(&mut k, 0);
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

/// The eight-lane AVX-512 replays of [`truncated_mul`], [`mul_by_double`]
/// and the quad and octo double sums, for the kernels' inner loops
/// (`gpusim::shared`): as every GPU thread of a CAMPARY kernel runs the
/// same straight-line operation on its own element, each lane of one
/// instruction forms one element's product or sum.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{merge_runs, sort_exact, Key, Network, INF_BITS};
    use core::arch::x86_64::*;

    /// Products per call: the doubles of one `__m512d`.
    pub const LANES: usize = 8;

    /// Eight presort keys side by side, each a double's bits rotated left
    /// by one, held in a `__m512d` so that the scratch is one array.
    impl Key for __m512d {
        #[inline(always)]
        fn hi(self, other: Self) -> Self {
            // Safety: `Key` is private to `expansion`, and its users of
            // `__m512d` keys are `truncated_mul_lanes`,
            // `mul_by_double_lanes` and `add_lanes`, whose callers
            // guarantee AVX-512F.
            unsafe {
                _mm512_castsi512_pd(_mm512_max_epu64(
                    _mm512_castpd_si512(self),
                    _mm512_castpd_si512(other),
                ))
            }
        }
        #[inline(always)]
        fn lo(self, other: Self) -> Self {
            // Safety: as in `hi`.
            unsafe {
                _mm512_castsi512_pd(_mm512_min_epu64(
                    _mm512_castpd_si512(self),
                    _mm512_castpd_si512(other),
                ))
            }
        }
    }

    /// Eight lanes of `a + b` with their exact errors ([`super::two_sum`]).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn two_sum(a: __m512d, b: __m512d) -> (__m512d, __m512d) {
        let s = _mm512_add_pd(a, b);
        let bb = _mm512_sub_pd(s, a);
        let e = _mm512_add_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)), _mm512_sub_pd(b, bb));
        (s, e)
    }

    /// Eight lanes of `a - b` with their exact errors
    /// ([`crate::eft::two_diff`]).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn two_diff(a: __m512d, b: __m512d) -> (__m512d, __m512d) {
        let s = _mm512_sub_pd(a, b);
        let bb = _mm512_sub_pd(s, a);
        let e = _mm512_sub_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)), _mm512_add_pd(b, bb));
        (s, e)
    }

    /// Eight lanes of [`crate::eft::quick_two_sum`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn quick_two_sum(a: __m512d, b: __m512d) -> (__m512d, __m512d) {
        let s = _mm512_add_pd(a, b);
        (s, _mm512_sub_pd(b, _mm512_sub_pd(s, a)))
    }

    /// [`super::vec_sum`] on eight lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn vec_sum(x: &mut [__m512d]) {
        let n = x.len();
        let mut s = x[n - 1];
        for i in (0..n - 1).rev() {
            let (si, ei) = two_sum(x[i], s);
            s = si;
            x[i + 1] = ei;
        }
        x[0] = s;
    }

    /// Eight lanes of `a + b` and its error, with the error exact only
    /// where it is nonzero: Fast2Sum (Dekker) on the operands ordered by
    /// magnitude, two dependent operations after the sum where
    /// [`two_sum`] has four. `a + b` is the same sum, and a nonzero error
    /// is the exact `(a + b) - fl(a + b)`, so it is `two_sum`'s to the
    /// bit; a zero error may differ from `two_sum`'s in its sign, which
    /// `vec_sum_err_branch` never reads. Where `a + b` overflows, both
    /// errors are non-finite and the overflow reaches the lane's limbs,
    /// which hands the lane back.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn fast_two_sum(a: __m512d, b: __m512d) -> (__m512d, __m512d) {
        let s = _mm512_add_pd(a, b);
        let a_first = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_abs_pd(a), _mm512_abs_pd(b));
        let hi = _mm512_mask_blend_pd(a_first, b, a);
        let lo = _mm512_mask_blend_pd(a_first, a, b);
        (s, _mm512_sub_pd(lo, _mm512_sub_pd(s, hi)))
    }

    /// `out[j] = v` in the lanes of `at`, `j` each lane's own index.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn put<const M: usize>(out: &mut [__m512d; M], j: __m512i, at: __mmask8, v: __m512d) {
        for (p, slot) in out.iter_mut().enumerate() {
            let here = _mm512_mask_cmpeq_epi64_mask(at, j, _mm512_set1_epi64(p as i64));
            *slot = _mm512_mask_blend_pd(here, *slot, v);
        }
    }

    /// [`super::vec_sum_err_branch`] on eight lanes, without a branch per
    /// lane: each lane keeps its own output index `j`, a lane that
    /// would `return` is marked done and left as it is, and a write to
    /// `out[j]` is a masked blend into every slot. The sweep stops once
    /// every lane of `live` is done.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn vec_sum_err_branch<const M: usize>(e: &[__m512d], out: &mut [__m512d; M], live: __mmask8) {
        let zero = _mm512_setzero_pd();
        *out = [zero; M];
        let (one, m) = (_mm512_set1_epi64(1), _mm512_set1_epi64(M as i64));
        let mut j = _mm512_setzero_si512();
        let mut done: __mmask8 = !live;
        let mut eps = e[0];
        for &next in &e[1..] {
            let (r, new_eps) = fast_two_sum(eps, next);
            let nonzero = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(new_eps, zero);
            let full = _mm512_cmpge_epu64_mask(j, m);
            let write = !done & nonzero & !full;
            done |= nonzero & full;
            put(out, j, write, r);
            j = _mm512_mask_add_epi64(j, write, j, one);
            // a lane that wrote takes the error, one that did not the sum
            // (a done lane's `eps` is never read again)
            eps = _mm512_mask_blend_pd(nonzero, r, new_eps);
            if done == 0xff {
                return;
            }
        }
        let last =
            !done & _mm512_cmplt_epu64_mask(j, m) & _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(eps, zero);
        put(out, j, last, eps);
    }

    /// Presort magnitude class `t[at..at + S]` of keys with the `L`-lane
    /// network at its exact size, and the lanes where it leaves
    /// `renormalize` on its presort path: every key finite and nonzero, no
    /// two of equal `|x|` and opposite sign, and none above the smallest
    /// of the class before (`t[at - 1]`, already sorted).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn presort<const S: usize, const L: usize>(t: &mut [__m512d], at: usize) -> __mmask8
    where
        [__m512d; L]: Network,
    {
        let class = &mut t[at..at + S];
        sort_exact::<_, S, L>(class, _mm512_setzero_pd());
        let key: [__m512i; S] = core::array::from_fn(|i| _mm512_castpd_si512(class[i]));
        let one = _mm512_set1_epi64(1);
        // the largest key finite, the smallest nonzero (±0 are keys 0, 1)
        let mut ok = _mm512_cmplt_epu64_mask(
            _mm512_srli_epi64::<1>(key[0]),
            _mm512_set1_epi64(INF_BITS as i64),
        ) & _mm512_cmpgt_epu64_mask(key[S - 1], one);
        // sorted keys that differ only in bit 0, the sign: a tie
        for w in key.windows(2) {
            ok &= _mm512_cmpneq_epu64_mask(_mm512_xor_si512(w[0], w[1]), one);
        }
        if at > 0 {
            ok &= _mm512_cmpge_epu64_mask(
                _mm512_srli_epi64::<1>(_mm512_castpd_si512(t[at - 1])),
                _mm512_srli_epi64::<1>(key[0]),
            );
        }
        ok
    }

    /// `x` as presort keys: each lane's bits rotated left by one.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn key(x: __m512d) -> __m512d {
        _mm512_castsi512_pd(_mm512_rol_epi64::<1>(_mm512_castpd_si512(x)))
    }

    /// The doubles of presort keys: [`key`] undone.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn unkey(k: __m512d) -> __m512d {
        _mm512_castsi512_pd(_mm512_ror_epi64::<1>(_mm512_castpd_si512(k)))
    }

    /// The lanes of `x` that are finite.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn finite(x: __m512d) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LE_OQ>(_mm512_abs_pd(x), _mm512_set1_pd(f64::MAX))
    }

    /// Eight expansions, structure of arrays, as `__m512d` limbs.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load<const N: usize>(x: &[[f64; LANES]; N]) -> [__m512d; N] {
        x.map(|x| {
            // Safety: `x` is eight readable doubles; the load is unaligned.
            unsafe { _mm512_loadu_pd(x.as_ptr()) }
        })
    }

    /// [`super::renormalize`] after its sort, on eight lanes: `vec_sum`
    /// over the terms `t`, `vec_sum_err_branch` into `N` limbs, and the
    /// second pass, stored to `out`. Every producer on the lane path ends
    /// here, as `truncated_mul`, `mul_by_double` and `od_add` end in
    /// `renormalize`. Returns `ok` less the lanes whose limbs came out
    /// non-finite (where [`fast_two_sum`] may differ from `two_sum`). That
    /// also hands back every lane with a NaN or an infinity among its
    /// terms: the `vec_sum` total is then one of them, and the first step
    /// of `vec_sum_err_branch` writes it to limb 0.
    ///
    /// A lane's nonzero terms must come in the order `renormalize`'s
    /// stable sort gives them; its ±0 terms may sit anywhere. The sort
    /// moves them last, and `two_sum(x, ±0) = (x, +0)`: a zero passes the
    /// `vec_sum` sweep as a `+0` error and leaves the running sum as it
    /// is, and `vec_sum_err_branch` writes nothing for it, so the limbs
    /// are those of the nonzero terms alone. A lane of ±0 terms only
    /// writes no limb and keeps the `+0` that `renormalize`'s all-zero
    /// shortcut returns.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn compress<const M: usize, const N: usize>(
        t: &mut [__m512d; M],
        mut ok: __mmask8,
        out: &mut [[f64; LANES]; N],
    ) -> __mmask8 {
        vec_sum(t);
        let mut limbs = [_mm512_setzero_pd(); N];
        vec_sum_err_branch(t, &mut limbs, ok);
        // the second pass over the compact result
        vec_sum(&mut limbs);
        let tmp = limbs;
        vec_sum_err_branch(&tmp, &mut limbs, ok);
        for (o, x) in out.iter_mut().zip(&limbs) {
            ok &= finite(*x);
            // Safety: `o` is eight writable doubles; the store is unaligned.
            unsafe { _mm512_storeu_pd(o.as_mut_ptr(), *x) };
        }
        ok
    }

    /// Eight certified truncated products of `N`-limb expansions at once:
    /// lane `l` multiplies `a[·][l]` by `b[·][l]` (structure of arrays,
    /// limb `p` of lane `l` at `[p][l]`) into `out[·][l]`. It replays
    /// [`super::truncated_mul`] step for step: the
    /// [`super::truncated_product`] fill (`two_prod`'s error as one
    /// `vfmsub`), the rotate-left keys presorted class by class with
    /// exact-size `vpmaxuq`/`vpminuq` networks, then `compress`. `N` is 4
    /// or 8, `CAP` is `N²`.
    ///
    /// Returns the mask of the lanes that took this path; their limbs are
    /// `truncated_mul`'s, bit for bit. A lane whose scratch holds a zero
    /// term, a NaN or an infinity, two terms of one class of equal `|x|` and
    /// opposite sign, or two classes out of order — every place where
    /// `renormalize` would leave the presort for the insertion sort — or
    /// whose limbs come out non-finite, is not in the mask, and its `out` is
    /// meaningless: the caller recomputes it with the scalar product.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512DQ, AVX-512VL and FMA.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    pub unsafe fn truncated_mul_lanes<const N: usize, const CAP: usize>(
        a: &[[f64; LANES]; N],
        b: &[[f64; LANES]; N],
        out: &mut [[f64; LANES]; N],
    ) -> u8 {
        const { assert!((N == 4 || N == 8) && CAP == N * N) };
        let (a, b) = (load(a), load(b));
        // the fill: class k in slots k² .. (k + 1)², diagonal k's products
        // then diagonal k - 1's errors; the last diagonal's products plain
        let mut t = [_mm512_setzero_pd(); CAP];
        for k in 0..N {
            for i in 0..=k {
                let p = _mm512_mul_pd(a[i], b[k - i]);
                t[k * k + i] = p;
                if k + 1 < N {
                    t[(k + 1) * (k + 1) + k + 2 + i] = _mm512_fmsub_pd(a[i], b[k - i], p);
                }
            }
        }
        for x in t.iter_mut() {
            *x = key(*x);
        }
        let mut ok = presort::<1, 1>(&mut t, 0)
            & presort::<3, 4>(&mut t, 1)
            & presort::<5, 8>(&mut t, 4)
            & presort::<7, 8>(&mut t, 9);
        if N == 8 {
            ok &= presort::<9, 16>(&mut t, 16)
                & presort::<11, 16>(&mut t, 25)
                & presort::<13, 16>(&mut t, 36)
                & presort::<15, 16>(&mut t, 49);
        }
        for x in t.iter_mut() {
            *x = unkey(*x);
        }
        compress(&mut t, ok, out)
    }

    /// The lanes of presort keys `t` whose nonzero terms come in
    /// decreasing order of `|x|`, ties allowed: each nonzero key's
    /// magnitude is at most that of the nonzero key before it. A ±0 term
    /// (key 0 or 1) may sit anywhere ([`compress`]).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn nonzero_in_order(t: &[__m512d]) -> __mmask8 {
        let one = _mm512_set1_epi64(1);
        let mut floor = _mm512_set1_epi64(-1);
        let mut ok = 0xff;
        for k in t {
            let k = _mm512_castpd_si512(*k);
            let nonzero = _mm512_cmpgt_epu64_mask(k, one);
            let size = _mm512_srli_epi64::<1>(k);
            ok &= !_mm512_mask_cmplt_epu64_mask(nonzero, floor, size);
            floor = _mm512_mask_mov_epi64(floor, nonzero, size);
        }
        ok
    }

    /// Eight products of an `N`-limb expansion by a double at once: lane
    /// `l` multiplies `a[·][l]` by `b[l]` into `out[·][l]`, replaying
    /// [`super::mul_by_double`]: the fill `p_0`, then `[p_i, e_{i-1}]`, each
    /// class of two sorted by one compare-exchange, then `compress`. `N` is
    /// 4 or 8, `CAP` is `2N - 1`.
    ///
    /// Returns the mask of the lanes that took this path, with
    /// `mul_by_double`'s limbs, bit for bit. Zero terms (a zero limb of
    /// `a`, a zero `b`, an exact partial product) are taken wherever they
    /// fall: `renormalize`'s stable sort moves them last, and `compress`
    /// reads only the order of the nonzero terms, which must already be
    /// the sort's: a lane with two terms of one class of equal `|x|` and
    /// opposite sign, a nonzero term above the nonzero term before it, or
    /// a NaN or an infinity (`compress`) is handed back, its `out`
    /// meaningless.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512DQ, AVX-512VL and FMA.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    pub unsafe fn mul_by_double_lanes<const N: usize, const CAP: usize>(
        a: &[[f64; LANES]; N],
        b: &[f64; LANES],
        out: &mut [[f64; LANES]; N],
    ) -> u8 {
        const { assert!((N == 4 || N == 8) && CAP + 1 == 2 * N) };
        let ([b], a) = (load(&[*b]), load(a));
        // a `b` of ±0 times a finite `a` in every lane: every term is ±0
        let zero = a.iter().fold(
            _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(b, _mm512_setzero_pd()),
            |m, x| m & finite(*x),
        );
        if zero == 0xff {
            *out = [[0.0; LANES]; N];
            return zero;
        }
        // class 0 is `p_0` in slot 0; class i is `p_i, e_{i-1}` in slots
        // 2i - 1, 2i
        let mut t = [_mm512_setzero_pd(); CAP];
        for i in 0..N {
            let p = _mm512_mul_pd(a[i], b);
            t[(2 * i).max(1) - 1] = p;
            if i + 1 < N {
                t[2 * i + 2] = _mm512_fmsub_pd(a[i], b, p);
            }
        }
        for x in t.iter_mut() {
            *x = key(*x);
        }
        let one = _mm512_set1_epi64(1);
        let mut ok = 0xff;
        for i in 1..N {
            sort_exact::<_, 2, 2>(&mut t[2 * i - 1..], _mm512_setzero_pd());
            // sorted nonzero keys that differ only in bit 0, the sign: a tie
            let (hi, lo) = (
                _mm512_castpd_si512(t[2 * i - 1]),
                _mm512_castpd_si512(t[2 * i]),
            );
            ok &= !(_mm512_cmpeq_epu64_mask(_mm512_xor_si512(hi, lo), one)
                & _mm512_cmpgt_epu64_mask(lo, one));
        }
        ok &= nonzero_in_order(&t);
        for x in t.iter_mut() {
            *x = unkey(*x);
        }
        compress(&mut t, ok, out)
    }

    /// Eight sums of `N`-limb expansions at once: lane `l` adds `b[·][l]`
    /// to `a[·][l]` (`sub` false) or subtracts it (`sub` true) into
    /// `out[·][l]`, replaying the width's scalar operator:
    ///
    /// * at `N` = 4, QDlib's straight-line `qd_add`/`qd_sub` and the whole
    ///   branch tree of its `qd_renorm5`, as a masked compaction: every
    ///   lane with finite operands and limbs is taken;
    /// * at `N` = 8, `od_add`/`od_sub` (`od_add` of `-b`): the comparison
    ///   merge as an odd-even merge network on the presort keys, then
    ///   `compress`. A lane is taken when each operand's nonzero limbs
    ///   come first and in decreasing key order, and only ±0 limbs follow
    ///   them (a dense operand, an f64 widened, an all-zero one), and no
    ///   two merged nonzero terms are of equal `|x|` and opposite sign
    ///   (there the merge takes `a`'s term first, the keys the negative
    ///   one). Then the scalar merge pushes the nonzero terms in that
    ///   merged order and every zero after them, and its `renormalize`
    ///   moves nothing; the zeros enter `compress` as `+0`.
    ///
    /// A taken lane also has finite operands and limbs. Returns the mask of
    /// the taken lanes, with the scalar operator's limbs, bit for bit; the
    /// `out` of any other lane is meaningless.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512DQ, AVX-512VL and FMA.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    pub unsafe fn add_lanes<const N: usize>(
        a: &[[f64; LANES]; N],
        b: &[[f64; LANES]; N],
        sub: bool,
        out: &mut [[f64; LANES]; N],
    ) -> u8 {
        const { assert!(N == 4 || N == 8) };
        let (a, b) = (load(a), load(b));
        if N == 4 {
            qd_add(&a, &b, sub, out)
        } else {
            od_add(&a, &b, sub, out)
        }
    }

    /// [`add_lanes`] at four limbs: `qd_add` (`sub` false) or `qd_sub`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn qd_add<const N: usize>(
        a: &[__m512d; N],
        b: &[__m512d; N],
        sub: bool,
        out: &mut [[f64; LANES]; N],
    ) -> __mmask8 {
        let first = |x, y| if sub { two_diff(x, y) } else { two_sum(x, y) };
        let (s0, t0) = first(a[0], b[0]);
        let (s1, t1) = first(a[1], b[1]);
        let (s2, t2) = first(a[2], b[2]);
        let (s3, t3) = first(a[3], b[3]);
        let (s1, t0) = two_sum(s1, t0);
        // three_sum(s2, t0, t1)
        let (u1, u2) = two_sum(s2, t0);
        let (s2, u3) = two_sum(t1, u1);
        let (t0, t1) = two_sum(u2, u3);
        // three_sum2(s3, t0, t2)
        let (u1, u2) = two_sum(s3, t0);
        let (s3, u3) = two_sum(t2, u1);
        let t0 = _mm512_add_pd(u2, u3);
        let t0 = _mm512_add_pd(_mm512_add_pd(t0, t1), t3);
        // qd_renorm5(s0, s1, s2, s3, t0): its straight-line sweep, then its
        // branch tree. Each lane holds the index `j` of its current limb,
        // 1 where `c1` is nonzero and 0 elsewhere; each of `c2`, `c3`, `c4`
        // folds into limb `j` by `quick_two_sum`, its error going to limb
        // `j + 1`, and `j` moves on where that error is nonzero. A lane on
        // limb 3 adds `c4` plainly, the sum `quick_two_sum` forms.
        let (s, c4) = quick_two_sum(s3, t0);
        let (s, c3) = quick_two_sum(s2, s);
        let (s, c2) = quick_two_sum(s1, s);
        let (c0, c1) = quick_two_sum(s0, s);
        let zero = _mm512_setzero_pd();
        let nonzero = |x| _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(x, zero);
        let mut limb = [c0, c1, zero, zero];
        // at[k]: the lanes whose `j` is k
        let mut at: [__mmask8; 4] = [!nonzero(c1), nonzero(c1), 0, 0];
        for c in [c2, c3, c4] {
            let cur = (1..4).fold(limb[0], |v, k| _mm512_mask_blend_pd(at[k], v, limb[k]));
            let (s, e) = quick_two_sum(cur, c);
            let moved = nonzero(e);
            let mut next = [0; 4];
            for k in 0..4 {
                limb[k] = _mm512_mask_blend_pd(at[k], limb[k], s);
                if k < 3 {
                    limb[k + 1] = _mm512_mask_blend_pd(at[k], limb[k + 1], e);
                    next[k] |= at[k] & !moved;
                    next[k + 1] |= at[k] & moved;
                }
            }
            at = next;
        }
        // a non-finite operand or sum reaches `c0`, and so limb 0
        let mut ok = 0xff;
        for (o, x) in out.iter_mut().zip(limb) {
            ok &= finite(x);
            // Safety: `o` is eight writable doubles; the store is unaligned.
            unsafe { _mm512_storeu_pd(o.as_mut_ptr(), x) };
        }
        ok
    }

    /// [`add_lanes`] at eight limbs: `od_add` (`sub` false) or `od_sub`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn od_add<const N: usize>(
        a: &[__m512d; N],
        b: &[__m512d; N],
        sub: bool,
        out: &mut [[f64; LANES]; N],
    ) -> __mmask8 {
        let bits = |k: __m512d| _mm512_castpd_si512(k);
        let one = _mm512_set1_epi64(1);
        // the keys of `x`, each sign flipped by `flip` (bit 0 of a key),
        // and ±0 (keys 0, 1) as key 0, so that a zero tail is in key order
        let keys = |x: &[__m512d; N], flip: i64| {
            x.map(|x| {
                let k = _mm512_xor_si512(bits(key(x)), _mm512_set1_epi64(flip));
                _mm512_castsi512_pd(_mm512_maskz_mov_epi64(_mm512_cmpgt_epu64_mask(k, one), k))
            })
        };
        // `-b` flips each limb's sign
        let (ka, kb) = (keys(a, 0), keys(b, i64::from(sub)));
        let ored = ka
            .iter()
            .chain(&kb)
            .fold(_mm512_setzero_si512(), |m, k| _mm512_or_si512(m, bits(*k)));
        // every one of the 16 terms ±0
        if _mm512_test_epi64_mask(ored, ored) == 0 {
            *out = [[0.0; LANES]; N];
            return 0xff;
        }
        // per operand: keys in decreasing order, the zeros last (a
        // non-finite operand is handed back by `compress`)
        let sorted = |k: &[__m512d; N]| {
            k.windows(2).fold(0xff, |m, w| {
                m & _mm512_cmpge_epu64_mask(bits(w[0]), bits(w[1]))
            })
        };
        let mut ok = sorted(&ka) & sorted(&kb);
        let mut k: [__m512d; 16] = core::array::from_fn(|i| if i < 8 { ka[i] } else { kb[i - 8] });
        merge_runs(&mut k);
        // merged keys that differ only in bit 0, the sign: a tie (a zero
        // is key 0, never one of them)
        for w in k.windows(2) {
            ok &= _mm512_cmpneq_epu64_mask(_mm512_xor_si512(bits(w[0]), bits(w[1])), one);
        }
        for x in k.iter_mut() {
            *x = unkey(*x);
        }
        compress(&mut k, ok, out)
    }
}

#[cfg(target_arch = "x86_64")]
pub use lanes::{add_lanes, mul_by_double_lanes, truncated_mul_lanes, LANES};

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

    /// Every size 2..=16 through the exact-size presort `renormalize` runs:
    /// each sorts all 2^S zero-one inputs (the 0-1 principle), and a class
    /// holding a NaN or an equal-`|x|` pair of opposite signs is left as
    /// pushed, in ascending order, where any reordering would show.
    #[test]
    fn networks_sort_every_zero_one_input() {
        for size in 2..=16 {
            for bits in 0u32..1 << size {
                let mut x: Vec<f64> = (0..size).map(|i| 1.0 + ((bits >> i) & 1) as f64).collect();
                presort_class::<f64, 16>(&mut x);
                assert!(x.windows(2).all(|w| w[0] >= w[1]), "{size} terms: {x:?}");
            }
            let ascending: Vec<f64> = (1..=size).map(|i| i as f64).collect();
            let mut sorted = ascending.clone();
            presort_class::<f64, 16>(&mut sorted);
            assert!(
                sorted.windows(2).all(|w| w[0] > w[1]),
                "{size} terms: {sorted:?}"
            );
            let mut nan = ascending.clone();
            nan[size / 2] = f64::NAN;
            let mut pair = ascending.clone();
            pair[size - 1] = -pair[size - 2];
            for pushed in [nan, pair] {
                let mut x = pushed.clone();
                presort_class::<f64, 16>(&mut x);
                assert_eq!(
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    pushed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{size} terms: {pushed:?} became {x:?}"
                );
            }
        }
    }

    /// `merge_runs` merges every pair of sorted runs of eight zero-one keys
    /// (the 0-1 principle for merging networks: 9 × 9 pairs).
    #[test]
    fn merge_sorts_every_zero_one_pair_of_runs() {
        for ones_a in 0..=8 {
            for ones_b in 0..=8 {
                let mut k: [u64; 16] = core::array::from_fn(|i| {
                    u64::from(i % 8 < if i < 8 { ones_a } else { ones_b })
                });
                merge_runs(&mut k);
                assert!(
                    k.windows(2).all(|w| w[0] >= w[1]),
                    "{ones_a} and {ones_b} ones: {k:?}"
                );
            }
        }
    }

    /// `sort_by_magnitude` before it carried the last sorted key.
    fn insertion_sort_reference(x: &mut [f64]) {
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

    /// 2·10⁵ seeded slices of 0–64 terms through `sort_by_magnitude` and
    /// the plain insertion sort, compared by `to_bits`: mostly decreasing
    /// runs (terms already in place take the shortcut) with terms out of
    /// place, ±0, ties of either sign, ±inf and NaN.
    #[test]
    fn sort_by_magnitude_matches_the_plain_insertion_sort() {
        let mut rng = Mix(36);
        for trial in 0..200_000 {
            let n = rng.below(65) as usize;
            let mut exp = rng.range(-20, 20);
            let mut x: Vec<f64> = Vec::with_capacity(n);
            for _ in 0..n {
                exp -= rng.range(-2, 8);
                let mut t = rng.sign() * (1.0 + rng.below(4) as f64 / 4.0) * 2f64.powi(exp);
                match rng.below(24) {
                    0 => t = rng.sign() * 0.0,
                    1 => t = [f64::INFINITY, -f64::INFINITY, f64::NAN][rng.below(3) as usize],
                    2 | 3 if !x.is_empty() => {
                        t = rng.sign() * x[rng.below(x.len() as u64) as usize]
                    }
                    _ => {}
                }
                x.push(t);
            }
            let (mut got, mut want) = (x.clone(), x.clone());
            sort_by_magnitude(&mut got);
            insertion_sort_reference(&mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "trial {trial}, input {x:?}"
            );
        }
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

    /// The terms `od_mul` (`N` = 8) or `qd_mul` (`N` = 4) pushes for
    /// `a * b`, by magnitude class: diagonal `k`'s products, then diagonal
    /// `(k - 1)`'s errors — classes of 1, 3, …, 2N − 1 terms.
    fn product_classes<const N: usize>(a: &[f64; N], b: &[f64; N]) -> Vec<Vec<f64>> {
        let mut classes: Vec<Vec<f64>> = Vec::with_capacity(N);
        let mut prev_err = Vec::new();
        for k in 0..N {
            let mut class = Vec::with_capacity(2 * k + 1);
            let mut err = Vec::with_capacity(k + 1);
            for i in 0..=k {
                let (p, e) = crate::eft::two_prod(a[i], b[k - i]);
                if k == N - 1 {
                    class.push(a[i] * b[k - i]);
                } else {
                    class.push(p);
                    err.push(e);
                }
            }
            class.append(&mut prev_err);
            prev_err = err;
            classes.push(class);
        }
        classes
    }

    /// One dense product scratch of `N`-limb operands whose limbs step
    /// down 53–60 bits, with one plant now and then: a term of a later
    /// class copied, either sign, from the class before (a tie across the
    /// boundary); a term of a later class scaled up past the class before,
    /// or a term of that class scaled down past the later one (the classes
    /// cross); or ±inf or NaN in a late class.
    fn planted_product<const N: usize>(rng: &mut Mix) -> Vec<Vec<f64>> {
        let mut operand = || -> [f64; N] {
            let mut exp = rng.range(-60, 60);
            core::array::from_fn(|_| {
                let limb =
                    rng.sign() * (1.0 + rng.below(1 << 52) as f64 * f64::EPSILON) * 2f64.powi(exp);
                exp -= rng.range(53, 60);
                limb
            })
        };
        let (a, b) = (operand(), operand());
        let mut classes = product_classes(&a, &b);
        let late = 1 + rng.below(N as u64 - 1) as usize;
        let at = rng.below(classes[late].len() as u64) as usize;
        match rng.below(5) {
            0 => {
                let from = &classes[late - 1];
                classes[late][at] = rng.sign() * from[rng.below(from.len() as u64) as usize];
            }
            1 => classes[late][at] *= 2f64.powi(rng.range(54, 130)),
            2 => {
                let early = &mut classes[late - 1];
                let at = rng.below(early.len() as u64) as usize;
                early[at] *= 2f64.powi(-rng.range(54, 130));
            }
            3 => {
                classes[late][at] = [f64::INFINITY, -f64::INFINITY, f64::NAN][rng.below(3) as usize]
            }
            _ => {}
        }
        classes
    }

    /// 2·10⁵ seeded product scratches in `od_mul`'s and `qd_mul`'s exact
    /// class layouts through `renormalize` and through the oracle, compared
    /// by `to_bits`, with `planted_product`'s plants. Both sides of the
    /// skipped insertion sort are hit: scratches the presort leaves in
    /// order, and scratches it does not.
    #[test]
    fn product_layouts_match_the_reference_bit_for_bit() {
        fn trial<const N: usize>(rng: &mut Mix, tally: &mut [usize; 2]) {
            let classes = planted_product::<N>(rng);
            let mut s = Scratch::<f64, 64>::new();
            for class in &classes {
                for &t in class {
                    s.push(t);
                }
                s.close_class();
            }
            let mut terms: Vec<f64> = classes.concat();
            let input = terms.clone();
            tally[presort_classes(&mut s.clone()) as usize] += 1;
            let (mut got, mut want) = ([0.0; N], [0.0; N]);
            renormalize(&mut s, &mut got);
            renormalize_reference(&mut terms, &mut want);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{N} limbs, input {input:?}: {got:?} vs {want:?}"
            );
        }
        let mut rng = Mix(2036);
        let (mut od, mut qd) = ([0; 2], [0; 2]);
        for _ in 0..100_000 {
            trial::<8>(&mut rng, &mut od);
            trial::<4>(&mut rng, &mut qd);
        }
        for (name, [ran, skipped]) in [("od", od), ("qd", qd)] {
            assert!(
                ran > 10_000 && skipped > 10_000,
                "{name}: {skipped} skipped the insertion sort, {ran} ran it"
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

    /// A `pin_operand` limb: a full 53-bit mantissa times `2^exp`.
    fn pin_limb(rng: &mut Mix, exp: i32) -> f64 {
        rng.sign() * (1.0 + rng.below(1 << 52) as f64 * f64::EPSILON) * 2f64.powi(exp)
    }

    /// An operand for the bit pin: a dense expansion whose limbs step down
    /// 53–60 bits, now and then with a ±0 limb, only limb 0 nonzero (an
    /// f64 widened), sparse limbs (gaps of 54–120 bits), or ±inf or NaN in
    /// one limb.
    fn pin_operand<const N: usize>(rng: &mut Mix) -> [f64; N] {
        let mut exp = rng.range(-60, 60);
        let mut x: [f64; N] = core::array::from_fn(|_| {
            let limb = pin_limb(rng, exp);
            exp -= rng.range(53, 60);
            limb
        });
        let at = rng.below(N as u64) as usize;
        match rng.below(16) {
            0 | 1 => x[at] = rng.sign() * 0.0,
            2 | 3 => x[1..].iter_mut().for_each(|v| *v = rng.sign() * 0.0),
            4 | 5 => {
                let mut exp = rng.range(-60, 60);
                for v in &mut x {
                    *v = pin_limb(rng, exp);
                    exp -= rng.range(54, 120);
                }
            }
            6 => x[at] = [f64::INFINITY, -f64::INFINITY, f64::NAN][rng.below(3) as usize],
            _ => {}
        }
        x
    }

    /// FNV-1a over the bits of every quad and octo double product,
    /// by-double product, quotient and square root, the `Qd`/`Od` `*`
    /// operators, `MdReal::{abs, floor, mul_pwr2, sqrt}` and `partial_cmp`,
    /// on 4 096 seeded `pin_operand` pairs per width plus fixed ±0, ±inf,
    /// NaN and widened operands. NaN is hashed as one canonical NaN (its
    /// sign and payload are the compiler's choice). The digest was recorded
    /// before the quad and octo double products were written once,
    /// generically over the limb count: any change to an output bit fails it.
    #[test]
    fn product_bits_are_pinned() {
        use crate::od::{od_div, od_mul, od_mul_f, od_sqrt, Od};
        use crate::qd::{qd_div, qd_mul, qd_mul_f, qd_sqrt, Qd};
        use crate::real::MdReal;
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, xs: &[f64]) {
                for &x in xs {
                    let bits = if x.is_nan() { f64::NAN } else { x }.to_bits();
                    for b in bits.to_le_bytes() {
                        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        fn fixed<const N: usize>() -> Vec<[f64; N]> {
            let mut widened = [0.0; N];
            widened[0] = 1.5;
            let mut nan_tail = [1.0; N];
            nan_tail[N - 1] = f64::NAN;
            vec![
                [0.0; N],
                [-0.0; N],
                widened,
                [f64::INFINITY; N],
                [f64::NAN; N],
                nan_tail,
            ]
        }
        fn pairs<const N: usize>(rng: &mut Mix) -> Vec<([f64; N], [f64; N])> {
            let mut out: Vec<_> = (0..4096)
                .map(|_| (pin_operand::<N>(rng), pin_operand::<N>(rng)))
                .collect();
            let fixed = fixed::<N>();
            for &a in &fixed {
                for &b in &fixed {
                    out.push((a, b));
                }
                out.push((a, pin_operand::<N>(rng)));
                out.push((pin_operand::<N>(rng), a));
            }
            out
        }
        let order = |o: Option<core::cmp::Ordering>| [o.map_or(3.0, |o| o as i8 as f64)];
        let mut rng = Mix(37);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (a, b) in pairs::<4>(&mut rng) {
            let (x, y) = (Qd(a), Qd(b));
            let p = 2f64.powi(rng.range(-60, 60));
            h.eat(&qd_mul(a, b));
            h.eat(&qd_mul_f(a, b[0]));
            h.eat(&qd_div(a, b));
            h.eat(&qd_sqrt(x.abs().0));
            h.eat(&(x * y).0);
            h.eat(&MdReal::abs(x).0);
            h.eat(&MdReal::floor(x).0);
            h.eat(&MdReal::mul_pwr2(x, p).0);
            h.eat(&MdReal::sqrt(x).0);
            h.eat(&order(x.partial_cmp(&y)));
        }
        for (a, b) in pairs::<8>(&mut rng) {
            let (x, y) = (Od(a), Od(b));
            let p = 2f64.powi(rng.range(-60, 60));
            h.eat(&od_mul(a, b));
            h.eat(&od_mul_f(a, b[0]));
            h.eat(&od_div(a, b));
            h.eat(&od_sqrt(x.abs().0));
            h.eat(&(x * y).0);
            h.eat(&MdReal::abs(x).0);
            h.eat(&MdReal::floor(x).0);
            h.eat(&MdReal::mul_pwr2(x, p).0);
            h.eat(&MdReal::sqrt(x).0);
            h.eat(&order(x.partial_cmp(&y)));
        }
        assert_eq!(h.0, 0x92ba_e543_6395_7feb, "digest {:#018x}", h.0);
    }

    /// FNV-1a over the bits of `Dd`'s `+ − × ÷`, `Neg`, `abs`, `sqrt`,
    /// `recip`, `to_f64`, `floor`, `mul_pwr2` and `partial_cmp`, the
    /// inherent methods and their `MdReal` forms both, and of the
    /// `from_limb_fn`/`limbs` round trip, on 4 096 seeded `pin_operand`
    /// pairs plus fixed ±0, subnormal, ±inf, NaN and one-limb operands.
    /// NaN is hashed as one canonical NaN. The digest was recorded while
    /// `Dd` still had its own hand-written operators: any change to an
    /// output bit of its surface fails it.
    #[test]
    fn dd_surface_bits_are_pinned() {
        use crate::dd::Dd;
        use crate::real::MdReal;
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, xs: &[f64]) {
                for &x in xs {
                    let bits = if x.is_nan() { f64::NAN } else { x }.to_bits();
                    for b in bits.to_le_bytes() {
                        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let fixed: [[f64; 2]; 14] = [
            [0.0, 0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [5e-324, 0.0],
            [-1e-310, 2.5e-320],
            [inf, 0.0],
            [-inf, 0.0],
            [nan, 0.0],
            [1.0, nan],
            [2.0, inf],
            [1.5, 0.0],
            [-3.0, 0.0],
            [7.0, -0.0],
            [2.75, 1e-20],
        ];
        let mut rng = Mix(41);
        let mut ops: Vec<([f64; 2], [f64; 2])> = (0..4096)
            .map(|_| (pin_operand::<2>(&mut rng), pin_operand::<2>(&mut rng)))
            .collect();
        for &a in &fixed {
            for &b in &fixed {
                ops.push((a, b));
            }
            ops.push((a, pin_operand::<2>(&mut rng)));
            ops.push((pin_operand::<2>(&mut rng), a));
        }
        let order = |o: Option<core::cmp::Ordering>| [o.map_or(3.0, |o| o as i8 as f64)];
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (a, b) in ops {
            let x = <Dd as MdReal>::from_limb_fn(|i| a[i]);
            let y = <Dd as MdReal>::from_limb_fn(|i| b[i]);
            let p = 2f64.powi(rng.range(-60, 60));
            h.eat(&x.limbs());
            h.eat(&(x + y).limbs());
            h.eat(&(x - y).limbs());
            h.eat(&(x * y).limbs());
            h.eat(&(x / y).limbs());
            h.eat(&(-x).limbs());
            h.eat(&x.abs().limbs());
            h.eat(&x.sqrt().limbs());
            h.eat(&x.abs().sqrt().limbs());
            h.eat(&x.recip().limbs());
            h.eat(&[x.to_f64()]);
            h.eat(&MdReal::abs(x).limbs());
            h.eat(&MdReal::sqrt(x).limbs());
            h.eat(&MdReal::recip(x).limbs());
            h.eat(&[MdReal::to_f64(x), MdReal::hi(x), MdReal::limb(x, 1)]);
            h.eat(&MdReal::floor(x).limbs());
            h.eat(&MdReal::mul_pwr2(x, p).limbs());
            h.eat(&order(x.partial_cmp(&y)));
            let mut z = x;
            z += y;
            z -= x;
            z *= y;
            z /= x;
            h.eat(&z.limbs());
        }
        assert_eq!(h.0, 0x1f87_1485_2084_3f6c, "digest {:#018x}", h.0);
    }
}
