//! Functional kernel bodies for Algorithm 2.
//!
//! Geometry convention: product kernels parallelize over output columns
//! (block `j` owns column `j`, threads stride the rows); the Householder
//! kernels run their reduction in block 0 while the declared grid carries
//! the multi-block geometry to the timing model (the paper's multi-block
//! reductions produce identical values — the simulator folds them into a
//! single sequential pass for clarity).
//!
//! Memory convention: a block stages the columns it needs into
//! block-local vectors (`load_col`, the simulator's shared memory) and
//! runs the unit-stride loops of [`gpusim::shared`] on them. An operand
//! every block of a launch reads — `Q` in `Q*WYᵀ`, `YWᴴ` in `YWT*C`, `Y`
//! in `Y*Wᵀ` and the reflector in `update R` — is staged once per launch
//! instead, by the driver, as one AoS copy ([`Staged`]); the blocks read
//! their columns out of it. Products are written in column-axpy order —
//! the output column is a block-local accumulator that takes one input
//! column per step `t` — which gives every output element the same
//! zero-started, `t`-ordered sum a per-element dot product would, while
//! walking the column-major operands by column instead of by row.
//! Reductions are written in the same order: a launch's dot products
//! (`β·Rᴴv`, compute W's `Yᴴv`) stage their columns as conjugated rows
//! and take one `axpy` per row across all outputs
//! ([`gpusim::shared::dots_by_rows`]), so output `j` still sums
//! `conj(X[i, j])·v[i]` from zero in `i` order, while the outputs' sums
//! advance side by side instead of one latency-bound chain at a time.
//!
//! Trapezoid convention: the paper's WY kernels run at full height `M`,
//! and the cost model ([`crate::cost`]) and the launch geometry price
//! them that way, zero rows above each panel included. The bodies skip
//! the terms whose result is known to be an exact zero: `Y` and `W` hold
//! `±0` above row `col0` (`Y` is written as `+0` there), so `YWᴴ` is `+0`
//! outside rows and columns `col0..M`. A skipped term is one that adds
//! an exact-zero product to an accumulator that is still `+0` in every
//! limb, which leaves that accumulator `+0`; an output whose every term
//! is such a term is stored as `+0`. Trailing zero terms (rows
//! `col0..col0 + t` of `Y[:, t]`) are still added: for multiple doubles
//! `x + 0` need not return `x` bit for bit. Every output bit is the
//! full-height body's (a test-only copy of those bodies checks it) as
//! long as the data are finite. On non-finite data the skipped terms
//! would have been NaN, not zero: the bits may differ there, and the
//! solver's tests check that such an entry still poisons every limb of
//! the solution.
//!
//! Identity convention: the `Q*WYᵀ` launch is priced and launched as the
//! full `M × M × (M − col0)` product on every panel, but while `Q` is
//! exactly the identity (panel 0 of every factorization that starts from
//! `init_q_identity`) the driver runs [`qwyt_identity_block`], which forms
//! only the term of each entry whose `Q` factor is `1`. The zero terms
//! before it are skipped under the rule above. The ones after it are
//! dropped too: each adds `0·b` to `s = +0 + 1·a`, and unlike a general
//! `x + 0`, that returns `s` bit for bit for every scalar type
//! (`multidouble`'s scalar tests pin the rule on seeded values and planted
//! traps). The body stores [`qwyt_block`]'s bits on finite data, and the
//! driver's tests check it against both product bodies.

use core::ops::Range;

use gpusim::shared::{axmy, axpy, dots_by_rows};
use gpusim::{BlockCtx, DeviceBuf, DeviceMat};
use multidouble::{MdReal, MdScalar};

/// Rows of some columns of a device matrix, copied once per launch into
/// one block-local AoS array, column after column: the operand every
/// block of the launch reads (see the module doc). Nothing is copied from
/// an unmaterialized (model-only) matrix, whose launches run no body.
pub struct Staged<'a, S: MdScalar> {
    /// The matrix the columns were copied from.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the test oracle bodies read the source")
    )]
    src: &'a DeviceMat<S>,
    cols: Vec<S>,
    c0: usize,
    h: usize,
}

impl<'a, S: MdScalar> Staged<'a, S> {
    /// Rows `rows` of columns `cols` of `src`.
    pub fn new(src: &'a DeviceMat<S>, cols: Range<usize>, rows: Range<usize>) -> Self {
        let h = rows.len();
        let mut staged = Staged {
            src,
            cols: Vec::new(),
            c0: cols.start,
            h,
        };
        if src.buf.is_materialized() && h > 0 {
            staged.cols = vec![S::zero(); cols.len() * h];
            for (c, out) in cols.zip(staged.cols.chunks_exact_mut(h)) {
                src.load_col(c, rows.start, out);
            }
        }
        staged
    }

    /// Nothing staged, for a body that does not read the operand.
    pub fn none(src: &'a DeviceMat<S>) -> Self {
        Staged::new(src, 0..0, 0..0)
    }

    /// The staged rows of column `c`.
    pub fn col(&self, c: usize) -> &[S] {
        &self.cols[(c - self.c0) * self.h..][..self.h]
    }

    /// The device matrix the columns were copied from, for the oracle
    /// bodies, which read it in every block as the staging replaced.
    #[cfg(test)]
    pub(crate) fn source(&self) -> &'a DeviceMat<S> {
        self.src
    }
}

/// Householder `β, v` for global column `c`.
///
/// Reads `R[c..m, c]`, writes the normalized reflector into `y[.., l]`
/// (`y[c, l] = 1`), and `β` (lifted to the scalar type) into `betas[l]`.
pub fn beta_v_block<S: MdScalar>(
    ctx: BlockCtx,
    r: &DeviceMat<S>,
    y: &DeviceMat<S>,
    betas: &DeviceBuf<S>,
    c: usize,
    l: usize,
) {
    if ctx.block != 0 {
        return;
    }
    let m = r.rows;
    let x = r.col_to_vec(c, c, m - c);
    let alpha = x[0];
    // sigma = sum of |R[i, c]|^2 below the diagonal
    let mut sigma = <S::Real as MdReal>::zero();
    for xi in &x[1..] {
        sigma += xi.norm_sqr();
    }
    let alpha_sq = alpha.norm_sqr();
    let normx = (alpha_sq + sigma).sqrt();

    // Y is reused across panels: the rows of column l above the
    // reflector start are written as +0, the exact zeros the WY bodies
    // skip (see the module doc).
    let mut v = vec![S::zero(); m];
    v[c] = S::one();

    if normx.is_zero() {
        // zero column: identity reflector
        y.store_col(l, 0, &v);
        betas.set(l, S::zero());
        return;
    }

    // phase = alpha / |alpha| (sign for real data), guarding alpha == 0
    let abs_alpha = alpha_sq.sqrt();
    let phase = if abs_alpha.is_zero() {
        S::one()
    } else {
        alpha.unscale(abs_alpha)
    };
    // v1 = alpha + phase * ||x||: the cancellation-free choice
    let v1 = alpha + phase.scale(normx);
    let v1_sq = v1.norm_sqr();

    for (vi, xi) in v[c + 1..].iter_mut().zip(&x[1..]) {
        *vi = *xi / v1;
    }
    y.store_col(l, 0, &v);
    // beta = 2 / (v^H v) with v normalized to v[c] = 1:
    // v^H v = 1 + sigma / |v1|^2
    let two = <S::Real as MdReal>::from_f64(2.0);
    let beta = two / (<S::Real as MdReal>::one() + sigma / v1_sq);
    betas.set(l, S::from_real(beta));
}

/// `w[j] = β Σ_i conj(R[i, col0 + j]) v[i]` for `j = l..n` — the
/// transposed panel product with its sum reduction, the `n − l` dots side
/// by side.
pub fn beta_rtv_block<S: MdScalar>(
    ctx: BlockCtx,
    r: &DeviceMat<S>,
    y: &DeviceMat<S>,
    betas: &DeviceBuf<S>,
    w: &DeviceBuf<S>,
    col0: usize,
    l: usize,
    n: usize,
) {
    if ctx.block != 0 {
        return;
    }
    let c = col0 + l;
    let h = r.rows - c;
    let beta = betas.get(l);
    let v = y.col_to_vec(l, c, h);
    let rt = r.conj_rows_to_vec(c, n - l, c, h);
    let mut dots = vec![S::zero(); n - l];
    dots_by_rows(&mut dots, &rt, &v);
    for (j, d) in (l..).zip(dots) {
        w.set(j, d * beta);
    }
}

/// Rank-one update `R[i, col0 + j] -= v[i] * conj(w[j])`, block `j`;
/// `v` holds the staged reflector `Y[c.., l]`.
pub fn update_r_block<S: MdScalar>(
    ctx: BlockCtx,
    r: &DeviceMat<S>,
    v: &Staged<S>,
    w: &DeviceBuf<S>,
    col0: usize,
    l: usize,
) {
    let c = col0 + l;
    let h = r.rows - c;
    let j = c + ctx.block; // global column updated by this block
    let wj = w.get(l + ctx.block).conj();
    let mut rj = r.col_to_vec(j, c, h);
    axmy(&mut rj, v.col(l), wj);
    r.store_col(j, c, &rj);
}

/// One column of the WY aggregation:
/// `u = Yᴴ v_l` over columns `0..l`, then `W[:, l] = −β (v_l + W u)`.
///
/// `v_l` is `+0` above row `col0 + l`, so the dots start there; `Y` and
/// `W` are `±0` above row `col0`, so the W-axpys run over rows
/// `col0..M`. The negation runs at full height, so the rows of the
/// reused W buffer above the panel keep their `−0`.
pub fn compute_w_block<S: MdScalar>(
    ctx: BlockCtx,
    y: &DeviceMat<S>,
    wmat: &DeviceMat<S>,
    betas: &DeviceBuf<S>,
    col0: usize,
    l: usize,
) {
    if ctx.block != 0 {
        return;
    }
    let m = y.rows;
    let c = col0 + l;
    let beta = betas.get(l);
    let mut acc = y.col_to_vec(l, 0, m);
    let yt = y.conj_rows_to_vec(0, l, c, m - c);
    let mut u = vec![S::zero(); l];
    dots_by_rows(&mut u, &yt, &acc[c..]);
    let mut col = vec![S::zero(); m - col0];
    // acc starts at v_l and takes one W column per step
    for (t, ut) in u.iter().enumerate() {
        wmat.load_col(t, col0, &mut col);
        axpy(&mut acc[col0..], &col, *ut);
    }
    for a in &mut acc {
        *a = -(*a * beta);
    }
    wmat.store_col(l, 0, &acc);
}

/// `YWH[r, c2] = Σ_t Y[r, t] conj(W[c2, t])` — block `c2` of the
/// `M × M` output; `y` holds the staged rows `col0..M` of `Y`'s `n`
/// columns. Columns `c2 < col0` (`W`'s zero rows) are stored as `+0`; the
/// others take rows `col0..M` (`Y`'s nonzero rows).
pub fn ywt_block<S: MdScalar>(
    ctx: BlockCtx,
    y: &Staged<S>,
    wmat: &DeviceMat<S>,
    ywh: &DeviceMat<S>,
    col0: usize,
    n: usize,
) {
    let m = ywh.rows;
    let c2 = ctx.block;
    if c2 >= m {
        return;
    }
    let mut acc = vec![S::zero(); m];
    if c2 >= col0 {
        for t in 0..n {
            axpy(&mut acc[col0..], y.col(t), wmat.get(c2, t).conj());
        }
    }
    ywh.store_col(c2, 0, &acc);
}

/// `QWY[i, j] = Σ_t Q[i, t] conj(YWH[j, t])` — block `j` of the
/// `M × M` product; `q` holds the staged columns `col0..M` of `Q`. `YWH`
/// is `+0` outside rows and columns `col0..M`: columns `j < col0` are
/// stored as `+0`, the others sum from `t = col0`.
pub fn qwyt_block<S: MdScalar>(
    ctx: BlockCtx,
    q: &Staged<S>,
    ywh: &DeviceMat<S>,
    qwy: &DeviceMat<S>,
    col0: usize,
) {
    let m = ywh.rows;
    let j = ctx.block;
    if j >= m {
        return;
    }
    let mut acc = vec![S::zero(); m];
    if j >= col0 {
        for t in col0..m {
            axpy(&mut acc, q.col(t), ywh.get(j, t).conj());
        }
    }
    qwy.store_col(j, 0, &acc);
}

/// [`qwyt_block`] when `Q` is exactly the identity (see the module doc):
/// entry `(i, j)` is `+0 + 1·conj(YWH[j, i])` for `i, j >= col0` and `+0`
/// elsewhere; `Q` is neither staged nor read.
pub fn qwyt_identity_block<S: MdScalar>(
    ctx: BlockCtx,
    _q: &Staged<S>,
    ywh: &DeviceMat<S>,
    qwy: &DeviceMat<S>,
    col0: usize,
) {
    let m = ywh.rows;
    let j = ctx.block;
    if j >= m {
        return;
    }
    let mut acc = vec![S::zero(); m];
    if j >= col0 {
        for (i, a) in acc.iter_mut().enumerate().skip(col0) {
            *a += S::one() * ywh.get(j, i).conj();
        }
    }
    qwy.store_col(j, 0, &acc);
}

/// `dst[:, c] += src[:, c_src]` over the full height — the shared body
/// of the two matrix additions.
fn add_col<S: MdScalar>(dst: &DeviceMat<S>, c: usize, src: &DeviceMat<S>, c_src: usize) {
    let m = dst.rows;
    let mut acc = dst.col_to_vec(c, 0, m);
    let col = src.col_to_vec(c_src, 0, m);
    for (a, x) in acc.iter_mut().zip(&col) {
        *a += *x;
    }
    dst.store_col(c, 0, &acc);
}

/// `Q[i, j] += QWY[i, j]` over the full `M × M` — block `j`.
pub fn q_add_block<S: MdScalar>(ctx: BlockCtx, q: &DeviceMat<S>, qwy: &DeviceMat<S>) {
    let j = ctx.block;
    if j >= q.rows {
        return;
    }
    add_col(q, j, qwy, j);
}

/// `YWTC[r, j] = Σ_t YWH[r, t] R[t, cstart + j]` — block `j` (the
/// trailing-column update product); `ywh` holds the staged rows and
/// columns `col0..M` of `YWH`. `YWH` is `+0` outside them, so the sum
/// starts at `t = col0` and runs over rows `col0..M`.
pub fn ywtc_block<S: MdScalar>(
    ctx: BlockCtx,
    ywh: &Staged<S>,
    r: &DeviceMat<S>,
    ywtc: &DeviceMat<S>,
    col0: usize,
    cstart: usize,
) {
    let m = r.rows;
    let j = ctx.block;
    if cstart + j >= r.cols {
        return;
    }
    let rj = r.col_to_vec(cstart + j, col0, m - col0);
    let mut acc = vec![S::zero(); m];
    for (t, rt) in (col0..).zip(&rj) {
        axpy(&mut acc[col0..], ywh.col(t), *rt);
    }
    ywtc.store_col(j, 0, &acc);
}

/// `R[r, cstart + j] += YWTC[r, j]` over the full height — block `j`.
pub fn r_add_block<S: MdScalar>(
    ctx: BlockCtx,
    r: &DeviceMat<S>,
    ywtc: &DeviceMat<S>,
    cstart: usize,
) {
    let j = ctx.block;
    if cstart + j >= r.cols {
        return;
    }
    add_col(r, cstart + j, ywtc, j);
}

/// The bodies as they ran before the trapezoid skip, the staged operands
/// and the side-by-side dots: the four WY products at full height `M`,
/// every operand read from the device matrices in every block, every dot
/// index-ordered, one output at a time. The oracle the driver's tests
/// hold the production bodies to, bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `Σ_i conj(a[i]) * b[i]`, from zero in index order.
    fn dot_conj<S: MdScalar>(a: &[S], b: &[S]) -> S {
        let mut acc = S::zero();
        for (x, y) in a.iter().zip(b) {
            acc += x.conj() * *y;
        }
        acc
    }

    pub(crate) fn beta_rtv_block<S: MdScalar>(
        ctx: BlockCtx,
        r: &DeviceMat<S>,
        y: &DeviceMat<S>,
        betas: &DeviceBuf<S>,
        w: &DeviceBuf<S>,
        col0: usize,
        l: usize,
        n: usize,
    ) {
        if ctx.block != 0 {
            return;
        }
        let c = col0 + l;
        let h = r.rows - c;
        let beta = betas.get(l);
        let v = y.col_to_vec(l, c, h);
        let mut rj = vec![S::zero(); h];
        for j in l..n {
            r.load_col(col0 + j, c, &mut rj);
            w.set(j, dot_conj(&rj, &v) * beta);
        }
    }

    pub(crate) fn update_r_block<S: MdScalar>(
        ctx: BlockCtx,
        r: &DeviceMat<S>,
        y: &Staged<S>,
        w: &DeviceBuf<S>,
        col0: usize,
        l: usize,
    ) {
        let c = col0 + l;
        let h = r.rows - c;
        let j = c + ctx.block;
        let wj = w.get(l + ctx.block).conj();
        let v = y.source().col_to_vec(l, c, h);
        let mut rj = r.col_to_vec(j, c, h);
        axmy(&mut rj, &v, wj);
        r.store_col(j, c, &rj);
    }

    pub(crate) fn compute_w_block<S: MdScalar>(
        ctx: BlockCtx,
        y: &DeviceMat<S>,
        wmat: &DeviceMat<S>,
        betas: &DeviceBuf<S>,
        _col0: usize,
        l: usize,
    ) {
        if ctx.block != 0 {
            return;
        }
        let m = y.rows;
        let beta = betas.get(l);
        let mut acc = y.col_to_vec(l, 0, m);
        let mut col = vec![S::zero(); m];
        let u: Vec<S> = (0..l)
            .map(|t| {
                y.load_col(t, 0, &mut col);
                dot_conj(&col, &acc)
            })
            .collect();
        for (t, ut) in u.iter().enumerate() {
            wmat.load_col(t, 0, &mut col);
            axpy(&mut acc, &col, *ut);
        }
        for a in &mut acc {
            *a = -(*a * beta);
        }
        wmat.store_col(l, 0, &acc);
    }

    pub(crate) fn ywt_block<S: MdScalar>(
        ctx: BlockCtx,
        y: &Staged<S>,
        wmat: &DeviceMat<S>,
        ywh: &DeviceMat<S>,
        _col0: usize,
        n: usize,
    ) {
        let y = y.source();
        let m = y.rows;
        let c2 = ctx.block;
        if c2 >= m {
            return;
        }
        let mut acc = vec![S::zero(); m];
        let mut col = vec![S::zero(); m];
        for t in 0..n {
            y.load_col(t, 0, &mut col);
            axpy(&mut acc, &col, wmat.get(c2, t).conj());
        }
        ywh.store_col(c2, 0, &acc);
    }

    pub(crate) fn qwyt_block<S: MdScalar>(
        ctx: BlockCtx,
        q: &Staged<S>,
        ywh: &DeviceMat<S>,
        qwy: &DeviceMat<S>,
        _col0: usize,
    ) {
        let q = q.source();
        let m = q.rows;
        let j = ctx.block;
        if j >= m {
            return;
        }
        let mut acc = vec![S::zero(); m];
        let mut col = vec![S::zero(); m];
        for t in 0..m {
            q.load_col(t, 0, &mut col);
            axpy(&mut acc, &col, ywh.get(j, t).conj());
        }
        qwy.store_col(j, 0, &acc);
    }

    pub(crate) fn ywtc_block<S: MdScalar>(
        ctx: BlockCtx,
        ywh: &Staged<S>,
        r: &DeviceMat<S>,
        ywtc: &DeviceMat<S>,
        _col0: usize,
        cstart: usize,
    ) {
        let ywh = ywh.source();
        let m = r.rows;
        let j = ctx.block;
        if cstart + j >= r.cols {
            return;
        }
        let rj = r.col_to_vec(cstart + j, 0, m);
        let mut acc = vec![S::zero(); m];
        let mut col = vec![S::zero(); m];
        for (t, rt) in rj.iter().enumerate() {
            ywh.load_col(t, 0, &mut col);
            axpy(&mut acc, &col, *rt);
        }
        ywtc.store_col(j, 0, &acc);
    }
}
