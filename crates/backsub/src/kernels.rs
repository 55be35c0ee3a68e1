//! Functional kernel bodies for Algorithm 1, written at block granularity
//! (CUDA barrier phases become sequential loops over the block's threads).
//!
//! All index arithmetic uses the global `N·n × N·n` column-major matrix;
//! tile `(i, j)` starts at row `i·n`, column `j·n`.
//!
//! The two product kernels stage their operands into block-local
//! vectors (`load_col`/`run_to_vec`, the simulator's shared memory) and
//! accumulate with [`gpusim::shared::axpy`], one unit-stride column per
//! step; every output component keeps its zero-started, column-ordered
//! sum.

use gpusim::shared::axpy;
use gpusim::{BlockCtx, DeviceBuf, DeviceMat};
use multidouble::MdScalar;

/// Invert diagonal tile `ctx.block` in place: thread `k` solves
/// `U v = e_k` and writes column `k` of the inverse.
///
/// Phase 1 stages the tile's upper triangle into shared memory (all
/// threads cooperate, then barrier); phase 2 lets each thread back-solve
/// its unit vector independently and write its column to global memory.
///
/// The paper's kernel, and [`crate::cost::invert_cost`], walk all `n`
/// rows for every `k` (a divergence-free full loop). Rows below `k` of
/// `v` are exact zeros that are never stored, and the terms they add to
/// the stored rows subtract exact-zero products, which leave a finite
/// accumulator's bits as they are. The host body therefore solves rows
/// `0..=k` only; a test-only copy of the full loop checks every stored
/// bit on finite data.
pub fn invert_tile_block<S: MdScalar>(ctx: BlockCtx, u: &DeviceMat<S>, n: usize) {
    let t = ctx.block; // tile index
    let base = t * n;

    // phase 1: shared memory copy of the tile's upper triangle
    let mut shared = vec![S::zero(); n * n];
    for c in 0..n {
        u.load_col(base + c, base, &mut shared[c * n..=c * n + c]);
    }
    // __syncthreads()

    // phase 2: thread k computes the stored rows 0..=k of column k
    for k in ctx.thread_ids() {
        if k >= n {
            continue;
        }
        let mut v = vec![S::zero(); k + 1];
        for i in (0..=k).rev() {
            let mut acc = if i == k { S::one() } else { S::zero() };
            for (j, vj) in v.iter().enumerate().skip(i + 1) {
                acc -= shared[j * n + i] * *vj;
            }
            v[i] = acc / shared[i * n + i];
        }
        u.store_col(base + k, base, &v);
    }
}

/// `x_i := U_i^{-1} b_i` — one block of `n` threads; thread `r` computes
/// component `r` (the inverse is upper triangular, so columns `c ≥ r`).
///
/// Column-axpy order: `x_i` is a block-local accumulator that takes
/// column `c` of the inverse (its rows `0..=c`) scaled by `b[c]` per
/// step, so component `r` sums over `c = r..n` in order.
pub fn multiply_inverse_block<S: MdScalar>(
    ctx: BlockCtx,
    u: &DeviceMat<S>,
    b: &DeviceBuf<S>,
    x: &DeviceBuf<S>,
    tile: usize,
    n: usize,
) {
    let base = tile * n;
    let rows = n.min(ctx.threads);
    let bv = b.run_to_vec(base, n);
    let mut acc = vec![S::zero(); rows];
    let mut col = vec![S::zero(); rows];
    for (c, bc) in bv.iter().enumerate() {
        let k = rows.min(c + 1);
        u.load_col(base + c, base, &mut col[..k]);
        axpy(&mut acc[..k], &col[..k], *bc);
    }
    x.store_run(base, &acc);
}

/// One update block: `b_j -= A_{j,i} x_i` where `j = ctx.block`.
/// Thread `r` owns component `r` of `b_j`; the product `A_{j,i} x_i` is
/// accumulated block-locally, one column of the tile per step.
pub fn update_rhs_block<S: MdScalar>(
    ctx: BlockCtx,
    u: &DeviceMat<S>,
    b: &DeviceBuf<S>,
    x: &DeviceBuf<S>,
    i: usize,
    n: usize,
) {
    let j = ctx.block;
    let row_base = j * n;
    let col_base = i * n;
    let rows = n.min(ctx.threads);
    let xv = x.run_to_vec(col_base, n);
    let mut acc = vec![S::zero(); rows];
    let mut col = vec![S::zero(); rows];
    for (c, xc) in xv.iter().enumerate() {
        u.load_col(col_base + c, row_base, &mut col);
        axpy(&mut acc, &col, *xc);
    }
    let mut bv = b.run_to_vec(row_base, rows);
    for (bj, a) in bv.iter_mut().zip(&acc) {
        *bj -= *a;
    }
    b.store_run(row_base, &bv);
}

/// [`invert_tile_block`] as the paper's kernel runs it: every thread
/// walks all `n` rows. The oracle the stored-triangle body is held to,
/// bit for bit.
#[cfg(test)]
pub(crate) fn invert_tile_block_full_loop<S: MdScalar>(ctx: BlockCtx, u: &DeviceMat<S>, n: usize) {
    let base = ctx.block * n;
    let mut shared = vec![S::zero(); n * n];
    for c in 0..n {
        u.load_col(base + c, base, &mut shared[c * n..=c * n + c]);
    }
    for k in ctx.thread_ids() {
        if k >= n {
            continue;
        }
        let mut v = vec![S::zero(); n];
        for i in (0..n).rev() {
            let mut acc = if i == k { S::one() } else { S::zero() };
            for (j, vj) in v.iter().enumerate().skip(i + 1) {
                acc -= shared[j * n + i] * *vj;
            }
            v[i] = acc / shared[i * n + i];
        }
        u.store_col(base + k, base, &v[..=k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{ExecMode, Gpu, Sim};
    use mdls_matrix::HostMat;
    use multidouble::{Complex, Dd, MdReal, Od, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every limb of a matrix, column-major, as bits.
    fn bits<S: MdScalar>(m: &HostMat<S>) -> Vec<u64> {
        (0..m.cols)
            .flat_map(|c| (0..m.rows).map(move |r| m.get(r, c)))
            .flat_map(|v| (0..S::PLANES).map(move |p| v.plane(p).to_bits()))
            .collect()
    }

    /// `u` with its diagonal tiles inverted by `body`, launched as the
    /// driver launches it.
    fn inverted<S: MdScalar>(
        u: &HostMat<S>,
        n: usize,
        mode: ExecMode,
        body: fn(BlockCtx, &DeviceMat<S>, usize),
    ) -> HostMat<S> {
        let sim = Sim::new(Gpu::v100(), mode);
        let dev = sim.alloc_mat::<S>(u.rows, u.cols);
        u.upload_to(&dev);
        let tiles = u.rows / n;
        let cost = crate::cost::invert_cost::<S>(tiles, n);
        sim.launch(crate::STAGE_INVERT, tiles, n, cost, |ctx| {
            body(ctx, &dev, n)
        });
        HostMat::download_from(&dev)
    }

    /// The stored-triangle body gives the full loop's inverse bit for
    /// bit: two tiles of every size 1–24, random entries, entries
    /// quantized to `2^-20` in the leading limb, and a diagonal matrix
    /// with negative entries (whose inverse holds exact zeros), in both
    /// functional execution modes.
    fn stored_triangle_matches_full_loop<S: MdScalar>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let limbs = <S::Real as MdReal>::LIMBS;
        for n in 1..=24 {
            let dense = mdls_matrix::well_conditioned_upper::<S, _>(2 * n, &mut rng);
            let quantized = HostMat::from_fn(2 * n, 2 * n, |r, c| {
                let x = dense.get(r, c);
                S::from_plane_fn(|p| match p % limbs {
                    0 => (x.plane(p) * 2f64.powi(20)).round() * 2f64.powi(-20),
                    _ => 0.0,
                })
            });
            let diagonal = HostMat::from_fn(2 * n, 2 * n, |r, c| {
                if r != c {
                    S::zero()
                } else if r % 2 == 1 {
                    -dense.get(r, c) - S::from_f64(2.0)
                } else {
                    dense.get(r, c) + S::from_f64(2.0)
                }
            });
            for (label, u) in [
                ("dense", dense),
                ("quantized", quantized),
                ("diagonal", diagonal),
            ] {
                for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                    let got = inverted(&u, n, mode, invert_tile_block);
                    let want = inverted(&u, n, mode, invert_tile_block_full_loop);
                    assert!(
                        bits(&got) == bits(&want),
                        "{} n = {n}, {label}, {mode:?}: the inverse differs",
                        S::TAG
                    );
                }
            }
        }
    }

    #[test]
    fn stored_triangle_inverse_is_bit_identical() {
        stored_triangle_matches_full_loop::<f64>(41);
        stored_triangle_matches_full_loop::<Dd>(42);
        stored_triangle_matches_full_loop::<Qd>(43);
        stored_triangle_matches_full_loop::<Od>(44);
        stored_triangle_matches_full_loop::<Complex<Dd>>(45);
    }

    #[test]
    fn invert_block_produces_tile_inverse() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 8;
        let host = mdls_matrix::well_conditioned_upper::<Qd, _>(n, &mut rng);
        let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let dev = sim.alloc_mat::<Qd>(n, n);
        host.upload_to(&dev);

        invert_tile_block(
            BlockCtx {
                block: 0,
                grid: 1,
                threads: n,
            },
            &dev,
            n,
        );

        let inv = HostMat::download_from(&dev);
        let prod = host.matmul(&inv);
        let defect = prod.diff_frobenius(&HostMat::identity(n)).to_f64();
        assert!(defect < 1e-58, "U * U^-1 - I = {defect:e}");
    }

    #[test]
    fn multiply_block_applies_inverse() {
        let mut rng = StdRng::seed_from_u64(32);
        let n = 6;
        let host = mdls_matrix::well_conditioned_upper::<Qd, _>(n, &mut rng);
        let bh: Vec<Qd> = mdls_matrix::random_vector(n, &mut rng);
        let want = host.solve_upper(&bh);

        let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let dev = sim.alloc_mat::<Qd>(n, n);
        host.upload_to(&dev);
        let b = sim.alloc_vec::<Qd>(n);
        b.upload(&bh);
        let x = sim.alloc_vec::<Qd>(n);

        let ctx = BlockCtx {
            block: 0,
            grid: 1,
            threads: n,
        };
        invert_tile_block(ctx, &dev, n);
        multiply_inverse_block(ctx, &dev, &b, &x, 0, n);

        let got = x.download();
        let err = mdls_matrix::norms::vec_diff_norm2(&got, &want).to_f64();
        assert!(err < 1e-58, "solve error {err:e}");
    }
}
