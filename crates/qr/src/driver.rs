//! The Algorithm 2 driver.

use gpusim::{BlockCtx, DeviceBuf, DeviceMat, ExecMode, Gpu, Profile, Sim};
use mdls_matrix::HostMat;
use multidouble::MdScalar;

use crate::cost;
use crate::kernels::{self, Staged};
use crate::{
    STAGE_BETA_RTV, STAGE_BETA_V, STAGE_COMPUTE_W, STAGE_QWYT, STAGE_Q_ADD, STAGE_R_ADD,
    STAGE_UPDATE_R, STAGE_YWT, STAGE_YWTC,
};

/// Panel configuration of the blocked QR.
#[derive(Clone, Copy, Debug)]
pub struct QrOptions {
    /// Number of column tiles `N`.
    pub tiles: usize,
    /// Tile size `n` — columns per panel and threads per block.
    pub tile_size: usize,
}

impl QrOptions {
    /// Number of columns `N · n`.
    pub fn cols(&self) -> usize {
        self.tiles * self.tile_size
    }
}

/// Outcome of a QR run.
pub struct QrRun<S> {
    /// Orthogonal factor `Q` (functional modes only).
    pub q: Option<HostMat<S>>,
    /// Triangular factor `R` (functional modes only; below-diagonal
    /// entries hold roundoff-level residue, as on the real device).
    pub r: Option<HostMat<S>>,
    /// Stage-resolved profile (the paper's Tables 3–6 rows).
    pub profile: Profile,
}

/// Device-side state of a factorization in progress.
pub struct QrDeviceState<S: MdScalar> {
    /// The matrix being reduced (input `A`, output `R`).
    pub r: gpusim::DeviceMat<S>,
    /// The accumulated orthogonal factor.
    pub q: gpusim::DeviceMat<S>,
    y: gpusim::DeviceMat<S>,
    w: gpusim::DeviceMat<S>,
    ywh: gpusim::DeviceMat<S>,
    qwy: gpusim::DeviceMat<S>,
    ywtc: gpusim::DeviceMat<S>,
    betas: gpusim::DeviceBuf<S>,
    wvec: gpusim::DeviceBuf<S>,
}

impl<S: MdScalar> QrDeviceState<S> {
    /// Allocate all device buffers for an `m × N·n` factorization.
    pub fn alloc(sim: &Sim, m: usize, opts: &QrOptions) -> Self {
        let cols = opts.cols();
        let n = opts.tile_size;
        QrDeviceState {
            r: sim.alloc_mat::<S>(m, cols),
            q: sim.alloc_mat::<S>(m, m),
            y: sim.alloc_mat::<S>(m, n),
            w: sim.alloc_mat::<S>(m, n),
            ywh: sim.alloc_mat::<S>(m, m),
            qwy: sim.alloc_mat::<S>(m, m),
            ywtc: sim.alloc_mat::<S>(m, cols),
            betas: sim.alloc_vec::<S>(n),
            wvec: sim.alloc_vec::<S>(n),
        }
    }

    /// Set `Q := I` (host-side initialization, not a profiled kernel).
    pub fn init_q_identity(&self) {
        if !self.q.buf.is_materialized() {
            return;
        }
        let mut col = vec![S::zero(); self.q.rows];
        for j in 0..self.q.cols {
            col[j] = S::one();
            self.q.store_col(j, 0, &col);
            col[j] = S::zero();
        }
    }
}

/// `true` if `q` holds exactly the identity, every plane bit for bit
/// (`+0` off the diagonal); `false` for a model-only buffer.
fn is_identity<S: MdScalar>(q: &DeviceMat<S>) -> bool {
    if !q.buf.is_materialized() {
        return false;
    }
    let same = |x: S, y: S| (0..S::PLANES).all(|p| x.plane(p).to_bits() == y.plane(p).to_bits());
    let mut col = vec![S::zero(); q.rows];
    (0..q.cols).all(|j| {
        q.load_col(j, 0, &mut col);
        col.iter()
            .enumerate()
            .all(|(i, &x)| same(x, if i == j { S::one() } else { S::zero() }))
    })
}

/// The bodies the panel loop launches for the two Householder stages
/// after `β, v`, the WY aggregation and the three products, plus the
/// `Q*WYᵀ` body it runs while `Q` is exactly the identity (`None`: never).
/// Production runs [`Bodies::PRODUCTION`]; the tests swap in the oracle
/// bodies (full height, unstaged, index-ordered dots) to check every
/// shortcut bit for bit.
struct Bodies<S: MdScalar> {
    beta_rtv: BetaRtvBody<S>,
    update_r: UpdateRBody<S>,
    compute_w: ComputeWBody<S>,
    ywt: ProductBody<S>,
    qwyt: QwytBody<S>,
    qwyt_identity: Option<QwytBody<S>>,
    ywtc: ProductBody<S>,
}

/// `(ctx, r, y, betas, w, col0, l, n)` — the `beta*R^T*v` body.
type BetaRtvBody<S> =
    fn(BlockCtx, &DeviceMat<S>, &DeviceMat<S>, &DeviceBuf<S>, &DeviceBuf<S>, usize, usize, usize);

/// `(ctx, r, v, w, col0, l)` — the `update R` body, `v` the staged
/// reflector.
type UpdateRBody<S> = fn(BlockCtx, &DeviceMat<S>, &Staged<S>, &DeviceBuf<S>, usize, usize);

/// `(ctx, q, ywh, qwy, col0)` — the `Q*WY^T` bodies, `q` staged.
type QwytBody<S> = fn(BlockCtx, &Staged<S>, &DeviceMat<S>, &DeviceMat<S>, usize);

/// `(ctx, y, w, betas, col0, l)` — the `compute W` body.
type ComputeWBody<S> = fn(BlockCtx, &DeviceMat<S>, &DeviceMat<S>, &DeviceBuf<S>, usize, usize);

/// `(ctx, lhs, rhs, out, col0, extent)` — the `ywt` and `ywtc` bodies,
/// `lhs` staged.
type ProductBody<S> = fn(BlockCtx, &Staged<S>, &DeviceMat<S>, &DeviceMat<S>, usize, usize);

impl<S: MdScalar> Bodies<S> {
    const PRODUCTION: Self = Bodies {
        beta_rtv: kernels::beta_rtv_block,
        update_r: kernels::update_r_block,
        compute_w: kernels::compute_w_block,
        ywt: kernels::ywt_block,
        qwyt: kernels::qwyt_block,
        qwyt_identity: Some(kernels::qwyt_identity_block),
        ywtc: kernels::ywtc_block,
    };
}

/// Run Algorithm 2 on an existing session: reduce `st.r` in place and
/// accumulate `st.q`.
pub fn qr_on_sim<S: MdScalar>(sim: &Sim, st: &QrDeviceState<S>, opts: &QrOptions) {
    panels(sim, st, opts, &Bodies::PRODUCTION);
}

/// The panel loop of [`qr_on_sim`], launching the given bodies. An
/// operand every block of a launch reads is staged once, just before the
/// launch (see `kernels`).
fn panels<S: MdScalar>(sim: &Sim, st: &QrDeviceState<S>, opts: &QrOptions, b: &Bodies<S>) {
    let m = st.r.rows;
    let n = opts.tile_size;
    let nt = opts.tiles;
    assert!(m >= opts.cols(), "QR requires M >= N*n (tall or square)");

    for k in 0..nt {
        let col0 = k * n;

        // --- stage 1: Householder columns of the panel -----------------
        for l in 0..n {
            let c = col0 + l;
            let h = m - c;
            let mcols = n - l;

            sim.launch(
                STAGE_BETA_V,
                h.div_ceil(n),
                n,
                cost::beta_v_cost::<S>(h),
                |ctx| kernels::beta_v_block(ctx, &st.r, &st.y, &st.betas, c, l),
            );

            sim.launch(
                STAGE_BETA_RTV,
                mcols,
                n,
                cost::beta_rtv_cost::<S>(h, mcols, n),
                |ctx| (b.beta_rtv)(ctx, &st.r, &st.y, &st.betas, &st.wvec, col0, l, n),
            );

            let v = Staged::new(&st.y, l..l + 1, c..m);
            sim.launch(
                STAGE_UPDATE_R,
                mcols,
                n,
                cost::update_r_cost::<S>(h, mcols),
                |ctx| (b.update_r)(ctx, &st.r, &v, &st.wvec, col0, l),
            );
        }

        // --- stage 2: WY aggregation ------------------------------------
        // priced and launched at full height M, as in the paper's kernels
        // (the zero-padded rows above the panel are what the paper's flop
        // counters tally and why `compute W` dominates small dims); the
        // bodies skip that zero trapezoid on the host (see `kernels`)
        for l in 0..n {
            sim.launch(
                STAGE_COMPUTE_W,
                m.div_ceil(n),
                n,
                cost::compute_w_cost::<S>(m, l),
                |ctx| (b.compute_w)(ctx, &st.y, &st.w, &st.betas, col0, l),
            );
        }

        // --- stage 3: Q update ------------------------------------------
        let y = Staged::new(&st.y, 0..n, col0..m);
        sim.launch(STAGE_YWT, m, n, cost::gemm_cost::<S>(m, m, n, n), |ctx| {
            (b.ywt)(ctx, &y, &st.w, &st.ywh, col0, n)
        });
        // priced as the full product, but while Q is still exactly the
        // identity (panel 0) the body forms one term per entry and Q is
        // not staged (see `kernels`)
        let (qwyt, q) = match b.qwyt_identity {
            Some(identity) if is_identity(&st.q) => (identity, Staged::none(&st.q)),
            _ => (b.qwyt, Staged::new(&st.q, col0..m, 0..m)),
        };
        sim.launch(STAGE_QWYT, m, n, cost::gemm_cost::<S>(m, m, m, n), |ctx| {
            qwyt(ctx, &q, &st.ywh, &st.qwy, col0)
        });
        sim.launch(STAGE_Q_ADD, m, n, cost::add_cost::<S>(m, m), |ctx| {
            kernels::q_add_block(ctx, &st.q, &st.qwy)
        });

        // --- stage 4: trailing-column update -----------------------------
        if k + 1 < nt {
            let cstart = (k + 1) * n;
            let c_k = opts.cols() - cstart;
            let ywh = Staged::new(&st.ywh, col0..m, col0..m);
            sim.launch(
                STAGE_YWTC,
                c_k,
                n,
                cost::gemm_cost::<S>(m, c_k, m, n),
                |ctx| (b.ywtc)(ctx, &ywh, &st.r, &st.ywtc, col0, cstart),
            );
            sim.launch(STAGE_R_ADD, c_k, n, cost::add_cost::<S>(m, c_k), |ctx| {
                kernels::r_add_block(ctx, &st.r, &st.ywtc, cstart)
            });
        }
    }
}

/// Standalone QR factorization of a host matrix: session setup, upload,
/// Algorithm 2, download.
pub fn qr_decompose<S: MdScalar>(
    gpu: &Gpu,
    mode: ExecMode,
    a: &HostMat<S>,
    opts: &QrOptions,
) -> QrRun<S> {
    assert_eq!(a.cols, opts.cols(), "matrix does not match tiling");
    let sim = Sim::new(gpu.clone(), mode);
    let st = QrDeviceState::<S>::alloc(&sim, a.rows, opts);

    sim.record_host_overhead();
    sim.record_transfer((a.rows * a.cols * S::BYTES) as u64);
    if sim.is_functional() {
        a.upload_to(&st.r);
    }
    st.init_q_identity();

    qr_on_sim(&sim, &st, opts);

    sim.record_transfer(((a.rows * a.cols + a.rows * a.rows) * S::BYTES) as u64);
    let (q, r) = if sim.is_functional() {
        (
            Some(HostMat::download_from(&st.q)),
            Some(HostMat::download_from(&st.r)),
        )
    } else {
        (None, None)
    };
    QrRun {
        q,
        r,
        profile: sim.profile(),
    }
}

/// Model-only QR profile for an `rows × N·n` factorization: no host
/// matrix, no device storage — only the analytic cost model runs. This is
/// how the bench harness reaches the paper's large dimensions.
pub fn qr_model_profile<S: MdScalar>(gpu: &Gpu, rows: usize, opts: &QrOptions) -> Profile {
    let sim = Sim::new(gpu.clone(), ExecMode::ModelOnly);
    let st = QrDeviceState::<S>::alloc(&sim, rows, opts);
    sim.record_host_overhead();
    sim.record_transfer((rows * opts.cols() * S::BYTES) as u64);
    qr_on_sim(&sim, &st, opts);
    sim.record_transfer(((rows * opts.cols() + rows * rows) * S::BYTES) as u64);
    sim.profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, MdReal, Od, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Factor a random matrix and return (orthogonality defect, |A - QR|).
    fn qr_defects<S: MdScalar>(m: usize, opts: QrOptions, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = HostMat::<S>::random(m, opts.cols(), &mut rng);
        let run = qr_decompose(&Gpu::v100(), ExecMode::Sequential, &a, &opts);
        let q = run.q.unwrap();
        let mut r = run.r.unwrap();
        // clear below-diagonal roundoff residue for the reconstruction
        for c in 0..r.cols {
            for row in (c + 1)..r.rows {
                r.set(row, c, S::zero());
            }
        }
        let ortho = q.orthogonality_defect().to_f64();
        let qr = q.matmul(&r);
        let recon = qr.diff_frobenius(&a).to_f64() / a.frobenius().to_f64();
        (ortho, recon)
    }

    #[test]
    fn dd_square_factorization() {
        let (o, e) = qr_defects::<Dd>(
            24,
            QrOptions {
                tiles: 3,
                tile_size: 8,
            },
            101,
        );
        assert!(o < 1e-28, "orthogonality defect {o:e}");
        assert!(e < 1e-28, "reconstruction error {e:e}");
    }

    #[test]
    fn qd_square_factorization() {
        let (o, e) = qr_defects::<Qd>(
            16,
            QrOptions {
                tiles: 2,
                tile_size: 8,
            },
            102,
        );
        assert!(o < 1e-58, "orthogonality defect {o:e}");
        assert!(e < 1e-58, "reconstruction error {e:e}");
    }

    #[test]
    fn od_small_factorization() {
        let (o, e) = qr_defects::<Od>(
            8,
            QrOptions {
                tiles: 2,
                tile_size: 4,
            },
            103,
        );
        assert!(o < 1e-118, "orthogonality defect {o:e}");
        assert!(e < 1e-118, "reconstruction error {e:e}");
    }

    #[test]
    fn complex_dd_factorization() {
        let (o, e) = qr_defects::<Complex<Dd>>(
            12,
            QrOptions {
                tiles: 2,
                tile_size: 6,
            },
            104,
        );
        assert!(o < 1e-27, "orthogonality defect {o:e}");
        assert!(e < 1e-27, "reconstruction error {e:e}");
    }

    #[test]
    fn tall_matrix_factorization() {
        let (o, e) = qr_defects::<Dd>(
            20,
            QrOptions {
                tiles: 2,
                tile_size: 5,
            },
            105,
        );
        assert!(o < 1e-27);
        assert!(e < 1e-27);
    }

    #[test]
    fn double_precision_baseline() {
        let (o, e) = qr_defects::<f64>(
            32,
            QrOptions {
                tiles: 4,
                tile_size: 8,
            },
            106,
        );
        assert!(o < 1e-13);
        assert!(e < 1e-13);
    }

    /// Factor `a` through the panel loop with the given WY bodies, from
    /// `Q = I`, or from `Q = I` but for one low limb of a diagonal entry.
    fn factor_with<S: MdScalar>(
        a: &HostMat<S>,
        opts: &QrOptions,
        mode: ExecMode,
        bodies: &Bodies<S>,
        near_identity: bool,
    ) -> [HostMat<S>; 2] {
        let sim = Sim::new(Gpu::v100(), mode);
        let st = QrDeviceState::<S>::alloc(&sim, a.rows, opts);
        a.upload_to(&st.r);
        st.init_q_identity();
        assert!(is_identity(&st.q));
        if near_identity {
            let k = a.rows / 2;
            st.q.set(k, k, one_low_limb_off::<S>());
            assert!(!is_identity(&st.q));
        }
        panels(&sim, &st, opts, bodies);
        [HostMat::download_from(&st.q), HostMat::download_from(&st.r)]
    }

    /// `1` with its last real limb (or, for one-limb scalars, its last
    /// bit) changed.
    fn one_low_limb_off<S: MdScalar>() -> S {
        let limbs = <S::Real as MdReal>::LIMBS;
        S::from_plane_fn(|p| match p {
            0 if limbs == 1 => 1.0 + f64::EPSILON,
            0 => 1.0,
            p if p + 1 == limbs => 2f64.powi(-60 * p as i32),
            _ => 0.0,
        })
    }

    /// Every limb of a matrix, column-major, as bits.
    fn bits<S: MdScalar>(m: &HostMat<S>) -> Vec<u64> {
        (0..m.cols)
            .flat_map(|c| (0..m.rows).map(move |r| m.get(r, c)))
            .flat_map(|v| (0..S::PLANES).map(move |p| v.plane(p).to_bits()))
            .collect()
    }

    /// Every real and imaginary part rounded to a multiple of `2^-20` in
    /// its leading limb, the lower limbs `+0`.
    fn quantized<S: MdScalar>(a: &HostMat<S>) -> HostMat<S> {
        let limbs = <S::Real as MdReal>::LIMBS;
        HostMat::from_fn(a.rows, a.cols, |r, c| {
            let x = a.get(r, c);
            S::from_plane_fn(|p| match p % limbs {
                0 => (x.plane(p) * 2f64.powi(20)).round() * 2f64.powi(-20),
                _ => 0.0,
            })
        })
    }

    /// The bodies as the tests swap them in: the oracle (every WY body at
    /// full height, every operand read from the device matrices, every
    /// dot index-ordered), and the production bodies without the
    /// identity shortcut.
    fn oracle<S: MdScalar>() -> Bodies<S> {
        Bodies {
            beta_rtv: kernels::oracle::beta_rtv_block,
            update_r: kernels::oracle::update_r_block,
            compute_w: kernels::oracle::compute_w_block,
            ywt: kernels::oracle::ywt_block,
            qwyt: kernels::oracle::qwyt_block,
            qwyt_identity: None,
            ywtc: kernels::oracle::ywtc_block,
        }
    }

    fn without_identity<S: MdScalar>() -> Bodies<S> {
        Bodies {
            qwyt_identity: None,
            ..Bodies::PRODUCTION
        }
    }

    /// The production bodies (trapezoid skip, staged operands,
    /// side-by-side dots), with and without the identity body on panel 0,
    /// give the oracle bodies' `Q` and `R` bit for bit:
    /// square and tall shapes with 1–4 tiles (the 1-tile ones from 6×6
    /// to 32×24, where the identity body is the whole `Q` update), random
    /// and quantized entries, with and without a zero column (the
    /// identity-reflector branch, in the first and in a later column), in
    /// both functional execution modes.
    fn skip_matches_full_height<S: MdScalar>(seed: u64) {
        const SHAPES: [(usize, usize, usize); 10] = [
            (6, 1, 6),
            (10, 1, 6),
            (16, 1, 12),
            (24, 1, 24),
            (32, 1, 24),
            (12, 2, 6),
            (13, 3, 4),
            (16, 4, 4),
            (19, 4, 3),
            (20, 2, 8),
        ];
        let bodies = [
            ("production", Bodies::PRODUCTION),
            ("production without identity", without_identity()),
        ];
        let oracle = oracle();
        let mut rng = StdRng::seed_from_u64(seed);
        for (rows, tiles, tile_size) in SHAPES {
            let opts = QrOptions { tiles, tile_size };
            let cols = opts.cols();
            for zero_col in [None, Some(0), Some((tile_size + 1) % cols)] {
                let mut a = HostMat::<S>::random(rows, cols, &mut rng);
                if let Some(c) = zero_col {
                    for r in 0..rows {
                        a.set(r, c, S::zero());
                    }
                }
                for a in [quantized(&a), a] {
                    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                        let want = factor_with(&a, &opts, mode, &oracle, false);
                        for (label, bodies) in &bodies {
                            let got = factor_with(&a, &opts, mode, bodies, false);
                            for (name, g, w) in [("Q", &got[0], &want[0]), ("R", &got[1], &want[1])]
                            {
                                assert!(
                                    bits(g) == bits(w),
                                    "{} {rows}x{cols} ({tiles} tiles), zero column {zero_col:?}, {mode:?}, {label}: {name} differs",
                                    S::TAG
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A `Q` one low limb away from the identity takes the full product:
    /// the production bodies match the oracle on it, while the identity
    /// body forced onto it would not.
    fn near_identity_takes_the_full_body<S: MdScalar>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = QrOptions {
            tiles: 2,
            tile_size: 6,
        };
        let a = HostMat::<S>::random(14, opts.cols(), &mut rng);
        let forced = Bodies {
            qwyt: kernels::qwyt_identity_block,
            ..Bodies::PRODUCTION
        };
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let want = factor_with(&a, &opts, mode, &oracle(), true);
            let got = factor_with(&a, &opts, mode, &Bodies::PRODUCTION, true);
            assert!(
                bits(&got[0]) == bits(&want[0]),
                "{} {mode:?}: Q differs",
                S::TAG
            );
            assert!(
                bits(&got[1]) == bits(&want[1]),
                "{} {mode:?}: R differs",
                S::TAG
            );
            let wrong = factor_with(&a, &opts, mode, &forced, true);
            assert!(bits(&wrong[0]) != bits(&want[0]), "{} {mode:?}", S::TAG);
        }
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_f64() {
        skip_matches_full_height::<f64>(110);
        near_identity_takes_the_full_body::<f64>(120);
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_dd() {
        skip_matches_full_height::<Dd>(111);
        near_identity_takes_the_full_body::<Dd>(121);
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_qd() {
        skip_matches_full_height::<Qd>(112);
        near_identity_takes_the_full_body::<Qd>(122);
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_od() {
        skip_matches_full_height::<Od>(113);
        near_identity_takes_the_full_body::<Od>(123);
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_complex_dd() {
        skip_matches_full_height::<Complex<Dd>>(114);
        near_identity_takes_the_full_body::<Complex<Dd>>(124);
    }

    #[test]
    fn trapezoid_skip_is_bit_identical_complex_qd() {
        skip_matches_full_height::<Complex<Qd>>(115);
        near_identity_takes_the_full_body::<Complex<Qd>>(125);
    }

    #[test]
    fn all_nine_stages_present() {
        let mut rng = StdRng::seed_from_u64(107);
        let opts = QrOptions {
            tiles: 2,
            tile_size: 4,
        };
        let a = HostMat::<Dd>::random(8, 8, &mut rng);
        let run = qr_decompose(&Gpu::v100(), ExecMode::Sequential, &a, &opts);
        for stage in crate::STAGES {
            assert!(
                run.profile.stage(stage).is_some(),
                "stage {stage:?} missing"
            );
        }
        // single-panel matrices have no trailing update
        let single = qr_decompose(
            &Gpu::v100(),
            ExecMode::Sequential,
            &HostMat::<Dd>::random(4, 4, &mut rng),
            &QrOptions {
                tiles: 1,
                tile_size: 4,
            },
        );
        assert!(single.profile.stage(crate::STAGE_YWTC).is_none());
    }

    #[test]
    fn model_only_profile_matches_functional() {
        let mut rng = StdRng::seed_from_u64(108);
        let opts = QrOptions {
            tiles: 2,
            tile_size: 8,
        };
        let a = HostMat::<Qd>::random(16, 16, &mut rng);
        let f = qr_decompose(&Gpu::v100(), ExecMode::Sequential, &a, &opts);
        let m = qr_decompose(&Gpu::v100(), ExecMode::ModelOnly, &a, &opts);
        assert!(m.q.is_none());
        assert_eq!(f.profile.all_kernels_ms(), m.profile.all_kernels_ms());
        assert_eq!(f.profile.total_flops_paper(), m.profile.total_flops_paper());
        assert_eq!(f.profile.total_launches(), m.profile.total_launches());
    }

    #[test]
    fn r_is_upper_triangular_up_to_roundoff() {
        let mut rng = StdRng::seed_from_u64(109);
        let opts = QrOptions {
            tiles: 3,
            tile_size: 4,
        };
        let a = HostMat::<Qd>::random(12, 12, &mut rng);
        let run = qr_decompose(&Gpu::v100(), ExecMode::Sequential, &a, &opts);
        let below = run.r.unwrap().max_below_diagonal();
        assert!(below < 1e-60, "below-diagonal residue {below:e}");
    }
}
