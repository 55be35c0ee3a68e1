//! The least squares solver — the paper's primary contribution.
//!
//! `lstsq` minimizes `‖b − A x‖₂` by the paper's pipeline:
//!
//! 1. **Algorithm 2** — blocked accelerated Householder QR: `A = Q R`;
//! 2. `Qᴴ b` — one matrix-vector product with the accumulated `Q`;
//! 3. **Algorithm 1** — tiled accelerated back substitution on
//!    `R x = Qᴴ b`.
//!
//! The run returns *two* profiles — one for the QR, one for the back
//! substitution (which absorbs the small `Qᴴ b` product) — exactly the
//! split of the paper's Table 11, plus the combined totals.
//!
//! The two phases are also available separately: [`lstsq_factor_batched`]
//! produces a [`LstsqFactorization`] whose [`LstsqFactorization::solve`]
//! can be applied to any number of right hand sides — the primitive the
//! pipeline's mixed-precision iterative refinement builds on (factor
//! once at a cheap rung, then re-solve against successive residuals).
//! [`lstsq`] itself is the factor + one solve composition, so the split
//! changes no bit of any single-solve result. [`residual_kernel`]
//! computes `r = b − A x` on the device at an arbitrary rung, with
//! [`residual_model_profile_batched`] as its analytic cost — the "one rung up"
//! residual stage of a refinement plan.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::sync::OnceLock;

use gpusim::shared::{axmy, dot_conj};
use gpusim::{BlockCtx, ExecMode, Gpu, KernelCost, Profile, Sim};
use mdls_backsub::{backsub_inverted_on_sim, invert_diagonal_tiles, BacksubOptions};
use mdls_matrix::HostMat;
use mdls_qr::{qr_on_sim, QrDeviceState, QrOptions};
use multidouble::{MdScalar, OpCounts};

/// Stage label for the `Qᴴ b` product (part of the back substitution
/// phase in the Table 11 accounting).
pub const STAGE_QTB: &str = "Q^T*b";

/// Solver configuration: the tiling is shared by the QR panels and the
/// back substitution, as in the paper's Table 11 (8 tiles of size 128).
#[derive(Clone, Copy, Debug)]
pub struct LstsqOptions {
    /// Number of tiles `N`.
    pub tiles: usize,
    /// Tile size `n` (threads per block).
    pub tile_size: usize,
    /// Execution mode of the simulator.
    pub mode: ExecMode,
}

impl Default for LstsqOptions {
    fn default() -> Self {
        LstsqOptions {
            tiles: 8,
            tile_size: 128,
            mode: ExecMode::Sequential,
        }
    }
}

impl LstsqOptions {
    /// Options for an explicit tiling — the constructor planners use
    /// (the pipeline crate picks `tiles`/`tile_size` from the cost model
    /// instead of hard-coding the paper's 8 × 128).
    pub fn tiled(tiles: usize, tile_size: usize, mode: ExecMode) -> Self {
        LstsqOptions {
            tiles,
            tile_size,
            mode,
        }
    }

    /// Number of unknowns `N · n`.
    pub fn cols(&self) -> usize {
        self.tiles * self.tile_size
    }
}

/// Outcome of a least squares solve.
pub struct LstsqRun<S> {
    /// The minimizer (functional modes only).
    pub x: Vec<S>,
    /// Profile of the QR phase.
    pub qr_profile: Profile,
    /// Profile of the back substitution phase (includes `Qᴴ b`).
    pub bs_profile: Profile,
}

impl<S> LstsqRun<S> {
    /// Combined profile of both phases.
    pub fn total_profile(&self) -> Profile {
        let mut p = self.qr_profile.clone();
        p.absorb(&self.bs_profile);
        p
    }
}

/// `qtb[j] = Σ_i conj(Q[i, j]) b[i]` — block per output element group.
fn qtb_kernel<S: MdScalar>(
    sim: &Sim,
    q: &gpusim::DeviceMat<S>,
    b: &gpusim::DeviceBuf<S>,
    out: &gpusim::DeviceBuf<S>,
    cols: usize,
    block: usize,
) {
    let m = q.rows;
    let ops = OpCounts {
        add: (m * cols) as u64,
        mul: (m * cols) as u64,
        ..OpCounts::ZERO
    };
    let cost = KernelCost::of::<S>(ops, (m * cols + m) as u64, cols as u64);
    sim.launch(
        STAGE_QTB,
        cols.div_ceil(block).max(1),
        block,
        cost,
        |ctx: BlockCtx| {
            // b is staged once per block, each Q column once per thread
            let bv = b.run_to_vec(0, m);
            let mut col = vec![S::zero(); m];
            for t in ctx.thread_ids() {
                let j = ctx.global_tid(t);
                if j >= cols {
                    continue;
                }
                q.load_col(j, 0, &mut col);
                out.set(j, dot_conj(&col, &bv));
            }
        },
    );
}

/// Copy the top `cols × cols` block of `R` into the square operand of
/// the back substitution, which inverts that operand's diagonal tiles in
/// place (so it never runs on `R` itself). Every solve launches it; with
/// `u = None` the launch is priced and counted but its body does not run,
/// because the factorization already keeps the operand (see
/// [`LstsqFactorization::solve`]).
fn copy_r_square<S: MdScalar>(
    sim: &Sim,
    r: &gpusim::DeviceMat<S>,
    u: Option<&gpusim::DeviceMat<S>>,
    cols: usize,
    block: usize,
) {
    let elems = (cols * (cols + 1) / 2) as u64;
    let cost = KernelCost::of::<S>(OpCounts::ZERO, elems, elems);
    let grid = cols.div_ceil(block).max(1);
    let Some(u) = u else {
        sim.launch_cached("copy R", grid, block, cost);
        return;
    };
    sim.launch("copy R", grid, block, cost, |ctx: BlockCtx| {
        let mut col = vec![S::zero(); cols];
        for t in ctx.thread_ids() {
            let c = ctx.global_tid(t);
            if c >= cols {
                continue;
            }
            r.load_col(c, 0, &mut col[..=c]);
            u.store_col(c, 0, &col[..=c]);
        }
    });
}

/// A reusable QR factorization: the device-resident `Q`/`R` of one
/// system plus the simulator session they live on.
///
/// Produced by [`lstsq_factor_batched`], one per instance (functional or
/// model-only, per the options' [`ExecMode`]).
/// [`LstsqFactorization::solve`] then runs the paper's phase 2 —
/// `Qᴴ rhs` followed by tiled back substitution — against any right hand
/// side without re-factoring. Each solve repeats phase 2's full launch
/// sequence — `Qᴴ b`, a copy of `R`'s upper block to a square operand,
/// the inversion of that operand's diagonal tiles, back substitution —
/// so its per-solve profile is exactly the `bs_profile` a standalone
/// [`lstsq`] records and the two compose bit-identically.
///
/// The copy and the inversion produce the same bits on every solve, so
/// a functional factorization keeps the operand its first solve builds
/// (`R`'s block with its diagonal tiles inverted; the multiply and update
/// launches only read it) and later solves price those two launches
/// without running them. Model-only factorizations keep nothing.
pub struct LstsqFactorization<S: MdScalar> {
    sim: Sim,
    st: QrDeviceState<S>,
    opts: LstsqOptions,
    rows: usize,
    factor_profile: Profile,
    /// The back substitution operand, set by the first functional solve.
    inverted: OnceLock<gpusim::DeviceMat<S>>,
}

/// Factor on a caller-built session — the seam the batched entry
/// points use to run the ordinary factor launch sequence on a
/// [`Sim::batched`] (fused-group accounting) or [`Sim::shadow`]
/// (secondary instance, no accounting) session. The launch sequence,
/// and therefore every functional bit, is identical on all three
/// session kinds.
fn factor_with_sim<S: MdScalar>(
    sim: Sim,
    a: Option<&HostMat<S>>,
    rows: usize,
    opts: &LstsqOptions,
) -> LstsqFactorization<S> {
    let cols = opts.cols();
    assert!(rows >= cols, "least squares needs rows >= cols");
    let qr_opts = QrOptions {
        tiles: opts.tiles,
        tile_size: opts.tile_size,
    };
    let st = QrDeviceState::<S>::alloc(&sim, rows, &qr_opts);
    sim.record_host_overhead();
    // the factor phase moves only the system matrix; each solve charges
    // its own right hand side (see `LstsqFactorization::solve`), so a
    // refinement plan's extra correction passes pay their residual
    // uploads instead of getting them for free
    sim.record_transfer((rows * cols * S::BYTES) as u64);
    if sim.is_functional() {
        a.expect("functional factorization needs host data")
            .upload_to(&st.r);
    }
    st.init_q_identity();
    qr_on_sim(&sim, &st, &qr_opts);
    let factor_profile = sim.profile();
    sim.reset_profile();
    LstsqFactorization {
        sim,
        st,
        opts: *opts,
        rows,
        factor_profile,
        inverted: OnceLock::new(),
    }
}

/// A fused group of `k` independent same-shaped factorizations — the
/// device-level micro-batching primitive.
///
/// The paper's workloads are dominated by systems small enough that one
/// QR badly underfills a GPU (wave quantization leaves most
/// multiprocessors idle for a single-digit grid). A batch
/// factorization runs `k` same-shaped systems as *fused launches*: one
/// grid carries every instance's blocks, occupancy is computed over the
/// fused grid, and per-launch bookkeeping — kernel base, launch gap,
/// host overhead, per-transfer calls — is paid once per group instead
/// of once per instance (cf. cuBLAS/MAGMA batched QR).
///
/// Instance 0 lives on the primary [`Sim::batched`] session, which
/// accounts the whole group; instances 1.. live on [`Sim::shadow`]
/// sessions that execute functionally but record nothing. Each
/// instance's launch sequence is exactly the singleton
/// ([`lstsq`]) sequence, so every solution is bit-identical to
/// the unfused path.
pub struct LstsqBatchFactorization<S: MdScalar> {
    facts: Vec<LstsqFactorization<S>>,
    k: usize,
}

/// Factor `k = systems.len()` same-shaped systems as one fused group
/// (functional or model-only per the options' [`ExecMode`]). All
/// systems must share the `rows × N·n` shape of the options.
pub fn lstsq_factor_batched<S: MdScalar>(
    gpu: &Gpu,
    systems: &[&HostMat<S>],
    opts: &LstsqOptions,
) -> LstsqBatchFactorization<S> {
    assert!(
        !systems.is_empty(),
        "a fused group needs at least one system"
    );
    let (rows, cols) = (systems[0].rows, systems[0].cols);
    assert_eq!(cols, opts.cols(), "matrix does not match tiling");
    for a in systems {
        assert_eq!(
            (a.rows, a.cols),
            (rows, cols),
            "fused instances must share one shape"
        );
    }
    let k = systems.len();
    let facts = systems
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let sim = if i == 0 {
                Sim::batched(gpu.clone(), opts.mode, k)
            } else {
                Sim::shadow(gpu.clone(), opts.mode)
            };
            factor_with_sim(sim, Some(a), rows, opts)
        })
        .collect();
    LstsqBatchFactorization { facts, k }
}

/// Model-only fused factorization of `k` same-shaped `rows × N·n`
/// systems: the planner's cost oracle for a fused `Factor` stage. Only
/// the primary (accounting) session is built — shadow instances have no
/// analytic footprint at all.
fn lstsq_factor_batched_model<S: MdScalar>(
    gpu: &Gpu,
    k: usize,
    rows: usize,
    opts: &LstsqOptions,
) -> LstsqBatchFactorization<S> {
    assert!(k > 0, "a fused group needs at least one instance");
    let sim = Sim::batched(gpu.clone(), ExecMode::ModelOnly, k);
    LstsqBatchFactorization {
        facts: vec![factor_with_sim(sim, None, rows, opts)],
        k,
    }
}

impl<S: MdScalar> LstsqBatchFactorization<S> {
    /// Number of fused instances in the group.
    pub fn group_size(&self) -> usize {
        self.k
    }

    /// The per-instance factorizations (one entry in model-only groups,
    /// where shadow instances are never materialized). Instance 0 is
    /// the accounting session; refinement loops use these to re-solve
    /// each instance against its own residuals.
    pub fn instances(&self) -> &[LstsqFactorization<S>] {
        &self.facts
    }

    /// Profile of the fused factor phase — all `k` instances' QR work
    /// as fused launches, accounted once on the primary session.
    pub fn factor_profile(&self) -> &Profile {
        self.facts[0].factor_profile()
    }

    /// Solve every instance against its right hand side (the fused
    /// phase 2): returns the per-instance solutions plus the fused
    /// profile of the whole group's solve pass. Functional groups need
    /// one rhs per instance; model-only groups ignore `rhs`. Each
    /// instance's solve is exactly the singleton
    /// [`LstsqFactorization::solve`] launch sequence, so the returned
    /// solutions are bit-identical to `k` unfused solves.
    pub fn solve_all(&self, rhs: &[Vec<S>]) -> (Vec<Vec<S>>, Profile) {
        if self.facts[0].is_functional() {
            assert_eq!(rhs.len(), self.facts.len(), "one rhs per fused instance");
        }
        let mut xs = Vec::with_capacity(self.facts.len());
        let mut fused_profile = Profile::new();
        for (i, f) in self.facts.iter().enumerate() {
            let b: &[S] = rhs.get(i).map(|v| v.as_slice()).unwrap_or(&[]);
            let (x, p) = f.solve(b);
            if i == 0 {
                fused_profile = p;
            }
            xs.push(x);
        }
        (xs, fused_profile)
    }
}

/// Model-only fused-solver profiles `(qr, back substitution)` for `k`
/// same-shaped `rows × N·n` systems — the planner's cost oracle (no host
/// data, no device storage), pricing one grouped launch sequence
/// instead of `k` singleton sequences.
pub fn lstsq_batched_model_profiles<S: MdScalar>(
    gpu: &Gpu,
    k: usize,
    rows: usize,
    opts: &LstsqOptions,
) -> (Profile, Profile) {
    let f = lstsq_factor_batched_model::<S>(gpu, k, rows, opts);
    let (_, bs) = f.solve_all(&[]);
    (f.factor_profile().clone(), bs)
}

impl<S: MdScalar> LstsqFactorization<S> {
    /// Rows `m` of the factored system.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (unknowns) of the factored system.
    pub fn cols(&self) -> usize {
        self.opts.cols()
    }

    /// Profile of the factorization phase (the paper's QR rows).
    pub fn factor_profile(&self) -> &Profile {
        &self.factor_profile
    }

    /// True when the session executes kernels functionally.
    pub fn is_functional(&self) -> bool {
        self.sim.is_functional()
    }

    /// Solve `R x = Qᴴ b` for one right hand side (the paper's phase 2).
    ///
    /// Returns the solution (empty in model-only sessions, where `b` is
    /// ignored and may be empty) and the profile of exactly this solve.
    /// Every solve records the same profile: the launches of `copy R` and
    /// `invert diagonal tiles` and the operand's device footprint are
    /// charged each time, though only the first functional solve runs
    /// their bodies (the kept operand then serves every later solve; see
    /// [`LstsqFactorization`]).
    pub fn solve(&self, b: &[S]) -> (Vec<S>, Profile) {
        let (m, cols) = (self.rows, self.opts.cols());
        self.sim.reset_profile();
        let db = self.sim.alloc_vec::<S>(m);
        let dqtb = self.sim.alloc_vec::<S>(cols);
        let dx = self.sim.alloc_vec::<S>(cols);
        // the rhs upload is charged here, per solve (the factor phase
        // charges only the matrix); the split leaves a factor + one
        // solve at exactly the fused pipeline's total transfer
        self.sim.record_transfer((m * S::BYTES) as u64);
        if self.sim.is_functional() {
            assert_eq!(b.len(), m, "right hand side length mismatch");
            db.upload(b);
        }
        qtb_kernel(&self.sim, &self.st.q, &db, &dqtb, cols, self.opts.tile_size);

        let bs_opts = BacksubOptions {
            tiles: self.opts.tiles,
            tile_size: self.opts.tile_size,
        };
        let built;
        let u = match self.inverted.get() {
            Some(u) => {
                self.sim.reserve_mat::<S>(cols, cols);
                copy_r_square(&self.sim, &self.st.r, None, cols, self.opts.tile_size);
                invert_diagonal_tiles::<S>(&self.sim, None, &bs_opts);
                u
            }
            None => {
                built = self.sim.alloc_mat::<S>(cols, cols);
                copy_r_square(
                    &self.sim,
                    &self.st.r,
                    Some(&built),
                    cols,
                    self.opts.tile_size,
                );
                invert_diagonal_tiles(&self.sim, Some(&built), &bs_opts);
                if self.sim.is_functional() {
                    self.inverted.get_or_init(|| built)
                } else {
                    &built
                }
            }
        };
        backsub_inverted_on_sim(&self.sim, u, &dqtb, &dx, &bs_opts);
        self.sim.record_transfer((cols * S::BYTES) as u64);
        let x = if self.sim.is_functional() {
            dx.download()
        } else {
            Vec::new()
        };
        (x, self.sim.profile())
    }
}

/// Solve `A x = b` in the least squares sense.
///
/// `A` is `m × N·n` with `m ≥ N·n`; `b` has length `m`. In
/// [`ExecMode::ModelOnly`] the returned `x` is empty and only the
/// profiles are meaningful. Implemented as a group-of-one factor followed by
/// one [`LstsqFactorization::solve`]. Solutions are bit-identical to
/// the original fused pipeline, and total transfers are unchanged (the
/// rhs charge moved from phase 1 to phase 2); the one profile delta is
/// that square systems now run the same `copy R` launch tall systems
/// always did, so the factorization stays reusable (the copied values
/// are identical — see [`LstsqFactorization::solve`]).
pub fn lstsq<S: MdScalar>(gpu: &Gpu, a: &HostMat<S>, b: &[S], opts: &LstsqOptions) -> LstsqRun<S> {
    assert_eq!(b.len(), a.rows, "right hand side length mismatch");
    assert_eq!(a.cols, opts.cols(), "matrix does not match tiling");
    let f = factor_with_sim(Sim::new(gpu.clone(), opts.mode), Some(a), a.rows, opts);
    let (x, bs_profile) = f.solve(b);
    LstsqRun {
        x,
        qr_profile: f.factor_profile,
        bs_profile,
    }
}

/// Model-only solver profiles `(qr, back substitution)` for a square
/// `dim × dim` system — the Table 11 generator at paper dimensions.
pub fn lstsq_model_profiles<S: MdScalar>(gpu: &Gpu, opts: &LstsqOptions) -> (Profile, Profile) {
    lstsq_batched_model_profiles::<S>(gpu, 1, opts.cols(), opts)
}

/// Stage label of the refinement residual `r = b − A x`.
pub const STAGE_RESIDUAL: &str = "residual";

/// `r[i] = b[i] − Σ_j A[i,j] x[j]` — one thread per row, `block` threads
/// per block. The residual stage of a mixed-precision refinement plan:
/// run at a rung *above* the factorization rung, it recovers the digits
/// the cheap factorization left behind.
pub fn residual_kernel<S: MdScalar>(
    sim: &Sim,
    a: &gpusim::DeviceMat<S>,
    x: &gpusim::DeviceBuf<S>,
    b: &gpusim::DeviceBuf<S>,
    r: &gpusim::DeviceBuf<S>,
    block: usize,
) {
    let m = a.rows;
    let n = a.cols;
    let ops = OpCounts {
        sub: (m * n) as u64,
        mul: (m * n) as u64,
        ..OpCounts::ZERO
    };
    let cost = KernelCost::of::<S>(ops, (m * n + n + m) as u64, m as u64);
    sim.launch(
        STAGE_RESIDUAL,
        m.div_ceil(block).max(1),
        block,
        cost,
        |ctx: BlockCtx| {
            // the block's rows of b are the accumulator; it gives up
            // one column of A per step
            let i0 = ctx.global_tid(0).min(m);
            let mut acc = b.run_to_vec(i0, ctx.threads.min(m - i0));
            let xv = x.run_to_vec(0, n);
            let mut col = vec![S::zero(); acc.len()];
            for (j, xj) in xv.iter().enumerate() {
                a.load_col(j, i0, &mut col);
                axmy(&mut acc, &col, *xj);
            }
            r.store_run(i0, &acc);
        },
    );
}

/// Analytic profile of one residual stage at rung `S`: upload of the
/// iterate (`cols` scalars), the kernel, download of the residual
/// (`rows` scalars). With `with_system_upload` the one-time transfer of
/// the high-rung system (`rows × cols` matrix plus the right hand side)
/// is charged too — a refinement plan charges it to its *first* residual
/// stage and keeps the system device-resident afterwards. It is the
/// profile of one residual stage over `instances` same-shaped systems
/// as a single fused launch (occupancy over the fused grid, transfers
/// grouped, kernel base and launch gap paid once).
pub fn residual_model_profile_batched<S: MdScalar>(
    gpu: &Gpu,
    instances: usize,
    rows: usize,
    cols: usize,
    block: usize,
    with_system_upload: bool,
) -> Profile {
    let sim = Sim::batched(gpu.clone(), ExecMode::ModelOnly, instances);
    let da = sim.alloc_mat::<S>(rows, cols);
    let dx = sim.alloc_vec::<S>(cols);
    let db = sim.alloc_vec::<S>(rows);
    let dr = sim.alloc_vec::<S>(rows);
    if with_system_upload {
        sim.record_transfer(((rows * cols + rows) * S::BYTES) as u64);
    }
    sim.record_transfer((cols * S::BYTES) as u64);
    residual_kernel(&sim, &da, &dx, &db, &dr, block);
    sim.record_transfer((rows * S::BYTES) as u64);
    sim.profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, MdReal, Od, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Solve a consistent square system and return the relative residual.
    fn consistent_residual<S: MdScalar>(opts: LstsqOptions, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = opts.cols();
        let a = HostMat::<S>::random(n, n, &mut rng);
        let xt: Vec<S> = mdls_matrix::random_vector(n, &mut rng);
        let b = a.matvec(&xt);
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        let r = a.residual(&run.x, &b).to_f64();
        let bn = mdls_matrix::vec_norm2(&b).to_f64();
        r / bn
    }

    #[test]
    fn dd_solver_reaches_dd_roundoff() {
        let e = consistent_residual::<Dd>(
            LstsqOptions {
                tiles: 3,
                tile_size: 8,
                mode: ExecMode::Sequential,
            },
            301,
        );
        assert!(e < 1e-27, "dd residual {e:e}");
    }

    #[test]
    fn qd_solver_reaches_qd_roundoff() {
        let e = consistent_residual::<Qd>(
            LstsqOptions {
                tiles: 2,
                tile_size: 8,
                mode: ExecMode::Sequential,
            },
            302,
        );
        assert!(e < 1e-57, "qd residual {e:e}");
    }

    #[test]
    fn od_solver_reaches_od_roundoff() {
        let e = consistent_residual::<Od>(
            LstsqOptions {
                tiles: 2,
                tile_size: 4,
                mode: ExecMode::Sequential,
            },
            303,
        );
        assert!(e < 1e-117, "od residual {e:e}");
    }

    #[test]
    fn complex_qd_solver() {
        let e = consistent_residual::<Complex<Qd>>(
            LstsqOptions {
                tiles: 2,
                tile_size: 6,
                mode: ExecMode::Sequential,
            },
            304,
        );
        assert!(e < 1e-56, "complex qd residual {e:e}");
    }

    #[test]
    fn overdetermined_least_squares_minimizes() {
        // m > n: the residual must be orthogonal to the column space
        let mut rng = StdRng::seed_from_u64(305);
        let opts = LstsqOptions {
            tiles: 2,
            tile_size: 4,
            mode: ExecMode::Sequential,
        };
        let m = 16;
        let a = HostMat::<Qd>::random(m, opts.cols(), &mut rng);
        let b: Vec<Qd> = mdls_matrix::random_vector(m, &mut rng);
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        // r = b - A x; check A^T r ~ 0 (normal equations)
        let ax = a.matvec(&run.x);
        let r: Vec<Qd> = b.iter().zip(ax.iter()).map(|(x, y)| *x - *y).collect();
        let atr = a.matvec_conj_t(&r);
        let defect = mdls_matrix::vec_norm2(&atr).to_f64() / mdls_matrix::vec_norm2(&b).to_f64();
        assert!(defect < 1e-56, "normal-equation defect {defect:e}");
    }

    #[test]
    fn profiles_split_qr_and_bs() {
        let mut rng = StdRng::seed_from_u64(306);
        let opts = LstsqOptions {
            tiles: 2,
            tile_size: 8,
            mode: ExecMode::Sequential,
        };
        let n = opts.cols();
        let a = HostMat::<Dd>::random(n, n, &mut rng);
        let b: Vec<Dd> = mdls_matrix::random_vector(n, &mut rng);
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        assert!(run.qr_profile.stage("compute W").is_some());
        assert!(run.bs_profile.stage("invert diagonal tiles").is_some());
        assert!(run.bs_profile.stage(STAGE_QTB).is_some());
        // QR dominates BS, as in Table 11 ("about 100 times less")
        assert!(
            run.qr_profile.all_kernels_ms() > 5.0 * run.bs_profile.all_kernels_ms(),
            "QR {} ms vs BS {} ms",
            run.qr_profile.all_kernels_ms(),
            run.bs_profile.all_kernels_ms()
        );
        let total = run.total_profile();
        let sum = run.qr_profile.all_kernels_ms() + run.bs_profile.all_kernels_ms();
        assert!((total.all_kernels_ms() - sum).abs() < 1e-9);
    }

    #[test]
    fn rect_model_profile_matches_functional_accounting() {
        // the planner's cost oracle must charge exactly what a real
        // (functional) solve of the same tall shape records
        let mut rng = StdRng::seed_from_u64(307);
        let opts = LstsqOptions {
            tiles: 2,
            tile_size: 4,
            mode: ExecMode::Sequential,
        };
        let m = 16;
        let a = HostMat::<Qd>::random(m, opts.cols(), &mut rng);
        let b: Vec<Qd> = mdls_matrix::random_vector(m, &mut rng);
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        let (qr, bs) = lstsq_batched_model_profiles::<Qd>(&Gpu::v100(), 1, m, &opts);
        assert_eq!(qr.all_kernels_ms(), run.qr_profile.all_kernels_ms());
        assert_eq!(bs.all_kernels_ms(), run.bs_profile.all_kernels_ms());
        assert_eq!(bs.total_flops_paper(), run.bs_profile.total_flops_paper());
        // the wall clock is what the pipeline's scheduler books onto
        // device clocks — the oracle must match it exactly too
        assert_eq!(qr.wall_ms(), run.qr_profile.wall_ms());
        assert_eq!(bs.wall_ms(), run.bs_profile.wall_ms());
    }

    /// Every limb of every entry, as bits.
    fn bits<S: MdScalar>(x: &[S]) -> Vec<u64> {
        x.iter()
            .flat_map(|v| (0..S::PLANES).map(move |p| v.plane(p).to_bits()))
            .collect()
    }

    /// Five solves through one factorization against fresh `lstsq` runs
    /// of the same system: the kept operand must change no bit of any
    /// solution and no entry of any solve's profile.
    fn repeated_solves_match_lstsq<S: MdScalar>(rows: usize, opts: LstsqOptions, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = HostMat::<S>::random(rows, opts.cols(), &mut rng);
        let group = lstsq_factor_batched(&Gpu::v100(), &[&a], &opts);
        let f = &group.instances()[0];
        let mut first: Option<Profile> = None;
        let mut footprints = Vec::new();
        for solve in 0..5 {
            let b: Vec<S> = mdls_matrix::random_vector(rows, &mut rng);
            let before = f.sim.footprint_bytes();
            let (x, p) = f.solve(&b);
            footprints.push(f.sim.footprint_bytes() - before);
            let fresh = lstsq(&Gpu::v100(), &a, &b, &opts);
            assert_eq!(
                bits(&x),
                bits(&fresh.x),
                "{} solve {solve} diverged from lstsq",
                S::TAG
            );
            // launches, per-stage kernel ms, flops, bytes, transfers, gaps
            let first = first.get_or_insert_with(|| p.clone());
            assert_eq!(
                format!("{p:?}"),
                format!("{first:?}"),
                "{} solve {solve}",
                S::TAG
            );
            assert_eq!(format!("{p:?}"), format!("{:?}", fresh.bs_profile));
            assert_eq!(p.wall_ms().to_bits(), first.wall_ms().to_bits());
        }
        // every solve charges its buffers and the operand to the device
        assert!(
            footprints.iter().all(|&b| b == footprints[0]),
            "{footprints:?}"
        );
        assert_eq!(
            f.factor_profile().all_kernels_ms(),
            lstsq(&Gpu::v100(), &a, &vec![S::zero(); rows], &opts)
                .qr_profile
                .all_kernels_ms()
        );
    }

    #[test]
    fn factorization_solve_is_bit_identical_to_lstsq() {
        // the split must not change a single bit of a one-shot solve,
        // and every later solve through the kept back substitution
        // operand must match a fresh lstsq of the same system, profile
        // and all
        let seq = |tiles, tile_size| LstsqOptions::tiled(tiles, tile_size, ExecMode::Sequential);
        repeated_solves_match_lstsq::<f64>(12, seq(3, 4), 310);
        repeated_solves_match_lstsq::<Dd>(12, seq(3, 4), 311);
        repeated_solves_match_lstsq::<Dd>(20, seq(2, 4), 312);
        repeated_solves_match_lstsq::<Qd>(16, seq(2, 4), 313);
        repeated_solves_match_lstsq::<Od>(8, seq(2, 3), 314);
        repeated_solves_match_lstsq::<Od>(11, seq(2, 3), 315);
        repeated_solves_match_lstsq::<Complex<Dd>>(12, seq(3, 4), 316);
        repeated_solves_match_lstsq::<Complex<Dd>>(14, seq(2, 5), 317);
        repeated_solves_match_lstsq::<Dd>(12, LstsqOptions::tiled(3, 4, ExecMode::Parallel), 318);
    }

    #[test]
    fn fused_instances_keep_their_own_operands() {
        // k = 3: instance 0 on the accounting session, 1 and 2 on shadow
        // sessions, five fused solve passes
        let mut rng = StdRng::seed_from_u64(319);
        let opts = LstsqOptions::tiled(3, 4, ExecMode::Sequential);
        let rows = 14;
        let systems: Vec<HostMat<Qd>> = (0..3)
            .map(|_| HostMat::random(rows, opts.cols(), &mut rng))
            .collect();
        let refs: Vec<&HostMat<Qd>> = systems.iter().collect();
        let fact = lstsq_factor_batched(&Gpu::v100(), &refs, &opts);
        let mut first: Option<Profile> = None;
        for pass in 0..5 {
            let rhs: Vec<Vec<Qd>> = (0..3)
                .map(|_| mdls_matrix::random_vector(rows, &mut rng))
                .collect();
            let (xs, p) = fact.solve_all(&rhs);
            for i in 0..3 {
                let run = lstsq(&Gpu::v100(), &systems[i], &rhs[i], &opts);
                assert_eq!(bits(&xs[i]), bits(&run.x), "pass {pass}, instance {i}");
            }
            let first = first.get_or_insert_with(|| p.clone());
            assert_eq!(format!("{p:?}"), format!("{first:?}"), "pass {pass}");
        }
        // the model-only oracle prices the same fused pass
        let (_, bs) = lstsq_batched_model_profiles::<Qd>(&Gpu::v100(), 3, rows, &opts);
        assert_eq!(format!("{bs:?}"), format!("{:?}", first.unwrap()));
    }

    #[test]
    fn residual_kernel_matches_host_arithmetic() {
        let mut rng = StdRng::seed_from_u64(311);
        let (m, n) = (12, 8);
        let a = HostMat::<Qd>::random(m, n, &mut rng);
        let x: Vec<Qd> = mdls_matrix::random_vector(n, &mut rng);
        let b: Vec<Qd> = mdls_matrix::random_vector(m, &mut rng);

        let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let da = sim.alloc_mat::<Qd>(m, n);
        let dx = sim.alloc_vec::<Qd>(n);
        let db = sim.alloc_vec::<Qd>(m);
        let dr = sim.alloc_vec::<Qd>(m);
        a.upload_to(&da);
        dx.upload(&x);
        db.upload(&b);
        residual_kernel(&sim, &da, &dx, &db, &dr, 4);
        let r = dr.download();

        let ax = a.matvec(&x);
        for i in 0..m {
            let expect = b[i] - ax[i];
            let err = (r[i] - expect).abs().to_f64().abs();
            assert!(err < 1e-60, "row {i}: kernel residual off by {err:e}");
        }
        let p = sim.profile();
        assert!(p.stage(STAGE_RESIDUAL).is_some());
        // model profile prices the same launch (plus transfers)
        let mp = residual_model_profile_batched::<Qd>(&Gpu::v100(), 1, m, n, 4, false);
        assert_eq!(
            p.stage(STAGE_RESIDUAL).unwrap().kernel_ms,
            mp.stage(STAGE_RESIDUAL).unwrap().kernel_ms
        );
        // the system upload is charged only when asked
        let with = residual_model_profile_batched::<Qd>(&Gpu::v100(), 1, m, n, 4, true);
        assert!(with.wall_ms() > mp.wall_ms());
        assert_eq!(with.all_kernels_ms(), mp.all_kernels_ms());
    }

    #[test]
    fn batched_factorization_is_bit_identical_to_singletons() {
        // the micro-batching contract: fusing k same-shaped systems
        // into batched launches changes accounting, never bits
        let mut rng = StdRng::seed_from_u64(320);
        let opts = LstsqOptions {
            tiles: 3,
            tile_size: 4,
            mode: ExecMode::Sequential,
        };
        let n = opts.cols();
        let systems: Vec<HostMat<Dd>> = (0..5).map(|_| HostMat::random(n, n, &mut rng)).collect();
        let rhs: Vec<Vec<Dd>> = (0..5)
            .map(|_| mdls_matrix::random_vector(n, &mut rng))
            .collect();

        let refs: Vec<&HostMat<Dd>> = systems.iter().collect();
        let fact = lstsq_factor_batched(&Gpu::v100(), &refs, &opts);
        assert_eq!(fact.group_size(), 5);
        let (xs, _) = fact.solve_all(&rhs);

        for i in 0..5 {
            let run = lstsq(&Gpu::v100(), &systems[i], &rhs[i], &opts);
            assert_eq!(xs[i], run.x, "instance {i} diverged from the unfused solve");
        }
    }

    #[test]
    fn batched_model_profiles_price_the_fused_group() {
        let opts = LstsqOptions {
            tiles: 4,
            tile_size: 8,
            mode: ExecMode::ModelOnly,
        };
        let k = 24;
        let (qr1, bs1) = lstsq_batched_model_profiles::<Qd>(&Gpu::v100(), 1, 32, &opts);
        let (qrk, bsk) = lstsq_batched_model_profiles::<Qd>(&Gpu::v100(), k, 32, &opts);
        // all k instances' flops and traffic are accounted...
        assert_eq!(qrk.total_flops_paper(), k as f64 * qr1.total_flops_paper());
        assert_eq!(bsk.total_bytes(), k as u64 * bs1.total_bytes());
        assert_eq!(qrk.transfer_bytes, k as u64 * qr1.transfer_bytes);
        // ...through the singleton launch count (fusion, not repetition)
        assert_eq!(qrk.total_launches(), qr1.total_launches());
        // and the fused group is far cheaper than k singleton solves on
        // this occupancy-starved 32-unknown shape
        let fused = qrk.wall_ms() + bsk.wall_ms();
        let singles = k as f64 * (qr1.wall_ms() + bs1.wall_ms());
        assert!(
            fused < singles / 2.0,
            "fused {fused:.3} ms vs {k} singletons {singles:.3} ms"
        );
    }

    #[test]
    fn batched_residual_profile_fuses_the_launch() {
        let (m, n, b) = (48, 32, 8);
        let one = residual_model_profile_batched::<Qd>(&Gpu::v100(), 1, m, n, b, false);
        let k = 16;
        let fused = residual_model_profile_batched::<Qd>(&Gpu::v100(), k, m, n, b, false);
        assert_eq!(
            fused.total_flops_paper(),
            k as f64 * one.total_flops_paper()
        );
        assert_eq!(fused.total_launches(), one.total_launches());
        assert!(fused.wall_ms() < k as f64 * one.wall_ms() / 2.0);
    }

    #[test]
    fn model_only_returns_profiles_without_solution() {
        let opts = LstsqOptions {
            tiles: 2,
            tile_size: 8,
            mode: ExecMode::ModelOnly,
        };
        let n = opts.cols();
        let a = HostMat::<Qd>::zeros(n, n);
        let b = vec![Qd::ZERO; n];
        let run = lstsq(&Gpu::v100(), &a, &b, &opts);
        assert!(run.x.is_empty());
        assert!(run.qr_profile.all_kernels_ms() > 0.0);
        assert!(run.bs_profile.all_kernels_ms() > 0.0);
    }
}
