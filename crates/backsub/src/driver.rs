//! The Algorithm 1 driver: issues the `1 + N(N+1)/2` launches against a
//! simulator session and reports the three-stage profile of the paper's
//! Tables 7–9.

use gpusim::{ExecMode, Gpu, Profile, Sim};
use mdls_matrix::HostMat;
use multidouble::MdScalar;

use crate::cost;
use crate::kernels;
use crate::{STAGE_INVERT, STAGE_MULTIPLY, STAGE_UPDATE};

/// Tiling of the upper triangular system.
#[derive(Clone, Copy, Debug)]
pub struct BacksubOptions {
    /// Number of tiles `N`.
    pub tiles: usize,
    /// Tile size `n` (threads per block).
    pub tile_size: usize,
}

impl BacksubOptions {
    /// Problem dimension `N · n`.
    pub fn dim(&self) -> usize {
        self.tiles * self.tile_size
    }
}

/// Outcome of a back substitution run.
pub struct BacksubRun<S> {
    /// The solution (present in functional modes, `None` in model-only).
    pub x: Option<Vec<S>>,
    /// Stage-resolved timing/flop profile.
    pub profile: Profile,
}

/// Run Algorithm 1 on an existing simulator session. The matrix and right
/// hand side must already be on the device; `x` receives the solution.
///
/// Launch sequence (matching the paper's count of `1 + N(N+1)/2`):
/// one inversion launch, then per step `i = N-1..0` one multiply launch
/// and (for `i > 0`) one update launch of `i` blocks.
///
/// The inversion overwrites `u`'s diagonal tiles with their inverses, and
/// the later launches only read `u`. A caller that solves against one
/// matrix more than once can therefore keep the inverted `u`: it runs
/// [`invert_diagonal_tiles`] once and [`backsub_inverted_on_sim`] per
/// right hand side, pricing each later inversion with
/// `invert_diagonal_tiles(sim, None, ..)` (what `mdls-core`'s
/// factorization does).
pub fn backsub_on_sim<S: MdScalar>(
    sim: &Sim,
    u: &gpusim::DeviceMat<S>,
    b: &gpusim::DeviceBuf<S>,
    x: &gpusim::DeviceBuf<S>,
    opts: &BacksubOptions,
) {
    invert_diagonal_tiles(sim, Some(u), opts);
    backsub_inverted_on_sim(sim, u, b, x, opts);
}

/// Step 1 of Algorithm 1: invert all diagonal tiles of `u` in place, one
/// launch of `N` blocks of `n` threads. With `u = None` the launch is
/// priced and counted exactly the same, but no body runs: the caller's
/// operand already holds these inverses from an earlier run
/// ([`Sim::launch_cached`]).
pub fn invert_diagonal_tiles<S: MdScalar>(
    sim: &Sim,
    u: Option<&gpusim::DeviceMat<S>>,
    opts: &BacksubOptions,
) {
    let (nt, n) = (opts.tiles, opts.tile_size);
    let cost = cost::invert_cost::<S>(nt, n);
    match u {
        Some(u) => {
            check_square(u, opts);
            sim.launch(STAGE_INVERT, nt, n, cost, |ctx| {
                kernels::invert_tile_block(ctx, u, n)
            });
        }
        None => sim.launch_cached(STAGE_INVERT, nt, n, cost),
    }
}

/// Step 2 of Algorithm 1 — alternating multiplies and updates — against
/// a `u` whose diagonal tiles already hold their inverses
/// ([`invert_diagonal_tiles`]). Reads `u`, never writes it.
pub fn backsub_inverted_on_sim<S: MdScalar>(
    sim: &Sim,
    u: &gpusim::DeviceMat<S>,
    b: &gpusim::DeviceBuf<S>,
    x: &gpusim::DeviceBuf<S>,
    opts: &BacksubOptions,
) {
    let (nt, n) = (opts.tiles, opts.tile_size);
    check_square(u, opts);
    assert_eq!(b.len(), opts.dim());
    assert_eq!(x.len(), opts.dim());

    for i in (0..nt).rev() {
        sim.launch(STAGE_MULTIPLY, 1, n, cost::multiply_cost::<S>(n), |ctx| {
            kernels::multiply_inverse_block(ctx, u, b, x, i, n)
        });
        if i > 0 {
            // the paper counts each b_j update as its own launch while
            // executing the i blocks of one step simultaneously
            sim.launch_counted(
                STAGE_UPDATE,
                i,
                n,
                cost::update_cost::<S>(i, n),
                i as u64,
                |ctx| kernels::update_rhs_block(ctx, u, b, x, i, n),
            );
        }
    }
}

fn check_square<S: MdScalar>(u: &gpusim::DeviceMat<S>, opts: &BacksubOptions) {
    assert_eq!(u.rows, opts.dim(), "matrix does not match tiling");
    assert_eq!(u.rows, u.cols, "back substitution needs a square matrix");
}

/// Standalone back substitution: creates a session, uploads `u` and `b`
/// (recording the transfers, as the paper's wall clock does), runs
/// Algorithm 1 and downloads the solution.
pub fn backsub<S: MdScalar>(
    gpu: &Gpu,
    mode: ExecMode,
    u: &HostMat<S>,
    b: &[S],
    opts: &BacksubOptions,
) -> BacksubRun<S> {
    let sim = Sim::new(gpu.clone(), mode);
    let dim = opts.dim();
    let du = sim.alloc_mat::<S>(dim, dim);
    let db = sim.alloc_vec::<S>(dim);
    let dx = sim.alloc_vec::<S>(dim);

    sim.record_host_overhead();
    sim.record_transfer(((dim * dim + dim) * S::BYTES) as u64);
    if sim.is_functional() {
        u.upload_to(&du);
        db.upload(b);
    }

    backsub_on_sim(&sim, &du, &db, &dx, opts);

    sim.record_transfer((dim * S::BYTES) as u64);
    let x = if sim.is_functional() {
        Some(dx.download())
    } else {
        None
    };
    BacksubRun {
        x,
        profile: sim.profile(),
    }
}

/// Model-only back substitution profile: no host data, no device storage.
pub fn backsub_model_profile<S: MdScalar>(gpu: &Gpu, opts: &BacksubOptions) -> Profile {
    let sim = Sim::new(gpu.clone(), ExecMode::ModelOnly);
    let dim = opts.dim();
    let du = sim.alloc_mat::<S>(dim, dim);
    let db = sim.alloc_vec::<S>(dim);
    let dx = sim.alloc_vec::<S>(dim);
    sim.record_host_overhead();
    sim.record_transfer(((dim * dim + dim) * S::BYTES) as u64);
    backsub_on_sim(&sim, &du, &db, &dx, opts);
    sim.record_transfer((dim * S::BYTES) as u64);
    sim.profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, MdReal, Od, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_case<S: MdScalar>(n_tiles: usize, tile: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = BacksubOptions {
            tiles: n_tiles,
            tile_size: tile,
        };
        let dim = opts.dim();
        let u = mdls_matrix::well_conditioned_upper::<S, _>(dim, &mut rng);
        let xs: Vec<S> = mdls_matrix::random_vector(dim, &mut rng);
        let b = u.matvec(&xs);
        let run = backsub(&Gpu::v100(), ExecMode::Sequential, &u, &b, &opts);
        let x = run.x.unwrap();
        // relative residual against the generating solution
        let num = mdls_matrix::norms::vec_diff_norm2(&x, &xs).to_f64();
        let den = mdls_matrix::norms::vec_norm2(&xs).to_f64();
        num / den
    }

    #[test]
    fn solves_dd_to_dd_accuracy() {
        let e = run_case::<Dd>(4, 8, 41);
        assert!(e < 1e-27, "dd error {e:e}");
    }

    #[test]
    fn solves_qd_to_qd_accuracy() {
        let e = run_case::<Qd>(3, 8, 42);
        assert!(e < 1e-55, "qd error {e:e}");
    }

    #[test]
    fn solves_od_to_od_accuracy() {
        let e = run_case::<Od>(2, 6, 43);
        assert!(e < 1e-115, "od error {e:e}");
    }

    #[test]
    fn solves_complex_dd() {
        let e = run_case::<Complex<Dd>>(3, 6, 44);
        assert!(e < 1e-26, "complex dd error {e:e}");
    }

    #[test]
    fn launch_count_matches_paper_formula() {
        let mut rng = StdRng::seed_from_u64(45);
        let opts = BacksubOptions {
            tiles: 5,
            tile_size: 4,
        };
        let u = mdls_matrix::well_conditioned_upper::<Dd, _>(20, &mut rng);
        let b: Vec<Dd> = mdls_matrix::random_vector(20, &mut rng);
        let run = backsub(&Gpu::v100(), ExecMode::Sequential, &u, &b, &opts);
        assert_eq!(run.profile.total_launches(), crate::cost::total_launches(5));
        // the three stages of the paper's tables are all present
        assert!(run.profile.stage(STAGE_INVERT).is_some());
        assert!(run.profile.stage(STAGE_MULTIPLY).is_some());
        assert!(run.profile.stage(STAGE_UPDATE).is_some());
    }

    #[test]
    fn model_only_gives_same_profile_as_functional() {
        let mut rng = StdRng::seed_from_u64(46);
        let opts = BacksubOptions {
            tiles: 4,
            tile_size: 8,
        };
        let dim = opts.dim();
        let u = mdls_matrix::well_conditioned_upper::<Qd, _>(dim, &mut rng);
        let b: Vec<Qd> = mdls_matrix::random_vector(dim, &mut rng);
        let f = backsub(&Gpu::v100(), ExecMode::Sequential, &u, &b, &opts);
        let m = backsub(&Gpu::v100(), ExecMode::ModelOnly, &u, &b, &opts);
        assert!(m.x.is_none());
        assert_eq!(
            f.profile.all_kernels_ms(),
            m.profile.all_kernels_ms(),
            "analytic model must not depend on execution"
        );
        assert_eq!(f.profile.total_flops_paper(), m.profile.total_flops_paper());
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(47);
        let opts = BacksubOptions {
            tiles: 6,
            tile_size: 8,
        };
        let dim = opts.dim();
        let u = mdls_matrix::well_conditioned_upper::<Dd, _>(dim, &mut rng);
        let xs: Vec<Dd> = mdls_matrix::random_vector(dim, &mut rng);
        let b = u.matvec(&xs);
        let s = backsub(&Gpu::v100(), ExecMode::Sequential, &u, &b, &opts);
        let p = backsub(&Gpu::v100(), ExecMode::Parallel, &u, &b, &opts);
        assert_eq!(s.x.unwrap(), p.x.unwrap());
    }

    #[test]
    #[should_panic(expected = "matrix does not match tiling")]
    fn dimension_mismatch_panics() {
        let sim = Sim::new(Gpu::v100(), ExecMode::ModelOnly);
        let u = sim.alloc_mat::<Dd>(8, 8);
        let b = sim.alloc_vec::<Dd>(8);
        let x = sim.alloc_vec::<Dd>(8);
        backsub_on_sim(
            &sim,
            &u,
            &b,
            &x,
            &BacksubOptions {
                tiles: 3,
                tile_size: 4,
            },
        );
    }
}
