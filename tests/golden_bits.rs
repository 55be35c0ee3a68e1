//! Golden bits: every limb the functional kernels produce, pinned.
//!
//! The digests below were recorded on the commit *before* the kernel
//! bodies were rewritten in column-axpy order over block-local
//! accumulators. A kernel rewrite may change how memory is walked, never
//! the sequence of `+=`/`-=` operations an output element sees — so each
//! digest must reproduce exactly, under both execution modes, and the
//! fused (batched) path must agree with the singleton path bit for bit.
//!
//! One digest per (shape, scalar) covers, in order: `Q` and `R` of
//! `qr_decompose`, `x` of `lstsq`, the `k = 4` solutions of
//! `lstsq_factor_batched` + `solve_all`, `r` of `residual_kernel`, and
//! `x` of the tiled back substitution.

use multidouble_ls::backsub::{backsub, BacksubOptions};
use multidouble_ls::matrix::{random_vector, well_conditioned_upper, HostMat};
use multidouble_ls::md::{Complex, Dd, MdScalar, Od, Qd};
use multidouble_ls::qr::{qr_decompose, QrOptions};
use multidouble_ls::sim::{ExecMode, Gpu, Sim};
use multidouble_ls::solver::{lstsq, lstsq_factor_batched, residual_kernel, LstsqOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(rows, tiles, tile_size)`: 24×24 as 3×8 and 2×12, 64×64 as 4×16,
/// 40×24 tall.
const SHAPES: [(usize, usize, usize); 4] = [(24, 3, 8), (24, 2, 12), (64, 4, 16), (40, 3, 8)];

/// FNV-1a over the bit pattern of every limb plane.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn limbs<S: MdScalar>(&mut self, values: &[S]) {
        for v in values {
            for p in 0..S::PLANES {
                for byte in v.plane(p).to_bits().to_le_bytes() {
                    self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }

    fn mat<S: MdScalar>(&mut self, m: &HostMat<S>) {
        for c in 0..m.cols {
            for r in 0..m.rows {
                self.limbs(&[m.get(r, c)]);
            }
        }
    }
}

fn digest<S: MdScalar>(shape: usize, mode: ExecMode) -> u64 {
    let (rows, tiles, tile_size) = SHAPES[shape];
    let cols = tiles * tile_size;
    let mut rng = StdRng::seed_from_u64(0x6d64_6c73 + shape as u64);
    let systems: Vec<HostMat<S>> = (0..4)
        .map(|_| HostMat::random(rows, cols, &mut rng))
        .collect();
    let rhs: Vec<Vec<S>> = (0..4).map(|_| random_vector(rows, &mut rng)).collect();
    let upper = well_conditioned_upper::<S, _>(cols, &mut rng);
    let upper_rhs: Vec<S> = random_vector(cols, &mut rng);
    let gpu = Gpu::v100();
    let mut h = Fnv::new();

    let qr = qr_decompose(&gpu, mode, &systems[0], &QrOptions { tiles, tile_size });
    h.mat(&qr.q.expect("functional run returns Q"));
    h.mat(&qr.r.expect("functional run returns R"));

    let opts = LstsqOptions::tiled(tiles, tile_size, mode);
    let single = lstsq(&gpu, &systems[0], &rhs[0], &opts);
    h.limbs(&single.x);

    let refs: Vec<&HostMat<S>> = systems.iter().collect();
    let (xs, _) = lstsq_factor_batched(&gpu, &refs, &opts).solve_all(&rhs);
    assert_eq!(xs[0], single.x, "fused instance 0 diverged from lstsq");
    for x in &xs {
        h.limbs(x);
    }

    let sim = Sim::new(gpu.clone(), mode);
    let da = sim.alloc_mat::<S>(rows, cols);
    let dx = sim.alloc_vec::<S>(cols);
    let db = sim.alloc_vec::<S>(rows);
    let dr = sim.alloc_vec::<S>(rows);
    systems[0].upload_to(&da);
    dx.upload(&single.x);
    db.upload(&rhs[0]);
    residual_kernel(&sim, &da, &dx, &db, &dr, tile_size);
    h.limbs(&dr.download());

    let bs = backsub(
        &gpu,
        mode,
        &upper,
        &upper_rhs,
        &BacksubOptions { tiles, tile_size },
    );
    h.limbs(&bs.x.expect("functional run returns x"));
    h.0
}

/// Both execution modes must land on the recorded digest of every shape.
fn check<S: MdScalar>(golden: [u64; 4]) {
    let got: Vec<[u64; 2]> = (0..SHAPES.len())
        .map(|s| {
            [
                digest::<S>(s, ExecMode::Sequential),
                digest::<S>(s, ExecMode::Parallel),
            ]
        })
        .collect();
    for (s, g) in got.iter().enumerate() {
        assert!(
            g[0] == golden[s] && g[1] == golden[s],
            "{} shape {:?}: recorded {:#018x}, sequential {:#018x}, parallel {:#018x}\nall (seq, par): {:#018x?}",
            S::TAG,
            SHAPES[s],
            golden[s],
            g[0],
            g[1],
            got
        );
    }
}

#[test]
fn golden_bits_f64() {
    check::<f64>([
        0x0ce0_03c8_bf2a_361c,
        0x7ff3_d665_7591_e48f,
        0x64bd_3840_c85d_a7c1,
        0x7d38_b696_7ccb_78e3,
    ]);
}

#[test]
fn golden_bits_dd() {
    check::<Dd>([
        0xcec8_23a9_8612_1483,
        0x9075_afd9_649d_c4f7,
        0x5566_dc9f_aaee_2260,
        0xb496_f5ab_5348_790c,
    ]);
}

#[test]
fn golden_bits_qd() {
    check::<Qd>([
        0x0b9f_b6cf_f60d_adac,
        0xaa73_bdad_9ca6_fb62,
        0xbb6d_8df2_44e6_de94,
        0x0132_d8cc_ca4f_55d2,
    ]);
}

#[test]
fn golden_bits_od() {
    check::<Od>([
        0x94a0_05df_2d3b_9a65,
        0x5a40_8daf_70f0_b1a6,
        0x830e_545a_17c8_0520,
        0xa5e9_d76c_2e27_3726,
    ]);
}

#[test]
fn golden_bits_complex_dd() {
    check::<Complex<Dd>>([
        0xf0dc_7371_7677_e7ae,
        0x44b8_6fc6_9a0e_0ad2,
        0x9f9b_73c2_d0fb_de60,
        0xd7cb_e271_ce76_8b45,
    ]);
}
