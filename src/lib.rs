//! # multidouble-ls
//!
//! Least squares solving on (simulated) GPUs in multiple double precision —
//! a Rust reproduction of
//!
//! > Jan Verschelde, *Least Squares on GPUs in Multiple Double Precision*,
//! > IPDPS Workshops 2022 (arXiv:2110.08375).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`md`] — multiple double arithmetic (`Dd`, `Qd`, `Od`, complex);
//! * [`sim`] — the GPU execution simulator (device models, kernels,
//!   roofline timing);
//! * [`matrix`] — staggered multiple double matrices and host reference
//!   linear algebra;
//! * [`backsub`] — Algorithm 1: tiled accelerated back substitution;
//! * [`qr`] — Algorithm 2: blocked accelerated Householder QR;
//! * [`solver`] — the least squares solver combining the two;
//! * [`pipeline`] — the batched multi-GPU solve service (cost-model
//!   planner, device pool, policy-driven scheduler, priority-aware
//!   `solve_batch`/`solve_stream_staged`);
//! * [`obs`] — the observability layer: typed pipeline events,
//!   Chrome-trace export and latency/calibration metrics (attach a
//!   recorder via `pipeline::DevicePool::attach_observer`).
//!
//! ## Quickstart
//!
//! ```
//! use multidouble_ls::md::{MdScalar, Qd};
//! use multidouble_ls::sim::Gpu;
//! use multidouble_ls::solver::{lstsq, LstsqOptions};
//! use multidouble_ls::matrix::HostMat;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let n = 64;
//! let a = HostMat::<Qd>::random(n, n, &mut rng);
//! let x_true: Vec<Qd> = (0..n).map(|i| Qd::from_f64(1.0 + i as f64)).collect();
//! let b = a.matvec(&x_true);
//!
//! let gpu = Gpu::v100();
//! let out = lstsq(&gpu, &a, &b, &LstsqOptions { tiles: 4, tile_size: 16, ..Default::default() });
//! let r = a.residual(&out.x, &b);
//! assert!(r.to_f64() < 1e-55); // quad double accuracy
//! ```
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use mdls_backsub as backsub;
pub use mdls_core as solver;
pub use mdls_matrix as matrix;
pub use mdls_qr as qr;
pub use multidouble as md;

/// The GPU simulator substrate.
pub use gpusim as sim;

/// The batched multi-GPU solve pipeline: cost-model planner, device
/// pool, policy-driven scheduler (`DispatchPolicy`), and the
/// `solve_batch` / `solve_stream_staged` API with priority-aware
/// streaming.
pub use mdls_pipeline as pipeline;

/// The observability layer: typed [`obs::Event`]s emitted from every
/// pipeline stage, an [`obs::Recorder`] sink, Chrome-trace export
/// ([`obs::trace`]) and metrics aggregation ([`obs::metrics`]).
/// Observation is provably inert: with no observer attached no event
/// is constructed, and an attached observer changes neither solution
/// bits nor simulated timing.
pub use mdls_obs as obs;
