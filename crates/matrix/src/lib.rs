//! Host-side multiple double matrices and reference linear algebra.
//!
//! Everything the GPU drivers need around them: workload generation (the
//! paper's §4.1 conventions), golden-reference BLAS for verification, LU
//! factorization (to produce well-conditioned triangular test inputs —
//! random triangular matrices are exponentially ill conditioned, the
//! paper's reference \[33\]), residual and norm computations, and
//! host/device conversion.

pub mod gen;
pub mod hostmat;
pub mod lu;
pub mod norms;

pub use gen::{hilbert, random_matrix, random_vector, well_conditioned_upper};
pub use hostmat::HostMat;
pub use lu::{lu_decompose, LuError};
pub use norms::{vec_diff_norm2_f64, vec_norm2, vec_norm2_f64, vec_norm_inf};
