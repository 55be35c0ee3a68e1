//! Algorithm 1: tiled accelerated back substitution.
//!
//! To solve `U x = b` with `U` upper triangular of dimension `N·n`
//! (`N` tiles of size `n`):
//!
//! 1. **invert diagonal tiles** — one launch of `N` blocks of `n`
//!    threads; thread `k` of block `i` solves `U_i v = e_k`, writing
//!    column `k` of `U_i^{-1}` (the columns of a triangular inverse are
//!    independent);
//! 2. for `i = N-1, …, 0`:
//!    a. **multiply with inverses** — one block computes
//!       `x_i := U_i^{-1} b_i`;
//!    b. **back substitution** — `i` blocks simultaneously update
//!       `b_j := b_j − A_{j,i} x_i` for `j < i`.
//!
//! Total: `1 + N(N+1)/2` kernel launches, exactly as the paper counts.
//! The three stage names match the row legend of the paper's Tables 7–9.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod cost;
pub mod driver;
pub mod kernels;

pub use driver::{
    backsub, backsub_inverted_on_sim, backsub_model_profile, backsub_on_sim, invert_diagonal_tiles,
    BacksubOptions, BacksubRun,
};

/// Stage label: inversion of the diagonal tiles.
pub const STAGE_INVERT: &str = "invert diagonal tiles";
/// Stage label: `x_i := U_i^{-1} b_i` products.
pub const STAGE_MULTIPLY: &str = "multiply with inverses";
/// Stage label: right-hand-side updates.
pub const STAGE_UPDATE: &str = "back substitution";
