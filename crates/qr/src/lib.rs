//! Algorithm 2: blocked accelerated Householder QR.
//!
//! The `M × N·n` matrix `A` is reduced panel by panel (`N` tiles of `n`
//! columns). For panel `k`:
//!
//! 1. for each column `ℓ`: compute the Householder vector `v` and the
//!    scalar `β = 2 / vᴴv` (**β, v**), form `w = β Rᴴ v` (**β·Rᵀ⋆v**) and
//!    rank-one update the panel `R := R − v wᴴ` (**update R**);
//! 2. aggregate the `n` reflectors in the WY representation
//!    `P = I + W Yᴴ`, column by column: `z = −β (v + W (Yᴴ v))`
//!    (**compute W**);
//! 3. update `Q`: form `YWᴴ` once (**Y⋆Wᵀ**), multiply
//!    `QWY := Q ⋆ (YWᴴ)ᴴ` (**Q⋆WYᵀ**), add (**Q + QWY**);
//! 4. update the trailing columns `C`: multiply `YWTC := (YWᴴ) ⋆ C`
//!    (**YWT⋆C**), add (**R + YWTC**).
//!
//! The nine bold names are the row legend of the paper's Tables 3–6.
//! On complex data every transpose is the Hermitian transpose, as the
//! paper prescribes.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod cost;
pub mod driver;
pub mod host;
pub mod kernels;

pub use driver::{qr_decompose, qr_model_profile, qr_on_sim, QrDeviceState, QrOptions, QrRun};
pub use host::householder_qr_host;

/// Stage label: Householder vector and β.
pub const STAGE_BETA_V: &str = "beta, v";
/// Stage label: `w = β Rᴴ v`.
pub const STAGE_BETA_RTV: &str = "beta*R^T*v";
/// Stage label: rank-one panel update.
pub const STAGE_UPDATE_R: &str = "update R";
/// Stage label: WY aggregation.
pub const STAGE_COMPUTE_W: &str = "compute W";
/// Stage label: the `Y Wᴴ` product.
pub const STAGE_YWT: &str = "Y*W^T";
/// Stage label: the `Q (YWᴴ)ᴴ` product.
pub const STAGE_QWYT: &str = "Q*WY^T";
/// Stage label: the `(YWᴴ) C` product.
pub const STAGE_YWTC: &str = "YWT*C";
/// Stage label: the Q addition.
pub const STAGE_Q_ADD: &str = "Q + QWY";
/// Stage label: the R addition.
pub const STAGE_R_ADD: &str = "R + YWTC";

/// All nine stage labels in table order.
pub const STAGES: [&str; 9] = [
    STAGE_BETA_V,
    STAGE_BETA_RTV,
    STAGE_UPDATE_R,
    STAGE_COMPUTE_W,
    STAGE_YWT,
    STAGE_QWYT,
    STAGE_YWTC,
    STAGE_Q_ADD,
    STAGE_R_ADD,
];
