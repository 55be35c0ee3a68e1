//! GPU execution simulator.
//!
//! The paper this workspace reproduces measures CUDA kernels on five NVIDIA
//! GPUs. No GPU is available here, so this crate substitutes a simulator
//! with two orthogonal halves:
//!
//! 1. **Functional execution** ([`exec`]): kernels are written at block
//!    granularity (CUDA's barrier phases become loops over the threads of
//!    a block) and run against [`buffer::DeviceBuf`] global memory with the
//!    paper's *staggered* multiple double layout (one `f64` plane per limb),
//!    staging columns into block-local slices for the unit-stride loops of
//!    [`shared`].
//!    Blocks of one launch may run on parallel host threads — the safety
//!    contract is CUDA's own: blocks of a launch must write disjoint
//!    locations.
//! 2. **Analytic timing** ([`model`]): every launch declares its multiple
//!    double operation counts and global memory traffic; a roofline model
//!    with occupancy and per-device ILP efficiency converts those into
//!    kernel milliseconds, using the device constants of [`device`]
//!    (the paper's Table 2 plus public spec-sheet peaks and bandwidths).
//!
//! Reported gigaflops divide *Table 1 flops* by modeled time — the paper's
//! own convention — while the time model charges the *measured* FMA-based
//! operation counts that the arithmetic actually executes. The difference
//! between those two tallies, together with the memory-bound/compute-bound
//! transition of the roofline, is what makes the observed precision
//! overhead factors land below the Table 1 predictions, as in the paper.

#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod buffer;
pub mod device;
pub mod exec;
pub mod fault;
pub mod launch;
pub mod model;
pub mod profile;
pub mod roofline;
pub mod shared;

pub use buffer::{DeviceBuf, DeviceMat};
pub use device::Gpu;
pub use exec::{host_workers, ExecMode, Sim};
pub use fault::FaultPlan;
pub use launch::{BlockCtx, KernelCost};
pub use profile::{Profile, StageStats};
