//! The reproduction harness: one function per table and figure of the
//! paper, all runnable through the `repro` binary.
//!
//! Dimensions match the paper exactly; runs use the simulator's
//! model-only mode (the numerics themselves are validated by the
//! `verify` subcommand and the test suites at smaller sizes).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod ablate;
pub mod experiments;
pub mod figures;
pub mod tables;
pub mod verify;

pub use tables::TextTable;
