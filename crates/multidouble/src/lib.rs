//! Multiple double precision arithmetic.
//!
//! A *multiple double* number is an unevaluated sum of `m` hardware doubles
//! (`m` = 2: double double, `m` = 4: quad double, `m` = 8: octo double),
//! giving roughly 32, 64 and 128 decimal digits of working precision. All
//! operations are expressed in double precision arithmetic through
//! *error-free transformations* (Knuth's `two_sum`, Dekker/FMA `two_prod`)
//! followed by renormalization, exactly as in the QDlib and CAMPARY
//! libraries used by the paper this workspace reproduces:
//!
//! > J. Verschelde, *Least Squares on GPUs in Multiple Double Precision*,
//! > IPDPS Workshops 2022 (arXiv:2110.08375).
//!
//! The crate provides
//! * [`Dd`], [`Qd`], [`Od`] — the three multiple double real types, plus
//!   plain `f64` through the same [`MdReal`] trait (the paper's `1d`);
//! * [`Complex`] — complex numbers over any real scalar;
//! * [`MdScalar`] — the unifying trait the linear algebra crates are
//!   generic over ({`f64`, `Dd`, `Qd`, `Od`} × {real, complex});
//! * [`cost`] — per-operation double-precision flop tallies: the paper's
//!   Table 1 numbers and this crate's *measured* numbers;
//! * [`count`] — instrumented re-execution of every algorithm on a
//!   counting float, used to *measure* the tallies (Table 1 reproduction).
//!
//! All algorithms are written once, generically over the [`fp::Fp`] trait,
//! and instantiated with plain `f64` for production use and with counting
//! floats for instrumentation, so the measured counts are guaranteed to
//! describe the very code that runs. The type surface is written once
//! too: one macro in [`real`] emits the operators, conversions, `Display`
//! and [`MdReal`] impl of all three types over their `dd_*`, `qd_*` and
//! `od_*` kernels, so `dd.rs`, `qd.rs` and `od.rs` hold only the kernels,
//! the structs and what differs between them.

pub mod complex;
pub mod cost;
pub mod count;
pub mod dd;
pub mod eft;
pub mod expansion;
pub mod fmt;
pub mod fp;
pub mod od;
pub mod qd;
pub mod random;
pub mod real;
pub mod scalar;

pub use complex::Complex;
pub use cost::{OpCounts, ScalarCost};
pub use dd::Dd;
pub use od::Od;
pub use qd::Qd;
pub use real::{convert_real, sqrt_to_f64, MdReal};
pub use scalar::MdScalar;

/// Complex double double.
pub type Cdd = Complex<Dd>;
