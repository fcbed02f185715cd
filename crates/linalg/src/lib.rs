//! # milr-linalg
//!
//! Dense `f64` linear-algebra substrate for MILR's recovery mathematics.
//!
//! MILR (DSN 2021) recovers corrupted CNN parameters by solving the linear
//! systems induced by each layer's algebra:
//!
//! * **dense backward pass** — `A = C·B⁻¹` needs a matrix inverse / solve;
//! * **dense parameter solving** — factor the input once, solve one RHS per
//!   output column;
//! * **convolution parameter solving** — the `im2col` matrix is the
//!   coefficient matrix, one RHS per filter;
//! * **convolution backward pass** — one small `Y × F²Z` system per output
//!   location;
//! * **whole-layer partial recovery** — under-determined systems solved in
//!   the least-squares / minimum-norm sense (paper §V-B: "they attempt to
//!   find a least-square solution").
//!
//! Everything here is `f64`: the weights being recovered are `f32`, so a
//! well-conditioned `f64` solve rounds back to the exact original bits in
//! the overwhelming majority of cases (the paper's *Limitations* paragraph
//! discusses exactly this float-rounding concern).
//!
//! Large factorizations parallelize row updates with `std::thread`
//! scoped threads; callers that are themselves parallel workers cap the
//! fan-out with [`with_thread_budget`] so nested parallelism cannot
//! oversubscribe the machine.
//!
//! ## Example
//!
//! ```
//! use milr_linalg::Mat;
//!
//! let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let b = vec![5.0, 10.0];
//! let x = a.solve(&b)?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 3.0).abs() < 1e-12);
//! # Ok::<(), milr_linalg::LinalgError>(())
//! ```

#![deny(missing_docs)]
// Factorization kernels index into multiple matrices with shared matrix
// coordinates; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

mod budget;
mod error;
mod lu;
mod matrix;
mod qr;
pub mod scalar;

pub use budget::{effective_threads, with_thread_budget};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Mat;
pub use qr::{lstsq, min_norm_solve, ridge_solve, Qr};

/// Result alias for linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
