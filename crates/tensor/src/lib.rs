//! # milr-tensor
//!
//! Dense, row-major `f32` tensor substrate for the MILR reproduction.
//!
//! The MILR paper ([Ponader, Kundu, Solihin — DSN 2021]) exploits the
//! algebraic relationship between the input, output and parameters of CNN
//! layers. This crate provides the tensor machinery those layers are built
//! on: shapes and indexing, matrix multiplication, `im2col` patch
//! extraction (the bridge between convolution and the linear systems MILR
//! solves), pooling, padding, and seeded pseudo-random tensor generation
//! (MILR regenerates detection inputs and dummy parameters from stored
//! seeds instead of storing the tensors themselves).
//!
//! Weights in the paper are IEEE-754 `f32`; bit-level fault injection
//! depends on that exact representation, so the tensor element type is
//! fixed to `f32`. Recovery mathematics happens in `f64` inside
//! `milr-linalg`; conversion helpers live on [`Tensor`].
//!
//! ## Example
//!
//! ```
//! use milr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok::<(), milr_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

mod conv;
mod error;
mod gemm;
mod ops;
mod pool;
mod prng;
pub mod scalar;
mod shape;
mod tensor;
#[cfg(test)]
mod testutil;

pub use conv::{col2im_accumulate, conv2d, conv2d_at, im2col, ConvSpec, Padding};
pub use error::TensorError;
pub use ops::{argmax, matmul};
pub use pool::{avg_pool2d, max_pool2d, PoolSpec};
pub use prng::TensorRng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias for tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
