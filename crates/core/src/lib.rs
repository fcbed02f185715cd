//! # milr-core
//!
//! **MILR — Mathematically Induced Layer Recovery** (Ponader, Kundu,
//! Solihin; DSN 2021): software-only error detection and self-healing for
//! CNN parameters, suitable for *plaintext-space error correction*
//! (PSEC).
//!
//! MILR exploits the algebraic relationship between each layer's input
//! `x`, parameters `p` and output `y`:
//!
//! ```text
//! f(x, p) = y        forward pass
//! f⁻¹(y, p) = x      backward pass (when the layer is invertible)
//! R(x, y) = p        parameter solving
//! ```
//!
//! Given golden input/output pairs held in error-resistant storage,
//! corrupted parameters — single bits, whole weights, or entire layers —
//! are *recomputed* rather than redundantly stored.
//!
//! The crate implements the paper's three phases:
//!
//! * **Initialization** ([`Milr::protect`]) — walks the network once,
//!   plans checkpoint placement and dummy data (choosing the cheaper of
//!   the two per layer, §III), and computes all artifacts: PRNG seeds,
//!   partial checkpoints, full checkpoints, dummy outputs, 2-D CRC codes
//!   and bias sums.
//! * **Error detection** ([`Milr::detect`]) — regenerates per-layer
//!   pseudo-random inputs from stored seeds, replays each layer, and
//!   compares against partial checkpoints (one stored output element per
//!   parameter-reuse group).
//! * **Error recovery** ([`Milr::recover`]) — propagates the nearest
//!   checkpoints to each flagged layer (forward passes from the
//!   preceding checkpoint, inverse passes from the succeeding one) and
//!   solves the layer's linear system for its parameters. Convolution
//!   layers go CRC-first: the stored 2-D CRC pinpoints the corrupted
//!   weights (*partial recoverability*, §IV-B) and solves each one
//!   alone in its row or column chunk over GF(2); only the weights it
//!   cannot pin need the checkpoints and a least-squares solve
//!   (minimum-norm for whole-layer corruption), and the CRC certifies
//!   the result ([`RecoveryOutcome::is_exact`]).
//!
//! The [`availability`] module implements the paper's
//! availability–accuracy trade-off model (Equation 6, Figure 12), and
//! [`StorageReport`] reproduces the storage-overhead accounting of
//! Tables V, VII and IX.
//!
//! ## Example
//!
//! ```
//! use milr_core::{Milr, MilrConfig};
//! use milr_nn::{Layer, Sequential};
//! use milr_tensor::TensorRng;
//!
//! // A small dense network.
//! let mut rng = TensorRng::new(3);
//! let mut model = Sequential::new(vec![12]);
//! model.push(Layer::dense_random(12, 8, &mut rng)?)?;
//! model.push(Layer::bias_zero(8))?;
//!
//! // Initialization phase.
//! let milr = Milr::protect(&model, MilrConfig::default())?;
//!
//! // Corrupt a weight; detection flags the layer; recovery heals it.
//! let golden = model.clone();
//! model.layers_mut()[0].params_mut().unwrap().data_mut()[5] = 99.0;
//! let report = milr.detect(&model)?;
//! assert!(!report.flagged.is_empty());
//! milr.recover(&mut model, &report)?;
//! let healed = model.layers()[0].params().unwrap();
//! assert!(healed.approx_eq(golden.layers()[0].params().unwrap(), 1e-4, 1e-5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod artifacts;
pub mod availability;
mod config;
mod detect;
mod error;
mod factors;
mod invert;
mod milr;
mod plan;
mod serialize;
mod solve;
mod storage;

pub use config::{MilrConfig, WeightGrid};
pub use detect::{DetectionReport, LayerCheck};
pub use error::MilrError;
pub use factors::InversionFactorStats;
pub use milr::{Milr, RecoveryOutcome, RecoveryReport, ReprotectStats};
pub use plan::{InversionPlan, LayerPlan, ProtectionPlan, SolvingPlan};
pub use storage::StorageReport;

/// Result alias for MILR operations.
pub type Result<T> = std::result::Result<T, MilrError>;

pub(crate) mod semantics;
