//! # milr-ecc
//!
//! Error-coding substrates for the MILR reproduction.
//!
//! Two distinct codes appear in the paper:
//!
//! * **SECDED Hamming (39,32)** — the baseline MILR is compared against
//!   throughout §V: "This (39,32) code requires 7 additional ECC bits for
//!   each 32-bit word that coincides with a single parameter, allowing
//!   error recovery for any parameter if a single bit of it is corrupted.
//!   In the case of more than 1 bit error no correction occurs and
//!   interrupts is not raised." [`Secded`] implements exactly that
//!   contract, and [`SecdedMemory`] wraps a weight buffer the way
//!   ECC DRAM would.
//!
//! * **2-D CRC error coding** (§IV-B-c, Fig. 4) — MILR's mechanism for
//!   pinpointing *which* weights of a convolution filter tensor are
//!   corrupted, so that partial recovery can shrink the unknown set of
//!   its linear system. [`Crc2d`] implements the row/column CRC grid over
//!   sets of 4 parameters; [`crc32`] is the table-driven primitive.
//!
//! ```
//! use milr_ecc::{DecodeOutcome, Secded};
//!
//! let code = Secded::encode(0xDEAD_BEEF);
//! // Flip one bit of the 39-bit codeword: corrected.
//! match Secded::decode(code ^ (1 << 17)) {
//!     DecodeOutcome::Corrected { data, .. } => assert_eq!(data, 0xDEAD_BEEF),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![deny(missing_docs)]

mod crc;
mod crc2d;
mod memory;
pub mod ring;
mod secded;

pub use crc::{crc32, Crc32Hasher};
pub use crc2d::{Crc2d, Crc2dCodes};
pub use memory::{ScrubReport, SecdedMemory};
pub use secded::{DecodeOutcome, Secded};

/// Scalar reference kernels.
///
/// The original byte-/bit-serial implementations every optimized kernel
/// is proptested against, re-exported in one namespace so `kernel_bench`
/// can measure scalar-vs-optimized throughput at runtime.
pub mod scalar {
    pub use crate::crc::scalar::crc32;
    pub use crate::secded::scalar::{decode as secded_decode, encode as secded_encode};
}
