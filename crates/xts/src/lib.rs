//! # milr-xts
//!
//! AES-128-XTS memory-encryption model for the MILR reproduction.
//!
//! The paper's central framing (§I) is the distinction between
//! *ciphertext space* and *plaintext space*: CNN weights in an encrypted
//! VM (AMD SEV, Intel MKTME) live in DRAM as AES-XTS ciphertext. A single
//! bit error in the ciphertext decrypts to a concentrated ~64-bit garble
//! of one 128-bit block — four whole `f32` weights — which per-word
//! SECDED ECC cannot correct. MILR is the plaintext-space error
//! correction (PSEC) scheme for exactly this regime.
//!
//! This crate builds that model from scratch:
//!
//! * [`Aes128`] — the FIPS-197 block cipher (validated against the
//!   specification's test vectors);
//! * [`XtsCipher`] — IEEE 1619 XTS mode with per-block address tweaks
//!   (validated against IEEE 1619 vectors), with a batched
//!   `encrypt_blocks`/`decrypt_blocks` API that runs on AES-NI where the
//!   host has it;
//! * [`EncryptedMemory`] — a weight buffer stored as ciphertext, with
//!   bit-flip injection and blast-radius queries used by `milr-fault`'s
//!   ciphertext-space experiments.
//!
//! ```
//! use milr_xts::{EncryptedMemory, XtsCipher};
//!
//! let cipher = XtsCipher::new(&[1; 16], &[2; 16]);
//! let weights = vec![0.5f32, -1.25, 3.0, 0.0];
//! let mut mem = EncryptedMemory::encrypt(&weights, cipher);
//! mem.flip_ciphertext_bit(9); // one DRAM soft error…
//! let seen = mem.decrypt_all();
//! // …garbles the whole 4-weight block in plaintext space.
//! assert_ne!(seen, weights);
//! ```

#![deny(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
mod memory;
mod xts;

pub use aes::Aes128;
pub use memory::{for_each_block_run, EncryptedMemory, BLOCK_BYTES, WEIGHTS_PER_BLOCK};
pub use xts::{XtsCipher, XtsError};
