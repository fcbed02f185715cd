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
//!   `encrypt_blocks`/`decrypt_blocks` API that runs on VAES or AES-NI
//!   where the host has them.
//!
//! `milr-substrate`'s XTS kinds store weights as ciphertext through
//! these calls, each 16-byte block tweaked by its block index (standing
//! in for the physical address tweak of MKTME).
//!
//! ```
//! use milr_xts::{XtsCipher, BLOCK_BYTES};
//!
//! let cipher = XtsCipher::new(&[1; 16], &[2; 16]);
//! let weights = [0.5f32, -1.25, 3.0, 0.0, 7.5, -2.0, 1.0, 4.0];
//! let plain: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
//! let mut memory = plain.clone();
//! cipher.encrypt_blocks(&mut memory, 0);
//! memory[9] ^= 1 << 3; // one DRAM soft error in block 0…
//! cipher.decrypt_blocks(&mut memory, 0);
//! // …garbles that whole 4-weight block in plaintext space, and only it.
//! assert_ne!(memory[..BLOCK_BYTES], plain[..BLOCK_BYTES]);
//! assert_eq!(memory[BLOCK_BYTES..], plain[BLOCK_BYTES..]);
//! ```

#![deny(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
mod xts;

pub use aes::Aes128;
pub use xts::{XtsBody, XtsCipher, XtsError, BLOCK_BYTES};
