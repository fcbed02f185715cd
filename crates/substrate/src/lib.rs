//! # milr-substrate
//!
//! The unified **weight substrate** abstraction of the MILR
//! reproduction: one trait, [`WeightSubstrate`], over every way the
//! paper stores CNN parameters in (error-prone) memory —
//!
//! * [`PlainMemory`] — raw `f32` words in DRAM, no protection;
//! * [`SecdedMemory`] — one (39,32) SECDED code word per parameter,
//!   the ECC baseline (adapted from `milr_ecc::memory`);
//! * [`EncryptedMemory`] — AES-XTS ciphertext, the encrypted-VM model
//!   (adapted from `milr_xts::memory`);
//! * [`XtsSecdedMemory`] — SECDED over the *ciphertext* words: ECC
//!   DRAM under a memory-encryption engine, the paper's "ECC cannot
//!   fix decrypted garble" configuration (a single corrected ciphertext
//!   bit is harmless, but any uncorrectable codeword decrypts to a
//!   whole garbled 16-byte block of weights).
//!
//! Concurrent access — an inference plane reading weights while a
//! scrubber daemon repairs them in place — goes through
//! [`SharedSubstrate`], a sharded `Arc`/`RwLock` wrapper over any
//! substrate whose per-shard reads are atomic with respect to writes
//! and scrubs.
//!
//! Fault injectors flip bits in each substrate's **raw representation**
//! ([`WeightSubstrate::flip_raw_bit`] over [`WeightSubstrate::raw_bits`]),
//! so one generic injection loop expresses plaintext-space DRAM errors,
//! ECC-word errors, and ciphertext-space errors alike; the benchmark
//! harness composes substrates with recovery arms through
//! [`SubstrateKind`] without per-arm code paths.
//!
//! ```
//! use milr_substrate::{SubstrateKind, WeightSubstrate};
//!
//! let weights = vec![0.5f32, -1.25, 3.0, 0.0];
//! for kind in SubstrateKind::ALL {
//!     let mut mem = kind.store(&weights);
//!     assert_eq!(mem.read_weights(), weights);
//!     mem.flip_raw_bit(7);
//!     mem.scrub();
//!     let seen = mem.read_weights();
//!     assert_eq!(seen.len(), weights.len());
//! }
//! ```

#![deny(missing_docs)]

mod encrypted;
mod file;
mod kind;
mod plain;
mod quant;
mod secded;
mod shared;
mod xts_secded;

pub use file::{DirectCommitter, FileSubstrate, PageCommitter, PageFile, PagePatch, StdFile};
pub use kind::SubstrateKind;
/// SECDED-per-word substrate, re-exported from `milr_ecc` with its
/// [`WeightSubstrate`] adaptation defined in this crate.
pub use milr_ecc::SecdedMemory;
/// AES-XTS ciphertext substrate, re-exported from `milr_xts` with its
/// [`WeightSubstrate`] adaptation defined in this crate.
pub use milr_xts::EncryptedMemory;
pub use plain::PlainMemory;
pub use quant::{QuantFormat, QuantMemory, QuantSecdedMemory};
pub use shared::SharedSubstrate;
pub use xts_secded::XtsSecdedMemory;

/// Error from a substrate write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstrateError {
    /// The written buffer's length differs from the stored length.
    LengthMismatch {
        /// Stored weight count.
        expected: usize,
        /// Written weight count.
        got: usize,
    },
    /// The backing cipher or code rejected the operation.
    Backend(String),
}

impl std::fmt::Display for SubstrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubstrateError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "substrate holds {expected} weights, write of {got} rejected"
                )
            }
            SubstrateError::Backend(msg) => write!(f, "substrate backend error: {msg}"),
        }
    }
}

impl std::error::Error for SubstrateError {}

/// Statistics from one scrub pass over a substrate.
///
/// Substrates without a code layer (plain DRAM, bare ciphertext) report
/// zeros: their scrub is a no-op by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubSummary {
    /// Words whose single-bit error was corrected in place.
    pub corrected: usize,
    /// Words with a detected-but-uncorrectable (multi-bit) error.
    pub uncorrectable: usize,
}

impl ScrubSummary {
    /// True when the pass found nothing to fix or report.
    pub fn is_clean(&self) -> bool {
        self.corrected == 0 && self.uncorrectable == 0
    }

    /// Folds another pass's counts into this summary (shard-by-shard
    /// and layer-by-layer sweeps accumulate through this).
    pub fn absorb(&mut self, other: &ScrubSummary) {
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
    }
}

/// The physical arrangement of a substrate's raw bit image, as a grid
/// of rows of raw words — the coordinate system correlated-fault
/// injectors (rowhammer-style row/column bursts) plan over.
///
/// A **row** models one DRAM row / cache line / cipher block worth of
/// adjacent raw words: the blast radius of a correlated disturbance.
/// Plain and SECDED substrates group 4 data/code words per row (a
/// 16-byte beat); the XTS substrates use one 128-bit cipher block per
/// row, since that is the unit a disturbance garbles on decrypt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawGeometry {
    /// Bits per raw word (32 plain, 39 SECDED, 128 XTS block).
    pub word_bits: usize,
    /// Raw words per row.
    pub words_per_row: usize,
}

impl RawGeometry {
    /// Bits per row.
    pub fn row_bits(&self) -> usize {
        self.word_bits * self.words_per_row
    }

    /// Number of (possibly ragged) rows covering a raw image of
    /// `raw_bits` bits.
    pub fn rows(&self, raw_bits: usize) -> usize {
        raw_bits.div_ceil(self.row_bits().max(1))
    }
}

/// A buffer of CNN weights held in some memory substrate.
///
/// The trait splits the world into **plaintext space** (what
/// [`read_weights`](WeightSubstrate::read_weights) returns, what
/// inference and MILR observe) and **raw space** (the substrate's
/// physical bit image: data words, ECC code words, or ciphertext).
/// Faults happen in raw space; protection and recovery reason about
/// plaintext space. Implementations define the mapping.
pub trait WeightSubstrate: Send + Sync {
    /// Short human-readable substrate name (report headers).
    fn label(&self) -> &'static str;

    /// Number of weights stored.
    fn len(&self) -> usize;

    /// True when no weights are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bits of the raw representation — the space over which
    /// RBER faults are drawn.
    fn raw_bits(&self) -> usize;

    /// Index of the raw word (data word, code word, or cipher block)
    /// containing the given raw bit, for affected-word accounting.
    ///
    /// # Panics
    ///
    /// May panic when `bit >= self.raw_bits()`.
    fn raw_word_of_bit(&self, bit: usize) -> usize;

    /// The row/word layout of the raw image — the coordinate system
    /// correlated-fault planners (row/column bursts) use. Constant for
    /// a given substrate kind.
    fn raw_geometry(&self) -> RawGeometry;

    /// Reads one bit of the raw representation, in the same indexing as
    /// [`flip_raw_bit`](WeightSubstrate::flip_raw_bit). Stuck-at fault
    /// models need this: re-asserting a stuck cell is `flip` only when
    /// the current value differs, so a blind re-flip cannot accidentally
    /// *heal* the bit after a scrub already rewrote it.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= self.raw_bits()`.
    fn raw_bit(&self, bit: usize) -> bool;

    /// Flips one bit of the raw representation.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= self.raw_bits()`.
    fn flip_raw_bit(&mut self, bit: usize);

    /// Decodes the buffer to plaintext weights, best-effort, exactly as
    /// an inference read would observe them. Does not modify storage.
    fn read_weights(&self) -> Vec<f32>;

    /// Decodes the buffer to plaintext weights directly into `out`,
    /// avoiding the intermediate `Vec` of
    /// [`read_weights`](WeightSubstrate::read_weights) where the
    /// substrate can (plain storage is a straight `copy_from_slice`).
    /// The default falls back to decoding into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from
    /// [`len`](WeightSubstrate::len).
    fn read_weights_into(&self, out: &mut [f32]) {
        let decoded = self.read_weights();
        assert_eq!(
            out.len(),
            decoded.len(),
            "read_weights_into buffer of {} cannot hold {} weights",
            out.len(),
            decoded.len()
        );
        out.copy_from_slice(&decoded);
    }

    /// Replaces the stored weights (re-encoding / re-encrypting as the
    /// substrate requires) — the write-back path of MILR recovery.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LengthMismatch`] when `weights.len()` differs
    /// from [`len`](WeightSubstrate::len).
    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError>;

    /// Replaces only the given `(index, value)` weights, re-encoding /
    /// re-encrypting **no more raw state than those weights touch** —
    /// on coded substrates an untouched word's raw bits (including any
    /// in-flight error state a fault campaign planted there) survive
    /// the write verbatim. This is what lets composed raw+plaintext
    /// campaigns keep honest scrub statistics: a plaintext-space
    /// injection must not silently launder a neighboring word's raw
    /// errors through a whole-buffer re-encode.
    ///
    /// The default falls back to a whole-buffer read-modify-write —
    /// correct for plain storage, but it re-encodes everything on coded
    /// substrates; every coded substrate in this crate overrides it
    /// with a surgical path.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LengthMismatch`] when an index is out of
    /// range; backend errors as
    /// [`write_weights`](WeightSubstrate::write_weights).
    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        if updates.is_empty() {
            return Ok(());
        }
        let len = self.len();
        let mut weights = self.read_weights();
        for &(idx, value) in updates {
            if idx >= len {
                return Err(SubstrateError::LengthMismatch {
                    expected: len,
                    got: idx + 1,
                });
            }
            weights[idx] = value;
        }
        self.write_weights(&weights)
    }

    /// Runs one error-scrub pass, repairing whatever the substrate's
    /// code layer can repair in place, and reports statistics. A no-op
    /// returning [`ScrubSummary::default`] for code-free substrates.
    fn scrub(&mut self) -> ScrubSummary;

    /// Extra storage the substrate needs beyond the 4 bytes per weight
    /// of the plaintext (check bits, padding) — the per-substrate
    /// column of the paper's storage tables, in bytes.
    fn storage_overhead(&self) -> usize;

    /// Serializes the substrate's **raw representation** to bytes — the
    /// persistence image. Raw state round-trips verbatim (including any
    /// in-flight error state), so a store can snapshot and restore a
    /// substrate without decoding it; see
    /// [`SubstrateKind::restore`](crate::SubstrateKind::restore) for the
    /// inverse. The image length for a given kind and weight count is
    /// fixed ([`SubstrateKind::raw_image_bytes`](crate::SubstrateKind::raw_image_bytes)).
    fn export_raw(&self) -> Vec<u8>;

    /// Replaces the substrate's **raw representation** from an image —
    /// the inverse of [`export_raw`](WeightSubstrate::export_raw), in
    /// place, without decoding to plaintext. This is the peer-repair
    /// write path: a damaged replica overwrites its raw pages with a
    /// healthy peer's certified image, bit for bit, superseding
    /// whatever (possibly corrupt, possibly dirty-cached) state the
    /// substrate held. File-backed substrates commit the imported pages
    /// through their [`PageCommitter`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Backend`] when `raw` is not a valid image for
    /// this substrate's kind and weight count (wrong length), or the
    /// backing store rejects the write.
    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError>;

    /// Forces any buffered state down to the substrate's backing store.
    /// A no-op for purely in-memory substrates; the file-backed
    /// substrate commits its dirty pages through its
    /// [`PageCommitter`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Backend`] when the backing store rejects the
    /// write.
    fn flush(&mut self) -> Result<(), SubstrateError> {
        Ok(())
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn scrub_summary_clean() {
        assert!(ScrubSummary::default().is_clean());
        assert!(!ScrubSummary {
            corrected: 1,
            uncorrectable: 0
        }
        .is_clean());
    }

    #[test]
    fn substrate_error_displays() {
        let e = SubstrateError::LengthMismatch {
            expected: 4,
            got: 5,
        };
        assert!(e.to_string().contains("4"));
        assert!(SubstrateError::Backend("boom".into())
            .to_string()
            .contains("boom"));
    }
}
