//! # milr-substrate
//!
//! The unified **weight substrate** abstraction of the MILR
//! reproduction: one trait, [`WeightSubstrate`], over every way the
//! paper stores CNN parameters in (error-prone) memory. A
//! [`SubstrateKind`] names an encoding as two independent choices:
//!
//! * a **payload codec** — how a weight sits in memory: plaintext
//!   `f32`, AES-XTS ciphertext (the encrypted-VM model, each 16-byte
//!   block its own data unit), or int8 / fp16 quantized bytes;
//! * a **code layer** — bare, or ECC DRAM's (39,32) SECDED with one code
//!   word per 4 payload bytes.
//!
//! `Vec<f32>` / `[f32]` are the plain kind (bare `f32`), so fault
//! injectors run on parameter slices; every other kind is one in-memory
//! type written once over the pair (`memory.rs`). Under SECDED over
//! ciphertext a single raw flip is corrected before decryption, but any
//! uncorrectable code word decrypts to a whole garbled 16-byte block of
//! weights — the paper's "ECC cannot fix decrypted garble" case.
//! [`FileSubstrate`] pages any kind onto a file.
//!
//! Each encoding's raw format (raw bits per weight count, raw word
//! size, row layout, image bytes) is derived once, on
//! [`SubstrateKind`], from its payload × code pair; every substrate
//! names its kind and the trait derives the rest.
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

use std::ops::Range;

mod file;
mod kind;
mod memory;
mod plain;
mod shared;

pub use file::{DirectCommitter, FileSubstrate, PageCommitter, PageFile, PagePatch, StdFile};
pub use kind::SubstrateKind;
pub use shared::SharedSubstrate;

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

impl From<milr_ecc::ScrubReport> for ScrubSummary {
    fn from(report: milr_ecc::ScrubReport) -> Self {
        ScrubSummary {
            corrected: report.corrected,
            uncorrectable: report.uncorrectable,
        }
    }
}

/// The physical arrangement of a substrate's raw bit image, as a grid
/// of rows of raw words — the coordinate system correlated-fault
/// injectors (rowhammer-style row/column bursts) plan over.
///
/// A **row** models one DRAM row / cache line / cipher block worth of
/// adjacent raw words: the blast radius of a correlated disturbance.
/// Every kind's row holds 16 payload bytes (a 16-byte beat, one cipher
/// block): 4 plain or code words, 16 int8 or 8 fp16 weights, or one
/// 128-bit block of bare ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawGeometry {
    /// Bits per raw word (32 plain, 8 int8, 16 fp16, 39 SECDED, 128
    /// bare XTS block).
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
    /// The encoding this substrate stores — the single source of its
    /// raw format.
    fn kind(&self) -> SubstrateKind;

    /// Number of weights stored.
    fn len(&self) -> usize;

    /// True when no weights are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bits of the raw representation — the space over which
    /// RBER faults are drawn.
    fn raw_bits(&self) -> usize {
        self.kind().raw_bits_for(self.len())
    }

    /// Index of the raw word (data word, code word, or cipher block)
    /// containing the given raw bit, for affected-word accounting.
    /// Every raw image is a whole number of raw words, so this is
    /// plain division by the word size.
    fn raw_word_of_bit(&self, bit: usize) -> usize {
        bit / self.raw_geometry().word_bits
    }

    /// The row/word layout of the raw image — the coordinate system
    /// correlated-fault planners (row/column bursts) use.
    fn raw_geometry(&self) -> RawGeometry {
        self.kind().raw_geometry()
    }

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

    /// The weights an uncorrectable error in raw bit `bit` can garble:
    /// every weight sharing the payload unit of its raw word (a whole
    /// 16-byte block under XTS, a code word's weights under SECDED, the
    /// one weight otherwise), clamped to the stored weights.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= self.raw_bits()`.
    fn blast_radius(&self, bit: usize) -> Range<usize> {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        self.kind().blast_radius(self.len(), bit)
    }

    /// Decodes the buffer to plaintext weights, best-effort, exactly as
    /// an inference read would observe them. Does not modify storage.
    fn read_weights(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len()];
        self.read_weights_into(&mut out);
        out
    }

    /// Decodes the buffer to plaintext weights directly into `out`, as
    /// [`read_weights`](WeightSubstrate::read_weights) would return
    /// them, without allocating. Does not modify storage.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from
    /// [`len`](WeightSubstrate::len).
    fn read_weights_into(&self, out: &mut [f32]);

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
    /// errors through a whole-buffer re-encode. A weight listed twice
    /// takes its last value.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LengthMismatch`] when an index is out of
    /// range; backend errors as
    /// [`write_weights`](WeightSubstrate::write_weights).
    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError>;

    /// Runs one error-scrub pass, repairing whatever the substrate's
    /// code layer can repair in place, and reports statistics. A no-op
    /// returning [`ScrubSummary::default`] for code-free substrates.
    fn scrub(&mut self) -> ScrubSummary;

    /// Runs one scrub pass and decodes the repaired weights into `out`:
    /// the same storage, weights and summary as
    /// [`scrub`](WeightSubstrate::scrub) followed by
    /// [`read_weights_into`](WeightSubstrate::read_weights_into), which
    /// is what the default does. Coded substrates override it with one
    /// fused pass that reads every code word once.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from
    /// [`len`](WeightSubstrate::len).
    fn scrub_read_into(&mut self, out: &mut [f32]) -> ScrubSummary {
        let summary = self.scrub();
        self.read_weights_into(out);
        summary
    }

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

    /// `scrub_read_into` against `scrub` then `read_weights_into` on
    /// twin substrates carrying the same raw faults, over a length that ends mid-block, mid-group and mid-page. Two rounds:
    /// the repairing pass, then a clean one.
    #[test]
    fn scrub_read_into_matches_scrub_then_read() {
        let w: Vec<f32> = (0..45).map(|i| i as f32 * 0.37 - 8.0).collect();
        let kinds = SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::QUANTIZED);
        let twins = kinds.flat_map(|kind| {
            let paged = || crate::file::temp_paged(kind, &w);
            [
                (kind, "memory", kind.store(&w), kind.store(&w)),
                (kind, "paged", paged(), paged()),
            ]
        });
        for (kind, home, mut a, mut b) in twins {
            // Single flips over the first half; the double one in the last
            // raw word.
            let raw = a.raw_bits();
            let flips = (5..raw / 2).step_by(173).chain([raw - 2, raw - 1]);
            for bit in flips {
                a.flip_raw_bit(bit);
                b.flip_raw_bit(bit);
            }
            for round in 0..2 {
                let want = a.scrub();
                let mut want_out = vec![0.0f32; w.len()];
                a.read_weights_into(&mut want_out);
                let mut got_out = vec![1.0f32; w.len()];
                let got = b.scrub_read_into(&mut got_out);
                let at = format!("{kind} {home} round {round}");
                assert_eq!(got, want, "{at}: summary");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got_out), bits(&want_out), "{at}: weights");
                assert_eq!(b.export_raw(), a.export_raw(), "{at}: raw image");
                // The coded kinds really repair in the first round; the
                // double flip stays uncorrectable in both.
                if kind.name().ends_with("secded") {
                    assert_eq!(got.corrected > 0, round == 0, "{at}");
                    assert!(got.uncorrectable > 0, "{at}");
                }
            }
        }
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
