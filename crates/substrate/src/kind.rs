//! Substrate selector: the value-level handle the benchmark harness
//! composes with recovery arms, so every substrate × recovery
//! combination runs through one generic trial path; the one description
//! of each encoding's raw format (bits, words, rows); and the codec that
//! maps each substrate's **raw image** to and from bytes so weight pages
//! can live in a file.

use crate::quant::{QuantFormat, QuantMemory, QuantSecdedMemory};
use crate::{RawGeometry, SubstrateError, WeightSubstrate, XtsSecdedMemory};
use milr_ecc::SecdedMemory;
use milr_xts::{EncryptedMemory, XtsCipher, BLOCK_BYTES};

/// Default XTS data key for experiment substrates. Experiments model a
/// fixed memory-encryption engine; the key value itself is irrelevant
/// to the error statistics, it only has to be deterministic.
const DATA_KEY: [u8; 16] = *b"MILR-data-key-01";
/// Default XTS tweak key for experiment substrates.
const TWEAK_KEY: [u8; 16] = *b"MILR-tweak-key-1";

/// The weight encodings of the paper's evaluation matrix. Where the
/// encoded bytes live (RAM, or pages of a file through
/// [`FileSubstrate`](crate::FileSubstrate)) is not part of the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubstrateKind {
    /// Plain `f32` words in unprotected DRAM.
    Plain,
    /// One (39,32) SECDED code word per weight (ECC DRAM).
    Secded,
    /// AES-XTS ciphertext (encrypted-VM DRAM).
    Xts,
    /// SECDED over the ciphertext words (ECC DRAM under encryption).
    XtsSecded,
    /// Quantized int8 lattice bytes in unprotected DRAM (1 byte/weight).
    Int8,
    /// IEEE half-precision words in unprotected DRAM (2 bytes/weight).
    Fp16,
    /// Int8 bytes packed 4-per-word under (39,32) SECDED code words.
    Int8Secded,
    /// Fp16 words packed 2-per-word under (39,32) SECDED code words.
    Fp16Secded,
}

impl SubstrateKind {
    /// The f32 encodings, in the paper's presentation order.
    pub const ALL: [SubstrateKind; 4] = [
        SubstrateKind::Plain,
        SubstrateKind::Secded,
        SubstrateKind::Xts,
        SubstrateKind::XtsSecded,
    ];

    /// The quantized arms: reduced-precision page encodings whose grid
    /// points are exactly representable in f32, enabling MILR's exact
    /// integer-ring recovery (no ulp-snap search). Kept out of [`ALL`]
    /// because the classic arms promise bit-exact f32 round-trips;
    /// these promise grid-snapped round-trips instead.
    ///
    /// [`ALL`]: SubstrateKind::ALL
    pub const QUANTIZED: [SubstrateKind; 4] = [
        SubstrateKind::Int8,
        SubstrateKind::Fp16,
        SubstrateKind::Int8Secded,
        SubstrateKind::Fp16Secded,
    ];

    /// The cipher used by the encrypted substrates this kind builds.
    pub fn cipher() -> XtsCipher {
        XtsCipher::new(&DATA_KEY, &TWEAK_KEY)
    }

    /// The quantized page encoding of this kind, if any.
    pub fn quant_format(&self) -> Option<QuantFormat> {
        match self {
            SubstrateKind::Int8 | SubstrateKind::Int8Secded => Some(QuantFormat::Int8),
            SubstrateKind::Fp16 | SubstrateKind::Fp16Secded => Some(QuantFormat::Fp16),
            _ => None,
        }
    }

    /// Encodes a weight buffer into a fresh in-memory substrate of this
    /// kind.
    pub fn store(&self, weights: &[f32]) -> Box<dyn WeightSubstrate> {
        match self {
            SubstrateKind::Plain => Box::new(weights.to_vec()),
            SubstrateKind::Secded => Box::new(SecdedMemory::protect(weights)),
            SubstrateKind::Xts => Box::new(EncryptedMemory::encrypt(weights, Self::cipher())),
            SubstrateKind::XtsSecded => Box::new(XtsSecdedMemory::protect(weights, Self::cipher())),
            SubstrateKind::Int8 => Box::new(QuantMemory::store(QuantFormat::Int8, weights)),
            SubstrateKind::Fp16 => Box::new(QuantMemory::store(QuantFormat::Fp16, weights)),
            SubstrateKind::Int8Secded => {
                Box::new(QuantSecdedMemory::protect(QuantFormat::Int8, weights))
            }
            SubstrateKind::Fp16Secded => {
                Box::new(QuantSecdedMemory::protect(QuantFormat::Fp16, weights))
            }
        }
    }

    /// Reconstructs an in-memory substrate of this kind from its raw
    /// image (the inverse of [`WeightSubstrate::export_raw`]),
    /// preserving any error state the image carries bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Backend`] when the image length does not match
    /// [`raw_image_bytes`](SubstrateKind::raw_image_bytes) for `len`.
    pub fn restore(
        &self,
        raw: &[u8],
        len: usize,
    ) -> Result<Box<dyn WeightSubstrate>, SubstrateError> {
        if raw.len() != self.raw_image_bytes(len) {
            return Err(SubstrateError::Backend(format!(
                "{self}: raw image of {} bytes cannot hold {len} weights (expected {})",
                raw.len(),
                self.raw_image_bytes(len)
            )));
        }
        let words_u64 = || -> Vec<u64> {
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect()
        };
        Ok(match self {
            SubstrateKind::Plain => Box::new(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
                    .collect::<Vec<f32>>(),
            ),
            SubstrateKind::Secded => Box::new(SecdedMemory::from_words(words_u64())),
            SubstrateKind::Xts => Box::new(
                EncryptedMemory::from_ciphertext(raw.to_vec(), len, Self::cipher())
                    .map_err(|e| SubstrateError::Backend(e.to_string()))?,
            ),
            SubstrateKind::XtsSecded => Box::new(XtsSecdedMemory::from_words(
                words_u64(),
                len,
                Self::cipher(),
            )),
            SubstrateKind::Int8 => {
                Box::new(QuantMemory::from_bytes(QuantFormat::Int8, raw.to_vec()))
            }
            SubstrateKind::Fp16 => {
                Box::new(QuantMemory::from_bytes(QuantFormat::Fp16, raw.to_vec()))
            }
            SubstrateKind::Int8Secded => Box::new(QuantSecdedMemory::from_words(
                QuantFormat::Int8,
                words_u64(),
                len,
            )),
            SubstrateKind::Fp16Secded => Box::new(QuantSecdedMemory::from_words(
                QuantFormat::Fp16,
                words_u64(),
                len,
            )),
        })
    }

    /// Exact byte length of the raw image this kind produces for `len`
    /// weights — the on-disk page-sizing formula. Each substrate writes
    /// its own export; a test holds them to this length.
    pub fn raw_image_bytes(&self, len: usize) -> usize {
        match self {
            SubstrateKind::Plain => len * 4,
            // One u64-stored (39,32) code word per weight.
            SubstrateKind::Secded => len * 8,
            // Whole 16-byte cipher blocks.
            SubstrateKind::Xts => len.div_ceil(4) * BLOCK_BYTES,
            // One u64-stored code word per ciphertext word, 4 per block.
            SubstrateKind::XtsSecded => len.div_ceil(4) * 4 * 8,
            SubstrateKind::Int8 => len,
            SubstrateKind::Fp16 => len * 2,
            // One u64-stored code word per 4 quantized bytes.
            SubstrateKind::Int8Secded => len.div_ceil(4) * 8,
            SubstrateKind::Fp16Secded => (len * 2).div_ceil(4) * 8,
        }
    }

    /// Raw (fault-surface) bits of a substrate of this kind holding
    /// `len` weights — what [`WeightSubstrate::raw_bits`] returns for
    /// every in-memory substrate. Always a whole number of
    /// [`raw_geometry`](SubstrateKind::raw_geometry) words.
    pub fn raw_bits_for(&self, len: usize) -> usize {
        match self {
            SubstrateKind::Plain => len * 32,
            SubstrateKind::Secded => len * 39,
            SubstrateKind::Xts => len.div_ceil(4) * BLOCK_BYTES * 8,
            SubstrateKind::XtsSecded => len.div_ceil(4) * 4 * 39,
            SubstrateKind::Int8 => len * 8,
            SubstrateKind::Fp16 => len * 16,
            SubstrateKind::Int8Secded => len.div_ceil(4) * 39,
            SubstrateKind::Fp16Secded => (len * 2).div_ceil(4) * 39,
        }
    }

    /// Raw-space geometry of this kind — the raw word (data word, code
    /// word, or cipher block) and the row/word grid over which
    /// correlated burst campaigns are planned.
    pub fn raw_geometry(&self) -> RawGeometry {
        match self {
            // 4 data words: a 16-byte DRAM beat.
            SubstrateKind::Plain => RawGeometry {
                word_bits: 32,
                words_per_row: 4,
            },
            // 4 code words per row; over ciphertext, one cipher block.
            SubstrateKind::Secded
            | SubstrateKind::XtsSecded
            | SubstrateKind::Int8Secded
            | SubstrateKind::Fp16Secded => RawGeometry {
                word_bits: 39,
                words_per_row: 4,
            },
            // Word = one weight, rows of a 16-byte DRAM beat.
            SubstrateKind::Int8 => RawGeometry {
                word_bits: 8,
                words_per_row: 16,
            },
            SubstrateKind::Fp16 => RawGeometry {
                word_bits: 16,
                words_per_row: 8,
            },
            // One 128-bit cipher block per row: a ciphertext burst that
            // stays inside a row garbles exactly one block of plaintext.
            SubstrateKind::Xts => RawGeometry {
                word_bits: BLOCK_BYTES * 8,
                words_per_row: 1,
            },
        }
    }

    /// Short name used in report headers and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            SubstrateKind::Plain => "plain",
            SubstrateKind::Secded => "secded",
            SubstrateKind::Xts => "xts",
            SubstrateKind::XtsSecded => "xts+secded",
            SubstrateKind::Int8 => "int8",
            SubstrateKind::Fp16 => "fp16",
            SubstrateKind::Int8Secded => "int8+secded",
            SubstrateKind::Fp16Secded => "fp16+secded",
        }
    }
}

impl std::fmt::Display for SubstrateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::temp_paged;

    /// Every f32 kind, in memory and paged onto a file.
    fn in_memory_and_paged(w: &[f32]) -> Vec<(SubstrateKind, Box<dyn WeightSubstrate>)> {
        SubstrateKind::ALL
            .into_iter()
            .map(|kind| (kind, kind.store(w)))
            .chain(
                SubstrateKind::ALL
                    .into_iter()
                    .map(|kind| (kind, temp_paged(kind, w))),
            )
            .collect()
    }

    #[test]
    fn every_kind_roundtrips() {
        let w: Vec<f32> = (0..10).map(|i| i as f32 * 0.7 - 3.0).collect();
        for (kind, mem) in in_memory_and_paged(&w) {
            assert_eq!(mem.len(), w.len(), "{kind}");
            assert_eq!(mem.read_weights(), w, "{kind}");
            assert!(mem.raw_bits() >= w.len() * 32, "{kind}");
        }
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<&str> = SubstrateKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["plain", "secded", "xts", "xts+secded"]);
    }

    #[test]
    fn raw_image_formulas_match_substrates() {
        for len in [1usize, 3, 4, 5, 37, 64] {
            let w: Vec<f32> = (0..len).map(|i| i as f32 * 0.3 - 1.0).collect();
            for kind in SubstrateKind::ALL {
                assert_eq!(
                    kind.store(&w).export_raw().len(),
                    kind.raw_image_bytes(len),
                    "{kind} image bytes for {len}"
                );
            }
        }
    }

    #[test]
    fn export_restore_roundtrips_error_state() {
        let w: Vec<f32> = (0..21).map(|i| i as f32 * 0.11 - 1.0).collect();
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            // Leave raw-space error state in the image.
            mem.flip_raw_bit(7);
            mem.flip_raw_bit(8);
            let image = mem.export_raw();
            let restored = kind.restore(&image, w.len()).unwrap();
            assert_eq!(restored.len(), mem.len(), "{kind}");
            assert_eq!(restored.raw_bits(), mem.raw_bits(), "{kind}");
            let a: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = restored
                .read_weights()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, b, "{kind}: restored plaintext diverged");
            assert_eq!(restored.export_raw(), image, "{kind}: image not stable");
        }
    }

    #[test]
    fn import_raw_overwrites_in_place_for_every_kind() {
        let a: Vec<f32> = (0..21).map(|i| i as f32 * 0.4 - 2.0).collect();
        let b: Vec<f32> = (0..21).map(|i| i as f32 * -0.7 + 1.0).collect();
        for ((kind, donor), (_, mut mem)) in in_memory_and_paged(&b)
            .into_iter()
            .zip(in_memory_and_paged(&a))
        {
            // Leave corrupt raw state behind: import must supersede it.
            mem.flip_raw_bit(3);
            mem.import_raw(&donor.export_raw()).unwrap();
            let got: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{kind}: import did not restore donor bits");
            assert_eq!(mem.export_raw(), donor.export_raw(), "{kind}: raw image");
            // Wrong-length images are rejected without touching state.
            assert!(mem.import_raw(&donor.export_raw()[1..]).is_err(), "{kind}");
            assert_eq!(mem.export_raw(), donor.export_raw(), "{kind}: unchanged");
        }
    }

    #[test]
    fn kind_geometry_matches_substrates() {
        // The derived `raw_word_of_bit` divides by the word size, which
        // is only right when every raw image is whole raw words — paged
        // images with a ragged last page included.
        let w: Vec<f32> = (0..10).map(|i| i as f32 * 0.2 - 1.0).collect();
        for (kind, mem) in in_memory_and_paged(&w) {
            let geo = kind.raw_geometry();
            assert!(geo.row_bits() > 0, "{kind}");
            assert!(geo.rows(mem.raw_bits()) >= 1, "{kind}");
            assert_eq!(mem.raw_bits() % geo.word_bits, 0, "{kind}");
        }
    }

    #[test]
    fn sparse_write_touches_only_selected_words() {
        let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 3.0).collect();
        for (kind, mut mem) in in_memory_and_paged(&w) {
            let before = mem.export_raw();
            let mut want = w.clone();
            want[1] = 9.5;
            want[10] = -7.25;
            mem.write_weights_sparse(&[(1, 9.5), (10, -7.25)]).unwrap();
            let got: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{kind}: sparse write result");
            // Weights 4..8 sit in untouched words/blocks under every
            // kind: their raw bytes must be bit-identical afterwards.
            let after = mem.export_raw();
            let lo = kind.raw_image_bytes(4);
            let hi = kind.raw_image_bytes(8);
            assert_eq!(
                &after[lo..hi],
                &before[lo..hi],
                "{kind}: untouched middle region changed"
            );
            assert!(
                mem.write_weights_sparse(&[(w.len(), 0.0)]).is_err(),
                "{kind}: out-of-range index accepted"
            );
        }
    }

    #[test]
    fn quantized_kinds_roundtrip_grid_weights() {
        // Grid-aligned values (int8 lattice ⊂ fp16 grid) round-trip
        // bit-for-bit through every quantized kind.
        let w: Vec<f32> = (0..11).map(|i| (i - 5) as f32 * 0.015625).collect();
        for kind in SubstrateKind::QUANTIZED {
            let mem = kind.store(&w);
            assert_eq!(mem.len(), w.len(), "{kind}");
            let got: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{kind}");
            // Quantized pages are *smaller* than the f32 baseline.
            assert!(mem.raw_bits() < w.len() * 32, "{kind}");
        }
    }

    #[test]
    fn quantized_kinds_snap_offgrid_weights() {
        let w = [0.1f32, -0.77, 1.43];
        for kind in SubstrateKind::QUANTIZED {
            let format = kind.quant_format().unwrap();
            let mem = kind.store(&w);
            for (got, v) in mem.read_weights().iter().zip(w) {
                assert_eq!(got.to_bits(), format.snap(v).to_bits(), "{kind}: {v}");
            }
        }
    }

    #[test]
    fn quantized_raw_image_formulas_match_substrates() {
        for len in [1usize, 2, 3, 4, 5, 37, 64] {
            let w: Vec<f32> = (0..len).map(|i| i as f32 * 0.015625 - 0.5).collect();
            for kind in SubstrateKind::QUANTIZED {
                let mem = kind.store(&w);
                assert_eq!(
                    mem.export_raw().len(),
                    kind.raw_image_bytes(len),
                    "{kind} image bytes for {len}"
                );
            }
        }
    }

    #[test]
    fn quantized_export_restore_roundtrips_error_state() {
        let w: Vec<f32> = (0..9).map(|i| i as f32 * 0.03125 - 0.125).collect();
        for kind in SubstrateKind::QUANTIZED {
            let mut mem = kind.store(&w);
            mem.flip_raw_bit(2);
            mem.flip_raw_bit(3);
            let image = mem.export_raw();
            let restored = kind.restore(&image, w.len()).unwrap();
            assert_eq!(restored.len(), mem.len(), "{kind}");
            let a: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = restored
                .read_weights()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, b, "{kind}: restored plaintext diverged");
            assert_eq!(restored.export_raw(), image, "{kind}: image not stable");
            assert!(kind.restore(&image[1..], w.len()).is_err(), "{kind}");
        }
    }

    #[test]
    fn restore_rejects_bad_lengths() {
        for kind in SubstrateKind::ALL {
            let image = kind.store(&[1.0, 2.0]).export_raw();
            // 9 weights need more blocks/words than 2 under every kind.
            assert!(kind.restore(&image, 9).is_err(), "{kind}");
            assert!(kind.restore(&image[1..], 2).is_err(), "{kind}");
        }
    }
}
