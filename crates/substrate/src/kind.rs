//! Substrate selector: the value-level handle the benchmark harness
//! composes with recovery arms, so every substrate × recovery
//! combination runs through one generic trial path; the one description
//! of each encoding's raw format (bits, words, rows); and the codec that
//! maps each substrate's **raw image** to and from bytes so weight pages
//! can live in a file.

use crate::memory::{Code, EncodedMemory, Payload};
use crate::{RawGeometry, SubstrateError, WeightSubstrate};
use milr_xts::XtsCipher;
use std::ops::Range;

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

    /// The kind as its two independent choices: how a weight sits in
    /// memory, and whether SECDED covers it. Every raw-format formula
    /// below derives from this pair.
    pub(crate) fn layout(&self) -> (Payload, Code) {
        match self {
            SubstrateKind::Plain => (Payload::F32, Code::Bare),
            SubstrateKind::Secded => (Payload::F32, Code::Secded),
            SubstrateKind::Xts => (Payload::Xts, Code::Bare),
            SubstrateKind::XtsSecded => (Payload::Xts, Code::Secded),
            SubstrateKind::Int8 => (Payload::Int8, Code::Bare),
            SubstrateKind::Fp16 => (Payload::Fp16, Code::Bare),
            SubstrateKind::Int8Secded => (Payload::Int8, Code::Secded),
            SubstrateKind::Fp16Secded => (Payload::Fp16, Code::Secded),
        }
    }

    /// Raw words a substrate of this kind holding `len` weights stores.
    pub(crate) fn raw_words(&self, len: usize) -> usize {
        let (payload, code) = self.layout();
        payload
            .bytes_for(len)
            .div_ceil(code.word_payload_bytes(payload))
    }

    /// An in-memory substrate of this kind for `len` weights, its raw
    /// image all zeros.
    fn blank(&self, len: usize) -> Box<dyn WeightSubstrate> {
        match self {
            SubstrateKind::Plain => Box::new(vec![0.0f32; len]),
            _ => Box::new(EncodedMemory::blank(*self, len)),
        }
    }

    /// Encodes a weight buffer into a fresh in-memory substrate of this
    /// kind.
    pub fn store(&self, weights: &[f32]) -> Box<dyn WeightSubstrate> {
        let mut mem = self.blank(weights.len());
        mem.write_weights(weights)
            .expect("a blank substrate holds its own length");
        mem
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
        let mut mem = self.blank(len);
        mem.import_raw(raw)?;
        Ok(mem)
    }

    /// Exact byte length of the raw image this kind produces for `len`
    /// weights — the on-disk page-sizing formula.
    pub fn raw_image_bytes(&self, len: usize) -> usize {
        let (payload, code) = self.layout();
        self.raw_words(len) * code.word_image_bytes(payload)
    }

    /// Raw (fault-surface) bits of a substrate of this kind holding
    /// `len` weights — what [`WeightSubstrate::raw_bits`] returns for
    /// every in-memory substrate. Always a whole number of
    /// [`raw_geometry`](SubstrateKind::raw_geometry) words.
    pub fn raw_bits_for(&self, len: usize) -> usize {
        self.raw_words(len) * self.raw_geometry().word_bits
    }

    /// Raw-space geometry of this kind — the raw word (a payload unit
    /// when bare: data word, quantized weight or cipher block; a code
    /// word under SECDED) and rows of 16 payload bytes, the grid over
    /// which correlated burst campaigns are planned. A ciphertext burst
    /// that stays inside a row garbles exactly one block of plaintext.
    pub fn raw_geometry(&self) -> RawGeometry {
        let (payload, code) = self.layout();
        RawGeometry {
            word_bits: code.word_bits(payload),
            words_per_row: 16 / code.word_payload_bytes(payload),
        }
    }

    /// The weights an uncorrectable error in raw bit `bit` of an
    /// in-memory substrate of `len` weights can garble: every weight of
    /// the payload units its raw word covers (a whole cipher block under
    /// XTS), clamped to the stored weights.
    pub(crate) fn blast_radius(&self, len: usize, bit: usize) -> Range<usize> {
        let (payload, code) = self.layout();
        let patch = self.patch_bytes();
        let start =
            bit / code.word_bits(payload) * code.word_payload_bytes(payload) / patch * patch;
        let wb = payload.weight_bytes();
        (start / wb).min(len)..((start + patch) / wb).min(len)
    }

    /// Payload bytes that decode and re-encode together: the raw words
    /// covering one payload unit (a cipher block, a code word, or one
    /// bare weight).
    pub(crate) fn patch_bytes(&self) -> usize {
        let (payload, code) = self.layout();
        payload.unit_bytes().max(code.word_payload_bytes(payload))
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

    /// Every kind, f32 and quantized.
    fn every_kind() -> impl Iterator<Item = SubstrateKind> {
        SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::QUANTIZED)
    }

    #[test]
    fn raw_image_formulas_match_substrates() {
        // Each kind's raw format written out on its own, so the derived
        // formulas cannot drift with the code they derive from:
        // (image bytes, raw bits, word bits, words per row).
        let table = |kind: SubstrateKind, len: usize| match kind {
            SubstrateKind::Plain => (len * 4, len * 32, 32, 4),
            SubstrateKind::Secded => (len * 8, len * 39, 39, 4),
            SubstrateKind::Xts => (len.div_ceil(4) * 16, len.div_ceil(4) * 128, 128, 1),
            SubstrateKind::XtsSecded => (len.div_ceil(4) * 32, len.div_ceil(4) * 4 * 39, 39, 4),
            SubstrateKind::Int8 => (len, len * 8, 8, 16),
            SubstrateKind::Fp16 => (len * 2, len * 16, 16, 8),
            SubstrateKind::Int8Secded => (len.div_ceil(4) * 8, len.div_ceil(4) * 39, 39, 4),
            SubstrateKind::Fp16Secded => {
                ((len * 2).div_ceil(4) * 8, (len * 2).div_ceil(4) * 39, 39, 4)
            }
        };
        for len in [0usize, 1, 2, 3, 4, 5, 37, 64] {
            let w: Vec<f32> = (0..len).map(|i| i as f32 * 0.3 - 1.0).collect();
            for kind in every_kind() {
                let geo = kind.raw_geometry();
                assert_eq!(
                    (
                        kind.raw_image_bytes(len),
                        kind.raw_bits_for(len),
                        geo.word_bits,
                        geo.words_per_row
                    ),
                    table(kind, len),
                    "{kind} formulas for {len}"
                );
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
        for kind in every_kind() {
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
            assert!(kind.restore(&image[1..], w.len()).is_err(), "{kind}");
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
            let snap = match kind.layout().0 {
                Payload::Int8 => milr_ecc::ring::int8_snap,
                _ => milr_ecc::ring::f16_snap,
            };
            let mem = kind.store(&w);
            for (got, v) in mem.read_weights().iter().zip(w) {
                assert_eq!(got.to_bits(), snap(v).to_bits(), "{kind}: {v}");
            }
        }
    }

    #[test]
    fn restore_rejects_bad_lengths() {
        for kind in every_kind() {
            let image = kind.store(&[1.0, 2.0]).export_raw();
            // 9 weights need more blocks/words than 2 under every kind.
            assert!(kind.restore(&image, 9).is_err(), "{kind}");
            assert!(kind.restore(&image[1..], 2).is_err(), "{kind}");
        }
    }
}
