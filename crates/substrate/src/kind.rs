//! Substrate selector: the value-level handle the benchmark harness
//! composes with recovery arms, so every substrate × recovery
//! combination runs through one generic trial path — and, since the
//! persistence work, the codec that maps each substrate's **raw image**
//! to and from bytes so weight pages can live in a file.

use crate::file::{DirectCommitter, FileSubstrate, StdFile};
use crate::quant::{QuantFormat, QuantMemory, QuantSecdedMemory};
use crate::{PlainMemory, RawGeometry, SubstrateError, WeightSubstrate, XtsSecdedMemory};
use milr_ecc::SecdedMemory;
use milr_xts::{EncryptedMemory, XtsCipher, BLOCK_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default XTS data key for experiment substrates. Experiments model a
/// fixed memory-encryption engine; the key value itself is irrelevant
/// to the error statistics, it only has to be deterministic.
const DATA_KEY: [u8; 16] = *b"MILR-data-key-01";
/// Default XTS tweak key for experiment substrates.
const TWEAK_KEY: [u8; 16] = *b"MILR-tweak-key-1";

/// Weights per page of the convenience `File*` arms.
const FILE_ARM_PAGE_WEIGHTS: usize = 1024;
/// Cached pages of the convenience `File*` arms.
const FILE_ARM_CACHE_PAGES: usize = 8;

/// Monotonic counter distinguishing the temp files of `File*` arms.
static FILE_ARM_SEQ: AtomicU64 = AtomicU64::new(0);

/// The memory substrates of the paper's evaluation matrix, plus their
/// file-backed twins (the same raw encoding paged onto disk through
/// [`FileSubstrate`]).
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
    /// Plain raw image paged onto a file.
    FilePlain,
    /// SECDED code words paged onto a file.
    FileSecded,
    /// AES-XTS ciphertext paged onto a file.
    FileXts,
    /// SECDED-over-ciphertext words paged onto a file.
    FileXtsSecded,
}

impl SubstrateKind {
    /// Every in-memory substrate, in the paper's presentation order.
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

    /// The file-backed twins, in the same order.
    pub const FILE_BACKED: [SubstrateKind; 4] = [
        SubstrateKind::FilePlain,
        SubstrateKind::FileSecded,
        SubstrateKind::FileXts,
        SubstrateKind::FileXtsSecded,
    ];

    /// The cipher used by the encrypted substrates this kind builds.
    pub fn cipher() -> XtsCipher {
        XtsCipher::new(&DATA_KEY, &TWEAK_KEY)
    }

    /// The in-memory encoding behind this kind (identity for the
    /// in-memory kinds, the paged encoding for the `File*` kinds).
    pub fn base(&self) -> SubstrateKind {
        match self {
            SubstrateKind::FilePlain => SubstrateKind::Plain,
            SubstrateKind::FileSecded => SubstrateKind::Secded,
            SubstrateKind::FileXts => SubstrateKind::Xts,
            SubstrateKind::FileXtsSecded => SubstrateKind::XtsSecded,
            base => *base,
        }
    }

    /// True for the file-backed kinds.
    pub fn is_file_backed(&self) -> bool {
        self.base() != *self
    }

    /// The quantized page encoding of this kind, if any.
    pub fn quant_format(&self) -> Option<QuantFormat> {
        match self.base() {
            SubstrateKind::Int8 | SubstrateKind::Int8Secded => Some(QuantFormat::Int8),
            SubstrateKind::Fp16 | SubstrateKind::Fp16Secded => Some(QuantFormat::Fp16),
            _ => None,
        }
    }

    /// True for the quantized kinds (weights stored on a reduced-
    /// precision grid instead of raw f32 bits).
    pub fn is_quantized(&self) -> bool {
        self.quant_format().is_some()
    }

    /// Encodes a weight buffer into a fresh substrate of this kind.
    ///
    /// `File*` kinds page the raw image onto a fresh temporary file
    /// (removed when the substrate drops) with a default cache budget —
    /// the convenience path for benchmarks and injector tests; stores
    /// build their [`FileSubstrate`]s over their own container files.
    ///
    /// # Panics
    ///
    /// `File*` kinds panic when the temporary file cannot be created.
    pub fn store(&self, weights: &[f32]) -> Box<dyn WeightSubstrate> {
        match self {
            SubstrateKind::Plain => Box::new(PlainMemory::store(weights)),
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
            file => {
                let seq = FILE_ARM_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = std::env::temp_dir()
                    .join(format!("milr-substrate-{}-{seq}.raw", std::process::id()));
                let io = Arc::new(StdFile::create(&path).expect("creating substrate temp file"));
                let committer = Arc::new(DirectCommitter::new(Arc::clone(&io) as _));
                let sub = FileSubstrate::create(
                    file.base(),
                    Arc::clone(&io) as _,
                    committer,
                    0,
                    weights,
                    FILE_ARM_PAGE_WEIGHTS,
                    FILE_ARM_CACHE_PAGES,
                )
                .expect("encoding into a fresh temp file cannot fail")
                .with_temp_path(path);
                Box::new(sub)
            }
        }
    }

    /// Reconstructs a substrate of this kind from its raw image (the
    /// inverse of [`WeightSubstrate::export_raw`]), preserving any
    /// error state the image carries bit-for-bit.
    ///
    /// Only defined for the in-memory kinds — a file-backed kind's
    /// image *is* its file, so restoring one goes through
    /// [`FileSubstrate::open`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Backend`] when the image length does not match
    /// [`raw_image_bytes`](SubstrateKind::raw_image_bytes) for `len`,
    /// or this kind is file-backed.
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
        match self {
            SubstrateKind::Plain => Ok(Box::new(PlainMemory::store(
                &raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
                    .collect::<Vec<f32>>(),
            ))),
            SubstrateKind::Secded => Ok(Box::new(SecdedMemory::from_words(words_u64()))),
            SubstrateKind::Xts => Ok(Box::new(
                EncryptedMemory::from_ciphertext(raw.to_vec(), len, Self::cipher())
                    .map_err(|e| SubstrateError::Backend(e.to_string()))?,
            )),
            SubstrateKind::XtsSecded => Ok(Box::new(XtsSecdedMemory::from_words(
                words_u64(),
                len,
                Self::cipher(),
            ))),
            SubstrateKind::Int8 => Ok(Box::new(QuantMemory::from_bytes(
                QuantFormat::Int8,
                raw.to_vec(),
            ))),
            SubstrateKind::Fp16 => Ok(Box::new(QuantMemory::from_bytes(
                QuantFormat::Fp16,
                raw.to_vec(),
            ))),
            SubstrateKind::Int8Secded => Ok(Box::new(QuantSecdedMemory::from_words(
                QuantFormat::Int8,
                words_u64(),
                len,
            ))),
            SubstrateKind::Fp16Secded => Ok(Box::new(QuantSecdedMemory::from_words(
                QuantFormat::Fp16,
                words_u64(),
                len,
            ))),
            file => Err(SubstrateError::Backend(format!(
                "{file}: restore a file-backed substrate with FileSubstrate::open"
            ))),
        }
    }

    /// Exact byte length of the raw image this kind produces for `len`
    /// weights — the on-disk page-sizing formula, kept in lock-step
    /// with the substrates by test.
    pub fn raw_image_bytes(&self, len: usize) -> usize {
        match self.base() {
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
            _ => unreachable!("base() never returns a file kind"),
        }
    }

    /// Raw (fault-surface) bits of a substrate of this kind holding
    /// `len` weights, without building one.
    pub fn raw_bits_for(&self, len: usize) -> usize {
        match self.base() {
            SubstrateKind::Plain => len * 32,
            SubstrateKind::Secded => len * 39,
            SubstrateKind::Xts => len.div_ceil(4) * BLOCK_BYTES * 8,
            SubstrateKind::XtsSecded => len.div_ceil(4) * 4 * 39,
            SubstrateKind::Int8 => len * 8,
            SubstrateKind::Fp16 => len * 16,
            SubstrateKind::Int8Secded => len.div_ceil(4) * 39,
            SubstrateKind::Fp16Secded => (len * 2).div_ceil(4) * 39,
            _ => unreachable!("base() never returns a file kind"),
        }
    }

    /// Raw words (data words, code words, or cipher blocks — the
    /// granularity of [`WeightSubstrate::raw_word_of_bit`]) of a
    /// substrate of this kind holding `len` weights.
    pub fn raw_words_for(&self, len: usize) -> usize {
        match self.base() {
            SubstrateKind::Plain | SubstrateKind::Secded => len,
            SubstrateKind::Xts => len.div_ceil(4),
            SubstrateKind::XtsSecded => len.div_ceil(4) * 4,
            SubstrateKind::Int8 | SubstrateKind::Fp16 => len,
            SubstrateKind::Int8Secded => len.div_ceil(4),
            SubstrateKind::Fp16Secded => (len * 2).div_ceil(4),
            _ => unreachable!("base() never returns a file kind"),
        }
    }

    /// Raw-space geometry of this kind — the row/word grid over which
    /// correlated burst campaigns are planned — without building a
    /// substrate. File-backed kinds share their base kind's geometry.
    pub fn raw_geometry(&self) -> RawGeometry {
        match self.base() {
            SubstrateKind::Plain => RawGeometry {
                word_bits: 32,
                words_per_row: 4,
            },
            SubstrateKind::Secded
            | SubstrateKind::XtsSecded
            | SubstrateKind::Int8Secded
            | SubstrateKind::Fp16Secded => RawGeometry {
                word_bits: 39,
                words_per_row: 4,
            },
            SubstrateKind::Int8 => RawGeometry {
                word_bits: 8,
                words_per_row: 16,
            },
            SubstrateKind::Fp16 => RawGeometry {
                word_bits: 16,
                words_per_row: 8,
            },
            SubstrateKind::Xts => RawGeometry {
                word_bits: BLOCK_BYTES * 8,
                words_per_row: 1,
            },
            _ => unreachable!("base() never returns a file kind"),
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
            SubstrateKind::FilePlain => "file:plain",
            SubstrateKind::FileSecded => "file:secded",
            SubstrateKind::FileXts => "file:xts",
            SubstrateKind::FileXtsSecded => "file:xts+secded",
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

    #[test]
    fn every_kind_roundtrips() {
        let w: Vec<f32> = (0..10).map(|i| i as f32 * 0.7 - 3.0).collect();
        for kind in SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::FILE_BACKED)
        {
            let mem = kind.store(&w);
            assert_eq!(mem.len(), w.len(), "{kind}");
            assert_eq!(mem.read_weights(), w, "{kind}");
            assert!(mem.raw_bits() >= w.len() * 32, "{kind}");
        }
    }

    #[test]
    fn overheads_are_ordered() {
        let w = vec![1.0f32; 64];
        let plain = SubstrateKind::Plain.store(&w).storage_overhead();
        let secded = SubstrateKind::Secded.store(&w).storage_overhead();
        let xts = SubstrateKind::Xts.store(&w).storage_overhead();
        let both = SubstrateKind::XtsSecded.store(&w).storage_overhead();
        assert_eq!(plain, 0);
        assert_eq!(secded, 64 * 7 / 8);
        assert_eq!(xts, 0, "64 weights fill whole blocks");
        assert!(both >= secded, "composed substrate pays at least ECC");
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<&str> = SubstrateKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["plain", "secded", "xts", "xts+secded"]);
        let file_names: Vec<&str> = SubstrateKind::FILE_BACKED
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(
            file_names,
            ["file:plain", "file:secded", "file:xts", "file:xts+secded"]
        );
    }

    #[test]
    fn file_kinds_map_to_bases() {
        for (file, base) in SubstrateKind::FILE_BACKED
            .into_iter()
            .zip(SubstrateKind::ALL)
        {
            assert_eq!(file.base(), base);
            assert!(file.is_file_backed());
            assert!(!base.is_file_backed());
            assert_eq!(base.base(), base);
        }
    }

    #[test]
    fn raw_image_formulas_match_substrates() {
        for len in [1usize, 3, 4, 5, 37, 64] {
            let w: Vec<f32> = (0..len).map(|i| i as f32 * 0.3 - 1.0).collect();
            for kind in SubstrateKind::ALL {
                let mem = kind.store(&w);
                assert_eq!(
                    mem.export_raw().len(),
                    kind.raw_image_bytes(len),
                    "{kind} image bytes for {len}"
                );
                assert_eq!(
                    mem.raw_bits(),
                    kind.raw_bits_for(len),
                    "{kind} raw bits for {len}"
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
        for kind in SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::FILE_BACKED)
        {
            let donor = kind.store(&b);
            let mut mem = kind.store(&a);
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
        let w: Vec<f32> = (0..10).map(|i| i as f32 * 0.2 - 1.0).collect();
        for kind in SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::FILE_BACKED)
        {
            let mem = kind.store(&w);
            assert_eq!(mem.raw_geometry(), kind.raw_geometry(), "{kind}");
            let geo = kind.raw_geometry();
            assert!(geo.row_bits() > 0, "{kind}");
            assert!(geo.rows(mem.raw_bits()) >= 1, "{kind}");
        }
    }

    #[test]
    fn sparse_write_touches_only_selected_words() {
        let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 3.0).collect();
        for kind in SubstrateKind::ALL
            .into_iter()
            .chain(SubstrateKind::FILE_BACKED)
        {
            let mut mem = kind.store(&w);
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
            assert!(kind.is_quantized(), "{kind}");
            assert!(!kind.is_file_backed(), "{kind}");
            assert_eq!(kind.base(), kind, "{kind}");
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
                assert_eq!(
                    mem.raw_bits(),
                    kind.raw_bits_for(len),
                    "{kind} raw bits for {len}"
                );
                assert_eq!(
                    mem.raw_word_of_bit(mem.raw_bits() - 1) + 1,
                    kind.raw_words_for(len),
                    "{kind} raw words for {len}"
                );
                assert_eq!(mem.raw_geometry(), kind.raw_geometry(), "{kind}");
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
        assert!(SubstrateKind::FilePlain.restore(&[0; 8], 2).is_err());
    }
}
