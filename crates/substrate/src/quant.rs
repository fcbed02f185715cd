//! Quantized weight substrates: int8 and IEEE half-precision page
//! encodings, plain and SECDED-composed.
//!
//! These are first-class [`WeightSubstrate`] arms, not a preprocessing
//! step: weights are *stored* on the quantized grid (1 or 2 bytes per
//! parameter instead of 4), faults flip bits of the quantized raw image,
//! and every raw-space operation (inject / export / import / scrub)
//! works on the quantized words. Reads dequantize on the fly — each
//! grid point is exactly representable in f32 (the int8 scale is a
//! power of two; every binary16 value is an f32 value), so a stored
//! weight round-trips bit-for-bit and MILR's recovery can snap solver
//! output onto the grid **exactly**, bypassing the f32 ulp search (see
//! `milr_ecc::ring`).
//!
//! The SECDED-composed variants pack 4 quantized bytes (4 int8 or 2
//! fp16 weights) into one 32-bit word under a (39,32) code word — ECC
//! DRAM over quantized pages. A double error garbles up to 4 (int8) or
//! 2 (fp16) weights at once; MILR heals them in plaintext space.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use milr_ecc::ring::{f16_bits_to_f32, f32_to_f16_bits, int8_quantize, int8_value};
use milr_ecc::Secded;

/// Bytes per 32-bit word of the SECDED-composed quantized substrates.
const WORD_BYTES: usize = 4;

/// The quantized page encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// Signed 8-bit lattice `q · 2⁻⁶` (see `milr_ecc::ring`).
    Int8,
    /// IEEE 754 binary16 (half precision).
    Fp16,
}

impl QuantFormat {
    /// Stored bytes per weight (1 int8, 2 fp16).
    pub fn bytes_per_weight(&self) -> usize {
        match self {
            QuantFormat::Int8 => 1,
            QuantFormat::Fp16 => 2,
        }
    }

    /// Encodes one weight into its stored bytes (`bytes_per_weight`
    /// long), snapping to the grid.
    pub fn encode(&self, v: f32, out: &mut [u8]) {
        match self {
            QuantFormat::Int8 => out[0] = int8_quantize(v) as u8,
            QuantFormat::Fp16 => out.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes()),
        }
    }

    /// Decodes one weight from its stored bytes.
    pub fn decode(&self, bytes: &[u8]) -> f32 {
        match self {
            QuantFormat::Int8 => int8_value(bytes[0] as i8),
            QuantFormat::Fp16 => f16_bits_to_f32(u16::from_le_bytes([bytes[0], bytes[1]])),
        }
    }

    /// Snaps a weight to the nearest grid point (what a store-then-read
    /// round trip returns).
    pub fn snap(&self, v: f32) -> f32 {
        match self {
            QuantFormat::Int8 => int8_value(int8_quantize(v)),
            QuantFormat::Fp16 => f16_bits_to_f32(f32_to_f16_bits(v)),
        }
    }
}

/// Quantized weights in unprotected DRAM: 1 (int8) or 2 (fp16) raw
/// bytes per weight, no code layer. Scrub is a no-op; every raw bit
/// lands in exactly one weight's quantized representation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMemory {
    format: QuantFormat,
    bytes: Vec<u8>,
}

impl QuantMemory {
    /// Quantizes a weight buffer into fresh storage.
    pub fn store(format: QuantFormat, weights: &[f32]) -> Self {
        let bpw = format.bytes_per_weight();
        let mut bytes = vec![0u8; weights.len() * bpw];
        for (chunk, &w) in bytes.chunks_exact_mut(bpw).zip(weights) {
            format.encode(w, chunk);
        }
        QuantMemory { format, bytes }
    }

    /// Reconstructs a memory from its raw image (the persistence path).
    ///
    /// # Panics
    ///
    /// Panics when the image length is not a whole number of weights.
    pub fn from_bytes(format: QuantFormat, bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len().is_multiple_of(format.bytes_per_weight()),
            "raw image of {} bytes is not whole {:?} weights",
            bytes.len(),
            format
        );
        QuantMemory { format, bytes }
    }
}

impl WeightSubstrate for QuantMemory {
    fn kind(&self) -> SubstrateKind {
        match self.format {
            QuantFormat::Int8 => SubstrateKind::Int8,
            QuantFormat::Fp16 => SubstrateKind::Fp16,
        }
    }

    fn len(&self) -> usize {
        self.bytes.len() / self.format.bytes_per_weight()
    }

    fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        (self.bytes[bit / 8] >> (bit % 8)) & 1 == 1
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        self.bytes[bit / 8] ^= 1 << (bit % 8);
    }

    fn read_weights(&self) -> Vec<f32> {
        let bpw = self.format.bytes_per_weight();
        self.bytes
            .chunks_exact(bpw)
            .map(|c| self.format.decode(c))
            .collect()
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        let bpw = self.format.bytes_per_weight();
        assert_eq!(
            out.len(),
            self.len(),
            "read_weights_into buffer of {} cannot hold {} weights",
            out.len(),
            self.len()
        );
        for (slot, c) in out.iter_mut().zip(self.bytes.chunks_exact(bpw)) {
            *slot = self.format.decode(c);
        }
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len() {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len(),
                got: weights.len(),
            });
        }
        *self = QuantMemory::store(self.format, weights);
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        let len = self.len();
        let bpw = self.format.bytes_per_weight();
        for &(idx, value) in updates {
            if idx >= len {
                return Err(SubstrateError::LengthMismatch {
                    expected: len,
                    got: idx + 1,
                });
            }
            self.format
                .encode(value, &mut self.bytes[idx * bpw..(idx + 1) * bpw]);
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        ScrubSummary::default()
    }

    fn export_raw(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        if raw.len() != self.bytes.len() {
            return Err(SubstrateError::Backend(format!(
                "raw image of {} bytes cannot hold {} quantized weights",
                raw.len(),
                self.len()
            )));
        }
        self.bytes.copy_from_slice(raw);
        Ok(())
    }
}

/// Quantized weights under SECDED protection: 4 quantized bytes (4 int8
/// or 2 fp16 weights) per (39,32) code word — ECC DRAM over quantized
/// pages.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSecdedMemory {
    format: QuantFormat,
    /// One SECDED code word per 4 quantized bytes (zero-padded tail).
    words: Vec<u64>,
    /// Number of valid weights (final word may hold padding).
    len: usize,
}

impl QuantSecdedMemory {
    /// Quantizes and SECDED-encodes a weight buffer.
    pub fn protect(format: QuantFormat, weights: &[f32]) -> Self {
        let bpw = format.bytes_per_weight();
        let mut bytes = vec![0u8; (weights.len() * bpw).div_ceil(WORD_BYTES) * WORD_BYTES];
        for (chunk, &w) in bytes.chunks_exact_mut(bpw).zip(weights) {
            format.encode(w, chunk);
        }
        let words = bytes
            .chunks_exact(WORD_BYTES)
            .map(|c| Secded::encode(u32::from_le_bytes(c.try_into().expect("chunk of 4"))))
            .collect();
        QuantSecdedMemory {
            format,
            words,
            len: weights.len(),
        }
    }

    /// Reconstructs a memory from raw code words (the persistence path;
    /// preserves any in-flight error state bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics unless the word count is exactly the words `len`
    /// weights occupy.
    pub(crate) fn from_words(format: QuantFormat, words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            (len * format.bytes_per_weight()).div_ceil(WORD_BYTES),
            "raw image of {} words for {len} {format:?} weights",
            words.len()
        );
        QuantSecdedMemory { format, words, len }
    }

    /// Number of SECDED code words.
    pub fn code_words(&self) -> usize {
        self.words.len()
    }

    /// Weights stored in the word holding the given raw bit — the blast
    /// radius of an uncorrectable code word (4 int8 / 2 fp16 weights).
    pub fn blast_radius(&self, bit: usize) -> std::ops::Range<usize> {
        let wpw = WORD_BYTES / self.format.bytes_per_weight();
        let word = bit / Secded::CODE_BITS as usize;
        (word * wpw).min(self.len)..((word + 1) * wpw).min(self.len)
    }
}

impl WeightSubstrate for QuantSecdedMemory {
    fn kind(&self) -> SubstrateKind {
        match self.format {
            QuantFormat::Int8 => SubstrateKind::Int8Secded,
            QuantFormat::Fp16 => SubstrateKind::Fp16Secded,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let per = Secded::CODE_BITS as usize;
        (self.words[bit / per] >> (bit % per)) & 1 == 1
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let per = Secded::CODE_BITS as usize;
        self.words[bit / per] ^= 1u64 << (bit % per);
    }

    fn read_weights(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.read_weights_into(&mut out);
        out
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.len,
            "read_weights_into buffer of {} cannot hold {} weights",
            out.len(),
            self.len
        );
        let bpw = self.format.bytes_per_weight();
        let wpw = WORD_BYTES / bpw;
        let mut data = [0u32; 64];
        for (words, slots) in self.words.chunks(64).zip(out.chunks_mut(64 * wpw)) {
            let data = &mut data[..words.len()];
            Secded::decode_words(words, data);
            for (slots, d) in slots.chunks_mut(wpw).zip(data.iter()) {
                for (slot, bytes) in slots.iter_mut().zip(d.to_le_bytes().chunks_exact(bpw)) {
                    *slot = self.format.decode(bytes);
                }
            }
        }
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len,
                got: weights.len(),
            });
        }
        *self = QuantSecdedMemory::protect(self.format, weights);
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        // A quantized weight never straddles a 32-bit word (1- and
        // 2-byte encodings at aligned offsets), so each update decodes,
        // patches and re-encodes exactly one code word; every untouched
        // word keeps its raw error state bit-for-bit.
        let bpw = self.format.bytes_per_weight();
        let wpw = WORD_BYTES / bpw;
        for &(idx, value) in updates {
            if idx >= self.len {
                return Err(SubstrateError::LengthMismatch {
                    expected: self.len,
                    got: idx + 1,
                });
            }
            let word = idx / wpw;
            let mut bytes = Secded::decode(self.words[word]).data().to_le_bytes();
            let off = (idx % wpw) * bpw;
            self.format.encode(value, &mut bytes[off..off + bpw]);
            self.words[word] = Secded::encode(u32::from_le_bytes(bytes));
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        Secded::scrub_words(&mut self.words).into()
    }

    fn export_raw(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        if raw.len() != self.words.len() * 8 {
            return Err(SubstrateError::Backend(format!(
                "raw image of {} bytes cannot hold {} code words",
                raw.len(),
                self.words.len()
            )));
        }
        self.words = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMATS: [QuantFormat; 2] = [QuantFormat::Int8, QuantFormat::Fp16];

    /// Grid-aligned weights: exactly representable in both formats.
    fn grid_weights(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as i32 % 129 - 64) as f32 * 0.015625)
            .collect()
    }

    #[test]
    fn grid_aligned_roundtrip_is_bit_exact() {
        for format in FORMATS {
            let w = grid_weights(19);
            let plain = QuantMemory::store(format, &w);
            let coded = QuantSecdedMemory::protect(format, &w);
            for mem in [&plain as &dyn WeightSubstrate, &coded] {
                let got: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{}", mem.kind());
            }
        }
    }

    #[test]
    fn off_grid_values_snap() {
        for format in FORMATS {
            let mem = QuantMemory::store(format, &[0.1, -0.33, 1.7]);
            for (got, v) in mem.read_weights().iter().zip([0.1f32, -0.33, 1.7]) {
                assert_eq!(got.to_bits(), format.snap(v).to_bits());
                assert!((got - v).abs() < 0.01, "{v} -> {got}");
            }
        }
    }

    #[test]
    fn secded_scrub_corrects_single_flips() {
        for format in FORMATS {
            let w = grid_weights(10);
            let mut mem = QuantSecdedMemory::protect(format, &w);
            mem.flip_raw_bit(17);
            mem.flip_raw_bit(39 + 3);
            let summary = mem.scrub();
            assert_eq!(summary.corrected, 2, "{format:?}");
            assert_eq!(summary.uncorrectable, 0);
            let got: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{format:?}");
            assert!(mem.scrub().is_clean());
        }
    }

    #[test]
    fn secded_double_flip_garbles_only_its_word() {
        for format in FORMATS {
            let w = grid_weights(12);
            let mut mem = QuantSecdedMemory::protect(format, &w);
            mem.flip_raw_bit(39 + 5);
            mem.flip_raw_bit(39 + 21);
            let summary = mem.scrub();
            assert_eq!(summary.uncorrectable, 1, "{format:?}");
            let seen = mem.read_weights();
            let radius = mem.blast_radius(39);
            let garbled: Vec<usize> = (0..w.len()).filter(|&i| seen[i] != w[i]).collect();
            assert!(!garbled.is_empty(), "{format:?}");
            assert!(
                garbled.iter().all(|i| radius.contains(i)),
                "{format:?}: {garbled:?} outside {radius:?}"
            );
        }
    }

    #[test]
    fn sparse_write_preserves_untouched_raw_state() {
        for format in FORMATS {
            let w = grid_weights(16);
            let mut mem = QuantSecdedMemory::protect(format, &w);
            // Plant error state in a word no update touches.
            let last_word = mem.code_words() - 1;
            mem.flip_raw_bit(last_word * 39 + 7);
            let before = mem.export_raw();
            mem.write_weights_sparse(&[(0, 0.5), (1, -0.5)]).unwrap();
            let after = mem.export_raw();
            assert_eq!(
                &before[8..],
                &after[8..],
                "{format:?}: untouched words changed"
            );
            let seen = mem.read_weights();
            assert_eq!(seen[0].to_bits(), 0.5f32.to_bits());
            assert_eq!(seen[1].to_bits(), (-0.5f32).to_bits());
        }
    }

    #[test]
    fn plain_flips_affect_exactly_one_weight() {
        for format in FORMATS {
            let w = grid_weights(8);
            let mut mem = QuantMemory::store(format, &w);
            let bit = format.bytes_per_weight() * 8 * 3 + 2; // inside weight 3
            mem.flip_raw_bit(bit);
            assert_eq!(mem.raw_word_of_bit(bit), 3);
            let seen = mem.read_weights();
            for (i, (got, want)) in seen.iter().zip(&w).enumerate() {
                if i == 3 {
                    assert_ne!(got.to_bits(), want.to_bits(), "{format:?}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{format:?} weight {i}");
                }
            }
            assert!(mem.scrub().is_clean(), "no code layer");
        }
    }

    #[test]
    fn export_import_roundtrip() {
        for format in FORMATS {
            let w = grid_weights(9);
            for mem in [
                &mut QuantMemory::store(format, &w) as &mut dyn WeightSubstrate,
                &mut QuantSecdedMemory::protect(format, &w),
            ] {
                mem.flip_raw_bit(5);
                let image = mem.export_raw();
                let before = mem.read_weights();
                mem.flip_raw_bit(6);
                mem.import_raw(&image).unwrap();
                assert_eq!(mem.export_raw(), image, "{}", mem.kind());
                let after: Vec<u32> = mem.read_weights().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = before.iter().map(|v| v.to_bits()).collect();
                assert_eq!(after, want, "{}", mem.kind());
                assert!(mem.import_raw(&image[1..]).is_err());
            }
        }
    }
}
