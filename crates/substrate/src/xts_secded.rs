//! The composed substrate: SECDED ECC laid over AES-XTS **ciphertext**
//! words — ECC DRAM inside an encrypted VM.
//!
//! This is the paper's ciphertext-space argument made executable. The
//! ECC layer sees only ciphertext, so it happily corrects any single
//! raw-bit error before decryption (harmless), but an uncorrectable
//! codeword passes multi-bit-corrupted *ciphertext* through to the
//! decryptor, which garbles the whole 16-byte block — four weights —
//! in plaintext space. Per-word ECC therefore cannot bound plaintext
//! damage under encryption; only a plaintext-space scheme (MILR) can.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use milr_ecc::Secded;
use milr_xts::{for_each_block_run, EncryptedMemory, XtsCipher, BLOCK_BYTES, WEIGHTS_PER_BLOCK};

/// Words of ciphertext per 16-byte cipher block.
const WORDS_PER_BLOCK: usize = BLOCK_BYTES / 4;

/// Code words per read group: 8 cipher blocks through stack buffers.
const GROUP_WORDS: usize = 8 * WORDS_PER_BLOCK;

/// Decrypts read group `group`'s decoded ciphertext words `data` into
/// its weights of `out` (the final group may be short, and its last
/// block may carry padding past `out`).
fn decrypt_group(cipher: &XtsCipher, group: usize, data: &[u32], out: &mut [f32]) {
    let mut bytes = [0u8; GROUP_WORDS * 4];
    let bytes = &mut bytes[..data.len() * 4];
    for (chunk, d) in bytes.chunks_exact_mut(4).zip(data) {
        chunk.copy_from_slice(&d.to_le_bytes());
    }
    cipher.decrypt_blocks(bytes, (group * GROUP_WORDS / WORDS_PER_BLOCK) as u64);
    let base = group * GROUP_WORDS;
    for (slot, chunk) in out.iter_mut().skip(base).zip(bytes.chunks_exact(4)) {
        *slot = f32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
    }
}

/// Weights stored as AES-XTS ciphertext with one (39,32) SECDED code
/// word per 32-bit ciphertext word.
#[derive(Debug, Clone)]
pub struct XtsSecdedMemory {
    cipher: XtsCipher,
    /// SECDED code words over the ciphertext, 4 per cipher block.
    words: Vec<u64>,
    /// Number of valid weights (final block may be padding).
    len: usize,
}

impl XtsSecdedMemory {
    /// Encrypts a weight buffer and puts every ciphertext word under
    /// SECDED protection.
    pub fn protect(weights: &[f32], cipher: XtsCipher) -> Self {
        let mem = EncryptedMemory::encrypt(weights, cipher.clone());
        let words = mem
            .ciphertext()
            .chunks_exact(4)
            .map(|b| Secded::encode(u32::from_le_bytes(b.try_into().expect("chunk of 4"))))
            .collect();
        XtsSecdedMemory {
            cipher,
            words,
            len: weights.len(),
        }
    }

    /// Reconstructs a memory from raw code words (the persistence path;
    /// preserves any in-flight error state bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics unless the word count is exactly the whole blocks `len`
    /// weights occupy.
    pub(crate) fn from_words(words: Vec<u64>, len: usize, cipher: XtsCipher) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WEIGHTS_PER_BLOCK) * WORDS_PER_BLOCK,
            "raw image of {} words for {len} weights",
            words.len()
        );
        XtsSecdedMemory { cipher, words, len }
    }

    /// Number of SECDED code words (4 per cipher block).
    pub fn code_words(&self) -> usize {
        self.words.len()
    }

    /// The range of weight indices garbled when the code word holding
    /// the given raw bit is uncorrectable: all weights of its block.
    pub fn blast_radius(&self, bit: usize) -> std::ops::Range<usize> {
        let block = self.raw_word_of_bit(bit) / WORDS_PER_BLOCK;
        (block * WEIGHTS_PER_BLOCK).min(self.len)..((block + 1) * WEIGHTS_PER_BLOCK).min(self.len)
    }
}

impl WeightSubstrate for XtsSecdedMemory {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::XtsSecded
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
        // 8 blocks at a time through stack buffers: one slice decode and
        // one batched decrypt per group, no ciphertext Vec on the serving
        // read path.
        let mut data = [0u32; GROUP_WORDS];
        for (group, words) in self.words.chunks(GROUP_WORDS).enumerate() {
            let data = &mut data[..words.len()];
            Secded::decode_words(words, data);
            decrypt_group(&self.cipher, group, data, out);
        }
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len,
                got: weights.len(),
            });
        }
        *self = XtsSecdedMemory::protect(weights, self.cipher.clone());
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        // XTS forces block granularity: each touched 16-byte block is
        // decoded, decrypted, patched, re-encrypted and re-encoded, but
        // every *untouched* block keeps its raw error state bit-for-bit.
        for &(idx, _) in updates {
            if idx >= self.len {
                return Err(SubstrateError::LengthMismatch {
                    expected: self.len,
                    got: idx + 1,
                });
            }
        }
        let (cipher, words) = (&self.cipher, &mut self.words);
        let mut data = Vec::new();
        let mut bytes = Vec::new();
        for_each_block_run(updates, |blocks, run| {
            let words = &mut words[blocks.start * WORDS_PER_BLOCK..blocks.end * WORDS_PER_BLOCK];
            data.resize(words.len(), 0);
            Secded::decode_words(words, &mut data);
            bytes.clear();
            bytes.extend(data.iter().flat_map(|d| d.to_le_bytes()));
            cipher.decrypt_blocks(&mut bytes, blocks.start as u64);
            for &(idx, value) in run {
                let off = idx * 4 - blocks.start * BLOCK_BYTES;
                bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
            }
            cipher.encrypt_blocks(&mut bytes, blocks.start as u64);
            for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(4)) {
                *w = Secded::encode(u32::from_le_bytes(chunk.try_into().expect("chunk of 4")));
            }
        });
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        Secded::scrub_words(&mut self.words).into()
    }

    fn scrub_read_into(&mut self, out: &mut [f32]) -> ScrubSummary {
        assert_eq!(
            out.len(),
            self.len,
            "scrub_read_into buffer of {} cannot hold {} weights",
            out.len(),
            self.len
        );
        // The read path's groups, each screened, repaired and decoded in
        // one pass over its code words.
        let mut summary = ScrubSummary::default();
        let mut data = [0u32; GROUP_WORDS];
        for (group, words) in self.words.chunks_mut(GROUP_WORDS).enumerate() {
            let data = &mut data[..words.len()];
            summary.absorb(&Secded::scrub_decode_words(words, data).into());
            decrypt_group(&self.cipher, group, data, out);
        }
        summary
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

    fn cipher() -> XtsCipher {
        XtsCipher::new(&[0x13; 16], &[0x31; 16])
    }

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.3 - 5.0).collect()
    }

    #[test]
    fn roundtrip() {
        for n in [1usize, 4, 7, 64] {
            let w = weights(n);
            let mem = XtsSecdedMemory::protect(&w, cipher());
            assert_eq!(mem.len(), n);
            assert_eq!(mem.read_weights(), w);
            assert_eq!(mem.code_words(), n.div_ceil(4) * 4);
        }
    }

    #[test]
    fn single_ciphertext_flip_is_fully_corrected() {
        // The benign case: ECC repairs the ciphertext before decryption,
        // so plaintext is intact — encryption does not defeat ECC for
        // single-bit errors.
        let w = weights(16);
        let mut mem = XtsSecdedMemory::protect(&w, cipher());
        mem.flip_raw_bit(2 * 39 + 7);
        let summary = mem.scrub();
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.uncorrectable, 0);
        assert_eq!(mem.read_weights(), w);
    }

    #[test]
    fn double_flip_garbles_exactly_one_block() {
        // The paper's scenario: two raw flips in one codeword defeat
        // SECDED; the surviving ciphertext error decrypts to a whole
        // garbled 16-byte block (4 weights) while every other block is
        // untouched.
        let w = weights(16);
        let mut mem = XtsSecdedMemory::protect(&w, cipher());
        let word = 5; // block 1
        mem.flip_raw_bit(word * 39 + 2);
        mem.flip_raw_bit(word * 39 + 20);
        let summary = mem.scrub();
        assert_eq!(summary.uncorrectable, 1);
        let seen = mem.read_weights();
        let radius = mem.blast_radius(word * 39);
        assert_eq!(radius, 4..8);
        let garbled: Vec<usize> = (0..16).filter(|&i| seen[i] != w[i]).collect();
        assert!(!garbled.is_empty());
        assert!(garbled.iter().all(|i| radius.contains(i)), "{garbled:?}");
    }

    #[test]
    fn write_back_heals_everything() {
        let w = weights(8);
        let mut mem = XtsSecdedMemory::protect(&w, cipher());
        mem.flip_raw_bit(0);
        mem.flip_raw_bit(1);
        mem.write_weights(&w).unwrap();
        assert!(mem.scrub().is_clean());
        assert_eq!(mem.read_weights(), w);
        assert!(mem.write_weights(&weights(9)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bounds_checked() {
        let mut mem = XtsSecdedMemory::protect(&weights(4), cipher());
        mem.flip_raw_bit(mem.raw_bits());
    }
}
