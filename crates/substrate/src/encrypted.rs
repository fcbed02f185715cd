//! [`WeightSubstrate`] adaptation of the AES-XTS encrypted memory from
//! `milr_xts`: the encrypted-VM substrate whose raw space is the
//! ciphertext, so every raw-bit fault garbles a whole 16-byte block
//! (four weights) of plaintext.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use milr_xts::EncryptedMemory;

impl WeightSubstrate for EncryptedMemory {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::Xts
    }

    fn len(&self) -> usize {
        EncryptedMemory::len(self)
    }

    fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.ciphertext_bits(), "raw bit {bit} out of range");
        (self.ciphertext()[bit / 8] >> (bit % 8)) & 1 == 1
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        self.flip_ciphertext_bit(bit);
    }

    fn read_weights(&self) -> Vec<f32> {
        self.decrypt_all()
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != EncryptedMemory::len(self) {
            return Err(SubstrateError::LengthMismatch {
                expected: EncryptedMemory::len(self),
                got: weights.len(),
            });
        }
        self.overwrite(weights)
            .map_err(|e| SubstrateError::Backend(e.to_string()))
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        let len = EncryptedMemory::len(self);
        for &(idx, _) in updates {
            if idx >= len {
                return Err(SubstrateError::LengthMismatch {
                    expected: len,
                    got: idx + 1,
                });
            }
        }
        self.overwrite_sparse(updates)
            .map_err(|e| SubstrateError::Backend(e.to_string()))
    }

    fn scrub(&mut self) -> ScrubSummary {
        // Bare ciphertext carries no code layer: nothing to repair.
        ScrubSummary::default()
    }

    fn export_raw(&self) -> Vec<u8> {
        self.ciphertext().to_vec()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        self.set_ciphertext(raw)
            .map_err(|e| SubstrateError::Backend(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_xts::XtsCipher;

    fn cipher() -> XtsCipher {
        XtsCipher::new(&[0xA5; 16], &[0x5A; 16])
    }

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5 - 8.0).collect()
    }

    #[test]
    fn roundtrip_pads_to_whole_blocks() {
        let w = weights(5); // pads to 2 blocks = 32 bytes
        let mem = EncryptedMemory::encrypt(&w, cipher());
        assert_eq!(WeightSubstrate::len(&mem), 5);
        assert_eq!(mem.read_weights(), w);
        assert_eq!(mem.raw_bits(), mem.ciphertext_bits());
        assert_eq!(mem.export_raw().len(), 32);
    }

    #[test]
    fn raw_flip_garbles_one_block_and_scrub_cannot_help() {
        let w = weights(12);
        let mut mem = EncryptedMemory::encrypt(&w, cipher());
        let bit = 17 * 8 + 3; // block 1
        mem.flip_raw_bit(bit);
        assert_eq!(mem.raw_word_of_bit(bit), 1);
        assert!(WeightSubstrate::scrub(&mut mem).is_clean());
        let seen = mem.read_weights();
        assert_eq!(&seen[0..4], &w[0..4]);
        assert_eq!(&seen[8..12], &w[8..12]);
        assert_ne!(&seen[4..8], &w[4..8]);
    }

    #[test]
    fn write_back_reencrypts() {
        let w = weights(8);
        let mut mem = EncryptedMemory::encrypt(&w, cipher());
        mem.flip_raw_bit(0);
        WeightSubstrate::write_weights(&mut mem, &w).unwrap();
        assert_eq!(mem.read_weights(), w);
        assert!(matches!(
            WeightSubstrate::write_weights(&mut mem, &weights(9)),
            Err(SubstrateError::LengthMismatch { .. })
        ));
    }
}
