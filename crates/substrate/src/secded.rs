//! [`WeightSubstrate`] adaptation of the SECDED-per-word memory from
//! `milr_ecc`: the paper's ECC-DRAM baseline, with 39 raw bits per
//! stored weight and a scrub that behaves like an ECC memory-controller
//! sweep.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use milr_ecc::{Secded, SecdedMemory};

impl WeightSubstrate for SecdedMemory {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::Secded
    }

    fn len(&self) -> usize {
        SecdedMemory::len(self)
    }

    fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let per = Secded::CODE_BITS as usize;
        (self.words()[bit / per] >> (bit % per)) & 1 == 1
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let per = Secded::CODE_BITS as usize;
        self.flip_bit(bit / per, (bit % per) as u32);
    }

    fn read_weights(&self) -> Vec<f32> {
        self.read_all()
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            SecdedMemory::len(self),
            "read_weights_into buffer of {} cannot hold {} weights",
            out.len(),
            SecdedMemory::len(self)
        );
        self.read_all_into(out);
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != SecdedMemory::len(self) {
            return Err(SubstrateError::LengthMismatch {
                expected: SecdedMemory::len(self),
                got: weights.len(),
            });
        }
        *self = SecdedMemory::protect(weights);
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        // Re-encode only the touched words: raw-space error state on
        // every *other* word must survive a sparse write-back.
        let len = SecdedMemory::len(self);
        for &(idx, value) in updates {
            if idx >= len {
                return Err(SubstrateError::LengthMismatch {
                    expected: len,
                    got: idx + 1,
                });
            }
            self.words_mut()[idx] = Secded::encode(value.to_bits());
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        // The allocation-free controller sweep: decoded weights are not
        // needed here, only the repair statistics.
        self.scrub_in_place().into()
    }

    fn scrub_read_into(&mut self, out: &mut [f32]) -> ScrubSummary {
        assert_eq!(
            out.len(),
            SecdedMemory::len(self),
            "scrub_read_into buffer of {} cannot hold {} weights",
            out.len(),
            SecdedMemory::len(self)
        );
        self.scrub_read_all_into(out).into()
    }

    fn export_raw(&self) -> Vec<u8> {
        self.words().iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        if raw.len() != SecdedMemory::len(self) * 8 {
            return Err(SubstrateError::Backend(format!(
                "raw image of {} bytes cannot hold {} SECDED words",
                raw.len(),
                SecdedMemory::len(self)
            )));
        }
        let words = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        *self = SecdedMemory::from_words(words);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.125 - 4.0).collect()
    }

    #[test]
    fn single_flip_is_corrected_by_scrub() {
        let w = weights(16);
        let mut mem = SecdedMemory::protect(&w);
        assert_eq!(mem.raw_bits(), 16 * 39);
        mem.flip_raw_bit(3 * 39 + 11);
        assert_eq!(mem.raw_word_of_bit(3 * 39 + 11), 3);
        let summary = WeightSubstrate::scrub(&mut mem);
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.uncorrectable, 0);
        assert_eq!(mem.read_weights(), w);
    }

    #[test]
    fn double_flip_is_uncorrectable() {
        let w = weights(8);
        let mut mem = SecdedMemory::protect(&w);
        mem.flip_raw_bit(5 * 39 + 1);
        mem.flip_raw_bit(5 * 39 + 30);
        let summary = WeightSubstrate::scrub(&mut mem);
        assert_eq!(summary.uncorrectable, 1);
        assert_ne!(mem.read_weights()[5], w[5]);
    }

    #[test]
    fn write_back_reprotects() {
        let w = weights(4);
        let mut mem = SecdedMemory::protect(&w);
        mem.flip_raw_bit(0);
        mem.flip_raw_bit(1); // uncorrectable
        WeightSubstrate::write_weights(&mut mem, &w).unwrap();
        assert!(WeightSubstrate::scrub(&mut mem).is_clean());
        assert_eq!(mem.read_weights(), w);
    }
}
