//! Unprotected plaintext storage: the "no recovery" baseline substrate.
//! A bare `f32` buffer is itself the substrate, which also lets the
//! fault injectors run directly on model parameter slices.
//!
//! The raw representation *is* the plaintext: 32 raw bits per weight,
//! no code layer, scrub is a no-op.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};

/// A bare weight slice is a plain substrate: this is what makes the
/// substrate-generic injectors drop-in replacements for the old
/// `&mut [f32]` signatures (`inject_rber(params.data_mut(), ..)`).
impl WeightSubstrate for [f32] {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::Plain
    }

    fn len(&self) -> usize {
        <[f32]>::len(self)
    }

    fn raw_bit(&self, bit: usize) -> bool {
        let total = self.raw_bits();
        assert!(bit < total, "raw bit {bit} out of range ({total} bits)");
        (self[bit / 32].to_bits() >> (bit % 32)) & 1 == 1
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        let total = self.raw_bits();
        assert!(bit < total, "raw bit {bit} out of range ({total} bits)");
        let word = bit / 32;
        self[word] = f32::from_bits(self[word].to_bits() ^ (1u32 << (bit % 32)));
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), <[f32]>::len(self), "read_weights_into length");
        out.copy_from_slice(self);
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != <[f32]>::len(self) {
            return Err(SubstrateError::LengthMismatch {
                expected: <[f32]>::len(self),
                got: weights.len(),
            });
        }
        self.copy_from_slice(weights);
        Ok(())
    }

    /// Plain storage has no code layer, so a sparse write is a direct
    /// element store.
    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        let len = <[f32]>::len(self);
        if let Some(&(idx, _)) = updates.iter().find(|&&(idx, _)| idx >= len) {
            return Err(SubstrateError::LengthMismatch {
                expected: len,
                got: idx + 1,
            });
        }
        for &(idx, value) in updates {
            self[idx] = value;
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        ScrubSummary::default()
    }

    /// The little-endian word bytes.
    fn export_raw(&self) -> Vec<u8> {
        self.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        if raw.len() != <[f32]>::len(self) * 4 {
            return Err(SubstrateError::Backend(format!(
                "raw image of {} bytes cannot hold {} plain weights",
                raw.len(),
                <[f32]>::len(self)
            )));
        }
        for (w, c) in self.iter_mut().zip(raw.chunks_exact(4)) {
            *w = f32::from_le_bytes(c.try_into().expect("chunk of 4"));
        }
        Ok(())
    }
}

/// Owned buffers delegate to the slice impl: `SubstrateKind::Plain`
/// stores one, and `&mut vec` call sites work with the generic
/// injectors.
impl WeightSubstrate for Vec<f32> {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::Plain
    }

    fn len(&self) -> usize {
        <[f32]>::len(self)
    }

    fn raw_bit(&self, bit: usize) -> bool {
        self.as_slice().raw_bit(bit)
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        self.as_mut_slice().flip_raw_bit(bit);
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        self.as_slice().read_weights_into(out);
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        self.as_mut_slice().write_weights(weights)
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        self.as_mut_slice().write_weights_sparse(updates)
    }

    fn scrub(&mut self) -> ScrubSummary {
        self.as_mut_slice().scrub()
    }

    fn export_raw(&self) -> Vec<u8> {
        self.as_slice().export_raw()
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        self.as_mut_slice().import_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.25 - 2.0).collect()
    }

    #[test]
    fn roundtrip_and_noop_scrub() {
        let w = weights(7);
        let mut mem = SubstrateKind::Plain.store(&w);
        assert_eq!(mem.len(), 7);
        assert_eq!(mem.raw_bits(), 7 * 32);
        assert_eq!(mem.read_weights(), w);
        assert!(mem.scrub().is_clean());
        assert_eq!(mem.read_weights(), w, "scrub is a no-op");
    }

    #[test]
    fn flip_changes_exactly_one_word() {
        let w = weights(4);
        let mut mem = w.clone();
        mem.flip_raw_bit(32 + 5); // word 1, bit 5
        assert_eq!(mem.raw_word_of_bit(32 + 5), 1);
        let seen = mem.read_weights();
        assert_eq!(seen[1].to_bits(), w[1].to_bits() ^ (1 << 5));
        for i in [0, 2, 3] {
            assert_eq!(seen[i], w[i]);
        }
    }

    #[test]
    fn write_back_heals() {
        let w = weights(3);
        let mut mem = w.clone();
        mem.flip_raw_bit(0);
        WeightSubstrate::write_weights(&mut mem, &w).unwrap();
        assert_eq!(mem.read_weights(), w);
        assert!(matches!(
            WeightSubstrate::write_weights(&mut mem, &weights(4)),
            Err(SubstrateError::LengthMismatch {
                expected: 3,
                got: 4
            })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bounds_checked() {
        weights(1).flip_raw_bit(32);
    }
}
