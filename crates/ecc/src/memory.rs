use crate::{DecodeOutcome, Secded};

/// A weight buffer stored under SECDED protection, one (39,32) code word
/// per `f32` parameter — the ECC baseline configuration of the paper's
/// evaluation ("protecting each word … that coincides with a single
/// parameter").
///
/// Fault injectors flip bits directly in the code words (ciphertext-side
/// DRAM errors); [`SecdedMemory::scrub`] then behaves like an ECC memory
/// controller sweep: single-bit errors are corrected in place, multi-bit
/// errors pass through silently ("no correction occurs and interrupts is
/// not raised").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecdedMemory {
    words: Vec<u64>,
}

/// Statistics from one scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Words decoded without error.
    pub clean: usize,
    /// Words with a corrected single-bit error.
    pub corrected: usize,
    /// Words with a detected-but-uncorrectable (double) error.
    pub uncorrectable: usize,
}

impl SecdedMemory {
    /// Encodes a weight buffer into protected storage.
    pub fn protect(weights: &[f32]) -> Self {
        SecdedMemory {
            words: weights
                .iter()
                .map(|w| Secded::encode(w.to_bits()))
                .collect(),
        }
    }

    /// Number of protected words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no words are stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reconstructs a memory from raw code words (the persistence path:
    /// the words are the substrate's raw image, so a store can round-trip
    /// them through disk *without* decoding — preserving any in-flight
    /// error state bit-for-bit).
    pub fn from_words(words: Vec<u64>) -> Self {
        SecdedMemory { words }
    }

    /// Raw code words (39 valid bits each).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw code words, for fault injection.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Flips one bit of one code word (bit 0..39).
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn flip_bit(&mut self, word: usize, bit: u32) {
        assert!(bit < Secded::CODE_BITS, "bit {bit} outside code word");
        self.words[word] ^= 1u64 << bit;
    }

    /// Decodes every word best-effort, without correcting storage.
    pub fn read_all(&self) -> Vec<f32> {
        self.words
            .iter()
            .map(|&w| f32::from_bits(Secded::decode(w).data()))
            .collect()
    }

    /// Decodes every word best-effort into a caller-provided buffer,
    /// without correcting storage or allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn read_all_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.words.len(), "output buffer length");
        for (slot, &w) in out.iter_mut().zip(&self.words) {
            *slot = f32::from_bits(Secded::decode(w).data());
        }
    }

    /// Words per scrub chunk: the syndrome screen runs over a block of
    /// code words at a time (pure mask+popcount reads the compiler can
    /// unroll and vectorize) before any repair is attempted.
    const SCRUB_CHUNK: usize = 32;

    /// Repairs every correctable error in place without decoding weights
    /// or allocating — the memory-controller sweep an ECC DIMM performs.
    ///
    /// Processes 32-word blocks: each block is first screened with the
    /// branch-free [`Secded::is_clean`] syndrome kernel (the
    /// overwhelmingly common all-clean case does zero writes), and only
    /// flagged words go through full decode + re-encode.
    pub fn scrub_in_place(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for chunk in self.words.chunks_mut(Self::SCRUB_CHUNK) {
            // Screen pass: one dirty bit per lane, no branches per word.
            let mut dirty = 0u64;
            for (lane, &w) in chunk.iter().enumerate() {
                dirty |= u64::from(!Secded::is_clean(w)) << lane;
            }
            report.clean += chunk.len() - dirty.count_ones() as usize;
            // Repair pass: only the flagged lanes.
            while dirty != 0 {
                let lane = dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                match Secded::decode(chunk[lane]) {
                    DecodeOutcome::Clean { .. } => unreachable!("screened dirty"),
                    DecodeOutcome::Corrected { data, .. } => {
                        report.corrected += 1;
                        chunk[lane] = Secded::encode(data);
                    }
                    DecodeOutcome::DoubleError { .. } => report.uncorrectable += 1,
                }
            }
        }
        report
    }

    /// Decodes every word, repairing correctable errors in place, and
    /// returns the decoded weights plus statistics.
    pub fn scrub(&mut self) -> (Vec<f32>, ScrubReport) {
        let report = self.scrub_in_place();
        // Post-repair, every correctable word decodes to its healed
        // value, so reading after the sweep matches the old fused path.
        (self.read_all(), report)
    }

    /// ECC storage overhead in bytes: 7 check bits per 32-bit word
    /// (`params × 7 / 8`), the quantity reported in the paper's storage
    /// tables.
    pub fn overhead_bytes(&self) -> usize {
        self.words.len() * Secded::CHECK_BITS as usize / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weights() -> Vec<f32> {
        (0..64).map(|i| (i as f32) * 0.125 - 4.0).collect()
    }

    #[test]
    fn protect_read_roundtrip() {
        let w = sample_weights();
        let mem = SecdedMemory::protect(&w);
        assert_eq!(mem.len(), 64);
        assert!(!mem.is_empty());
        assert_eq!(mem.read_all(), w);
    }

    #[test]
    fn scrub_fixes_single_bit_errors() {
        let w = sample_weights();
        let mut mem = SecdedMemory::protect(&w);
        mem.flip_bit(3, 11);
        mem.flip_bit(17, 0);
        let (decoded, report) = mem.scrub();
        assert_eq!(decoded, w);
        assert_eq!(report.corrected, 2);
        assert_eq!(report.uncorrectable, 0);
        assert_eq!(report.clean, 62);
        // Storage itself was healed: next scrub is clean.
        let (_, second) = mem.scrub();
        assert_eq!(second.corrected, 0);
        assert_eq!(second.clean, 64);
    }

    #[test]
    fn scrub_reports_double_errors_without_fixing() {
        let w = sample_weights();
        let mut mem = SecdedMemory::protect(&w);
        mem.flip_bit(5, 2);
        mem.flip_bit(5, 30);
        let (decoded, report) = mem.scrub();
        assert_eq!(report.uncorrectable, 1);
        // The word is still corrupt (silent data corruption).
        assert_ne!(decoded[5], w[5]);
    }

    #[test]
    fn whole_weight_error_defeats_ecc() {
        // The PSEC motivation: flip all 32 data-carrying bits.
        let w = vec![1.5f32];
        let mut mem = SecdedMemory::protect(&w);
        for bit in 0..32 {
            // Flip a spread of code-word bits (not only data positions;
            // the attack model garbles the whole encryption word).
            mem.flip_bit(0, bit);
        }
        let (decoded, report) = mem.scrub();
        assert_eq!(report.corrected + report.uncorrectable + report.clean, 1);
        assert_ne!(decoded[0], 1.5);
    }

    #[test]
    fn overhead_matches_paper_formula() {
        // MNIST network: 1,669,290 params -> ECC 1.46 MB (Table V).
        let n = 1_669_290usize;
        let mem = SecdedMemory::protect(&[0.0f32; 4]);
        let _ = mem;
        let bytes = n * 7 / 8;
        let mb = bytes as f64 / 1_000_000.0;
        assert!((mb - 1.46).abs() < 0.01, "{mb}");
    }

    #[test]
    #[should_panic(expected = "outside code word")]
    fn flip_bit_validates_position() {
        let mut mem = SecdedMemory::protect(&[0.0]);
        mem.flip_bit(0, 39);
    }

    #[test]
    fn scrub_in_place_matches_scrub_across_chunk_boundaries() {
        // Lengths straddling the screen-chunk size, with errors placed in
        // every chunk position class (first lane, last lane, mid-chunk,
        // tail chunk).
        for len in [1usize, 31, 32, 33, 64, 100] {
            let w: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 7.0).collect();
            let mut a = SecdedMemory::protect(&w);
            let mut b = a.clone();
            for (word, bits) in [
                (0usize, vec![4u32]),
                (len / 2, vec![0]),
                (len - 1, vec![2, 30]),
            ] {
                for bit in bits {
                    a.flip_bit(word, bit);
                    b.flip_bit(word, bit);
                }
            }
            let (decoded, report) = a.scrub();
            let in_place = b.scrub_in_place();
            assert_eq!(report, in_place, "len {len}");
            assert_eq!(a.words(), b.words(), "len {len}");
            let mut buf = vec![0.0f32; len];
            b.read_all_into(&mut buf);
            assert_eq!(decoded, buf, "len {len}");
        }
    }
}
