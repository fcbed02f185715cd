use crate::{XtsCipher, XtsError};
use std::ops::Range;

/// Bytes per AES block — the granularity at which a ciphertext error
/// garbles plaintext.
pub const BLOCK_BYTES: usize = 16;

/// `f32` weights per encryption block (4).
pub const WEIGHTS_PER_BLOCK: usize = BLOCK_BYTES / 4;

/// A weight buffer held as AES-XTS ciphertext — the *plaintext space /
/// ciphertext space* memory model of the paper's encrypted-VM scenario.
///
/// The weights live encrypted in (error-prone) main memory; inference
/// reads decrypt them. Faults and attacks flip *ciphertext* bits; after
/// decryption those become concentrated multi-bit plaintext errors
/// spanning whole weights, which SECDED-per-word cannot correct but MILR
/// can. Each 16-byte block is its own XTS data unit, indexed by its
/// block number (standing in for the physical address tweak of MKTME).
#[derive(Debug, Clone)]
pub struct EncryptedMemory {
    cipher: XtsCipher,
    ciphertext: Vec<u8>,
    /// Number of valid weights (the final block may be partially
    /// padded).
    len: usize,
}

impl EncryptedMemory {
    /// Encrypts a weight buffer. The buffer is padded with zeros to a
    /// whole number of 16-byte blocks.
    pub fn encrypt(weights: &[f32], cipher: XtsCipher) -> Self {
        let padded = weights.len().div_ceil(WEIGHTS_PER_BLOCK) * BLOCK_BYTES;
        let mut buf = Vec::with_capacity(padded);
        for w in weights {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf.resize(padded, 0);
        cipher.encrypt_blocks(&mut buf, 0);
        EncryptedMemory {
            cipher,
            ciphertext: buf,
            len: weights.len(),
        }
    }

    /// Reconstructs a memory from a raw ciphertext image (the
    /// persistence path: ciphertext round-trips through disk without a
    /// decrypt, preserving any in-flight error state bit-for-bit).
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] unless the image is exactly the
    /// whole blocks `len` weights occupy.
    pub fn from_ciphertext(
        ciphertext: Vec<u8>,
        len: usize,
        cipher: XtsCipher,
    ) -> Result<Self, XtsError> {
        if ciphertext.len() != len.div_ceil(WEIGHTS_PER_BLOCK) * BLOCK_BYTES {
            return Err(XtsError::BadLength {
                len: ciphertext.len(),
            });
        }
        Ok(EncryptedMemory {
            cipher,
            ciphertext,
            len,
        })
    }

    /// Replaces the stored ciphertext in place from a raw image of the
    /// same geometry (the peer-repair path: another replica's certified
    /// ciphertext overwrites this one's, bit for bit, without a
    /// decrypt).
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] when the image length differs
    /// from the stored ciphertext length.
    pub fn set_ciphertext(&mut self, ciphertext: &[u8]) -> Result<(), XtsError> {
        if ciphertext.len() != self.ciphertext.len() {
            return Err(XtsError::BadLength {
                len: ciphertext.len(),
            });
        }
        self.ciphertext.copy_from_slice(ciphertext);
        Ok(())
    }

    /// Number of stored weights.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no weights are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total ciphertext bits (the space over which RBER faults are
    /// drawn in the ciphertext-space experiments).
    pub fn ciphertext_bits(&self) -> usize {
        self.ciphertext.len() * 8
    }

    /// Raw ciphertext bytes.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// Flips one ciphertext bit, simulating a soft memory error or a
    /// memory-corruption attack on the encrypted VM's DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn flip_ciphertext_bit(&mut self, bit: usize) {
        assert!(bit < self.ciphertext_bits(), "bit index out of range");
        self.ciphertext[bit / 8] ^= 1 << (bit % 8);
    }

    /// The range of weight indices garbled by a fault in the given
    /// ciphertext bit: all weights sharing its 16-byte block.
    pub fn blast_radius(&self, bit: usize) -> std::ops::Range<usize> {
        let block = bit / 8 / BLOCK_BYTES;
        let start = block * WEIGHTS_PER_BLOCK;
        start.min(self.len)..((block + 1) * WEIGHTS_PER_BLOCK).min(self.len)
    }

    /// Decrypts the entire buffer into plaintext weights, as an
    /// inference pass (or MILR's detection pass) would observe them.
    pub fn decrypt_all(&self) -> Vec<f32> {
        let mut buf = self.ciphertext.to_vec();
        self.cipher.decrypt_blocks(&mut buf, 0);
        buf.chunks_exact(4)
            .take(self.len)
            .map(|b| f32::from_le_bytes(b.try_into().expect("chunk of 4")))
            .collect()
    }

    /// Re-encrypts a repaired weight buffer in place (MILR writing
    /// recovered parameters back through the memory-encryption engine).
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] if `weights.len()` differs from
    /// the stored length.
    pub fn overwrite(&mut self, weights: &[f32]) -> Result<(), XtsError> {
        if weights.len() != self.len {
            return Err(XtsError::BadLength { len: weights.len() });
        }
        *self = EncryptedMemory::encrypt(weights, self.cipher.clone());
        Ok(())
    }

    /// Re-encrypts only the blocks holding the given weights, leaving
    /// every untouched block's ciphertext — including any in-flight
    /// error state — bit-for-bit intact. Each run of consecutive touched
    /// blocks is decrypted with one [`XtsCipher::decrypt_blocks`] call,
    /// patched in its 4-byte lanes, and re-encrypted once; a weight
    /// listed twice takes its last value.
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] when an index is out of range.
    pub fn overwrite_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), XtsError> {
        for &(idx, _) in updates {
            if idx >= self.len {
                return Err(XtsError::BadLength { len: idx + 1 });
            }
        }
        let (cipher, ciphertext) = (&self.cipher, &mut self.ciphertext);
        for_each_block_run(updates, |blocks, run| {
            let buf = &mut ciphertext[blocks.start * BLOCK_BYTES..blocks.end * BLOCK_BYTES];
            cipher.decrypt_blocks(buf, blocks.start as u64);
            for &(idx, value) in run {
                let off = idx * 4 - blocks.start * BLOCK_BYTES;
                buf[off..off + 4].copy_from_slice(&value.to_le_bytes());
            }
            cipher.encrypt_blocks(buf, blocks.start as u64);
        });
        Ok(())
    }
}

/// Groups sparse weight updates by cipher block, for writers that must
/// re-encrypt whole blocks: sorts `updates` by index (stably, so a
/// weight listed twice keeps its last value last) and calls
/// `patch(blocks, run)` once per run of updates over consecutive blocks,
/// `blocks` being the range of block indices the run touches.
pub fn for_each_block_run(
    updates: &[(usize, f32)],
    mut patch: impl FnMut(Range<usize>, &[(usize, f32)]),
) {
    let mut sorted = updates.to_vec();
    sorted.sort_by_key(|&(idx, _)| idx);
    for run in sorted.chunk_by(|a, b| b.0 / WEIGHTS_PER_BLOCK <= a.0 / WEIGHTS_PER_BLOCK + 1) {
        let first = run[0].0 / WEIGHTS_PER_BLOCK;
        let last = run[run.len() - 1].0 / WEIGHTS_PER_BLOCK;
        patch(first..last + 1, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> XtsCipher {
        XtsCipher::new(&[0x0F; 16], &[0xF0; 16])
    }

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5 - 8.0).collect()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        for n in [1usize, 3, 4, 17, 64] {
            let w = weights(n);
            let mem = EncryptedMemory::encrypt(&w, cipher());
            assert_eq!(mem.len(), n);
            assert_eq!(mem.decrypt_all(), w);
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let w = weights(8);
        let mem = EncryptedMemory::encrypt(&w, cipher());
        let plain_bytes: Vec<u8> = w.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_ne!(mem.ciphertext(), &plain_bytes[..]);
    }

    #[test]
    fn one_ciphertext_bit_garbles_whole_block_of_weights() {
        let w = weights(12);
        let mut mem = EncryptedMemory::encrypt(&w, cipher());
        // Flip a bit in block 1 (weights 4..8).
        let bit = 17 * 8 + 3;
        mem.flip_ciphertext_bit(bit);
        assert_eq!(mem.blast_radius(bit), 4..8);
        let out = mem.decrypt_all();
        // Outside the block: intact. Inside: garbled (whole-weight
        // errors).
        assert_eq!(&out[0..4], &w[0..4]);
        assert_eq!(&out[8..12], &w[8..12]);
        let changed = out[4..8]
            .iter()
            .zip(w[4..8].iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed >= 3, "only {changed} of 4 block weights changed");
    }

    #[test]
    fn blast_radius_clamps_to_buffer_end() {
        let w = weights(5); // pads to 2 blocks, weights 4..8 mostly pad
        let mem = EncryptedMemory::encrypt(&w, cipher());
        let last_bit = mem.ciphertext_bits() - 1;
        assert_eq!(mem.blast_radius(last_bit), 4..5);
    }

    #[test]
    fn from_ciphertext_takes_exactly_the_padded_blocks() {
        let image = EncryptedMemory::encrypt(&weights(5), cipher())
            .ciphertext()
            .to_vec();
        for len in [5, 8] {
            let mem = EncryptedMemory::from_ciphertext(image.clone(), len, cipher()).unwrap();
            assert_eq!(mem.ciphertext_bits(), 2 * BLOCK_BYTES * 8);
        }
        for len in [4, 9] {
            assert_eq!(
                EncryptedMemory::from_ciphertext(image.clone(), len, cipher()).err(),
                Some(XtsError::BadLength { len: 32 }),
                "{len} weights"
            );
        }
    }

    #[test]
    fn overwrite_heals_corruption() {
        let w = weights(8);
        let mut mem = EncryptedMemory::encrypt(&w, cipher());
        mem.flip_ciphertext_bit(0);
        assert_ne!(mem.decrypt_all(), w);
        mem.overwrite(&w).unwrap();
        assert_eq!(mem.decrypt_all(), w);
        assert!(mem.overwrite(&weights(9)).is_err());
    }

    #[test]
    fn overwrite_sparse_rewrites_only_touched_blocks() {
        let w = weights(40);
        let mut mem = EncryptedMemory::encrypt(&w, cipher());
        mem.flip_ciphertext_bit(9 * 128 + 5); // block 9 is never touched
        let before = mem.ciphertext().to_vec();
        // Blocks 3, 0, 1, 0, 5: runs 0..2, 3..4 and 5..6; weight 2 is
        // listed twice and keeps its last value.
        let updates = [(13, 1.5), (2, -3.0), (5, 0.25), (2, 7.0), (21, 9.0)];
        mem.overwrite_sparse(&updates).unwrap();
        let mut want = w.clone();
        for &(i, v) in &updates {
            want[i] = v;
        }
        let seen = mem.decrypt_all();
        assert_eq!(&seen[..36], &want[..36]);
        assert_ne!(&seen[36..], &want[36..]);
        for b in [2, 4, 6, 7, 8, 9] {
            let block = b * BLOCK_BYTES..(b + 1) * BLOCK_BYTES;
            assert_eq!(mem.ciphertext()[block.clone()], before[block], "block {b}");
        }
        assert_eq!(
            mem.overwrite_sparse(&[(40, 0.0)]),
            Err(XtsError::BadLength { len: 41 })
        );
    }

    #[test]
    fn block_runs_group_consecutive_blocks() {
        let mut runs = Vec::new();
        for_each_block_run(
            &[(9, 0.0), (0, 1.0), (30, 2.0), (4, 3.0), (0, 4.0)],
            |b, run| runs.push((b, run.to_vec())),
        );
        assert_eq!(
            runs,
            vec![
                (0..3, vec![(0, 1.0), (0, 4.0), (4, 3.0), (9, 0.0)]),
                (7..8, vec![(30, 2.0)]),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bit_bounds_checked() {
        let mut mem = EncryptedMemory::encrypt(&weights(4), cipher());
        mem.flip_ciphertext_bit(mem.ciphertext_bits());
    }
}
