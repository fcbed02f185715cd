//! Table-driven cyclic redundancy checks.
//!
//! MILR's 2-D error coding (paper §IV-B-c) computes CRCs over sets of 4
//! parameters with CRC-32 (IEEE, reflected 0xEDB88320), the code used by
//! [`Crc2d`](crate::Crc2d).
//!
//! # Kernels
//!
//! CRC-32 runs slice-by-8: eight 256-entry tables consume
//! 8 input bytes per iteration, turning the byte-serial table walk into
//! eight independent lookups the CPU can overlap (the classic Intel
//! "slicing-by-8" construction — CRC tables are GF(2)-linear, so
//! `T[x ^ y] = T[x] ^ T[y]` and the per-byte dependency chain folds into
//! one XOR tree per block). The original byte-serial implementation
//! lives in [`scalar`] and stay the bit-equivalence
//! reference for tests and `kernel_bench`.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 hasher.
///
/// ```
/// use milr_ecc::{crc32, Crc32Hasher};
///
/// let mut h = Crc32Hasher::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), crc32(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32Hasher {
    state: u32,
}

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing tables: `T[0]` is the classic byte table; `T[k][b]` advances
/// `T[k-1][b]` by one zero byte, so `T[k][b]` is the CRC contribution of
/// byte `b` seen `k` positions before the end of an 8-byte block.
const fn build_crc32_slices() -> [[u32; 256]; 8] {
    let t0 = build_crc32_table();
    let mut slices = [[0u32; 256]; 8];
    slices[0] = t0;
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = slices[k - 1][b];
            slices[k][b] = (prev >> 8) ^ t0[(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    slices
}

static CRC32_SLICES: [[u32; 256]; 8] = build_crc32_slices();

impl Crc32Hasher {
    /// Creates a hasher with the standard initial state.
    pub fn new() -> Self {
        Crc32Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the hasher.
    ///
    /// Processes 8 bytes per iteration via slice-by-8; the sub-8-byte
    /// tail falls back to the single-table step.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC32_SLICES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][chunk[4] as usize]
                ^ t[2][chunk[5] as usize]
                ^ t[1][chunk[6] as usize]
                ^ t[0][chunk[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finishes and returns the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32Hasher {
    fn default() -> Self {
        Crc32Hasher::new()
    }
}

/// Scalar reference kernels.
///
/// Bit-for-bit definition of the CRC primitive, kept as the ground
/// truth the optimized kernel is proptested against and as the
/// baseline side of `kernel_bench`.
pub mod scalar {
    static CRC32_TABLE: [u32; 256] = super::build_crc32_table();

    /// Byte-at-a-time single-table CRC-32 (reference).
    pub fn crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0usize, 1, 10, data.len()] {
            let mut h = Crc32Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data));
        }
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Crc32Hasher::default(), Crc32Hasher::new());
    }

    proptest! {
        #[test]
        fn single_bit_flip_changes_crc32(
            data in proptest::collection::vec(proptest::num::u8::ANY, 1..64),
            flip in 0usize..512,
        ) {
            let mut corrupted = data.clone();
            let bit = flip % (data.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc32(&data), crc32(&corrupted));
        }

        #[test]
        fn crc_is_deterministic(data in proptest::collection::vec(proptest::num::u8::ANY, 0..64)) {
            prop_assert_eq!(crc32(&data), crc32(&data));
        }

        // Bit-equivalence: the slice-by-8 / table kernels must match the
        // scalar references on arbitrary inputs, including lengths that
        // exercise both the 8-byte body and every tail length.
        #[test]
        fn optimized_matches_scalar(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..257),
        ) {
            prop_assert_eq!(crc32(&data), scalar::crc32(&data));
        }

        // Incremental updates with arbitrary split points must agree with
        // the one-shot kernel (split may land mid-8-byte-block).
        #[test]
        fn incremental_split_equivalence(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..128),
            split in 0usize..128,
        ) {
            let split = split.min(data.len());
            let mut h = Crc32Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), scalar::crc32(&data));
        }
    }
}
