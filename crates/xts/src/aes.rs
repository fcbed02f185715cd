//! AES-128 block cipher, implemented from the FIPS-197 specification.
//!
//! This exists to model the memory-encryption engines (Intel MKTME / AMD
//! SEV) in whose *plaintext space* MILR operates: AES-XTS needs a real
//! block cipher so that a single ciphertext bit flip decrypts to an
//! unpredictable 128-bit garble, which is the error model that defeats
//! per-word SECDED and motivates MILR.
//!
//! Table-based, not constant-time — this is a simulator substrate, not a
//! production cryptographic library.
//!
//! # Kernel
//!
//! [`Aes128`] is the per-byte cipher of the specification: SubBytes,
//! ShiftRows and MixColumns as separate passes over the 16-byte state,
//! with `gmul` field multiplications in InvMixColumns. It is both the
//! portable path and the reference. The fast path is not here: on
//! x86_64 hosts with AES-NI, [`XtsCipher`](crate::XtsCipher)'s
//! `encrypt_blocks`/`decrypt_blocks` run the rounds in hardware, eight
//! blocks in flight, or sixteen with VAES, from the round keys this
//! type expands (DESIGN.md §15), and are proptested byte-equal to the
//! per-block path over this cipher.

/// AES S-box.
static SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const fn build_inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Inverse AES S-box, a compile-time constant derived from [`SBOX`].
static INV_SBOX: [u8; 256] = build_inv_sbox();

/// Multiplication by `x` in GF(2⁸) with the AES polynomial.
#[inline]
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1b } else { 0 })
}

/// GF(2⁸) multiplication.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// Expanded AES-128 key: the 11 round keys of the FIPS-197 schedule,
/// each in state byte order (byte `i` is row `i % 4`, column `i / 4`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon: u8 = 1;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// The expanded round keys, in state byte order — the layout the
    /// AES-NI instructions load.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State layout: byte `i` is row `i % 4`, column `i / 4` (FIPS-197
/// column-major order).
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[row + 4 * col] = s[row + 4 * ((col + row) % 4)];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[row + 4 * ((col + row) % 4)] = s[row + 4 * col];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let c = &mut state[4 * col..4 * col + 4];
        let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
        c[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        c[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        c[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        c[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let c = &mut state[4 * col..4 * col + 4];
        let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
        c[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
        c[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
        c[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
        c[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B worked example.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1 example vectors.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn gf_multiplication_basics() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn mix_columns_roundtrip() {
        let mut state: [u8; 16] = core::array::from_fn(|i| (i * 17 + 3) as u8);
        let original = state;
        mix_columns(&mut state);
        assert_ne!(state, original);
        inv_mix_columns(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn shift_rows_roundtrip() {
        let mut state: [u8; 16] = core::array::from_fn(|i| i as u8);
        let original = state;
        shift_rows(&mut state);
        inv_shift_rows(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn sbox_inverse_is_consistent() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    proptest! {
        #[test]
        fn encrypt_decrypt_roundtrip(
            key in proptest::array::uniform16(proptest::num::u8::ANY),
            plain in proptest::array::uniform16(proptest::num::u8::ANY),
        ) {
            let aes = Aes128::new(&key);
            let mut block = plain;
            aes.encrypt_block(&mut block);
            aes.decrypt_block(&mut block);
            prop_assert_eq!(block, plain);
        }

        #[test]
        fn avalanche_one_plaintext_bit(
            key in proptest::array::uniform16(proptest::num::u8::ANY),
            plain in proptest::array::uniform16(proptest::num::u8::ANY),
            bit in 0usize..128,
        ) {
            let aes = Aes128::new(&key);
            let mut a = plain;
            let mut b = plain;
            b[bit / 8] ^= 1 << (bit % 8);
            aes.encrypt_block(&mut a);
            aes.encrypt_block(&mut b);
            let diff: u32 = a.iter().zip(b.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            // Expect roughly half the 128 bits to differ; demand > 20.
            prop_assert!(diff > 20, "only {diff} bits differ");
        }
    }
}
