use crate::aes::Aes128;
#[cfg(target_arch = "x86_64")]
use crate::aesni;
use std::fmt;

/// Bytes per AES block — the granularity at which a ciphertext error
/// garbles plaintext.
pub const BLOCK_BYTES: usize = 16;

/// Errors from the XTS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XtsError {
    /// Data length is not a positive multiple of the 16-byte block size.
    BadLength {
        /// Offending length in bytes.
        len: usize,
    },
}

impl fmt::Display for XtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XtsError::BadLength { len } => write!(
                f,
                "data length {len} is not a positive multiple of 16 bytes"
            ),
        }
    }
}

impl std::error::Error for XtsError {}

/// A body [`XtsCipher::encrypt_blocks`] and [`XtsCipher::decrypt_blocks`]
/// can run on. Every body returns the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XtsBody {
    /// One data unit at a time on the per-byte FIPS-197 cipher.
    Portable,
    /// AES-NI, eight blocks in flight.
    AesNi,
    /// VAES over AVX-512, sixteen blocks in flight in four `zmm`
    /// registers; the AES-NI body takes the tail of a call.
    Vaes,
}

impl XtsBody {
    /// The body's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            XtsBody::Portable => "portable",
            XtsBody::AesNi => "aes-ni",
            XtsBody::Vaes => "vaes",
        }
    }
}

/// XTS-AES-128 tweakable block cipher (IEEE 1619), the mode used by
/// Intel MKTME and AMD SEV memory encryption (paper Fig. 1).
///
/// Each *data unit* (here: a run of 16-byte blocks sharing a tweak
/// index, like a cache line or sector) is encrypted with a tweak derived
/// from its address, so identical plaintext at different addresses yields
/// different ciphertext. The property MILR cares about: ciphertext and
/// plaintext are related by a full-block permutation, so **one flipped
/// ciphertext bit decrypts to ~64 flipped plaintext bits confined to one
/// 16-byte block** — a whole-weight error in each of the four `f32`
/// parameters sharing that block.
#[derive(Debug, Clone)]
pub struct XtsCipher {
    data_key: Aes128,
    tweak_key: Aes128,
    /// The same keys in AES-NI registers, when the host has AES-NI.
    #[cfg(target_arch = "x86_64")]
    aesni: Option<aesni::Keys>,
}

impl XtsCipher {
    /// Creates a cipher from the two XTS keys.
    pub fn new(data_key: &[u8; 16], tweak_key: &[u8; 16]) -> Self {
        let data_key = Aes128::new(data_key);
        let tweak_key = Aes128::new(tweak_key);
        XtsCipher {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: built only after detecting AES-NI.
            aesni: aesni::available().then(|| unsafe { aesni::Keys::new(&data_key, &tweak_key) }),
            data_key,
            tweak_key,
        }
    }

    /// The body [`XtsCipher::encrypt_blocks`] and
    /// [`XtsCipher::decrypt_blocks`] run on: the fastest the host
    /// supports, detected once per process.
    pub fn body(&self) -> XtsBody {
        #[cfg(target_arch = "x86_64")]
        if self.aesni.is_some() {
            return if aesni::vaes_available() {
                XtsBody::Vaes
            } else {
                XtsBody::AesNi
            };
        }
        XtsBody::Portable
    }

    fn initial_tweak(&self, unit: u64) -> [u8; 16] {
        let mut t = [0u8; 16];
        t[..8].copy_from_slice(&unit.to_le_bytes());
        self.tweak_key.encrypt_block(&mut t);
        t
    }

    /// Multiplies the tweak by α in GF(2¹²⁸) (little-endian convention).
    fn bump_tweak(t: &mut [u8; 16]) {
        let mut carry = 0u8;
        for b in t.iter_mut() {
            let next_carry = *b >> 7;
            *b = (*b << 1) | carry;
            carry = next_carry;
        }
        if carry != 0 {
            t[0] ^= 0x87;
        }
    }

    /// Encrypts a data unit in place.
    ///
    /// This is the IEEE 1619 multi-block path, run on the FIPS-197
    /// per-byte cipher on every host; it is the reference the batched
    /// [`XtsCipher::encrypt_blocks`] is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] unless `data.len()` is a positive
    /// multiple of 16 (ciphertext stealing is not needed for the aligned
    /// weight buffers this models).
    pub fn encrypt_unit(&self, data: &mut [u8], unit: u64) -> Result<(), XtsError> {
        self.process_unit(data, unit, true)
    }

    /// Decrypts a data unit in place.
    ///
    /// # Errors
    ///
    /// Returns [`XtsError::BadLength`] unless `data.len()` is a positive
    /// multiple of 16.
    pub fn decrypt_unit(&self, data: &mut [u8], unit: u64) -> Result<(), XtsError> {
        self.process_unit(data, unit, false)
    }

    fn process_unit(&self, data: &mut [u8], unit: u64, encrypt: bool) -> Result<(), XtsError> {
        if data.is_empty() || !data.len().is_multiple_of(16) {
            return Err(XtsError::BadLength { len: data.len() });
        }
        self.process_whole_blocks(data, unit, encrypt);
        Ok(())
    }

    /// One data unit over `data`, a whole number of blocks.
    fn process_whole_blocks(&self, data: &mut [u8], unit: u64, encrypt: bool) {
        let mut tweak = self.initial_tweak(unit);
        for block in data.chunks_mut(16) {
            let mut buf: [u8; 16] = block.try_into().expect("chunk is 16 bytes");
            for (b, t) in buf.iter_mut().zip(tweak.iter()) {
                *b ^= t;
            }
            if encrypt {
                self.data_key.encrypt_block(&mut buf);
            } else {
                self.data_key.decrypt_block(&mut buf);
            }
            for (b, t) in buf.iter_mut().zip(tweak.iter()) {
                *b ^= t;
            }
            block.copy_from_slice(&buf);
            Self::bump_tweak(&mut tweak);
        }
    }

    /// Encrypts whole 16-byte blocks in place, block `i` as its own data
    /// unit `first_unit + i` (wrapping) — the layout of every weight
    /// memory. Byte-identical to calling [`XtsCipher::encrypt_unit`] on
    /// each block; on x86_64 hosts with AES-NI the rounds run in
    /// hardware, eight blocks in flight, or sixteen with VAES (see
    /// [`XtsBody`]).
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16 (empty is fine).
    pub fn encrypt_blocks(&self, data: &mut [u8], first_unit: u64) {
        self.blocks::<true>(data, first_unit);
    }

    /// Decrypts whole 16-byte blocks in place, block `i` as its own data
    /// unit `first_unit + i` (wrapping); the inverse of
    /// [`XtsCipher::encrypt_blocks`].
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16 (empty is fine).
    pub fn decrypt_blocks(&self, data: &mut [u8], first_unit: u64) {
        self.blocks::<false>(data, first_unit);
    }

    /// [`XtsCipher::decrypt_blocks`] on `body` rather than the
    /// dispatched one, for measuring one body against another. Returns
    /// false, with nothing touched, when the host cannot run `body`.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16 (empty is fine).
    pub fn decrypt_blocks_on(&self, body: XtsBody, data: &mut [u8], first_unit: u64) -> bool {
        self.blocks_on::<false>(body, data, first_unit)
    }

    fn blocks<const ENCRYPT: bool>(&self, data: &mut [u8], first_unit: u64) {
        let ran = self.blocks_on::<ENCRYPT>(self.body(), data, first_unit);
        debug_assert!(ran, "the dispatched body runs on this host");
    }

    fn blocks_on<const ENCRYPT: bool>(
        &self,
        body: XtsBody,
        data: &mut [u8],
        first_unit: u64,
    ) -> bool {
        assert!(
            data.len().is_multiple_of(16),
            "data length {} is not a multiple of 16 bytes",
            data.len()
        );
        match body {
            XtsBody::Portable => self.blocks_portable(data, first_unit, ENCRYPT),
            #[cfg(target_arch = "x86_64")]
            XtsBody::AesNi => match &self.aesni {
                // SAFETY: `aesni` is set only on hosts with AES-NI, and
                // the length is checked above.
                Some(keys) => unsafe { keys.blocks::<ENCRYPT>(data, first_unit) },
                None => return false,
            },
            #[cfg(target_arch = "x86_64")]
            XtsBody::Vaes => match &self.aesni {
                // SAFETY: `aesni` is set only on hosts with AES-NI, VAES
                // and AVX-512F are detected here, and the length is
                // checked above.
                Some(keys) if aesni::vaes_available() => unsafe {
                    keys.blocks_vaes::<ENCRYPT>(data, first_unit)
                },
                _ => return false,
            },
            #[cfg(not(target_arch = "x86_64"))]
            XtsBody::AesNi | XtsBody::Vaes => return false,
        }
        true
    }

    /// The per-block path over the FIPS-197 cipher.
    fn blocks_portable(&self, data: &mut [u8], first_unit: u64, encrypt: bool) {
        for (i, block) in data.chunks_exact_mut(16).enumerate() {
            self.process_whole_blocks(block, first_unit.wrapping_add(i as u64), encrypt);
        }
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
    fn ieee1619_vector_1() {
        // IEEE 1619-2007 XTS-AES-128 Vector 1: all-zero keys, unit 0,
        // 32 zero bytes.
        let cipher = XtsCipher::new(&[0u8; 16], &[0u8; 16]);
        let mut data = vec![0u8; 32];
        cipher.encrypt_unit(&mut data, 0).unwrap();
        assert_eq!(
            data,
            hex("917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e")
        );
        cipher.decrypt_unit(&mut data, 0).unwrap();
        assert_eq!(data, vec![0u8; 32]);
    }

    #[test]
    fn ieee1619_vector_2() {
        // IEEE 1619-2007 Vector 2: unit 0x3333333333, repeated 0x44 keys.
        let key1: [u8; 16] = hex("11111111111111111111111111111111").try_into().unwrap();
        let key2: [u8; 16] = hex("22222222222222222222222222222222").try_into().unwrap();
        let cipher = XtsCipher::new(&key1, &key2);
        let mut data = hex("4444444444444444444444444444444444444444444444444444444444444444");
        cipher.encrypt_unit(&mut data, 0x3333333333).unwrap();
        assert_eq!(
            data,
            hex("c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0")
        );
    }

    #[test]
    fn rejects_bad_lengths() {
        let cipher = XtsCipher::new(&[0u8; 16], &[1u8; 16]);
        let mut empty: Vec<u8> = vec![];
        assert!(cipher.encrypt_unit(&mut empty, 0).is_err());
        let mut odd = vec![0u8; 15];
        assert!(matches!(
            cipher.decrypt_unit(&mut odd, 0),
            Err(XtsError::BadLength { len: 15 })
        ));
    }

    #[test]
    fn different_units_give_different_ciphertext() {
        let cipher = XtsCipher::new(&[7u8; 16], &[9u8; 16]);
        let mut a = vec![0xAB; 16];
        let mut b = vec![0xAB; 16];
        cipher.encrypt_unit(&mut a, 1).unwrap();
        cipher.encrypt_unit(&mut b, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn ciphertext_bit_flip_garbles_exactly_one_block() {
        let cipher = XtsCipher::new(&[3u8; 16], &[5u8; 16]);
        let plain: Vec<u8> = (0..48).collect();
        let mut data = plain.clone();
        cipher.encrypt_unit(&mut data, 9).unwrap();
        // Flip one bit in the middle block of the ciphertext.
        data[20] ^= 0x10;
        cipher.decrypt_unit(&mut data, 9).unwrap();
        // Block 0 and block 2 are untouched; block 1 is heavily garbled.
        assert_eq!(&data[0..16], &plain[0..16]);
        assert_eq!(&data[32..48], &plain[32..48]);
        let diff: u32 = data[16..32]
            .iter()
            .zip(plain[16..32].iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(diff > 20, "plaintext garble too small: {diff} bits");
    }

    #[test]
    fn blocks_reject_partial_blocks_and_accept_empty() {
        let cipher = XtsCipher::new(&[0u8; 16], &[1u8; 16]);
        cipher.encrypt_blocks(&mut [], 3);
        let partial = std::panic::catch_unwind(|| cipher.decrypt_blocks(&mut [0u8; 24], 0));
        assert!(partial.is_err());
    }

    /// The portable and AES-NI bodies on the same buffers, called
    /// directly: `encrypt_blocks` itself always dispatches to AES-NI on
    /// a host that has it, so this is where the portable body is
    /// compared against it there.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_aesni_bodies_agree() {
        if !aesni::available() {
            eprintln!("host has no AES-NI; the dispatched path is the portable body");
            return;
        }
        let cipher = XtsCipher::new(b"portable-vs-ni-1", b"portable-vs-ni-2");
        let keys = cipher.aesni.expect("AES-NI keys on an AES-NI host");
        for (blocks, first_unit) in [(1usize, 0u64), (7, 5), (8, 1 << 40), (19, u64::MAX - 3)] {
            let plain: Vec<u8> = (0..blocks * 16).map(|i| (i * 73 + 11) as u8).collect();
            let mut portable = plain.clone();
            let mut ni = plain.clone();
            cipher.blocks_portable(&mut portable, first_unit, true);
            // SAFETY: AES-NI detected above; whole blocks.
            unsafe { keys.blocks::<true>(&mut ni, first_unit) };
            assert_eq!(portable, ni, "encrypt, {blocks} blocks");
            cipher.blocks_portable(&mut portable, first_unit, false);
            // SAFETY: as above.
            unsafe { keys.blocks::<false>(&mut ni, first_unit) };
            assert_eq!(portable, ni, "decrypt, {blocks} blocks");
            assert_eq!(ni, plain);
        }
    }

    /// The VAES body called directly against one `*_unit` call per
    /// block, over 0–40 blocks so whole 16-block runs and both tails
    /// (the 8-lane batch and single blocks) run, with unit numbers that
    /// wrap past `u64::MAX`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vaes_body_matches_per_block_units() {
        if !aesni::vaes_available() {
            eprintln!("host lacks VAES or AVX-512F; the VAES body is not run");
            return;
        }
        let cipher = XtsCipher::new(b"vaes-vs-units--1", b"vaes-vs-units--2");
        assert_eq!(cipher.body(), XtsBody::Vaes);
        let keys = cipher.aesni.expect("AES-NI keys on a VAES host");
        for blocks in 0..=40usize {
            for first_unit in [0u64, 1 << 33, u64::MAX - 20, u64::MAX] {
                let plain: Vec<u8> = (0..blocks * 16).map(|i| (i * 37 + blocks) as u8).collect();
                let mut reference = plain.clone();
                for (i, block) in reference.chunks_exact_mut(16).enumerate() {
                    let unit = first_unit.wrapping_add(i as u64);
                    cipher.encrypt_unit(block, unit).unwrap();
                }
                let mut vaes = plain.clone();
                // SAFETY: VAES, AVX-512F and AES-NI detected above; whole
                // blocks.
                unsafe { keys.blocks_vaes::<true>(&mut vaes, first_unit) };
                assert_eq!(
                    vaes, reference,
                    "encrypt, {blocks} blocks from {first_unit}"
                );
                for (i, block) in reference.chunks_exact_mut(16).enumerate() {
                    let unit = first_unit.wrapping_add(i as u64);
                    cipher.decrypt_unit(block, unit).unwrap();
                }
                // SAFETY: as above.
                unsafe { keys.blocks_vaes::<false>(&mut vaes, first_unit) };
                assert_eq!(
                    vaes, reference,
                    "decrypt, {blocks} blocks from {first_unit}"
                );
                assert_eq!(vaes, plain);
            }
        }
    }

    #[test]
    fn every_body_decrypts_alike() {
        let cipher = XtsCipher::new(b"bodies-agree---1", b"bodies-agree---2");
        let plain: Vec<u8> = (0..37 * 16).map(|i| (i * 11) as u8).collect();
        let mut sealed = plain.clone();
        cipher.encrypt_blocks(&mut sealed, u64::MAX - 5);
        for body in [XtsBody::Portable, XtsBody::AesNi, XtsBody::Vaes] {
            let mut data = sealed.clone();
            if cipher.decrypt_blocks_on(body, &mut data, u64::MAX - 5) {
                assert_eq!(data, plain, "{}", body.name());
            } else {
                assert_eq!(data, sealed, "{}: untouched when not run", body.name());
                eprintln!("host cannot run the {} body; not compared", body.name());
            }
        }
    }

    proptest! {
        // The batched API against one `*_unit` call per block, over
        // 1..=33 blocks so the dispatched body's batches (16-block VAES
        // runs, 8-block AES-NI batches) and its shorter tails run, with
        // unit numbers that may wrap.
        #[test]
        fn blocks_match_per_block_units(
            key1 in proptest::array::uniform16(proptest::num::u8::ANY),
            key2 in proptest::array::uniform16(proptest::num::u8::ANY),
            blocks in 1usize..34,
            first_unit in proptest::num::u64::ANY,
            seed in proptest::num::u8::ANY,
        ) {
            let cipher = XtsCipher::new(&key1, &key2);
            let plain: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed)).collect();
            let mut batched = plain.clone();
            cipher.encrypt_blocks(&mut batched, first_unit);
            let mut reference = plain.clone();
            for (i, block) in reference.chunks_exact_mut(16).enumerate() {
                cipher.encrypt_unit(block, first_unit.wrapping_add(i as u64)).unwrap();
            }
            prop_assert_eq!(&batched, &reference);
            // Decrypt a ciphertext with a garbled block, as a read of
            // faulted memory would.
            batched[7] ^= 0x20;
            reference[7] ^= 0x20;
            cipher.decrypt_blocks(&mut batched, first_unit);
            for (i, block) in reference.chunks_exact_mut(16).enumerate() {
                cipher.decrypt_unit(block, first_unit.wrapping_add(i as u64)).unwrap();
            }
            prop_assert_eq!(&batched, &reference);
            prop_assert_eq!(&batched[16..], &plain[16..]);
        }

        #[test]
        fn roundtrip_any_unit(
            key1 in proptest::array::uniform16(proptest::num::u8::ANY),
            key2 in proptest::array::uniform16(proptest::num::u8::ANY),
            blocks in 1usize..5,
            unit in proptest::num::u64::ANY,
            seed in proptest::num::u8::ANY,
        ) {
            let cipher = XtsCipher::new(&key1, &key2);
            let plain: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
            let mut data = plain.clone();
            cipher.encrypt_unit(&mut data, unit).unwrap();
            prop_assert_ne!(&data, &plain);
            cipher.decrypt_unit(&mut data, unit).unwrap();
            prop_assert_eq!(data, plain);
        }
    }
}
