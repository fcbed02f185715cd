//! The AES-NI and VAES bodies of [`XtsCipher::encrypt_blocks`] and
//! [`XtsCipher::decrypt_blocks`](crate::XtsCipher::decrypt_blocks).
//!
//! Every 16-byte block is its own XTS data unit, so a block's tweak is
//! one AES encryption of its unit number and no tweak depends on
//! another block. That makes the blocks independent: eight are kept in
//! flight, first eight `aesenc` tweak chains, then eight data chains,
//! which hides the latency of each round instruction behind the other
//! seven. On hosts with VAES and AVX-512, whole 256-byte runs go four
//! `zmm` registers of four blocks each at a time, in the same order;
//! the 8-lane body takes the tail. Decryption uses the equivalent
//! inverse cipher (FIPS-197 §5.3.5) that `aesdec` implements, whose
//! round keys are derived once with `aesimc` when the cipher is built.
//!
//! [`XtsCipher::encrypt_blocks`]: crate::XtsCipher::encrypt_blocks

use crate::aes::Aes128;
use std::arch::x86_64::{
    __m128i, __m512i, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_set_epi64,
    _mm512_storeu_si512, _mm512_xor_si512, _mm_aesdec_si128, _mm_aesdeclast_si128,
    _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aesimc_si128, _mm_loadu_si128, _mm_set_epi64x,
    _mm_storeu_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

/// Blocks in flight per AES-NI batch.
const LANES: usize = 8;
/// Blocks per `zmm` register.
const ZMM_BLOCKS: usize = 4;
/// `zmm` registers in flight per VAES run.
const ZMM_LANES: usize = 4;
/// Bytes per VAES run: 16 blocks.
const RUN_BYTES: usize = 16 * ZMM_BLOCKS * ZMM_LANES;

/// True when the host has AES-NI, detected once per process.
pub(crate) fn available() -> bool {
    static HAS_AES: OnceLock<bool> = OnceLock::new();
    *HAS_AES.get_or_init(|| is_x86_feature_detected!("aes"))
}

/// True when the host also has VAES and AVX-512F, detected once per
/// process.
pub(crate) fn vaes_available() -> bool {
    static HAS_VAES: OnceLock<bool> = OnceLock::new();
    *HAS_VAES.get_or_init(|| {
        available() && is_x86_feature_detected!("vaes") && is_x86_feature_detected!("avx512f")
    })
}

/// The three round-key schedules of an XTS cipher, in registers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Keys {
    tweak: [__m128i; 11],
    data_enc: [__m128i; 11],
    /// Equivalent-inverse-cipher schedule: the encryption keys in
    /// reverse order, InvMixColumns applied to the nine inner ones.
    data_dec: [__m128i; 11],
}

impl Keys {
    /// Loads the expanded keys and derives the decryption schedule.
    ///
    /// # Safety
    ///
    /// The host must support AES-NI.
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn new(data_key: &Aes128, tweak_key: &Aes128) -> Keys {
        let load = |rk: &[[u8; 16]; 11]| {
            // SAFETY: each round key is 16 readable bytes; the load is
            // unaligned.
            rk.map(|k| unsafe { _mm_loadu_si128(k.as_ptr().cast()) })
        };
        let data_enc = load(data_key.round_keys());
        let mut data_dec = [data_enc[10]; 11];
        for r in 1..10 {
            data_dec[r] = _mm_aesimc_si128(data_enc[10 - r]);
        }
        data_dec[10] = data_enc[0];
        Keys {
            tweak: load(tweak_key.round_keys()),
            data_enc,
            data_dec,
        }
    }

    /// Encrypts (`ENCRYPT`) or decrypts whole 16-byte blocks in place,
    /// block `i` as data unit `first_unit + i` (wrapping), eight blocks
    /// in flight.
    ///
    /// # Safety
    ///
    /// The host must support AES-NI, and `data.len()` must be a multiple
    /// of 16.
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn blocks<const ENCRYPT: bool>(&self, data: &mut [u8], first_unit: u64) {
        debug_assert!(data.len().is_multiple_of(16));
        let mut unit = first_unit;
        let mut batches = data.chunks_exact_mut(16 * LANES);
        for batch in &mut batches {
            self.batch::<ENCRYPT, LANES>(batch, unit);
            unit = unit.wrapping_add(LANES as u64);
        }
        for block in batches.into_remainder().chunks_exact_mut(16) {
            self.batch::<ENCRYPT, 1>(block, unit);
            unit = unit.wrapping_add(1);
        }
    }

    /// `N` blocks through the tweak and data chains together.
    #[target_feature(enable = "aes")]
    #[inline]
    fn batch<const ENCRYPT: bool, const N: usize>(&self, blocks: &mut [u8], first_unit: u64) {
        assert_eq!(blocks.len(), 16 * N);
        let ptr = |i: usize| blocks[16 * i..].as_ptr().cast::<__m128i>();
        // Initial tweak of unit u: AES_tweak(u as 16 little-endian bytes).
        let mut tweak: [__m128i; N] = std::array::from_fn(|i| {
            let unit = first_unit.wrapping_add(i as u64);
            _mm_xor_si128(_mm_set_epi64x(0, unit as i64), self.tweak[0])
        });
        for rk in &self.tweak[1..10] {
            for t in &mut tweak {
                *t = _mm_aesenc_si128(*t, *rk);
            }
        }
        for t in &mut tweak {
            *t = _mm_aesenclast_si128(*t, self.tweak[10]);
        }
        let keys = if ENCRYPT {
            &self.data_enc
        } else {
            &self.data_dec
        };
        // SAFETY: `ptr(i)` addresses block i of `blocks`, which holds N
        // blocks; the load is unaligned.
        let mut state: [__m128i; N] = std::array::from_fn(|i| unsafe {
            _mm_xor_si128(_mm_xor_si128(_mm_loadu_si128(ptr(i)), tweak[i]), keys[0])
        });
        for rk in &keys[1..10] {
            for s in &mut state {
                *s = if ENCRYPT {
                    _mm_aesenc_si128(*s, *rk)
                } else {
                    _mm_aesdec_si128(*s, *rk)
                };
            }
        }
        for (i, s) in state.iter().enumerate() {
            let out = if ENCRYPT {
                _mm_aesenclast_si128(*s, keys[10])
            } else {
                _mm_aesdeclast_si128(*s, keys[10])
            };
            // SAFETY: block i lies inside `blocks`; the store is
            // unaligned.
            unsafe {
                _mm_storeu_si128(
                    blocks[16 * i..].as_mut_ptr().cast(),
                    _mm_xor_si128(out, tweak[i]),
                )
            };
        }
    }

    /// [`Keys::blocks`] with every whole 256-byte run on VAES: four
    /// `zmm` tweak chains, then four data chains, of four blocks each.
    /// The AES-NI body takes the tail.
    ///
    /// # Safety
    ///
    /// The host must support AES-NI, VAES and AVX-512F, and
    /// `data.len()` must be a multiple of 16.
    #[target_feature(enable = "aes,vaes,avx512f")]
    pub(crate) unsafe fn blocks_vaes<const ENCRYPT: bool>(&self, data: &mut [u8], first_unit: u64) {
        debug_assert!(data.len().is_multiple_of(16));
        let wide = |keys: &[__m128i; 11]| keys.map(|k| _mm512_broadcast_i32x4(k));
        let tweak_keys = wide(&self.tweak);
        let data_keys = wide(if ENCRYPT {
            &self.data_enc
        } else {
            &self.data_dec
        });
        let mut unit = first_unit;
        let mut runs = data.chunks_exact_mut(RUN_BYTES);
        for run in &mut runs {
            Self::run::<ENCRYPT>(&tweak_keys, &data_keys, run, unit);
            unit = unit.wrapping_add((ZMM_BLOCKS * ZMM_LANES) as u64);
        }
        // SAFETY: AES-NI is part of this body's contract; the remainder
        // is whole blocks.
        unsafe { self.blocks::<ENCRYPT>(runs.into_remainder(), unit) };
    }

    /// One 256-byte run through the tweak and data chains together.
    #[target_feature(enable = "aes,vaes,avx512f")]
    #[inline]
    fn run<const ENCRYPT: bool>(
        tweak_keys: &[__m512i; 11],
        keys: &[__m512i; 11],
        run: &mut [u8],
        first_unit: u64,
    ) {
        assert_eq!(run.len(), RUN_BYTES);
        // Initial tweak of unit u: AES_tweak(u as 16 little-endian bytes),
        // four units per register, the lowest in the low lane.
        let mut tweak: [__m512i; ZMM_LANES] = std::array::from_fn(|i| {
            let unit = |j: usize| first_unit.wrapping_add((ZMM_BLOCKS * i + j) as u64) as i64;
            let units = _mm512_set_epi64(0, unit(3), 0, unit(2), 0, unit(1), 0, unit(0));
            _mm512_xor_si512(units, tweak_keys[0])
        });
        for rk in &tweak_keys[1..10] {
            for t in &mut tweak {
                *t = _mm512_aesenc_epi128(*t, *rk);
            }
        }
        for t in &mut tweak {
            *t = _mm512_aesenclast_epi128(*t, tweak_keys[10]);
        }
        let ptr = |i: usize| run[64 * i..].as_ptr();
        // SAFETY: `ptr(i)` addresses bytes 64i..64i + 64 of `run`, which
        // holds RUN_BYTES; the load is unaligned.
        let mut state: [__m512i; ZMM_LANES] = std::array::from_fn(|i| unsafe {
            _mm512_xor_si512(
                _mm512_xor_si512(_mm512_loadu_si512(ptr(i).cast()), tweak[i]),
                keys[0],
            )
        });
        for rk in &keys[1..10] {
            for s in &mut state {
                *s = if ENCRYPT {
                    _mm512_aesenc_epi128(*s, *rk)
                } else {
                    _mm512_aesdec_epi128(*s, *rk)
                };
            }
        }
        for (i, s) in state.iter().enumerate() {
            let out = if ENCRYPT {
                _mm512_aesenclast_epi128(*s, keys[10])
            } else {
                _mm512_aesdeclast_epi128(*s, keys[10])
            };
            // SAFETY: bytes 64i..64i + 64 lie inside `run`; the store is
            // unaligned.
            unsafe {
                _mm512_storeu_si512(
                    run[64 * i..].as_mut_ptr().cast(),
                    _mm512_xor_si512(out, tweak[i]),
                )
            };
        }
    }
}
