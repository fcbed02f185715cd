/// Single-error-correcting, double-error-detecting Hamming code (39,32).
///
/// The code word layout follows the classic extended Hamming
/// construction: bit positions `1..=38` hold parity bits at the powers of
/// two (1, 2, 4, 8, 16, 32) and data bits elsewhere; bit position 0 holds
/// the overall parity covering every other bit. Seven check bits protect
/// 32 data bits, matching the paper's "(39,32) code … 7 additional ECC
/// bits for each 32-bit word" (§V-A).
///
/// # Kernel
///
/// Encode and decode are word-parallel over the `u64` holding the code
/// word: the six Hamming parities are `popcount(word & MASK)` against
/// precomputed position masks, and the data bits scatter/gather through
/// five shift-and-mask moves exploiting the fact that the non-power-of-two
/// positions form exactly five contiguous runs (`3`, `5..=7`, `9..=15`,
/// `17..=31`, `33..=38`). No per-bit loops, no rebuilt position iterators.
/// The original bit-serial implementation survives in
/// [`scalar`](crate::scalar) as the bit-equivalence reference.
///
/// The type is a namespace: both operations are stateless associated
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secded;

/// Outcome of decoding a 39-bit SECDED code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// Code word was clean; data extracted.
    Clean {
        /// The stored 32-bit word.
        data: u32,
    },
    /// A single-bit error was detected and corrected.
    Corrected {
        /// The corrected 32-bit word.
        data: u32,
        /// Code-word bit position (0..39) that was repaired.
        bit: u8,
    },
    /// A double-bit error was detected; `data` is the best-effort
    /// (uncorrected) extraction. The paper's baseline raises no
    /// interrupt in this case, so the corrupted data flows onward —
    /// exactly how the evaluation treats multi-bit words.
    DoubleError {
        /// Best-effort extraction of the (still corrupt) data bits.
        data: u32,
    },
}

impl DecodeOutcome {
    /// The carried data word regardless of outcome.
    pub fn data(&self) -> u32 {
        match *self {
            DecodeOutcome::Clean { data }
            | DecodeOutcome::Corrected { data, .. }
            | DecodeOutcome::DoubleError { data } => data,
        }
    }

    /// True unless a double error was detected.
    pub fn is_reliable(&self) -> bool {
        !matches!(self, DecodeOutcome::DoubleError { .. })
    }
}

/// All 39 valid code-word bits.
const CODE_MASK: u64 = (1u64 << 39) - 1;

const fn build_data_positions() -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut i = 0;
    let mut pos = 1u32;
    while pos < 39 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

/// Hot-loop alias of [`Secded::PARITY_MASKS`]: one table in static
/// memory instead of six inlined immediates per call site.
static PARITY_MASKS: [u64; 6] = Secded::PARITY_MASKS;

const fn build_parity_masks() -> [u64; 6] {
    let mut masks = [0u64; 6];
    let mut j = 0;
    while j < 6 {
        let p = 1u32 << j;
        let mut pos = 1u32;
        while pos < 39 {
            if pos & p != 0 {
                masks[j] |= 1u64 << pos;
            }
            pos += 1;
        }
        j += 1;
    }
    masks
}

impl Secded {
    /// Number of bits in a code word.
    pub const CODE_BITS: u32 = 39;
    /// Number of data bits per code word.
    pub const DATA_BITS: u32 = 32;
    /// Check bits per code word (Hamming + overall parity).
    pub const CHECK_BITS: u32 = 7;
    /// Data-bit positions (non powers of two in `1..=38`), in data-bit
    /// order — precomputed once at compile time instead of the old
    /// per-word iterator rebuild.
    pub const DATA_POSITIONS: [u32; 32] = build_data_positions();
    /// `PARITY_MASKS[j]` selects every code-word position in `1..=38`
    /// whose index has bit `j` set — the coverage set of Hamming parity
    /// `2^j`.
    pub const PARITY_MASKS: [u64; 6] = build_parity_masks();

    /// Scatters 32 data bits into the non-power-of-two code positions.
    ///
    /// The five contiguous data runs make this five shift/mask moves.
    #[inline]
    fn scatter(data: u32) -> u64 {
        let d = data as u64;
        ((d & 0x1) << 3)
            | (((d >> 1) & 0x7) << 5)
            | (((d >> 4) & 0x7F) << 9)
            | (((d >> 11) & 0x7FFF) << 17)
            | (((d >> 26) & 0x3F) << 33)
    }

    /// Gathers the 32 data bits back out of a code word (inverse of
    /// [`Secded::scatter`]).
    #[inline]
    fn extract(word: u64) -> u32 {
        (((word >> 3) & 0x1)
            | (((word >> 5) & 0x7) << 1)
            | (((word >> 9) & 0x7F) << 4)
            | (((word >> 17) & 0x7FFF) << 11)
            | (((word >> 33) & 0x3F) << 26)) as u32
    }

    /// Encodes a 32-bit word into a 39-bit code word (stored in the low
    /// bits of a `u64`).
    #[inline]
    pub fn encode(data: u32) -> u64 {
        let mut word = Self::scatter(data);
        // Hamming parities: each mask excludes all power-of-two
        // positions except its own (position 2^j has only bit j set), so
        // the six parities are independent of evaluation order.
        let mut j = 0;
        while j < 6 {
            let parity = ((word & PARITY_MASKS[j]).count_ones() & 1) as u64;
            word |= parity << (1u32 << j);
            j += 1;
        }
        // Overall parity at position 0 covers positions 1..=38; bit 0 is
        // still clear, so it is the whole word's population parity.
        word | (word.count_ones() & 1) as u64
    }

    /// Decodes a 39-bit code word, correcting a single-bit error and
    /// detecting (without correcting) double-bit errors.
    ///
    /// Errors of three or more bits are beyond the code's guarantees and
    /// may alias to any outcome — the same silent-corruption hazard the
    /// paper exploits to motivate plaintext-space correction.
    #[inline]
    pub fn decode(mut word: u64) -> DecodeOutcome {
        word &= CODE_MASK;
        let mut syndrome = 0u32;
        let mut j = 0;
        while j < 6 {
            syndrome |= ((word & PARITY_MASKS[j]).count_ones() & 1) << j;
            j += 1;
        }
        let overall = (word.count_ones() & 1) as u64;
        match (syndrome, overall) {
            (0, 0) => DecodeOutcome::Clean {
                data: Self::extract(word),
            },
            (0, _) => {
                // Overall parity bit itself flipped.
                DecodeOutcome::Corrected {
                    data: Self::extract(word),
                    bit: 0,
                }
            }
            (s, 1) if s < 39 => {
                word ^= 1 << s;
                DecodeOutcome::Corrected {
                    data: Self::extract(word),
                    bit: s as u8,
                }
            }
            // Syndrome nonzero with even overall parity => double error;
            // syndrome pointing past the code word => uncorrectable.
            _ => DecodeOutcome::DoubleError {
                data: Self::extract(word),
            },
        }
    }

    /// True when the code word would decode [`DecodeOutcome::Clean`] —
    /// the scrub fast path, skipping extraction and repair entirely.
    #[inline]
    pub fn is_clean(word: u64) -> bool {
        let word = word & CODE_MASK;
        let mut dirty = word.count_ones() & 1;
        let mut j = 0;
        while j < 6 {
            dirty |= (word & PARITY_MASKS[j]).count_ones() & 1;
            j += 1;
        }
        dirty == 0
    }
}

/// Scalar reference implementation.
///
/// The original bit-serial encode/decode, kept as the ground truth the
/// mask/popcount kernels are proptested against and as the baseline side
/// of `kernel_bench`. Bit-for-bit identical outcomes, ~20× slower.
pub mod scalar {
    use super::DecodeOutcome;

    /// Code-word positions 1..=38 that hold data bits (non powers of two).
    pub(crate) fn data_positions() -> impl Iterator<Item = u32> {
        (1u32..39).filter(|p| !p.is_power_of_two())
    }

    /// Bit-serial SECDED encode (reference).
    pub fn encode(data: u32) -> u64 {
        let mut word: u64 = 0;
        for (i, pos) in data_positions().enumerate() {
            if (data >> i) & 1 == 1 {
                word |= 1 << pos;
            }
        }
        for p in [1u32, 2, 4, 8, 16, 32] {
            let mut parity = 0u64;
            for pos in 1..39u32 {
                if pos & p != 0 {
                    parity ^= (word >> pos) & 1;
                }
            }
            word |= parity << p;
        }
        let mut overall = 0u64;
        for pos in 1..39u32 {
            overall ^= (word >> pos) & 1;
        }
        word |= overall;
        word
    }

    /// Bit-serial SECDED decode (reference).
    pub fn decode(mut word: u64) -> DecodeOutcome {
        word &= (1u64 << 39) - 1;
        let mut syndrome = 0u32;
        for p in [1u32, 2, 4, 8, 16, 32] {
            let mut parity = 0u64;
            for pos in 1..39u32 {
                if pos & p != 0 {
                    parity ^= (word >> pos) & 1;
                }
            }
            if parity != 0 {
                syndrome |= p;
            }
        }
        let mut overall = 0u64;
        for pos in 0..39u32 {
            overall ^= (word >> pos) & 1;
        }
        match (syndrome, overall) {
            (0, 0) => DecodeOutcome::Clean {
                data: extract(word),
            },
            (0, _) => DecodeOutcome::Corrected {
                data: extract(word),
                bit: 0,
            },
            (s, 1) if s < 39 => {
                word ^= 1 << s;
                DecodeOutcome::Corrected {
                    data: extract(word),
                    bit: s as u8,
                }
            }
            _ => DecodeOutcome::DoubleError {
                data: extract(word),
            },
        }
    }

    fn extract(word: u64) -> u32 {
        let mut data = 0u32;
        for (i, pos) in data_positions().enumerate() {
            if (word >> pos) & 1 == 1 {
                data |= 1 << i;
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn code_geometry() {
        assert_eq!(Secded::CODE_BITS, 39);
        assert_eq!(Secded::DATA_BITS + Secded::CHECK_BITS, Secded::CODE_BITS);
        assert_eq!(scalar::data_positions().count(), 32);
    }

    #[test]
    fn static_tables_match_iterator() {
        let positions: Vec<u32> = scalar::data_positions().collect();
        assert_eq!(&Secded::DATA_POSITIONS[..], &positions[..]);
        for (j, &mask) in PARITY_MASKS.iter().enumerate() {
            let p = 1u32 << j;
            for pos in 0..64u32 {
                let expect = (1..39).contains(&pos) && pos & p != 0;
                assert_eq!((mask >> pos) & 1 == 1, expect, "mask {j} pos {pos}");
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        for data in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
            let word = Secded::encode(data);
            assert_eq!(Secded::decode(word), DecodeOutcome::Clean { data });
            assert!(Secded::is_clean(word));
        }
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        let data = 0xA5A5_5A5A;
        let word = Secded::encode(data);
        for bit in 0..39 {
            let outcome = Secded::decode(word ^ (1 << bit));
            match outcome {
                DecodeOutcome::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "bit {bit}");
                    assert_eq!(b as u32, bit);
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
            assert!(!Secded::is_clean(word ^ (1 << bit)));
        }
    }

    #[test]
    fn detects_every_double_bit_flip() {
        let data = 0x1234_5678;
        let word = Secded::encode(data);
        for a in 0..39u32 {
            for b in (a + 1)..39 {
                let outcome = Secded::decode(word ^ (1 << a) ^ (1 << b));
                assert!(
                    matches!(outcome, DecodeOutcome::DoubleError { .. }),
                    "bits {a},{b}: got {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn outcome_accessors() {
        let clean = DecodeOutcome::Clean { data: 7 };
        assert_eq!(clean.data(), 7);
        assert!(clean.is_reliable());
        let double = DecodeOutcome::DoubleError { data: 9 };
        assert_eq!(double.data(), 9);
        assert!(!double.is_reliable());
    }

    #[test]
    fn whole_word_corruption_is_not_correctable_to_original() {
        // The PSEC scenario: all 32 data bits flipped (a whole-weight
        // error). SECDED must NOT return the original data — that is the
        // paper's core argument for MILR.
        let data = 0x0F0F_1234;
        let word = Secded::encode(data);
        let mut corrupted = word;
        for pos in scalar::data_positions() {
            corrupted ^= 1u64 << pos;
        }
        let outcome = Secded::decode(corrupted);
        assert_ne!(outcome.data(), data);
    }

    proptest! {
        #[test]
        fn roundtrip_any_word(data in proptest::num::u32::ANY) {
            prop_assert_eq!(
                Secded::decode(Secded::encode(data)),
                DecodeOutcome::Clean { data }
            );
        }

        #[test]
        fn single_flip_always_corrected(data in proptest::num::u32::ANY, bit in 0u32..39) {
            let word = Secded::encode(data) ^ (1u64 << bit);
            let outcome = Secded::decode(word);
            prop_assert_eq!(outcome.data(), data);
            prop_assert!(outcome.is_reliable());
        }

        #[test]
        fn double_flip_always_detected(
            data in proptest::num::u32::ANY,
            a in 0u32..39,
            b in 0u32..39,
        ) {
            prop_assume!(a != b);
            let word = Secded::encode(data) ^ (1u64 << a) ^ (1u64 << b);
            prop_assert!(!Secded::decode(word).is_reliable());
        }

        // Bit-equivalence: the mask/popcount kernels must agree with the
        // bit-serial reference on every input — clean words, arbitrary
        // garbage words, everything.
        #[test]
        fn encode_matches_scalar(data in proptest::num::u32::ANY) {
            prop_assert_eq!(Secded::encode(data), scalar::encode(data));
        }

        #[test]
        fn decode_matches_scalar(word in proptest::num::u64::ANY) {
            prop_assert_eq!(Secded::decode(word), scalar::decode(word));
            prop_assert_eq!(
                Secded::is_clean(word),
                matches!(scalar::decode(word), DecodeOutcome::Clean { .. })
            );
        }
    }
}
