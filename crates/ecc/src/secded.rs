use std::sync::OnceLock;

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
/// Whole memories go through the slice kernels
/// [`Secded::encode_words`], [`Secded::decode_words`],
/// [`Secded::scrub_words`] and the fused [`Secded::scrub_decode_words`].
/// Each screens 32 words branch-free: every lane writes its dirty flag
/// into a byte array, and the `u64` lane mask is built after the loop,
/// so the loop vectorizes. Each is one body compiled once per
/// [`SecdedTier`] (portable, `popcnt`, AVX2, AVX-512 with `vpopcntq`),
/// the fastest the host supports chosen once per process with
/// `is_x86_feature_detected!`.
///
/// The type is a namespace: both operations are stateless associated
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secded;

/// Statistics from one scrub pass over code words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Words decoded without error.
    pub clean: usize,
    /// Words with a corrected single-bit error.
    pub corrected: usize,
    /// Words with a detected-but-uncorrectable (double) error.
    pub uncorrectable: usize,
}

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
        let scattered = Self::scatter(data);
        // Hamming parities: each mask excludes all power-of-two
        // positions except its own (position 2^j has only bit j set), so
        // every parity is the parity of the scattered data alone, and no
        // one waits on another.
        let mut word = scattered;
        let mut ones = scattered.count_ones();
        let mut j = 0;
        while j < 6 {
            let covered = (scattered & PARITY_MASKS[j]).count_ones();
            word |= u64::from(covered & 1) << (1u32 << j);
            ones += covered;
            j += 1;
        }
        // Overall parity at position 0 covers positions 1..=38: the data
        // bits and the six parity bits, whose ones `ones` has counted.
        word | u64::from(ones & 1)
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
    #[inline(always)]
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

    /// Encodes every data word into `out`, as `Secded::encode(data[i])`
    /// would: the whole-memory write.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != data.len()`.
    pub fn encode_words(data: &[u32], out: &mut [u64]) {
        assert_eq!(out.len(), data.len(), "output buffer length");
        (kernels().encode)(data, out)
    }

    /// Decodes every code word best-effort into `out`, as
    /// `Secded::decode(words[i]).data()` would, without touching the
    /// words (a read does not repair storage). Every word's data bits
    /// are extracted as stored while the same syndrome screen as
    /// [`Secded::scrub_words`] flags the words that are not clean; only
    /// those are decoded again, with correction.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != words.len()`.
    pub fn decode_words(words: &[u64], out: &mut [u32]) {
        assert_eq!(out.len(), words.len(), "output buffer length");
        (kernels().decode)(words, out)
    }

    /// Repairs every correctable code word in place — the sweep an ECC
    /// memory controller performs — and counts the outcomes. Words are
    /// screened 32 at a time with the syndrome check; only the flagged
    /// ones are decoded and re-encoded, so a clean memory is not
    /// written.
    pub fn scrub_words(words: &mut [u64]) -> ScrubReport {
        (kernels().scrub)(words)
    }

    /// [`Secded::scrub_words`] followed by [`Secded::decode_words`] in
    /// one pass: each word is screened once, its data bits extracted
    /// as stored, and only the flagged lanes are decoded again —
    /// repaired in place when correctable — with their data taken from
    /// that decode. `words`, `out` and the report end exactly as the
    /// two calls would leave them, reading every word once instead of
    /// twice.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != words.len()`.
    pub fn scrub_decode_words(words: &mut [u64], out: &mut [u32]) -> ScrubReport {
        assert_eq!(out.len(), words.len(), "output buffer length");
        (kernels().scrub_decode)(words, out)
    }
}

/// An instruction-set tier the slice kernels are compiled for. Every
/// tier runs the same body and returns the same bits; they differ only
/// in how many words one instruction screens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedTier {
    /// Any host: `count_ones` is a bit-twiddling sequence of about a
    /// dozen instructions.
    Portable,
    /// One word at a time, one `popcnt` per parity.
    Popcnt,
    /// Four words per `ymm`; each vector popcount is a nibble lookup.
    Avx2,
    /// Eight words per `zmm`, one `vpopcntq` per parity.
    Avx512,
}

impl SecdedTier {
    /// Every tier, fastest first: the order [`SecdedTier::dispatched`]
    /// tries them in.
    const ALL: [SecdedTier; 4] = [
        SecdedTier::Avx512,
        SecdedTier::Avx2,
        SecdedTier::Popcnt,
        SecdedTier::Portable,
    ];

    /// The tier's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            SecdedTier::Portable => "portable",
            SecdedTier::Popcnt => "popcnt",
            SecdedTier::Avx2 => "avx2",
            SecdedTier::Avx512 => "avx512",
        }
    }

    /// The tier every [`Secded`] slice kernel runs on in this process:
    /// the fastest the host supports, detected once.
    pub fn dispatched() -> SecdedTier {
        kernels().tier
    }

    /// True when this host can run the tier.
    pub fn supported(self) -> bool {
        self.kernels().is_some()
    }

    /// [`Secded::scrub_decode_words`] on this tier rather than the
    /// dispatched one, for measuring one tier against another; `None`,
    /// with nothing touched, when the host cannot run it.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != words.len()`.
    pub fn scrub_decode_words(self, words: &mut [u64], out: &mut [u32]) -> Option<ScrubReport> {
        assert_eq!(out.len(), words.len(), "output buffer length");
        self.kernels().map(|k| (k.scrub_decode)(words, out))
    }

    /// The tier's kernels, when the host has its features.
    fn kernels(self) -> Option<&'static Kernels> {
        match self {
            SecdedTier::Portable => Some(&PORTABLE),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SecdedTier::Popcnt => is_x86_feature_detected!("popcnt").then_some(&x86::POPCNT),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SecdedTier::Avx2 => (is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("popcnt"))
            .then_some(&x86::AVX2),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SecdedTier::Avx512 => (is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512vpopcntdq")
                && is_x86_feature_detected!("popcnt"))
            .then_some(&x86::AVX512),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => None,
        }
    }
}

/// The slice kernels of one tier.
struct Kernels {
    tier: SecdedTier,
    encode: fn(&[u32], &mut [u64]),
    decode: fn(&[u64], &mut [u32]),
    scrub: fn(&mut [u64]) -> ScrubReport,
    scrub_decode: fn(&mut [u64], &mut [u32]) -> ScrubReport,
}

/// The bodies as written, for any host.
static PORTABLE: Kernels = Kernels {
    tier: SecdedTier::Portable,
    encode: encode_words_body,
    decode: decode_words_body,
    scrub: scrub_words_body,
    scrub_decode: scrub_decode_words_body,
};

/// The kernels of the fastest tier the host supports, chosen once per
/// process.
fn kernels() -> &'static Kernels {
    static CHOSEN: OnceLock<&'static Kernels> = OnceLock::new();
    CHOSEN.get_or_init(|| {
        SecdedTier::ALL
            .iter()
            .find_map(|tier| tier.kernels())
            .expect("the portable tier runs anywhere")
    })
}

/// The same bodies compiled once per x86 tier.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::*;

    /// A [`Kernels`] table of the four bodies compiled under
    /// `$features`.
    macro_rules! tier {
        ($tier:expr, $features:literal) => {{
            /// # Safety
            ///
            /// The host must support the tier's features.
            #[target_feature(enable = $features)]
            unsafe fn encode(data: &[u32], out: &mut [u64]) {
                encode_words_body(data, out)
            }
            /// # Safety
            ///
            /// The host must support the tier's features.
            #[target_feature(enable = $features)]
            unsafe fn decode(words: &[u64], out: &mut [u32]) {
                decode_words_body(words, out)
            }
            /// # Safety
            ///
            /// The host must support the tier's features.
            #[target_feature(enable = $features)]
            unsafe fn scrub(words: &mut [u64]) -> ScrubReport {
                scrub_words_body(words)
            }
            /// # Safety
            ///
            /// The host must support the tier's features.
            #[target_feature(enable = $features)]
            unsafe fn scrub_decode(words: &mut [u64], out: &mut [u32]) -> ScrubReport {
                scrub_decode_words_body(words, out)
            }
            // SAFETY (each entry): `SecdedTier::kernels` hands this
            // table out only after detecting every one of `$features`.
            Kernels {
                tier: $tier,
                encode: |data, out| unsafe { encode(data, out) },
                decode: |words, out| unsafe { decode(words, out) },
                scrub: |words| unsafe { scrub(words) },
                scrub_decode: |words, out| unsafe { scrub_decode(words, out) },
            }
        }};
    }

    pub(super) static POPCNT: Kernels = tier!(SecdedTier::Popcnt, "popcnt");
    pub(super) static AVX2: Kernels = tier!(SecdedTier::Avx2, "avx2,popcnt");
    pub(super) static AVX512: Kernels = tier!(
        SecdedTier::Avx512,
        "avx512f,avx512bw,avx512vl,avx512vpopcntdq,popcnt"
    );
}

/// Words per screen: one dirty bit per word in a `u64` mask.
const SCREEN_CHUNK: usize = 32;

/// The lane mask of a screen's dirty flags: bit `i` is `flags[i]`,
/// each flag 0 or 1. The multiply gathers the low bits of eight bytes
/// into the top byte (byte `i` shifted by `56 - 7i`); no two partial
/// products meet, so nothing carries.
#[inline(always)]
fn lane_mask(flags: &[u8; SCREEN_CHUNK]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut mask = 0u64;
    for (i, eight) in flags.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(eight.try_into().expect("chunk of 8"));
        mask |= (bytes.wrapping_mul(GATHER) >> 56) << (8 * i);
    }
    mask
}

/// Screens up to [`SCREEN_CHUNK`] words branch-free: the lane mask of
/// the words that are not clean.
#[inline(always)]
fn screen(words: &[u64]) -> u64 {
    let mut flags = [0u8; SCREEN_CHUNK];
    for (flag, &w) in flags.iter_mut().zip(words) {
        *flag = u8::from(!Secded::is_clean(w));
    }
    lane_mask(&flags)
}

/// [`screen`] that also extracts every word's data bits as stored.
#[inline(always)]
fn screen_extract(words: &[u64], out: &mut [u32]) -> u64 {
    let mut flags = [0u8; SCREEN_CHUNK];
    for ((flag, slot), &w) in flags.iter_mut().zip(out.iter_mut()).zip(words) {
        *slot = Secded::extract(w);
        *flag = u8::from(!Secded::is_clean(w));
    }
    lane_mask(&flags)
}

#[inline(always)]
fn encode_words_body(data: &[u32], out: &mut [u64]) {
    for (slot, &d) in out.iter_mut().zip(data) {
        *slot = Secded::encode(d);
    }
}

#[inline(always)]
fn decode_words_body(words: &[u64], out: &mut [u32]) {
    for (words, out) in words.chunks(SCREEN_CHUNK).zip(out.chunks_mut(SCREEN_CHUNK)) {
        // Extract every word as stored and screen it; only the flagged
        // lanes are decoded again, with correction.
        let mut dirty = screen_extract(words, out);
        while dirty != 0 {
            let lane = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            out[lane] = Secded::decode(words[lane]).data();
        }
    }
}

#[inline(always)]
fn scrub_words_body(words: &mut [u64]) -> ScrubReport {
    let mut report = ScrubReport::default();
    for chunk in words.chunks_mut(SCREEN_CHUNK) {
        let mut dirty = screen(chunk);
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

#[inline(always)]
fn scrub_decode_words_body(words: &mut [u64], out: &mut [u32]) -> ScrubReport {
    let mut report = ScrubReport::default();
    for (chunk, out) in words
        .chunks_mut(SCREEN_CHUNK)
        .zip(out.chunks_mut(SCREEN_CHUNK))
    {
        // One screen per word: extract as stored, flag the dirty lanes.
        let mut dirty = screen_extract(chunk, out);
        report.clean += chunk.len() - dirty.count_ones() as usize;
        // Only the flagged lanes are decoded again: a correctable word is
        // repaired in place, an uncorrectable one passes its best-effort
        // data through untouched.
        while dirty != 0 {
            let lane = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            match Secded::decode(chunk[lane]) {
                DecodeOutcome::Clean { .. } => unreachable!("screened dirty"),
                DecodeOutcome::Corrected { data, .. } => {
                    report.corrected += 1;
                    chunk[lane] = Secded::encode(data);
                    out[lane] = data;
                }
                DecodeOutcome::DoubleError { data } => {
                    report.uncorrectable += 1;
                    out[lane] = data;
                }
            }
        }
    }
    report
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

    /// The code word of each datum with 0–3 of its 39 bits flipped, the
    /// count and positions drawn from the paired random `u64`.
    fn faulted_words(cases: &[(u32, u64)]) -> Vec<u64> {
        cases
            .iter()
            .map(|&(data, r)| {
                let mut word = Secded::encode(data);
                for k in 0..(r % 4) {
                    word ^= 1u64 << ((r >> (8 + 8 * k)) % 39);
                }
                word
            })
            .collect()
    }

    #[test]
    fn scrub_screens_in_32_word_chunks() {
        // 70 words: two full screens and a 6-word tail, one fault each.
        let mut words: Vec<u64> = (0..70u32).map(|d| Secded::encode(d * 7919)).collect();
        words[31] ^= 1 << 5;
        words[32] ^= (1 << 1) | (1 << 2);
        words[69] ^= 1;
        let report = Secded::scrub_words(&mut words);
        assert_eq!(
            report,
            ScrubReport {
                clean: 67,
                corrected: 2,
                uncorrectable: 1
            }
        );
        assert_eq!(words[31], Secded::encode(31 * 7919));
        assert_eq!(words[69], Secded::encode(69 * 7919));
        assert_ne!(words[32], Secded::encode(32 * 7919));
    }

    #[test]
    fn lane_mask_sets_one_bit_per_flag() {
        for lane in 0..SCREEN_CHUNK {
            let mut flags = [0u8; SCREEN_CHUNK];
            flags[lane] = 1;
            assert_eq!(lane_mask(&flags), 1 << lane, "lane {lane}");
        }
        assert_eq!(lane_mask(&[1; SCREEN_CHUNK]), u32::MAX as u64);
    }

    /// Every tier's four bodies, called directly rather than through
    /// the dispatcher, against the bit-serial reference: lengths 0..=70
    /// end mid-vector and mid-screen, with 0–3 flipped bits per word.
    #[test]
    fn every_tier_matches_scalar() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for tier in SecdedTier::ALL {
            let Some(k) = tier.kernels() else {
                eprintln!("host lacks the {} tier's features; not run", tier.name());
                continue;
            };
            assert_eq!(k.tier, tier);
            for len in 0..=70usize {
                let cases: Vec<(u32, u64)> = (0..len).map(|_| (next() as u32, next())).collect();
                let data: Vec<u32> = cases.iter().map(|&(d, _)| d).collect();
                let mut encoded = vec![0u64; len];
                (k.encode)(&data, &mut encoded);
                let want: Vec<u64> = data.iter().map(|&d| scalar::encode(d)).collect();
                assert_eq!(encoded, want, "{} encode, {len} words", tier.name());

                let words = faulted_words(&cases);
                let mut want_report = ScrubReport::default();
                let mut want_words = words.clone();
                let mut want_read = vec![0u32; len];
                let mut want_scrubbed = vec![0u32; len];
                for (i, &w) in words.iter().enumerate() {
                    let outcome = scalar::decode(w);
                    want_read[i] = outcome.data();
                    want_scrubbed[i] = outcome.data();
                    match outcome {
                        DecodeOutcome::Clean { .. } => want_report.clean += 1,
                        DecodeOutcome::Corrected { data, .. } => {
                            want_report.corrected += 1;
                            want_words[i] = scalar::encode(data);
                        }
                        DecodeOutcome::DoubleError { .. } => want_report.uncorrectable += 1,
                    }
                }
                let at = format!("{}, {len} words", tier.name());
                let mut read = vec![0u32; len];
                (k.decode)(&words, &mut read);
                assert_eq!(read, want_read, "{at}: decode");
                let mut scrubbed = words.clone();
                assert_eq!((k.scrub)(&mut scrubbed), want_report, "{at}: scrub");
                assert_eq!(scrubbed, want_words, "{at}: scrub words");
                let mut fused = words.clone();
                let mut fused_data = vec![0u32; len];
                assert_eq!(
                    (k.scrub_decode)(&mut fused, &mut fused_data),
                    want_report,
                    "{at}: scrub_decode"
                );
                assert_eq!(fused, want_words, "{at}: scrub_decode words");
                assert_eq!(fused_data, want_scrubbed, "{at}: scrub_decode data");
            }
        }
    }

    proptest! {
        #[test]
        fn encode_words_matches_scalar(data in proptest::collection::vec(proptest::num::u32::ANY, 0..100)) {
            let mut words = vec![0u64; data.len()];
            Secded::encode_words(&data, &mut words);
            for (&w, &d) in words.iter().zip(&data) {
                prop_assert_eq!(w, scalar::encode(d));
            }
        }

        // The slice kernels against the bit-serial reference, word by
        // word, on clean, correctable, double-error and aliasing
        // triple-error words.
        #[test]
        fn slice_kernels_match_scalar(
            cases in proptest::collection::vec((proptest::num::u32::ANY, proptest::num::u64::ANY), 1..100),
        ) {
            let words = faulted_words(&cases);
            let mut data = vec![0u32; words.len()];
            Secded::decode_words(&words, &mut data);
            let mut portable = vec![0u32; words.len()];
            decode_words_body(&words, &mut portable);
            let mut want = ScrubReport::default();
            let mut repaired = words.clone();
            for (i, &w) in words.iter().enumerate() {
                let outcome = scalar::decode(w);
                prop_assert_eq!(data[i], outcome.data());
                prop_assert_eq!(portable[i], outcome.data());
                match outcome {
                    DecodeOutcome::Clean { .. } => want.clean += 1,
                    DecodeOutcome::Corrected { data, .. } => {
                        want.corrected += 1;
                        repaired[i] = scalar::encode(data);
                    }
                    DecodeOutcome::DoubleError { .. } => want.uncorrectable += 1,
                }
            }
            let mut scrubbed = words.clone();
            prop_assert_eq!(Secded::scrub_words(&mut scrubbed), want);
            prop_assert_eq!(&scrubbed, &repaired);
            let mut scrubbed = words.clone();
            prop_assert_eq!(scrub_words_body(&mut scrubbed), want);
            prop_assert_eq!(&scrubbed, &repaired);
        }

        // The fused kernel against the two calls it replaces, through the
        // dispatcher and the portable body, at lengths that end mid-screen
        // (never a multiple of 32) with 0–3 flipped bits per word.
        #[test]
        fn fused_scrub_decode_matches_scrub_then_decode(
            cases in proptest::collection::vec((proptest::num::u32::ANY, proptest::num::u64::ANY), 1..200),
        ) {
            let mut words = faulted_words(&cases);
            if words.len().is_multiple_of(SCREEN_CHUNK) {
                words.pop();
            }
            let mut want_words = words.clone();
            let want_report = Secded::scrub_words(&mut want_words);
            let mut want_data = vec![0u32; words.len()];
            Secded::decode_words(&want_words, &mut want_data);
            type Fused = fn(&mut [u64], &mut [u32]) -> ScrubReport;
            for fused in [Secded::scrub_decode_words as Fused, scrub_decode_words_body] {
                let mut got_words = words.clone();
                let mut got_data = vec![0u32; words.len()];
                let report = fused(&mut got_words, &mut got_data);
                prop_assert_eq!(report.clean, want_report.clean);
                prop_assert_eq!(report.corrected, want_report.corrected);
                prop_assert_eq!(report.uncorrectable, want_report.uncorrectable);
                prop_assert_eq!(&got_words, &want_words);
                prop_assert_eq!(&got_data, &want_data);
            }
        }

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
