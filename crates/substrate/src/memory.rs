//! The one in-memory weight store behind every encoded kind: a
//! **payload codec** (how a weight sits in memory: f32, AES-XTS
//! ciphertext, int8 or fp16) × a **code layer** (bare, or ECC DRAM's
//! (39,32) SECDED over every 4 payload bytes).
//!
//! Every raw-space and plaintext operation is written once over that
//! pair. Reads go group by group: the code layer screens or decodes the
//! raw words covering 512 payload bytes into a stack buffer, and the
//! payload codec decodes the group (one batched XTS decrypt per 32
//! blocks). A sparse write re-encodes only the raw words covering the
//! touched payload units, so every other word keeps its raw error state
//! bit for bit.
//!
//! Under encryption the code layer sees only ciphertext: a single raw
//! flip is corrected before decryption (harmless), but an uncorrectable
//! code word passes corrupted ciphertext to the decryptor, which
//! garbles its whole 16-byte block — the paper's case for
//! plaintext-space error correction.

use crate::{ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use milr_ecc::ring::{f16_bits_to_f32, f32_to_f16_bits, int8_quantize, int8_value};
use milr_ecc::Secded;
use milr_xts::{XtsCipher, BLOCK_BYTES};
use std::ops::Range;

/// How weights sit in memory as payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// Little-endian `f32` words.
    F32,
    /// `f32` words as AES-XTS ciphertext, each 16-byte block its own
    /// data unit tweaked by its block index; the tail pads to a whole
    /// block.
    Xts,
    /// Signed 8-bit lattice `q · 2⁻⁶` (see `milr_ecc::ring`), snapping
    /// on store.
    Int8,
    /// IEEE 754 binary16, snapping on store.
    Fp16,
}

impl Payload {
    /// Payload bytes per weight.
    pub(crate) fn weight_bytes(self) -> usize {
        match self {
            Payload::F32 | Payload::Xts => 4,
            Payload::Int8 => 1,
            Payload::Fp16 => 2,
        }
    }

    /// Bytes of the payload unit, the least that decodes on its own: a
    /// cipher block under XTS, one weight otherwise.
    pub(crate) fn unit_bytes(self) -> usize {
        match self {
            Payload::Xts => BLOCK_BYTES,
            _ => self.weight_bytes(),
        }
    }

    /// Payload bytes `len` weights occupy: whole units.
    pub(crate) fn bytes_for(self, len: usize) -> usize {
        (len * self.weight_bytes()).next_multiple_of(self.unit_bytes())
    }

    /// Encodes one weight into its `weight_bytes` plaintext bytes.
    fn put(self, v: f32, out: &mut [u8]) {
        match self {
            Payload::F32 | Payload::Xts => out.copy_from_slice(&v.to_le_bytes()),
            Payload::Int8 => out[0] = int8_quantize(v) as u8,
            Payload::Fp16 => out.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes()),
        }
    }

    /// Decodes the weights of plaintext payload bytes `buf` into `out`
    /// (one loop per payload, so each runs on fixed-width lanes).
    fn get(self, buf: &[u8], out: &mut [f32]) {
        fn lanes<const N: usize>(buf: &[u8], out: &mut [f32], get: impl Fn([u8; N]) -> f32) {
            for (slot, lane) in out.iter_mut().zip(buf.chunks_exact(N)) {
                *slot = get(lane.try_into().expect("chunk of N"));
            }
        }
        match self {
            Payload::F32 | Payload::Xts => lanes(buf, out, f32::from_le_bytes),
            Payload::Int8 => lanes(buf, out, |[q]| int8_value(q as i8)),
            Payload::Fp16 => lanes(buf, out, |b| f16_bits_to_f32(u16::from_le_bytes(b))),
        }
    }
}

/// Whether ECC DRAM's (39,32) SECDED covers the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Code {
    /// The raw image is the payload bytes; a raw word is a payload unit.
    Bare,
    /// One u64-stored (39,32) code word per 4 payload bytes.
    Secded,
}

impl Code {
    /// Payload bytes one raw word carries.
    pub(crate) fn word_payload_bytes(self, payload: Payload) -> usize {
        match self {
            Code::Bare => payload.unit_bytes(),
            Code::Secded => 4,
        }
    }

    /// Bits of one raw word.
    pub(crate) fn word_bits(self, payload: Payload) -> usize {
        match self {
            Code::Bare => payload.unit_bytes() * 8,
            Code::Secded => Secded::CODE_BITS as usize,
        }
    }

    /// Raw-image bytes one raw word is stored in.
    pub(crate) fn word_image_bytes(self, payload: Payload) -> usize {
        match self {
            Code::Bare => payload.unit_bytes(),
            Code::Secded => 8,
        }
    }
}

/// Payload bytes per read group: 32 cipher blocks, 128 code words.
const GROUP_BYTES: usize = 32 * BLOCK_BYTES;

/// The code layer's storage.
#[derive(Debug, Clone)]
enum Raw {
    Bare(Vec<u8>),
    Secded(Vec<u64>),
}

impl Raw {
    /// Decodes the raw words holding payload `bytes` (at most a group,
    /// whole raw words) into `buf`, best-effort, without repairing
    /// storage.
    fn read(&self, bytes: Range<usize>, buf: &mut [u8]) {
        match self {
            Raw::Bare(raw) => buf.copy_from_slice(&raw[bytes]),
            Raw::Secded(words) => {
                let mut data = [0u32; GROUP_BYTES / 4];
                let data = &mut data[..buf.len() / 4];
                Secded::decode_words(&words[bytes.start / 4..bytes.end / 4], data);
                spread(data, buf);
            }
        }
    }

    /// [`Raw::read`] that also repairs every correctable word it reads,
    /// in the same single pass.
    fn scrub_read(&mut self, bytes: Range<usize>, buf: &mut [u8]) -> ScrubSummary {
        match self {
            Raw::Bare(_) => {
                self.read(bytes, buf);
                ScrubSummary::default()
            }
            Raw::Secded(words) => {
                let mut data = [0u32; GROUP_BYTES / 4];
                let data = &mut data[..buf.len() / 4];
                let report =
                    Secded::scrub_decode_words(&mut words[bytes.start / 4..bytes.end / 4], data);
                spread(data, buf);
                report.into()
            }
        }
    }

    /// Re-encodes the raw words holding payload `bytes` (whole raw
    /// words) from `buf`.
    fn write(&mut self, bytes: Range<usize>, buf: &[u8]) {
        match self {
            Raw::Bare(raw) => raw[bytes].copy_from_slice(buf),
            Raw::Secded(words) => {
                let mut data = [0u32; GROUP_BYTES / 4];
                for (words, buf) in words[bytes.start / 4..bytes.end / 4]
                    .chunks_mut(GROUP_BYTES / 4)
                    .zip(buf.chunks(GROUP_BYTES))
                {
                    let data = &mut data[..words.len()];
                    for (d, bytes) in data.iter_mut().zip(buf.chunks_exact(4)) {
                        *d = u32::from_le_bytes(bytes.try_into().expect("chunk of 4"));
                    }
                    Secded::encode_words(data, words);
                }
            }
        }
    }
}

/// Lays decoded 32-bit data words out as little-endian payload bytes.
fn spread(data: &[u32], buf: &mut [u8]) {
    for (chunk, d) in buf.chunks_exact_mut(4).zip(data) {
        chunk.copy_from_slice(&d.to_le_bytes());
    }
}

/// A payload codec with its key, if any.
#[derive(Debug, Clone)]
struct Codec {
    payload: Payload,
    /// The cipher of an XTS payload.
    cipher: Option<XtsCipher>,
}

impl Codec {
    /// Decrypts payload bytes starting at byte `start` in place (a no-op
    /// for plaintext payloads).
    fn open(&self, buf: &mut [u8], start: usize) {
        if let Some(cipher) = &self.cipher {
            cipher.decrypt_blocks(buf, (start / BLOCK_BYTES) as u64);
        }
    }

    /// The inverse of [`Codec::open`].
    fn seal(&self, buf: &mut [u8], start: usize) {
        if let Some(cipher) = &self.cipher {
            cipher.encrypt_blocks(buf, (start / BLOCK_BYTES) as u64);
        }
    }

    /// Decodes `out` group by group from `total` payload bytes: `fill`
    /// puts a group's payload bytes into the buffer it is given.
    fn decode(&self, total: usize, out: &mut [f32], mut fill: impl FnMut(Range<usize>, &mut [u8])) {
        let wb = self.payload.weight_bytes();
        let mut buf = [0u8; GROUP_BYTES];
        for (group, slots) in out.chunks_mut(GROUP_BYTES / wb).enumerate() {
            let start = group * GROUP_BYTES;
            let buf = &mut buf[..total.min(start + GROUP_BYTES) - start];
            fill(start..start + buf.len(), buf);
            self.open(buf, start);
            self.payload.get(buf, slots);
        }
    }
}

/// Weights held as a payload codec under a code layer: every kind but
/// [`SubstrateKind::Plain`], which is a bare `Vec<f32>`.
#[derive(Debug, Clone)]
pub(crate) struct EncodedMemory {
    kind: SubstrateKind,
    codec: Codec,
    raw: Raw,
    /// Weights stored (the payload tail may pad past them).
    len: usize,
}

impl EncodedMemory {
    /// An all-zero raw image of `kind` for `len` weights, to be filled by
    /// a write or an import.
    pub(crate) fn blank(kind: SubstrateKind, len: usize) -> Self {
        let (payload, code) = kind.layout();
        let raw = match code {
            Code::Bare => Raw::Bare(vec![0; kind.raw_image_bytes(len)]),
            Code::Secded => Raw::Secded(vec![0; kind.raw_words(len)]),
        };
        let cipher = (payload == Payload::Xts).then(SubstrateKind::cipher);
        EncodedMemory {
            kind,
            codec: Codec { payload, cipher },
            raw,
            len,
        }
    }

    /// Payload bytes the raw words carry: whole units, whole words.
    fn payload_bytes(&self) -> usize {
        match &self.raw {
            Raw::Bare(raw) => raw.len(),
            Raw::Secded(words) => words.len() * 4,
        }
    }

    fn check_len(&self, out: &[f32], op: &str) {
        assert_eq!(
            out.len(),
            self.len,
            "{op} buffer of {} cannot hold {} weights",
            out.len(),
            self.len
        );
    }
}

impl WeightSubstrate for EncodedMemory {
    fn kind(&self) -> SubstrateKind {
        self.kind
    }

    fn len(&self) -> usize {
        self.len
    }

    fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        match &self.raw {
            Raw::Bare(raw) => (raw[bit / 8] >> (bit % 8)) & 1 == 1,
            Raw::Secded(words) => {
                let per = Secded::CODE_BITS as usize;
                (words[bit / per] >> (bit % per)) & 1 == 1
            }
        }
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        match &mut self.raw {
            Raw::Bare(raw) => raw[bit / 8] ^= 1 << (bit % 8),
            Raw::Secded(words) => {
                let per = Secded::CODE_BITS as usize;
                words[bit / per] ^= 1 << (bit % per);
            }
        }
    }

    fn read_weights_into(&self, out: &mut [f32]) {
        self.check_len(out, "read_weights_into");
        let total = self.payload_bytes();
        self.codec
            .decode(total, out, |bytes, buf| self.raw.read(bytes, buf));
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len,
                got: weights.len(),
            });
        }
        let payload = self.codec.payload;
        let mut bytes = vec![0u8; self.payload_bytes()];
        for (lane, &w) in bytes.chunks_exact_mut(payload.weight_bytes()).zip(weights) {
            payload.put(w, lane);
        }
        self.codec.seal(&mut bytes, 0);
        self.raw.write(0..bytes.len(), &bytes);
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        if let Some(&(idx, _)) = updates.iter().find(|&&(idx, _)| idx >= self.len) {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len,
                got: idx + 1,
            });
        }
        // Updates sort stably, so a weight listed twice keeps its last
        // value, and each run of adjacent patch units inside one group
        // is decoded, patched and re-encoded at once.
        let payload = self.codec.payload;
        let wb = payload.weight_bytes();
        let unit = self.kind.patch_bytes();
        let mut sorted = updates.to_vec();
        sorted.sort_by_key(|&(idx, _)| idx);
        let (unit_of, group_of) = (
            |idx: usize| idx * wb / unit,
            |idx: usize| idx * wb / GROUP_BYTES,
        );
        let mut buf = [0u8; GROUP_BYTES];
        for run in sorted
            .chunk_by(|a, b| unit_of(b.0) <= unit_of(a.0) + 1 && group_of(a.0) == group_of(b.0))
        {
            let start = unit_of(run[0].0) * unit;
            let end = (unit_of(run[run.len() - 1].0) + 1) * unit;
            let buf = &mut buf[..end - start];
            self.raw.read(start..end, buf);
            self.codec.open(buf, start);
            for &(idx, value) in run {
                payload.put(value, &mut buf[idx * wb - start..][..wb]);
            }
            self.codec.seal(buf, start);
            self.raw.write(start..end, buf);
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        match &mut self.raw {
            Raw::Bare(_) => ScrubSummary::default(),
            Raw::Secded(words) => Secded::scrub_words(words).into(),
        }
    }

    fn scrub_read_into(&mut self, out: &mut [f32]) -> ScrubSummary {
        self.check_len(out, "scrub_read_into");
        let total = self.payload_bytes();
        let mut summary = ScrubSummary::default();
        self.codec.decode(total, out, |bytes, buf| {
            summary.absorb(&self.raw.scrub_read(bytes, buf))
        });
        summary
    }

    fn export_raw(&self) -> Vec<u8> {
        match &self.raw {
            Raw::Bare(raw) => raw.clone(),
            Raw::Secded(words) => words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        }
    }

    fn import_raw(&mut self, image: &[u8]) -> Result<(), SubstrateError> {
        let want = self.kind.raw_image_bytes(self.len);
        if image.len() != want {
            return Err(SubstrateError::Backend(format!(
                "{}: raw image of {} bytes is not the {want} bytes of {} weights",
                self.kind,
                image.len(),
                self.len
            )));
        }
        match &mut self.raw {
            Raw::Bare(raw) => raw.copy_from_slice(image),
            Raw::Secded(words) => {
                for (w, c) in words.iter_mut().zip(image.chunks_exact(8)) {
                    *w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! One table over every kind, each behaviour checked in memory and
    //! paged onto a file.

    use super::*;
    use crate::file::temp_paged;
    use milr_ecc::ring::{f16_snap, int8_snap};

    /// 601 weights: read groups end at weight 128 (f32), 256 (fp16) and
    /// 512 (int8), and the tail ends mid cipher block and mid code word.
    fn weights() -> Vec<f32> {
        (0..601).map(|i| (i as f32 * 0.0371).sin() * 1.9).collect()
    }

    fn bits(w: &[f32]) -> Vec<u32> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    fn has_secded(kind: SubstrateKind) -> bool {
        kind.layout().1 == Code::Secded
    }

    /// The kind over `w`, in memory and paged.
    fn homes(kind: SubstrateKind, w: &[f32]) -> [(&'static str, Box<dyn WeightSubstrate>); 2] {
        [("memory", kind.store(w)), ("paged", temp_paged(kind, w))]
    }

    /// Indices of the weights `seen` differs from `want` in.
    fn garbled(seen: &[f32], want: &[f32]) -> Vec<usize> {
        (0..want.len())
            .filter(|&i| seen[i].to_bits() != want[i].to_bits())
            .collect()
    }

    /// Store then read returns the weights, snapped onto the payload's
    /// grid (bit-exact for the f32 payloads).
    fn roundtrip(kind: SubstrateKind) {
        let w = weights();
        let snap = |v: f32| match kind.layout().0 {
            Payload::F32 | Payload::Xts => v,
            Payload::Int8 => int8_snap(v),
            Payload::Fp16 => f16_snap(v),
        };
        let want: Vec<f32> = w.iter().map(|&v| snap(v)).collect();
        for (home, mem) in homes(kind, &w) {
            assert_eq!(mem.len(), w.len(), "{kind} {home}");
            assert_eq!(bits(&mem.read_weights()), bits(&want), "{kind} {home}");
        }
        assert_eq!(kind.store(&w).raw_bits(), kind.raw_bits_for(w.len()));
    }

    /// Single raw flips in distinct raw words: SECDED corrects each (on
    /// read and in the scrub); bare kinds garble only the flipped words'
    /// blast radii.
    fn single_flip(kind: SubstrateKind) {
        let w = weights();
        let want = kind.store(&w).read_weights();
        for (home, mut mem) in homes(kind, &w) {
            let word_bits = mem.raw_geometry().word_bits;
            let words = mem.raw_bits() / word_bits;
            let flips = [0, words / 2, words - 1].map(|word| word * word_bits + 3 % word_bits);
            for bit in flips {
                mem.flip_raw_bit(bit);
            }
            let at = format!("{kind} {home}");
            if has_secded(kind) {
                assert_eq!(bits(&mem.read_weights()), bits(&want), "{at}: read");
                let summary = mem.scrub();
                assert_eq!((summary.corrected, summary.uncorrectable), (3, 0), "{at}");
                assert_eq!(bits(&mem.read_weights()), bits(&want), "{at}: scrubbed");
                assert!(mem.scrub().is_clean(), "{at}: repaired in storage");
            } else {
                assert!(mem.scrub().is_clean(), "{at}: no code layer");
                let seen = mem.read_weights();
                let hit = garbled(&seen, &want);
                assert!(hit.contains(&0), "{at}: first word unchanged");
                for i in hit {
                    assert!(
                        flips.iter().any(|&b| mem.blast_radius(b).contains(&i)),
                        "{at}: weight {i} garbled outside every radius"
                    );
                }
            }
        }
    }

    /// Two flips in one raw word: SECDED reports the word uncorrectable,
    /// and the damage stays inside the word's blast radius.
    fn double_flip_garbles_its_blast_radius(kind: SubstrateKind) {
        let w = weights();
        let want = kind.store(&w).read_weights();
        for (home, mut mem) in homes(kind, &w) {
            let at = format!("{kind} {home}");
            let word_bits = mem.raw_geometry().word_bits;
            let word = (mem.raw_bits() / word_bits) / 2;
            // Two data bits under SECDED, so the stored data changes.
            let [a, b] = if has_secded(kind) {
                [Secded::DATA_POSITIONS[0], Secded::DATA_POSITIONS[20]].map(|p| p as usize)
            } else {
                [1, word_bits - 2]
            };
            let bit = word * word_bits;
            mem.flip_raw_bit(bit + a);
            mem.flip_raw_bit(bit + b);
            let summary = mem.scrub();
            assert_eq!(summary.uncorrectable, usize::from(has_secded(kind)), "{at}");
            let radius = mem.blast_radius(bit);
            let hit = garbled(&mem.read_weights(), &want);
            assert!(!hit.is_empty(), "{at}: nothing garbled");
            assert!(
                hit.iter().all(|i| radius.contains(i)),
                "{at}: {hit:?} outside {radius:?}"
            );
        }
    }

    /// A sparse write changes only the raw words covering the touched
    /// weights: a raw error planted in any other word survives it bit
    /// for bit, and a weight listed twice keeps its last value. The
    /// updates cross every payload's read-group boundary and hit the last
    /// weight.
    fn sparse_write_preserves_untouched_raw_state(kind: SubstrateKind) {
        let w = weights();
        let updates = [
            (0, 0.5),
            (1, -0.25),
            (13, 0.75),
            (0, -0.5),
            (127, 0.125),
            (128, -1.0),
            (255, 0.25),
            (256, -0.75),
            (511, 1.0),
            (512, -1.25),
            (600, 1.5),
        ];
        let mut want = kind.store(&w).read_weights();
        let snapped = kind.store(&updates.map(|u| u.1)).read_weights();
        for (&(idx, _), &v) in updates.iter().zip(&snapped) {
            want[idx] = v;
        }
        for (home, mut mem) in homes(kind, &w) {
            let at = format!("{kind} {home}");
            let touched = |mem: &dyn WeightSubstrate, bit: usize| {
                let radius = mem.blast_radius(bit);
                updates.iter().any(|&(idx, _)| radius.contains(&idx))
            };
            // Plant a raw error in the word holding weight 20.
            let planted = (0..mem.raw_bits())
                .find(|&b| mem.blast_radius(b).contains(&20))
                .unwrap();
            assert!(!touched(&*mem, planted), "{at}");
            mem.flip_raw_bit(planted);
            let before: Vec<bool> = (0..mem.raw_bits()).map(|b| mem.raw_bit(b)).collect();
            mem.write_weights_sparse(&updates).unwrap();
            for (bit, &was) in before.iter().enumerate() {
                if !touched(&*mem, bit) {
                    assert_eq!(mem.raw_bit(bit), was, "{at}: untouched raw bit {bit}");
                }
            }
            let seen = mem.read_weights();
            let hit = garbled(&seen, &want);
            if has_secded(kind) {
                assert!(hit.is_empty(), "{at}: {hit:?}");
                assert_eq!(mem.scrub().corrected, 1, "{at}: planted error lost");
            } else {
                assert!(
                    hit.iter().all(|&i| mem.blast_radius(planted).contains(&i)),
                    "{at}"
                );
            }
        }
    }

    /// Raw-bit access past the image panics.
    fn flip_bounds_checked(kind: SubstrateKind) {
        let w = weights();
        for (home, mut mem) in homes(kind, &w) {
            let bits = mem.raw_bits();
            assert!(
                out_of_range(|| {
                    let _ = mem.raw_bit(bits);
                }),
                "{kind} {home}"
            );
            assert!(out_of_range(|| mem.flip_raw_bit(bits)), "{kind} {home}");
            assert!(
                out_of_range(|| {
                    let _ = mem.blast_radius(bits);
                }),
                "{kind} {home}"
            );
        }
    }

    /// True when `f` panics with an "out of range" message.
    fn out_of_range(f: impl FnOnce()) -> bool {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("no panic");
        err.downcast_ref::<String>()
            .is_some_and(|m| m.contains("out of range"))
    }

    /// Writes of the wrong length or past the last weight are rejected
    /// and leave storage alone.
    fn write_bounds_checked(kind: SubstrateKind) {
        let w = weights();
        for (home, mut mem) in homes(kind, &w) {
            let image = mem.export_raw();
            assert_eq!(
                mem.write_weights(&w[1..]),
                Err(SubstrateError::LengthMismatch {
                    expected: 601,
                    got: 600
                }),
                "{kind} {home}"
            );
            assert_eq!(
                mem.write_weights_sparse(&[(3, 1.0), (601, 0.0)]),
                Err(SubstrateError::LengthMismatch {
                    expected: 601,
                    got: 602
                }),
                "{kind} {home}"
            );
            assert_eq!(mem.export_raw(), image, "{kind} {home}: storage changed");
        }
    }

    /// A full write-back re-encodes every raw word, healing any raw
    /// corruption (the MILR recovery write path).
    fn write_back_heals(kind: SubstrateKind) {
        let w = weights();
        let want = kind.store(&w).read_weights();
        for ((home, mut mem), (_, fresh)) in homes(kind, &w).into_iter().zip(homes(kind, &w)) {
            for bit in (0..mem.raw_bits()).step_by(7).take(40) {
                mem.flip_raw_bit(bit);
            }
            mem.write_weights(&w).unwrap();
            assert!(mem.scrub().is_clean(), "{kind} {home}");
            assert_eq!(bits(&mem.read_weights()), bits(&want), "{kind} {home}");
            assert_eq!(
                mem.export_raw(),
                fresh.export_raw(),
                "{kind} {home}: raw image"
            );
        }
    }

    /// One test per behaviour and kind, so a failure names both.
    macro_rules! per_kind {
        ($($module:ident: $kind:ident),* $(,)?) => {$(
            mod $module {
                use crate::SubstrateKind;

                #[test]
                fn roundtrip() {
                    super::roundtrip(SubstrateKind::$kind);
                }

                #[test]
                fn single_flip() {
                    super::single_flip(SubstrateKind::$kind);
                }

                #[test]
                fn double_flip_garbles_its_blast_radius() {
                    super::double_flip_garbles_its_blast_radius(SubstrateKind::$kind);
                }

                #[test]
                fn sparse_write_preserves_untouched_raw_state() {
                    super::sparse_write_preserves_untouched_raw_state(SubstrateKind::$kind);
                }

                #[test]
                fn flip_bounds_checked() {
                    super::flip_bounds_checked(SubstrateKind::$kind);
                }

                #[test]
                fn write_bounds_checked() {
                    super::write_bounds_checked(SubstrateKind::$kind);
                }

                #[test]
                fn write_back_heals() {
                    super::write_back_heals(SubstrateKind::$kind);
                }
            }
        )*};
    }

    per_kind!(
        plain: Plain,
        secded: Secded,
        xts: Xts,
        xts_secded: XtsSecded,
        int8: Int8,
        fp16: Fp16,
        int8_secded: Int8Secded,
        fp16_secded: Fp16Secded,
    );
}
