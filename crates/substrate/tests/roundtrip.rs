//! Property-style round-trip tests over every [`WeightSubstrate`]
//! implementation: encode → flip raw bits → scrub/decrypt must behave
//! per each substrate's contract (single-bit corrected under SECDED,
//! multi-bit passes through, a ciphertext flip garbles exactly one
//! 16-byte block under XTS, and the composed substrate corrects single
//! flips but garbles one block on double flips).

use milr_substrate::{SubstrateKind, WeightSubstrate};
use proptest::prelude::*;

fn weights(n: usize, seed: u64) -> Vec<f32> {
    // Cheap deterministic pattern; exact values are irrelevant, only
    // bit-exact round-tripping is.
    (0..n)
        .map(|i| ((i as u64 + 1).wrapping_mul(seed | 1) % 1000) as f32 * 0.013 - 6.5)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Storing then reading returns the original weights bit-exactly,
    /// for every substrate and buffer size (including non-block-aligned
    /// sizes for the encrypted substrates).
    #[test]
    fn store_read_roundtrip(n in 1usize..70, seed in 1u64..1000) {
        let w = weights(n, seed);
        for kind in SubstrateKind::ALL {
            let mem = kind.store(&w);
            prop_assert_eq!(mem.read_weights(), w.clone(), "{}", kind);
        }
    }

    /// Write-back after arbitrary raw corruption fully heals every
    /// substrate (the MILR recovery write path).
    #[test]
    fn write_back_heals_any_corruption(
        n in 4usize..40,
        seed in 1u64..1000,
        flips in proptest::collection::vec(0usize..128, 1..8),
    ) {
        let w = weights(n, seed);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            for &f in &flips {
                let bit = f % mem.raw_bits();
                mem.flip_raw_bit(bit);
            }
            mem.write_weights(&w).unwrap();
            mem.scrub();
            prop_assert_eq!(mem.read_weights(), w.clone(), "{}", kind);
        }
    }

    /// One raw flip under SECDED (plain or over ciphertext) is always
    /// corrected by the scrub; plain/xts substrates report clean scrubs.
    #[test]
    fn single_flip_contract(n in 1usize..40, seed in 1u64..1000, flip in 0usize..4096) {
        let w = weights(n, seed);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            let bit = flip % mem.raw_bits();
            mem.flip_raw_bit(bit);
            let summary = mem.scrub();
            match kind {
                SubstrateKind::Secded | SubstrateKind::XtsSecded => {
                    prop_assert_eq!(summary.corrected, 1, "{}", kind);
                    prop_assert_eq!(summary.uncorrectable, 0, "{}", kind);
                    prop_assert_eq!(mem.read_weights(), w.clone(), "{}", kind);
                }
                SubstrateKind::Plain | SubstrateKind::Xts => {
                    prop_assert!(summary.is_clean(), "{}", kind);
                    prop_assert_ne!(mem.read_weights(), w.clone(), "{}", kind);
                }
                _ => unreachable!("ALL holds only in-memory kinds"),
            }
        }
    }

    /// Two flips in one SECDED code word defeat the code: the scrub
    /// reports an uncorrectable word and the plaintext stays corrupt.
    #[test]
    fn double_flip_defeats_secded(n in 1usize..40, seed in 1u64..1000, word_sel in 0usize..4096) {
        let w = weights(n, seed);
        for kind in [SubstrateKind::Secded, SubstrateKind::XtsSecded] {
            let mut mem = kind.store(&w);
            let words = mem.raw_bits() / 39;
            let word = word_sel % words;
            mem.flip_raw_bit(word * 39 + 3);
            mem.flip_raw_bit(word * 39 + 21);
            let summary = mem.scrub();
            prop_assert_eq!(summary.uncorrectable, 1, "{}", kind);
            // Padding-only words (beyond the stored weights) can garble
            // without touching any valid weight; everywhere else the
            // plaintext must differ.
            if kind == SubstrateKind::Secded {
                prop_assert_ne!(mem.read_weights(), w.clone(), "{}", kind);
            }
        }
    }

    /// A plain-XTS ciphertext flip garbles weights in exactly one
    /// 16-byte block (the blast radius) and nothing else.
    #[test]
    fn xts_flip_garbles_exactly_one_block(n in 1usize..70, seed in 1u64..1000, flip in 0usize..8192) {
        let w = weights(n, seed);
        let mut mem = SubstrateKind::Xts.store(&w);
        let bit = flip % mem.raw_bits();
        let radius = mem.blast_radius(bit);
        mem.flip_raw_bit(bit);
        let seen = mem.read_weights();
        for (i, (a, b)) in seen.iter().zip(w.iter()).enumerate() {
            if !radius.contains(&i) {
                prop_assert_eq!(a, b, "weight {} outside radius {:?} changed", i, radius);
            }
        }
        // One 16-byte block of four weights, clamped to the stored ones;
        // AES diffusion: if any stored weight shares the block, at least
        // one of them changes.
        let block = mem.raw_word_of_bit(bit);
        prop_assert_eq!(radius.clone(), (block * 4).min(n)..(block * 4 + 4).min(n));
        if !radius.is_empty() {
            prop_assert!(
                radius.clone().any(|i| seen[i] != w[i]),
                "block {} unchanged after ciphertext flip", block
            );
        }
    }

    /// Composed substrate: double flip garbles only the hit block after
    /// scrubbing, exactly like bare XTS — ECC adds nothing against it.
    #[test]
    fn xts_secded_double_flip_blast_radius(n in 4usize..40, seed in 1u64..1000, word_sel in 0usize..256) {
        let w = weights(n, seed);
        let mut mem = SubstrateKind::XtsSecded.store(&w);
        let word = word_sel % (mem.raw_bits() / 39);
        let bit = word * 39;
        mem.flip_raw_bit(bit + 1);
        mem.flip_raw_bit(bit + 17);
        mem.scrub();
        let radius = mem.blast_radius(bit);
        let seen = mem.read_weights();
        for (i, (a, b)) in seen.iter().zip(w.iter()).enumerate() {
            if !radius.contains(&i) {
                prop_assert_eq!(a, b, "weight {} outside radius {:?} changed", i, radius);
            }
        }
    }
}

/// FNV-1a 64 over a byte stream: a stable digest for the raw-format
/// pins below.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the decoded weights' f32 bits.
fn weight_digest(w: &[f32]) -> u64 {
    digest(w.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// `kind` over `w` paged onto a fresh unlinked temp file, 6 weights per
/// page (so a page boundary splits a 16-byte XTS block) and 2 cached
/// pages.
fn paged(kind: SubstrateKind, w: &[f32]) -> Box<dyn WeightSubstrate> {
    use milr_substrate::{DirectCommitter, FileSubstrate, StdFile};
    use std::sync::Arc;
    let path = std::env::temp_dir().join(format!(
        "milr-roundtrip-pin-{}-{}.raw",
        std::process::id(),
        kind.name().replace('+', "-")
    ));
    let io = Arc::new(StdFile::create(&path).expect("creating temp page file"));
    std::fs::remove_file(&path).expect("unlinking temp page file");
    let committer = Arc::new(DirectCommitter::new(Arc::clone(&io) as _));
    Box::new(FileSubstrate::create(kind, io, committer, 0, w, 6, 2).expect("fresh temp file"))
}

/// The raw format of every kind, pinned: 45 weights (ending mid cipher
/// block and mid code word), three single raw flips in distinct raw
/// words and one double flip inside one raw word, then a scrub. Each row
/// holds digests of the raw image before and after the scrub, of the
/// decoded f32 bits before and after, and the scrub's counts — in
/// memory and paged.
#[test]
fn raw_format_pins() {
    type Pin = (&'static str, &'static str, [u64; 4], (usize, usize));
    #[rustfmt::skip]
    const PINS: [Pin; 16] = [
        ("plain", "memory", [0xa4d5137de384fe2f, 0xa4d5137de384fe2f, 0xa4d5137de384fe2f, 0xa4d5137de384fe2f], (0, 0)),
        ("plain", "paged", [0xa4d5137de384fe2f, 0xa4d5137de384fe2f, 0xa4d5137de384fe2f, 0xa4d5137de384fe2f], (0, 0)),
        ("secded", "memory", [0x76c39fc33eb5ced1, 0x0aa479d067d46287, 0x462b539b04bce4f7, 0x0aa479d067d46287], (3, 1)),
        ("secded", "paged", [0x76c39fc33eb5ced1, 0x0aa479d067d46287, 0x462b539b04bce4f7, 0x0aa479d067d46287], (3, 1)),
        ("xts", "memory", [0x6d72ba9baf0c53d7, 0xd6e5de4d51b40b90, 0x6d72ba9baf0c53d7, 0xd6e5de4d51b40b90], (0, 0)),
        ("xts", "paged", [0xb1cc14f922f870e1, 0x2386880f6d5f1ee5, 0xb1cc14f922f870e1, 0x2386880f6d5f1ee5], (0, 0)),
        ("xts+secded", "memory", [0x3121f7737c6bf7af, 0x05033d571f81a179, 0xb3b832968e1e85ed, 0x05033d571f81a179], (3, 1)),
        ("xts+secded", "paged", [0x34afefa0d16135a0, 0xb61824b2fa00a88b, 0x6d636f7e30c24fe6, 0xb61824b2fa00a88b], (3, 1)),
        ("int8", "memory", [0xcea805b3e5635367, 0x9e88ac245d7b9ff2, 0xcea805b3e5635367, 0x9e88ac245d7b9ff2], (0, 0)),
        ("int8", "paged", [0xcea805b3e5635367, 0x9e88ac245d7b9ff2, 0xcea805b3e5635367, 0x9e88ac245d7b9ff2], (0, 0)),
        ("fp16", "memory", [0xe2737a06b72a007e, 0x04fe99bf4f60151d, 0xe2737a06b72a007e, 0x04fe99bf4f60151d], (0, 0)),
        ("fp16", "paged", [0xe2737a06b72a007e, 0x04fe99bf4f60151d, 0xe2737a06b72a007e, 0x04fe99bf4f60151d], (0, 0)),
        ("int8+secded", "memory", [0xe1693bb164a94bc4, 0x2a4ae15a7e3bfc52, 0xffd254afe55abb96, 0x2a4ae15a7e3bfc52], (3, 1)),
        ("int8+secded", "paged", [0xb30d551d5e102b38, 0x9188fb113f023cfc, 0x86f8b4dbc2c4ab36, 0x9188fb113f023cfc], (3, 1)),
        ("fp16+secded", "memory", [0x98eb6fa8ce4ee3f6, 0xfcb39f9550d187e4, 0x88a7572c709091ec, 0xfcb39f9550d187e4], (3, 1)),
        ("fp16+secded", "paged", [0x98eb6fa8ce4ee3f6, 0xfcb39f9550d187e4, 0x88a7572c709091ec, 0xfcb39f9550d187e4], (3, 1)),
    ];
    let w: Vec<f32> = (0..45).map(|i| i as f32 * 0.173 - 3.9).collect();
    let kinds = SubstrateKind::ALL
        .into_iter()
        .chain(SubstrateKind::QUANTIZED);
    let mut got = Vec::new();
    for kind in kinds {
        for (home, mut mem) in [("memory", kind.store(&w)), ("paged", paged(kind, &w))] {
            let word_bits = mem.raw_geometry().word_bits;
            let words = mem.raw_bits() / word_bits;
            for (word, offset) in [(0, 3), (words / 3, 17), (2 * words / 3, 30)] {
                mem.flip_raw_bit(word * word_bits + offset % word_bits);
            }
            let double = words / 2 * word_bits;
            mem.flip_raw_bit(double + 1);
            mem.flip_raw_bit(double + word_bits - 2);
            let raw_before = digest(mem.export_raw());
            let read_before = weight_digest(&mem.read_weights());
            let summary = mem.scrub();
            let raw_after = digest(mem.export_raw());
            let read_after = weight_digest(&mem.read_weights());
            got.push((
                kind.name(),
                home,
                [raw_before, read_before, raw_after, read_after],
                (summary.corrected, summary.uncorrectable),
            ));
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(k, h, d, s)| {
            format!(
                "(\"{k}\", \"{h}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}], ({}, {})),",
                d[0], d[1], d[2], d[3], s.0, s.1
            )
        })
        .collect();
    assert_eq!(
        got,
        PINS,
        "raw format moved; measured:\n{}",
        table.join("\n")
    );
}
