use crate::FaultRng;
use milr_substrate::WeightSubstrate;
use std::collections::BTreeSet;

/// Summary of one injection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionReport {
    /// Total bits flipped.
    pub flipped_bits: usize,
    /// Distinct raw words (weights, code words, or ciphertext blocks)
    /// touched.
    pub affected_words: usize,
}

/// Exact distinct-word counter for injection reports. The old scheme
/// (compare against the immediately previous word) was only correct for
/// monotone visit orders; correlated bursts revisit earlier words, so
/// every injector now counts through this.
#[derive(Default)]
struct WordSet {
    words: BTreeSet<usize>,
}

impl WordSet {
    fn insert(&mut self, word: usize) {
        self.words.insert(word);
    }

    fn len(&self) -> usize {
        self.words.len()
    }
}

/// Walks a Bernoulli(rate) process over `total_bits` positions using
/// geometric skip-sampling, invoking `visit` for each selected bit.
///
/// This is the single RNG-consuming loop of RBER injection, so
/// plaintext, SECDED, ciphertext, and composed substrates all draw the
/// *same* flip sequence from a given seed — the invariant behind the
/// seed-for-seed reproducibility of the benchmark arms.
fn walk_bits(total_bits: usize, rate: f64, rng: &mut FaultRng, mut visit: impl FnMut(usize)) {
    let mut pos = rng.geometric_gap(rate);
    while pos < total_bits {
        visit(pos);
        // A saturated gap (rates below f64's resolution) ends the walk.
        pos = pos
            .saturating_add(1)
            .saturating_add(rng.geometric_gap(rate));
    }
}

/// Flips each bit of the substrate's **raw representation**
/// independently with probability `rber` — experiment (1) of the paper
/// ("injecting the network with random bit flips with varying Raw Bit
/// Error Rate"), generalized over [`WeightSubstrate`]: for plain
/// buffers the raw bits are the 32 bits of each `f32` ("regardless of
/// bit position and role"); for ECC memory the 39-bit code words; for
/// encrypted memory the ciphertext.
///
/// Skip-sampling makes this O(expected flips), so paper-scale buffers
/// (millions of weights) inject in microseconds even at high rates.
///
/// # Panics
///
/// Panics unless `0 <= rber <= 1`.
pub fn inject_rber<S: WeightSubstrate + ?Sized>(
    memory: &mut S,
    rber: f64,
    rng: &mut FaultRng,
) -> InjectionReport {
    assert!((0.0..=1.0).contains(&rber), "rber {rber} out of range");
    let mut report = InjectionReport::default();
    if rber == 0.0 || memory.is_empty() {
        return report;
    }
    let mut words = WordSet::default();
    let total_bits = memory.raw_bits();
    walk_bits(total_bits, rber, rng, |pos| {
        memory.flip_raw_bit(pos);
        report.flipped_bits += 1;
        words.insert(memory.raw_word_of_bit(pos));
    });
    report.affected_words = words.len();
    report
}

/// Flips **every** bit of each weight independently selected with
/// probability `q` — experiment (2): "whole-weights are injected by
/// flipping every bit in a weight with a probability of q", modelling
/// the plaintext signature of ciphertext-space corruption.
///
/// Whole-weight errors are defined in *plaintext space*, so the generic
/// form reads the substrate's plaintext view, inverts the selected
/// weights, and writes them back through
/// [`WeightSubstrate::write_weights_sparse`]: only the selected words
/// (and, on XTS substrates, the 16-byte blocks holding them) are
/// re-encoded, so raw-space error state left by a prior injection on
/// *other* words survives and composed raw+plaintext campaigns keep
/// honest scrub statistics. For plain buffers this degenerates to
/// in-place bit inversion.
///
/// # Panics
///
/// Panics unless `0 <= q <= 1`.
pub fn inject_whole_weight<S: WeightSubstrate + ?Sized>(
    memory: &mut S,
    q: f64,
    rng: &mut FaultRng,
) -> InjectionReport {
    assert!((0.0..=1.0).contains(&q), "q {q} out of range");
    let mut report = InjectionReport::default();
    if q == 0.0 || memory.is_empty() {
        return report;
    }
    let weights = memory.read_weights();
    let mut updates = Vec::new();
    let mut idx = rng.geometric_gap(q);
    while idx < weights.len() {
        updates.push((idx, f32::from_bits(!weights[idx].to_bits())));
        report.flipped_bits += 32;
        report.affected_words += 1;
        idx = idx.saturating_add(1).saturating_add(rng.geometric_gap(q));
    }
    if !updates.is_empty() {
        memory
            .write_weights_sparse(&updates)
            .expect("selected indices are in range");
    }
    report
}

/// Flips an explicit list of raw bits (deduplicated positions flip
/// once per occurrence — an even number of visits cancels out, like
/// real re-hammering). The report counts distinct words exactly, in
/// any visit order.
///
/// # Panics
///
/// Panics when any position is out of range.
pub fn inject_bits<S: WeightSubstrate + ?Sized>(memory: &mut S, bits: &[usize]) -> InjectionReport {
    let mut report = InjectionReport::default();
    let mut words = WordSet::default();
    for &bit in bits {
        memory.flip_raw_bit(bit);
        report.flipped_bits += 1;
        words.insert(memory.raw_word_of_bit(bit));
    }
    report.affected_words = words.len();
    report
}

/// Replaces every weight with a uniformly random value guaranteed to
/// differ from the original — experiment (3): "each layer individually
/// has all of its parameters replaced by random values, where none of
/// the values were the same as the original value".
///
/// Replacement values are random finite `f32` bit patterns in the same
/// broad magnitude range as trained weights (drawn from `[-1, 1)`), so
/// the corrupted layer is maximally wrong yet numerically well-behaved.
///
/// Like [`inject_whole_weight`], the write-back re-encodes the whole
/// buffer and therefore resets any raw-space error state on coded
/// substrates.
pub fn corrupt_layer<S: WeightSubstrate + ?Sized>(
    memory: &mut S,
    rng: &mut FaultRng,
) -> InjectionReport {
    let mut weights = memory.read_weights();
    for w in weights.iter_mut() {
        loop {
            // 24 random bits -> uniform in [-1, 1), like the substrate's
            // PRNG weights.
            let candidate = (rng.bits32() >> 8) as f32 / (1u32 << 23) as f32 - 1.0;
            if candidate != *w {
                *w = candidate;
                break;
            }
        }
    }
    let report = InjectionReport {
        flipped_bits: weights.len() * 32,
        affected_words: weights.len(),
    };
    if !weights.is_empty() {
        memory
            .write_weights(&weights)
            .expect("substrate accepts its own length");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_substrate::{DirectCommitter, FileSubstrate, StdFile, SubstrateKind};
    use std::sync::Arc;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.01 - 1.0).collect()
    }

    /// Encodes `weights` onto a one-page [`FileSubstrate`] over a fresh
    /// temp file, unlinked at once (the open descriptor keeps it alive
    /// until the substrate drops). One page keeps XTS tweaks, and hence
    /// garbled plaintext, identical to the in-memory substrate's.
    fn paged(kind: SubstrateKind, weights: &[f32]) -> FileSubstrate {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "milr-fault-test-{}-{}.raw",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let io = Arc::new(StdFile::create(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let committer = Arc::new(DirectCommitter::new(Arc::clone(&io) as _));
        FileSubstrate::create(kind, io, committer, 0, weights, weights.len(), 8).unwrap()
    }

    #[test]
    fn rber_zero_is_noop() {
        let mut w = weights(100);
        let orig = w.clone();
        let report = inject_rber(&mut w, 0.0, &mut FaultRng::seed(1));
        assert_eq!(report, InjectionReport::default());
        assert_eq!(w, orig);
    }

    #[test]
    fn rber_flip_count_tracks_rate() {
        let mut w = weights(10_000); // 320k bits
        let report = inject_rber(&mut w, 1e-3, &mut FaultRng::seed(2));
        // Expect ~320 flips; accept a wide 3-sigma-ish band.
        assert!(
            report.flipped_bits > 200 && report.flipped_bits < 460,
            "{report:?}"
        );
        assert!(report.affected_words <= report.flipped_bits);
    }

    #[test]
    fn rber_one_flips_everything() {
        let mut w = weights(4);
        let orig = w.clone();
        let report = inject_rber(&mut w, 1.0, &mut FaultRng::seed(3));
        assert_eq!(report.flipped_bits, 4 * 32);
        assert_eq!(report.affected_words, 4);
        for (a, b) in w.iter().zip(orig.iter()) {
            assert_eq!(a.to_bits(), !b.to_bits());
        }
    }

    #[test]
    fn rates_below_f64_resolution_flip_nothing() {
        // At 1e-17, `1 - p` rounds to 1; the geometric gap must stay
        // huge so almost nothing flips, not collapse to "every bit".
        let mut w = [0.0f32; 1000];
        let report = inject_rber(&mut w[..], 1e-17, &mut FaultRng::seed(11));
        assert_eq!(report.flipped_bits, 0, "{report:?}");
        assert!(w.iter().all(|x| x.to_bits() == 0));
        let mut w = weights(1000);
        let report = inject_whole_weight(&mut w, 1e-17, &mut FaultRng::seed(12));
        assert_eq!(report, InjectionReport::default());
        assert_eq!(w, weights(1000));
    }

    #[test]
    fn rber_is_reproducible() {
        let mut w1 = weights(1000);
        let mut w2 = weights(1000);
        inject_rber(&mut w1, 1e-2, &mut FaultRng::seed(9));
        inject_rber(&mut w2, 1e-2, &mut FaultRng::seed(9));
        // Compare bit patterns: flips can produce NaN, where `==` fails.
        let b1: Vec<u32> = w1.iter().map(|x| x.to_bits()).collect();
        let b2: Vec<u32> = w2.iter().map(|x| x.to_bits()).collect();
        assert_eq!(b1, b2);
    }

    #[test]
    fn rber_draws_identical_flip_sequence_across_substrates() {
        // The unified-injector invariant: with equal raw sizes and equal
        // seeds, the *positions* flipped are the same regardless of what
        // the raw bits mean.
        let w = weights(500);
        let mut plain = SubstrateKind::Plain.store(&w);
        let mut xts = SubstrateKind::Xts.store(&w);
        // Sizes differ (padding), so compare against a replay instead.
        let plain_report = inject_rber(&mut *plain, 2e-3, &mut FaultRng::seed(42));
        let mut replay = SubstrateKind::Plain.store(&w);
        let replay_report = inject_rber(&mut *replay, 2e-3, &mut FaultRng::seed(42));
        assert_eq!(plain_report, replay_report);
        assert_eq!(
            plain
                .read_weights()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            replay
                .read_weights()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        let xts_report = inject_rber(&mut *xts, 2e-3, &mut FaultRng::seed(42));
        assert!(xts_report.flipped_bits > 0);
    }

    #[test]
    fn whole_weight_inverts_selected_words() {
        let mut w = weights(5000);
        let orig = w.clone();
        let report = inject_whole_weight(&mut w, 0.01, &mut FaultRng::seed(4));
        assert!(report.affected_words > 10, "{report:?}");
        assert_eq!(report.flipped_bits, report.affected_words * 32);
        let mut seen = 0;
        for (a, b) in w.iter().zip(orig.iter()) {
            if a.to_bits() != b.to_bits() {
                assert_eq!(a.to_bits(), !b.to_bits(), "partial flip detected");
                seen += 1;
            }
        }
        assert_eq!(seen, report.affected_words);
    }

    #[test]
    fn whole_weight_through_encrypted_substrate() {
        // Whole-weight errors are plaintext-space: through an encrypted
        // substrate they must land on exactly the selected weights, not
        // on block-aligned groups.
        let w = weights(64);
        let mut mem = SubstrateKind::Xts.store(&w);
        let report = inject_whole_weight(&mut *mem, 0.2, &mut FaultRng::seed(12));
        assert!(report.affected_words > 0);
        let seen = mem.read_weights();
        let changed = seen
            .iter()
            .zip(w.iter())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(changed, report.affected_words);
        for (a, b) in seen.iter().zip(w.iter()) {
            if a.to_bits() != b.to_bits() {
                assert_eq!(a.to_bits(), !b.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_layer_changes_every_weight() {
        let mut w = weights(257);
        let orig = w.clone();
        let report = corrupt_layer(&mut w, &mut FaultRng::seed(5));
        assert_eq!(report.affected_words, 257);
        for (a, b) in w.iter().zip(orig.iter()) {
            assert_ne!(a, b);
            assert!(a.is_finite());
            assert!((-1.0..1.0).contains(a));
        }
    }

    #[test]
    fn corrupt_layer_through_substrates() {
        let w = weights(33);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            let report = corrupt_layer(&mut *mem, &mut FaultRng::seed(6));
            assert_eq!(report.affected_words, 33, "{kind}");
            let seen = mem.read_weights();
            for (a, b) in seen.iter().zip(w.iter()) {
                assert_ne!(a, b, "{kind}");
            }
        }
    }

    #[test]
    fn secded_injection_is_correctable_at_low_rate() {
        let w = weights(2000);
        let mut mem = SubstrateKind::Secded.store(&w);
        // Rate low enough that double errors in one 39-bit word are
        // unlikely.
        let report = inject_rber(&mut *mem, 1e-4, &mut FaultRng::seed(6));
        assert!(report.flipped_bits > 0);
        let scrub = mem.scrub();
        assert_eq!(scrub.uncorrectable, 0);
        assert_eq!(mem.read_weights(), w);
    }

    #[test]
    fn secded_injection_at_high_rate_defeats_ecc() {
        let w = weights(2000);
        let mut mem = SubstrateKind::Secded.store(&w);
        inject_rber(&mut *mem, 0.02, &mut FaultRng::seed(7));
        let scrub = mem.scrub();
        assert!(scrub.uncorrectable > 0, "{scrub:?}");
        assert_ne!(mem.read_weights(), w);
    }

    #[test]
    fn composed_substrate_survives_low_rate_rber() {
        // At low RBER nearly all codeword hits are single-bit: the
        // ciphertext-space ECC corrects them and the plaintext decrypts
        // intact — the composed substrate's reason to exist.
        let w = weights(4000);
        let mut mem = SubstrateKind::XtsSecded.store(&w);
        let report = inject_rber(&mut *mem, 1e-4, &mut FaultRng::seed(13));
        assert!(report.flipped_bits > 0);
        let summary = mem.scrub();
        if summary.uncorrectable == 0 {
            assert_eq!(mem.read_weights(), w);
        } else {
            assert_ne!(mem.read_weights(), w);
        }
    }

    #[test]
    fn ciphertext_injection_garbles_blocks() {
        let w = weights(64);
        let mut mem = SubstrateKind::Xts.store(&w);
        let before = mem.export_raw();
        let report = inject_rber(&mut *mem, 5e-3, &mut FaultRng::seed(8));
        // Walked positions strictly increase, so each flipped bit shows
        // in the ciphertext diff.
        let after = mem.export_raw();
        let bits: Vec<usize> = (0..mem.raw_bits())
            .filter(|&b| (before[b / 8] ^ after[b / 8]) >> (b % 8) & 1 == 1)
            .collect();
        assert!(report.flipped_bits > 0);
        assert_eq!(report.flipped_bits, bits.len());
        let blocks: std::collections::HashSet<usize> =
            bits.iter().map(|&b| mem.raw_word_of_bit(b)).collect();
        assert_eq!(report.affected_words, blocks.len(), "garbled blocks");
        let seen = mem.read_weights();
        // Every flipped bit's blast radius contains changed weights.
        for &bit in &bits {
            let radius = mem.blast_radius(bit);
            assert!(
                radius.clone().any(|i| seen[i] != w[i]),
                "bit {bit} radius {radius:?} unchanged"
            );
        }
        // Weights outside all blast radii are intact.
        let garbled: std::collections::HashSet<usize> =
            bits.iter().flat_map(|&b| mem.blast_radius(b)).collect();
        for (i, (a, b)) in seen.iter().zip(w.iter()).enumerate() {
            if !garbled.contains(&i) {
                assert_eq!(a, b, "weight {i} outside blast radius changed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rber_validates_probability() {
        inject_rber(&mut [0.0f32][..], 1.5, &mut FaultRng::seed(0));
    }

    #[test]
    fn rber_over_file_backed_substrates_matches_in_memory() {
        // The injectors are substrate-generic, so the same seed draws
        // the same flip sequence whether the raw image lives in RAM or
        // in paged file storage — file-backed raw space is just
        // another fault surface.
        let w = weights(300);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            let mut file = paged(kind, &w);
            assert_eq!(mem.raw_bits(), file.raw_bits(), "{kind}");
            let a = inject_rber(&mut *mem, 3e-3, &mut FaultRng::seed(17));
            let b = inject_rber(&mut file, 3e-3, &mut FaultRng::seed(17));
            assert_eq!(a, b, "{kind}");
            let ma: Vec<u32> = mem.read_weights().iter().map(|x| x.to_bits()).collect();
            let fa: Vec<u32> = file.read_weights().iter().map(|x| x.to_bits()).collect();
            assert_eq!(ma, fa, "{kind}: plaintext view diverged");
        }
    }

    #[test]
    fn affected_words_counts_distinct_words_exactly() {
        // Revisit word 0 after touching word 1: the old `last_word`
        // transition counter reported 3 affected words here; the
        // distinct count is 2.
        let mut w = weights(4);
        let report = inject_bits(&mut w[..], &[0, 35, 7]);
        assert_eq!(report.flipped_bits, 3);
        assert_eq!(report.affected_words, 2);
        // Two visits to the same bit cancel (re-hammering).
        let mut v = weights(4);
        let orig: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        let report = inject_bits(&mut v[..], &[5, 5]);
        assert_eq!(report.flipped_bits, 2);
        assert_eq!(report.affected_words, 1);
        let now: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(now, orig);
    }

    #[test]
    fn affected_words_is_distinct_under_every_substrate() {
        // Property over all kinds: report.affected_words equals the
        // distinct raw_word_of_bit image of the flipped positions.
        let w = weights(600);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            let probe = kind.store(&w);
            let mut rng = FaultRng::seed(77);
            let report = inject_rber(&mut *mem, 4e-3, &mut rng);
            // Replay the identical flip sequence to recover positions.
            let mut rng2 = FaultRng::seed(77);
            let mut distinct = std::collections::HashSet::new();
            let mut pos = rng2.geometric_gap(4e-3);
            let mut flips = 0;
            while pos < probe.raw_bits() {
                distinct.insert(probe.raw_word_of_bit(pos));
                flips += 1;
                pos += 1 + rng2.geometric_gap(4e-3);
            }
            assert_eq!(report.flipped_bits, flips, "{kind}");
            assert_eq!(report.affected_words, distinct.len(), "{kind}");
        }
    }

    #[test]
    fn whole_weight_preserves_raw_error_state_on_coded_substrate() {
        // Satellite regression: compose a raw-space injection with a
        // plaintext-space injection on ONE SECDED substrate. The raw
        // double-bit error planted in word 0 must still be visible to
        // scrub after the whole-weight pass — the old whole-buffer
        // write-back re-encoded word 0 and reported a clean scrub.
        let w = weights(400);
        let mut mem = SubstrateKind::Secded.store(&w);
        mem.flip_raw_bit(2);
        mem.flip_raw_bit(17); // word 0: uncorrectable
        let word0_before = mem.export_raw()[..8].to_vec();
        let report = inject_whole_weight(&mut *mem, 0.05, &mut FaultRng::seed(31));
        assert!(report.affected_words > 0);
        // Precondition for the assertion below: weight 0 was not among
        // the selected weights under this seed.
        assert_eq!(
            mem.export_raw()[..8],
            word0_before,
            "seed 31 selected weight 0"
        );
        let scrub = mem.scrub();
        assert!(
            scrub.uncorrectable >= 1,
            "raw error state erased by whole-weight write-back: {scrub:?}"
        );
    }

    #[test]
    fn whole_weight_composes_with_raw_state_across_kinds() {
        // The selected weights must invert and unselected raw words (or
        // blocks) must keep their bytes bit-for-bit.
        let w = weights(128);
        for kind in SubstrateKind::ALL {
            let mut mem = kind.store(&w);
            let before = mem.export_raw();
            let report = inject_whole_weight(&mut *mem, 0.1, &mut FaultRng::seed(19));
            assert!(report.affected_words > 0, "{kind}");
            let seen = mem.read_weights();
            let changed = (0..w.len())
                .filter(|&i| seen[i].to_bits() != w[i].to_bits())
                .count();
            assert_eq!(changed, report.affected_words, "{kind}");
            for (a, b) in seen.iter().zip(w.iter()) {
                if a.to_bits() != b.to_bits() {
                    assert_eq!(a.to_bits(), !b.to_bits(), "{kind}: partial flip");
                }
            }
            // At least one raw byte region is untouched when fewer than
            // all weights were selected.
            if report.affected_words < w.len() {
                let after = mem.export_raw();
                assert!(
                    after.iter().zip(before.iter()).any(|(a, b)| a == b),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn whole_weight_and_layer_corruption_reach_file_pages() {
        let w = weights(120);
        for kind in SubstrateKind::ALL {
            let mut mem = paged(kind, &w);
            let report = inject_whole_weight(&mut mem, 0.1, &mut FaultRng::seed(23));
            assert!(report.affected_words > 0, "{kind}");
            let seen = mem.read_weights();
            let changed = seen
                .iter()
                .zip(w.iter())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(changed, report.affected_words, "{kind}");
            let mut mem = paged(kind, &w);
            corrupt_layer(&mut mem, &mut FaultRng::seed(24));
            for (a, b) in mem.read_weights().iter().zip(w.iter()) {
                assert_ne!(a, b, "{kind}");
            }
        }
    }
}
