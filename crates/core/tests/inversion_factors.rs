//! The backward-pass factor cache (DESIGN.md §18, "Factor once per
//! weight state") changes how often a heal factors, never what it
//! returns: a heal on a fresh instance (cold), on an instance that
//! healed before (warm), and on that instance after `reprotect` must
//! give the same outcomes and the same healed parameter bits, and the
//! cache must never reach the serialized bytes.

use milr_core::{Milr, MilrConfig, RecoveryOutcome};
use milr_models::{reduced_cifar_small, reduced_mnist};
use milr_nn::Sequential;
use std::collections::BTreeMap;

/// CIFAR-small's last conv layer: every heal of it that needs golden
/// data inverts dense 18.
const CONV_LAST: usize = 14;
const DENSE: usize = 18;
/// Weights `(z, y)`, `(z, y + 1)`, `(z + 1, y)` and `(z + 1, y + 1)` of
/// one `(Z, Y)` slice of layer 14 (24 output channels). Every cell
/// shares its row chunk and its column chunk with another, so no CRC
/// pins them: their heal propagates the checkpoints and least-squares
/// them, which a single-cell fault (pinned by the CRC alone) never does.
const SQUARE: [usize; 4] = [0, 1, 24, 25];

fn protect(model: &Sequential) -> Milr {
    Milr::protect(model, MilrConfig::default()).unwrap()
}

/// Every layer's parameter bits, indexed by layer (empty for layers
/// without parameters).
fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    model
        .layers()
        .iter()
        .map(|l| {
            l.params()
                .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// `golden` with every bit of weight `weight` of layer `layer` flipped.
fn flip_weight(golden: &Sequential, layer: usize, weight: usize) -> Sequential {
    let mut m = golden.clone();
    let p = m.layers_mut()[layer].params_mut().unwrap();
    p.data_mut()[weight] = f32::from_bits(!p.data()[weight].to_bits());
    m
}

/// `golden` with every bit of each [`SQUARE`] weight of layer 14 flipped.
fn flip_square(golden: &Sequential) -> Sequential {
    SQUARE
        .iter()
        .fold(golden.clone(), |m, &w| flip_weight(&m, CONV_LAST, w))
}

/// Heals `flagged` in a copy of `faulty`; returns the outcomes and the
/// healed model's parameter bits.
fn heal(
    milr: &Milr,
    faulty: &Sequential,
    flagged: &[usize],
) -> (Vec<(usize, RecoveryOutcome)>, Vec<Vec<u32>>) {
    let mut m = faulty.clone();
    let report = milr.recover_layers(&mut m, flagged).unwrap();
    (report.outcomes, param_bits(&m))
}

#[test]
fn cold_warm_and_reprotected_heals_are_bit_identical() {
    for golden in [reduced_mnist(42).model, reduced_cifar_small(42).model] {
        let mut warm = protect(&golden);
        let layers: Vec<usize> = (0..golden.len())
            .filter(|&i| golden.layers()[i].param_count() > 0)
            .collect();
        for &layer in &layers {
            let n = golden.layers()[layer].param_count();
            for weight in [0, n / 2, n - 1] {
                let faulty = flip_weight(&golden, layer, weight);
                let cold = heal(&protect(&golden), &faulty, &[layer]);
                let case = format!("layer {layer} weight {weight}");
                assert_eq!(heal(&warm, &faulty, &[layer]), cold, "warm, {case}");
                warm.reprotect(&golden).unwrap();
                assert_eq!(heal(&warm, &faulty, &[layer]), cold, "reprotected, {case}");
            }
        }
        let stats = warm.inversion_factor_stats();
        assert!(stats.hits > 0 && stats.entries > 0, "{stats:?}");
    }
}

#[test]
fn the_cache_never_reaches_the_serialized_bytes() {
    let golden = reduced_cifar_small(42).model;
    let cold = protect(&golden);
    let warm = protect(&golden);
    let faulty = flip_square(&golden);
    heal(&warm, &faulty, &[CONV_LAST]);
    assert!(warm.inversion_factor_stats().entries > 0);
    assert_eq!(warm.to_bytes(), cold.to_bytes());
    // A deserialized instance starts cold and heals the same bits.
    let restored = Milr::from_bytes(&warm.to_bytes()).unwrap();
    assert_eq!(restored.inversion_factor_stats().entries, 0);
    assert_eq!(
        heal(&restored, &faulty, &[CONV_LAST]),
        heal(&warm, &faulty, &[CONV_LAST])
    );
}

#[test]
fn a_second_heal_hits_and_a_one_ulp_change_misses() {
    let golden = reduced_cifar_small(42).model;
    let milr = protect(&golden);
    // The square's bits come from the least-squares solve.
    let faulty = flip_square(&golden);
    let first = heal(&milr, &faulty, &[CONV_LAST]);
    let after_first = milr.inversion_factor_stats();
    assert!(after_first.misses > 0, "{after_first:?}");
    assert_eq!(after_first.hits, 0, "{after_first:?}");

    // Same weights below the checkpoint: every inversion hits.
    assert_eq!(heal(&milr, &faulty, &[CONV_LAST]), first);
    let after_second = milr.inversion_factor_stats();
    assert_eq!(after_second.misses, after_first.misses);
    assert_eq!(after_second.hits, after_first.misses);

    // One ulp in dense 18 is a different weight state: its factor is
    // rebuilt, and the heal equals a fresh instance's.
    let mut nudged = faulty.clone();
    let p = nudged.layers_mut()[DENSE].params_mut().unwrap();
    p.data_mut()[5] = f32::from_bits(p.data()[5].to_bits() + 1);
    let warm = heal(&milr, &nudged, &[CONV_LAST]);
    let after_nudge = milr.inversion_factor_stats();
    assert_eq!(
        after_nudge.misses,
        after_second.misses + 1,
        "{after_nudge:?}"
    );
    assert_eq!(after_nudge.entries, after_second.entries);
    assert_eq!(warm, heal(&protect(&golden), &nudged, &[CONV_LAST]));

    // A sign flip of that weight moves the square's least-squares bits,
    // so a stale factor would show in the heal itself, not only in the
    // counts.
    let mut flipped = faulty.clone();
    let p = flipped.layers_mut()[DENSE].params_mut().unwrap();
    p.data_mut()[5] = -p.data()[5];
    let warm = heal(&milr, &flipped, &[CONV_LAST]);
    assert_ne!(warm.1[CONV_LAST], first.1[CONV_LAST]);
    assert_eq!(milr.inversion_factor_stats().misses, after_nudge.misses + 1);
    assert_eq!(warm, heal(&protect(&golden), &flipped, &[CONV_LAST]));
}

#[test]
fn clones_share_the_cache() {
    let golden = reduced_cifar_small(42).model;
    let milr = protect(&golden);
    let clone = milr.clone();
    let faulty = flip_square(&golden);
    let first = heal(&milr, &faulty, &[CONV_LAST]);
    let misses = milr.inversion_factor_stats().misses;
    assert!(misses > 0);
    assert_eq!(heal(&clone, &faulty, &[CONV_LAST]), first);
    assert_eq!(clone.inversion_factor_stats().misses, misses);
    assert_eq!(
        clone.inversion_factor_stats(),
        milr.inversion_factor_stats()
    );
}

#[test]
fn warm_multi_segment_heal_matches_per_segment_calls() {
    let golden = reduced_cifar_small(42).model;
    let warm = protect(&golden);
    // One fault in the first parameterized layer of every segment.
    let mut faulty = golden.clone();
    let mut flagged = Vec::new();
    for (start, end) in warm.plan().segments() {
        if let Some(layer) = (start..end).find(|&i| golden.layers()[i].param_count() > 0) {
            let p = faulty.layers_mut()[layer].params_mut().unwrap();
            p.data_mut()[1] = f32::from_bits(!p.data()[1].to_bits());
            flagged.push(layer);
        }
    }
    assert!(flagged.len() >= 2, "{flagged:?}");
    heal(&warm, &faulty, &flagged);
    let joint = heal(&warm, &faulty, &flagged);

    let mut by_segment: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for &i in &flagged {
        by_segment
            .entry(warm.plan().segment_of(i))
            .or_default()
            .push(i);
    }
    let mut split = faulty.clone();
    let mut outcomes = Vec::new();
    for layers in by_segment.values() {
        outcomes.extend(
            protect(&golden)
                .recover_layers(&mut split, layers)
                .unwrap()
                .outcomes,
        );
    }
    assert_eq!(joint, (outcomes, param_bits(&split)));
}
