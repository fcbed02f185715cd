//! Segment fan-out determinism: `Milr::recover_layers` heals one flagged
//! checkpoint segment inline and several on one scoped thread each
//! (DESIGN.md §4). Healing many segments in one call must return
//! **bit-identical** results to healing each segment with its own
//! inline call — same outcomes, same healed parameter bits.

use milr_core::{Milr, MilrConfig};
use milr_fault::{corrupt_layer, inject_rber, inject_whole_weight, FaultRng};
use milr_nn::{Activation, Layer, Sequential};
use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};
use std::collections::BTreeMap;

/// A model with several checkpoint segments and every layer kind.
fn test_model(seed: u64) -> Sequential {
    let mut rng = TensorRng::new(seed);
    let mut m = Sequential::new(vec![14, 14, 1]);
    let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
    m.push(Layer::conv2d_random(3, 1, 6, spec, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(6)).unwrap();
    m.push(Layer::Activation(Activation::Relu)).unwrap();
    m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
        .unwrap();
    m.push(Layer::conv2d_random(3, 6, 4, spec, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(4)).unwrap();
    m.push(Layer::Activation(Activation::Relu)).unwrap();
    m.push(Layer::Flatten).unwrap();
    m.push(Layer::dense_random(4 * 4 * 4, 8, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(8)).unwrap();
    m.push(Layer::Activation(Activation::Softmax)).unwrap();
    m
}

fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.params())
        .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn corrupt_rber(model: &mut Sequential, seed: u64) {
    let mut rng = FaultRng::seed(seed);
    for layer in model.layers_mut() {
        if let Some(p) = layer.params_mut() {
            inject_rber(p.data_mut(), 1e-3, &mut rng);
        }
    }
}

/// Heals `flagged` on two copies of `corrupted`: one `recover_layers`
/// call over every flagged segment, and one inline call per segment.
/// Asserts equal outcomes and healed bits; returns how many segments
/// the single call spanned.
fn assert_fan_out_matches_per_segment(
    milr: &Milr,
    corrupted: &Sequential,
    flagged: &[usize],
) -> usize {
    let mut by_segment: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for &i in flagged {
        by_segment
            .entry(milr.plan().segment_of(i))
            .or_default()
            .push(i);
    }

    let mut joint = corrupted.clone();
    let joint_outcomes = milr.recover_layers(&mut joint, flagged).unwrap().outcomes;

    let mut split = corrupted.clone();
    let mut split_outcomes = Vec::new();
    for layers in by_segment.values() {
        let report = milr.recover_layers(&mut split, layers).unwrap();
        split_outcomes.extend(report.outcomes);
    }

    assert_eq!(joint_outcomes, split_outcomes, "flagged {flagged:?}");
    assert_eq!(
        param_bits(&joint),
        param_bits(&split),
        "healed parameters differ for flagged {flagged:?}"
    );
    by_segment.len()
}

#[test]
fn multi_segment_recovery_matches_per_segment_calls() {
    let mut widest = 0;

    // Random bit errors in every parameterised layer, healed from the
    // detection verdict.
    let golden = test_model(3);
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    for fault_seed in 0u64..6 {
        let mut m = golden.clone();
        corrupt_rber(&mut m, fault_seed);
        let flagged = milr.detect(&m).unwrap().flagged;
        widest = widest.max(assert_fan_out_matches_per_segment(&milr, &m, &flagged));
    }

    // Whole-weight errors in every parameterised layer.
    let golden = test_model(9);
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let mut m = golden.clone();
    let mut rng = FaultRng::seed(5);
    for layer in m.layers_mut() {
        if let Some(p) = layer.params_mut() {
            inject_whole_weight(p.data_mut(), 5e-3, &mut rng);
        }
    }
    let flagged = milr.detect(&m).unwrap().flagged;
    widest = widest.max(assert_fan_out_matches_per_segment(&milr, &m, &flagged));

    // Whole-layer corruption of conv 0 and dense 8, an explicit target
    // list in two different segments.
    let mut m = golden.clone();
    corrupt_layer(
        m.layers_mut()[0].params_mut().unwrap().data_mut(),
        &mut FaultRng::seed(8),
    );
    corrupt_layer(
        m.layers_mut()[8].params_mut().unwrap().data_mut(),
        &mut FaultRng::seed(9),
    );
    widest = widest.max(assert_fan_out_matches_per_segment(&milr, &m, &[0, 8]));

    assert!(
        widest >= 2,
        "no case spanned two segments, so the fan-out never ran"
    );
}
