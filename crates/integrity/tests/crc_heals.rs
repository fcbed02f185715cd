//! Conv faults the 2-D CRC can pin heal to the golden bits, and a conv
//! heal is reported exact exactly when its bits are golden.
//!
//! A whole-weight fault is the only flagged cell of its row and column
//! chunks; an aligned 4-weight block (one XTS block of a layer whose
//! output-channel count is a multiple of 4) fills one row chunk, and
//! each of its cells is the only flagged cell of its column chunk. In
//! both cases the stored CRC-32 fixes every corrupted weight, however
//! small the weight, with no checkpoint propagation. Cells the CRC
//! cannot pin (e.g. a 2×2 square of one slice) take least-squares
//! values, and the CRC certificate reports such a heal `Approx`.

use milr_core::{Milr, MilrConfig, RecoveryOutcome};
use milr_integrity::{Budget, EscalationPolicy, IntegrityPipeline, ModelHost, Volatile};
use milr_models::{reduced_cifar_small, reduced_mnist};
use milr_nn::{Layer, Sequential};
use milr_substrate::SubstrateKind;
use milr_tensor::TensorRng;

/// Every parameter bit of `model`, layer after layer.
fn param_bits(model: &Sequential) -> Vec<u32> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.params())
        .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn every_single_weight_and_aligned_block_fault_heals_to_golden_bits() {
    for (net, golden) in [
        ("mnist", reduced_mnist(42).model),
        ("cifar-small", reduced_cifar_small(42).model),
    ] {
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let mut live = golden.clone();
        let mut wrong = Vec::new();
        let mut cases = 0;
        for (layer, l) in golden.layers().iter().enumerate() {
            let Layer::Conv2D { filters, .. } = l else {
                continue;
            };
            let n = filters.numel();
            let singles = (0..n).map(|w| w..w + 1);
            let blocks = (0..n).step_by(4).map(|w| w..(w + 4).min(n));
            for weights in singles.chain(blocks) {
                let params = live.layers_mut()[layer].params_mut().unwrap();
                params.clone_from(filters);
                for v in &mut params.data_mut()[weights.clone()] {
                    *v = f32::from_bits(!v.to_bits());
                }
                milr.recover_layers(&mut live, &[layer]).unwrap();
                let healed = live.layers()[layer].params().unwrap();
                let off = (healed.data().iter().zip(filters.data()))
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                if off > 0 {
                    wrong.push(format!("layer {layer} weights {weights:?}: {off} off"));
                }
                cases += 1;
            }
        }
        assert!(cases > 0, "{net}: no conv layer");
        assert!(
            wrong.is_empty(),
            "{net}: {} of {cases} heals left non-golden bits, first {:#?}",
            wrong.len(),
            &wrong[..wrong.len().min(8)]
        );
    }
}

/// The weights of MNIST layer 7 under about 0.0044 in magnitude: the
/// XTS fault garbles the block of weights 252..=255, the plain one
/// weight 255 alone. Each heal is reported exact and must be.
#[test]
fn small_weight_heals_reported_exact_restore_golden_bits() {
    let golden = reduced_mnist(42).model;
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    for (kind, weight) in [
        (SubstrateKind::Xts, 254),
        (SubstrateKind::XtsSecded, 254),
        (SubstrateKind::Plain, 255),
    ] {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut protection = milr.clone();
        host.corrupt_weight(7, weight);
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
            .with_reprotect_gate();
        pipeline.run(&host, &mut protection, &mut Volatile).unwrap();
        let report = pipeline.report();
        assert_eq!((report.heals_exact, report.heals_approx), (1, 0), "{kind}");
        let off = (param_bits(&host.materialize()).iter())
            .zip(param_bits(&golden))
            .filter(|&(&a, b)| a != b)
            .count();
        assert_eq!(off, 0, "{kind} weight {weight}: weights off golden");
    }
}

/// Heals layer `layer` of `live` (a copy of `golden` with that layer
/// faulted) and returns the outcome and whether the healed bits are
/// golden.
fn heal_one(
    milr: &Milr,
    live: &mut Sequential,
    golden: &Sequential,
    layer: usize,
) -> (RecoveryOutcome, bool) {
    let report = milr.recover_layers(live, &[layer]).unwrap();
    let healed = live.layers()[layer].params().unwrap().data();
    let want = golden.layers()[layer].params().unwrap().data();
    let bits_golden = (healed.iter().zip(want)).all(|(a, b)| a.to_bits() == b.to_bits());
    (report.outcomes[0].1.clone(), bits_golden)
}

/// Clustered faults — 1 to 8 cells, each with random bits flipped,
/// within 64 consecutive weights — in every conv layer of both reduced
/// nets. Some clusters the CRC pins, others leave cells to least
/// squares; either way `is_exact()` must hold exactly when the healed
/// bits are golden. The 2×2 square of CIFAR-small layer 14 (weights 0,
/// 1, 24, 25; 24 output channels) is one such cluster and must come
/// back `Approx`.
#[test]
fn conv_heals_are_reported_exact_iff_golden() {
    const FAULTS_PER_LAYER: usize = 12;
    let mut rng = TensorRng::new(0xC1C5);
    let (mut exact, mut approx) = (0, 0);
    let mut wrong = Vec::new();
    for (net, golden) in [
        ("mnist", reduced_mnist(42).model),
        ("cifar-small", reduced_cifar_small(42).model),
    ] {
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        for layer in 0..golden.len() {
            let Layer::Conv2D { filters, .. } = &golden.layers()[layer] else {
                continue;
            };
            let n = filters.numel();
            for _ in 0..FAULTS_PER_LAYER {
                let start = rng.next_u64() as usize % (n - 63);
                let cells = 1 + rng.next_u64() as usize % 8;
                let mut live = golden.clone();
                let params = live.layers_mut()[layer].params_mut().unwrap().data_mut();
                let mut hit = Vec::new();
                while hit.len() < cells {
                    let w = start + rng.next_u64() as usize % 64;
                    let flip = rng.next_u64() as u32;
                    if flip != 0 && !hit.contains(&w) {
                        params[w] = f32::from_bits(params[w].to_bits() ^ flip);
                        hit.push(w);
                    }
                }
                let (outcome, bits_golden) = heal_one(&milr, &mut live, &golden, layer);
                if outcome.is_exact() != bits_golden {
                    wrong.push(format!("{net} layer {layer} {hit:?}: {outcome:?}"));
                }
                if outcome.is_exact() {
                    exact += 1;
                } else {
                    approx += 1;
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} heals misreported, first {:#?}",
        wrong.len(),
        &wrong[..wrong.len().min(8)]
    );
    assert!(exact > 0 && approx > 0, "{exact} exact, {approx} approx");

    let golden = reduced_cifar_small(42).model;
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let mut live = golden.clone();
    let params = live.layers_mut()[14].params_mut().unwrap().data_mut();
    for w in [0, 1, 24, 25] {
        params[w] = f32::from_bits(!params[w].to_bits());
    }
    let (outcome, bits_golden) = heal_one(&milr, &mut live, &golden, 14);
    assert_eq!(outcome, RecoveryOutcome::Approx { unknowns: 4 });
    assert!(!bits_golden);
}

/// A conv fault the CRC pins heals without the checkpoints, so a corrupt
/// segment-mate that breaks propagation cannot fail it: MNIST conv 7
/// with weight 0 flipped heals to golden bits beside dense 11 holding a
/// NaN.
#[test]
fn a_pinned_conv_heal_survives_a_broken_segment_mate() {
    let golden = reduced_mnist(42).model;
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let mut live = golden.clone();
    let conv = live.layers_mut()[7].params_mut().unwrap().data_mut();
    conv[0] = f32::from_bits(!conv[0].to_bits());
    live.layers_mut()[11].params_mut().unwrap().data_mut()[0] = f32::NAN;
    let report = milr.recover_layers(&mut live, &[7, 11]).unwrap();
    assert_eq!(
        report.outcomes[0],
        (7, RecoveryOutcome::Partial { solved: 1 })
    );
    let bits = |m: &Sequential| -> Vec<u32> {
        let p = m.layers()[7].params().unwrap().data();
        p.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&live), bits(&golden));
}
