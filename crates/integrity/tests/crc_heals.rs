//! Conv faults the 2-D CRC can pin heal to the golden bits.
//!
//! A whole-weight fault is the only flagged cell of its row and column
//! chunks; an aligned 4-weight block (one XTS block of a layer whose
//! output-channel count is a multiple of 4) fills one row chunk, and
//! each of its cells is the only flagged cell of its column chunk. In
//! both cases the stored CRC-32 fixes every corrupted weight, however
//! small the weight and however far the least-squares value strays.

use milr_core::{Milr, MilrConfig};
use milr_integrity::{Budget, EscalationPolicy, IntegrityPipeline, ModelHost, Volatile};
use milr_models::{reduced_cifar_small, reduced_mnist};
use milr_nn::{Layer, Sequential};
use milr_substrate::SubstrateKind;

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
