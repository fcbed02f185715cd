//! `Milr::reprotect` skips the rebuild when the model is the one the
//! artifacts were built from (DESIGN.md §18, "Re-protect once per
//! weight state"). Whether it skips or rebuilds, the instance must
//! serialize exactly as a fresh `Milr::protect` of the same model, and
//! any change to a parameter's bits — one ulp, the sign of a zero, the
//! payload of a NaN — must rebuild.

use milr_core::{Milr, MilrConfig, RecoveryOutcome, ReprotectStats, SolvingPlan};
use milr_models::{reduced_cifar_small, reduced_mnist};
use milr_nn::Sequential;
use milr_tensor::TensorRng;

fn protect(model: &Sequential) -> Milr {
    Milr::protect(model, MilrConfig::default()).unwrap()
}

fn goldens() -> [Sequential; 2] {
    [reduced_mnist(42).model, reduced_cifar_small(42).model]
}

/// Reprotects `milr` against `live`, asserts which way it went and that
/// the result serializes as a fresh instance of `live` does.
fn reprotect_and_check(milr: &mut Milr, live: &Sequential, rebuilt: bool, case: &str) {
    let before = milr.reprotect_stats();
    milr.reprotect(live).unwrap();
    let expected = if rebuilt {
        ReprotectStats {
            rebuilt: before.rebuilt + 1,
            ..before
        }
    } else {
        ReprotectStats {
            skipped: before.skipped + 1,
            ..before
        }
    };
    assert_eq!(milr.reprotect_stats(), expected, "{case}");
    assert!(
        milr.to_bytes() == protect(live).to_bytes(),
        "{case}: reprotect diverged from a fresh protect"
    );
}

/// `model` with weight `weight` of layer `layer` set to `bits`.
fn with_bits(model: &Sequential, layer: usize, weight: usize, bits: u32) -> Sequential {
    let mut m = model.clone();
    m.layers_mut()[layer].params_mut().unwrap().data_mut()[weight] = f32::from_bits(bits);
    m
}

/// The first layer of each parameterized kind: conv, dense and bias.
fn one_of_each_kind(model: &Sequential) -> Vec<usize> {
    ["Conv2D", "Dense", "Bias"]
        .iter()
        .map(|kind| {
            model
                .layers()
                .iter()
                .position(|l| l.kind_name() == *kind && l.param_count() > 0)
                .unwrap_or_else(|| panic!("no {kind} layer"))
        })
        .collect()
}

#[test]
fn an_unchanged_model_skips() {
    for golden in goldens() {
        let mut milr = protect(&golden);
        assert_eq!(milr.reprotect_stats(), ReprotectStats::default());
        reprotect_and_check(&mut milr, &golden, false, "unchanged");
        reprotect_and_check(&mut milr, &golden.clone(), false, "unchanged clone");
    }
}

#[test]
fn every_bit_change_rebuilds() {
    const ONE_NAN: u32 = 0x7fc0_0001;
    const OTHER_NAN: u32 = 0x7fc0_0002;
    for golden in goldens() {
        for layer in one_of_each_kind(&golden) {
            let weight = golden.layers()[layer].param_count() / 2;
            let bits = golden.layers()[layer].params().unwrap().data()[weight].to_bits();
            // Each pair is (protected bits, live bits).
            let cases = [
                ("one ulp", bits, bits + 1),
                ("-0 to +0", (-0.0f32).to_bits(), 0.0f32.to_bits()),
                ("NaN payload", ONE_NAN, OTHER_NAN),
            ];
            for (name, from, to) in cases {
                let case = format!("{name}, layer {layer} weight {weight}");
                let protected = with_bits(&golden, layer, weight, from);
                let live = with_bits(&golden, layer, weight, to);
                let mut milr = protect(&protected);
                reprotect_and_check(&mut milr, &live, true, &case);
                // The new state is now the protected one.
                reprotect_and_check(&mut milr, &live, false, &case);
            }
        }
    }
}

#[test]
fn a_deserialized_instance_rebuilds_once() {
    for golden in goldens() {
        let mut milr = Milr::from_bytes(&protect(&golden).to_bytes()).unwrap();
        reprotect_and_check(&mut milr, &golden, true, "first after from_bytes");
        reprotect_and_check(&mut milr, &golden, false, "second after from_bytes");
    }
}

/// Index of the last layer whose solving plan satisfies `pick`.
fn last_layer(milr: &Milr, pick: impl Fn(SolvingPlan) -> bool) -> usize {
    milr.plan()
        .layers
        .iter()
        .rev()
        .find(|l| l.solving.is_some_and(&pick))
        .expect("a matching layer")
        .index
}

/// Heals a copy of `golden` whose layer `layer` went through `corrupt`.
fn heal(
    milr: &Milr,
    golden: &Sequential,
    layer: usize,
    corrupt: impl FnOnce(&mut [f32]),
) -> (RecoveryOutcome, Sequential) {
    let mut healed = golden.clone();
    corrupt(healed.layers_mut()[layer].params_mut().unwrap().data_mut());
    let report = milr.recover_layers(&mut healed, &[layer]).unwrap();
    (report.outcomes[0].1.clone(), healed)
}

#[test]
fn a_heal_that_restores_the_bits_skips() {
    for golden in goldens() {
        let mut milr = protect(&golden);
        let layer = last_layer(&milr, |s| s == SolvingPlan::ConvPartial);
        let (outcome, healed) = heal(&milr, &golden, layer, |w| {
            w[7] = f32::from_bits(!w[7].to_bits());
        });
        assert!(outcome.is_exact(), "layer {layer}: {outcome:?}");
        assert!(
            healed == golden,
            "layer {layer}: the CRC-first heal left golden"
        );
        reprotect_and_check(&mut milr, &healed, false, "CRC-first conv heal");
    }
}

#[test]
fn an_approximate_heal_rebuilds() {
    for golden in goldens() {
        let mut milr = protect(&golden);
        let layer = last_layer(&milr, |s| s == SolvingPlan::ConvFull);
        let (outcome, healed) = heal(&milr, &golden, layer, |w| {
            let mut rng = TensorRng::new(99);
            w.iter_mut().for_each(|v| *v = rng.uniform());
        });
        assert!(
            matches!(outcome, RecoveryOutcome::Approx { .. }),
            "whole-layer corruption of layer {layer}: {outcome:?}"
        );
        reprotect_and_check(&mut milr, &healed, true, "approximate heal");
        assert!(milr.detect(&healed).unwrap().is_clean());
    }
}

/// A dense `Full` heal counts as exact but is not bit-exact, which is
/// why the skip compares bits instead of trusting the outcome.
#[test]
fn an_exact_outcome_off_the_protected_bits_rebuilds() {
    for golden in goldens() {
        let mut milr = protect(&golden);
        let layer = last_layer(&milr, |s| matches!(s, SolvingPlan::DenseFull { .. }));
        let (outcome, healed) = heal(&milr, &golden, layer, |w| {
            let mut rng = TensorRng::new(99);
            w.iter_mut().for_each(|v| *v = rng.uniform());
        });
        assert!(outcome.is_exact(), "layer {layer}: {outcome:?}");
        assert!(
            healed != golden,
            "layer {layer}: the dense heal was bit-exact"
        );
        reprotect_and_check(&mut milr, &healed, true, "dense Full heal");
    }
}
