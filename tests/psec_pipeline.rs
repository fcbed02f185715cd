//! Integration test of the full plaintext-space error-correction
//! pipeline: weights in AES-XTS encrypted memory, ciphertext bit flips,
//! SECDED insufficiency, MILR healing — the paper's Figure 1 + §I
//! scenario, across milr-xts, milr-ecc, milr-fault, milr-core.

use milr_core::{Milr, MilrConfig};
use milr_fault::{inject_rber, FaultRng};
use milr_models::trained_reduced;
use milr_substrate::SubstrateKind;

#[test]
fn ciphertext_bit_flip_becomes_whole_weight_plaintext_error() {
    let weights: Vec<f32> = (0..64).map(|i| i as f32 * 0.1 - 3.0).collect();
    let mut mem = SubstrateKind::Xts.store(&weights);
    mem.flip_raw_bit(100);
    let seen = mem.read_weights();
    let changed: Vec<usize> = (0..64).filter(|&i| seen[i] != weights[i]).collect();
    // All changes confined to the 16-byte block of 4 weights holding
    // ciphertext bit 100 (byte 12, block 0), and at least one weight in
    // it garbled.
    assert_eq!(mem.blast_radius(100), 0..4);
    assert!(!changed.is_empty());
    assert!(changed.iter().all(|c| (0..4).contains(c)), "{changed:?}");
}

#[test]
fn secded_cannot_correct_plaintext_space_garble_but_milr_can() {
    let (mut model, test) = trained_reduced("mnist", 8);
    let clean = model.accuracy(&test.images, &test.labels).unwrap();
    let milr = Milr::protect(
        &model,
        MilrConfig {
            dense_self_recovery: true,
            ..MilrConfig::default()
        },
    )
    .unwrap();

    // Encrypt the biggest dense layer and flip a few ciphertext bits.
    let dense = model
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.kind_name() == "Dense")
        .max_by_key(|(_, l)| l.param_count())
        .map(|(i, _)| i)
        .unwrap();
    let golden: Vec<f32> = model.layers()[dense].params().unwrap().data().to_vec();
    let mut mem = SubstrateKind::Xts.store(&golden);
    let report = inject_rber(&mut *mem, 5e-5, &mut FaultRng::seed(17));
    assert!(report.flipped_bits > 0);
    let plaintext = mem.read_weights();

    // SECDED protecting each *plaintext* word sees multi-bit garble it
    // cannot correct: decode-after-corruption differs from golden.
    let mut attacked = SubstrateKind::Secded.store(&golden);
    // Model the plaintext-space damage: re-encode the garbled words.
    let garbled: Vec<(usize, f32)> = golden
        .iter()
        .zip(plaintext.iter())
        .enumerate()
        .filter(|(_, (g, p))| g != p)
        .map(|(i, (_, &p))| (i, p))
        .collect();
    attacked.write_weights_sparse(&garbled).unwrap();
    let scrub = attacked.scrub();
    let decoded = attacked.read_weights();
    assert_eq!(scrub.uncorrectable, 0, "consistent words look clean");
    let still_wrong = decoded
        .iter()
        .zip(golden.iter())
        .filter(|(a, b)| a != b)
        .count();
    assert!(still_wrong > 0, "ECC should not fix whole-weight garble");

    // MILR heals the same damage.
    model.layers_mut()[dense]
        .params_mut()
        .unwrap()
        .data_mut()
        .copy_from_slice(&plaintext);
    let det = milr.detect(&model).unwrap();
    assert!(det.flagged.contains(&dense));
    milr.recover(&mut model, &det).unwrap();
    let healed = model.accuracy(&test.images, &test.labels).unwrap();
    assert!(healed >= clean - 1e-9, "healed {healed} vs clean {clean}");
    let recovered: Vec<f32> = model.layers()[dense].params().unwrap().data().to_vec();
    let still_wrong = recovered
        .iter()
        .zip(golden.iter())
        .filter(|(a, b)| (**a - **b).abs() > 1e-3)
        .count();
    assert_eq!(still_wrong, 0, "MILR should restore the garbled weights");
}
