//! The paper's headline scenario: CNN weights live in an encrypted VM's
//! DRAM as AES-XTS ciphertext (MKTME/SEV model). A single ciphertext
//! bit error decrypts to a whole garbled 16-byte block — four
//! whole-weight errors that per-word SECDED cannot correct, but MILR
//! can: plaintext-space error correction (PSEC).
//!
//! ```text
//! cargo run --release --example encrypted_vm
//! ```

use milr_core::{Milr, MilrConfig};
use milr_fault::{inject_rber, FaultRng};
use milr_models::trained_reduced;
use milr_substrate::{SubstrateKind, WeightSubstrate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (mut model, test) = trained_reduced("mnist", 21);
    let clean = model.accuracy(&test.images, &test.labels)?;
    let milr = Milr::protect(
        &model,
        MilrConfig {
            dense_self_recovery: true,
            ..MilrConfig::default()
        },
    )?;

    // Place every layer's weights into encrypted memory.
    let mut memories: Vec<(usize, Box<dyn WeightSubstrate>)> = Vec::new();
    for (i, layer) in model.layers().iter().enumerate() {
        if let Some(p) = layer.params() {
            memories.push((i, SubstrateKind::Xts.store(p.data())));
        }
    }

    // Soft errors strike the DRAM ciphertext.
    // A raw word of encrypted memory is one 16-byte cipher block, so
    // the report's affected words are the garbled blocks.
    let mut rng = FaultRng::seed(3);
    let mut total_bits = 0usize;
    let mut garbled_blocks = 0usize;
    for (_, mem) in memories.iter_mut() {
        let report = inject_rber(&mut **mem, 2e-5, &mut rng);
        total_bits += report.flipped_bits;
        garbled_blocks += report.affected_words;
    }
    println!(
        "{total_bits} ciphertext bit flips -> {garbled_blocks} garbled blocks \
         (~{} whole-weight plaintext errors)",
        garbled_blocks * 4
    );

    // The VM reads (decrypts) its weights: plaintext space is corrupted.
    for (i, mem) in &memories {
        let plain = mem.read_weights();
        model.layers_mut()[*i]
            .params_mut()
            .expect("param layer")
            .data_mut()
            .copy_from_slice(&plain);
    }
    let hurt = model.accuracy(&test.images, &test.labels)?;
    println!(
        "accuracy: clean {:.1}% -> corrupted {:.1}%",
        clean * 100.0,
        hurt * 100.0
    );

    // MILR's plaintext-space detection and self-healing.
    let report = milr.detect(&model)?;
    println!("flagged layers: {:?}", report.flagged);
    milr.recover_iterative(&mut model, &report.flagged, 3)?;
    let healed = model.accuracy(&test.images, &test.labels)?;
    println!("after PSEC self-healing: {:.1}%", healed * 100.0);

    // Write the healed weights back through the encryption engine.
    for (i, mem) in memories.iter_mut() {
        mem.write_weights(model.layers()[*i].params().expect("params").data())?;
    }
    println!("healed weights re-encrypted to DRAM");
    assert!(healed >= hurt, "healing must not hurt");
    Ok(())
}
