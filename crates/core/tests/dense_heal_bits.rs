//! Dense heals expose the QR arithmetic bit for bit.
//!
//! A whole-weight fault in dense layer 18 of `reduced_cifar_small(42)`
//! heals only approximately: the healed weights differ from golden in
//! their low bits, so they are a fingerprint of every rounding step in
//! `Qr::factor`, `Qr::solve` and the backward pass through dense layer
//! 21. The CRC-32 of the healed layer was recorded from the scalar
//! column-sweep Householder QR before the row-major trailing update
//! replaced it; any change to the order or form of that arithmetic
//! moves it.

use milr_core::{Milr, MilrConfig};
use milr_models::reduced_cifar_small;

const DENSE: usize = 18;

/// `(weights, CRC-32 of their bits)` of dense layer 18 after the heal,
/// recorded from the column-sweep QR.
const RECORDED: (usize, u32) = (12288, 0x9ab6_77be);

fn bits(values: &[f32]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect()
}

#[test]
fn dense_whole_weight_heal_bits_match_the_recorded_qr() {
    let golden = reduced_cifar_small(42).model;
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let mut live = golden.clone();
    // A whole-weight fault: every bit of weight 0 flipped.
    let w = live.layers_mut()[DENSE].params_mut().unwrap();
    let v = w.data()[0];
    w.data_mut()[0] = f32::from_bits(!v.to_bits());
    let report = milr.recover_layers(&mut live, &[DENSE]).unwrap();
    assert_eq!(report.outcomes.len(), 1);

    let healed = live.layers()[DENSE].params().unwrap().data();
    let golden_w = golden.layers()[DENSE].params().unwrap().data();
    assert_ne!(
        bits(healed),
        bits(golden_w),
        "the heal is expected to be approximate; an exact heal would not fingerprint the QR"
    );
    assert_eq!(
        (healed.len(), milr_ecc::crc32(&bits(healed))),
        RECORDED,
        "healed bits differ from the recorded QR"
    );
}
