//! # milr-fault
//!
//! Seeded, **substrate-generic** fault injection reproducing the three
//! experiment families of the MILR paper's evaluation (§V-A):
//!
//! 1. **Random bit flips** at a raw bit error rate (RBER) `p` — every
//!    bit of the substrate's *raw representation* flips independently
//!    with probability `p` ([`inject_rber`]). Over a plain buffer that
//!    is every bit of every `f32` "regardless of bit position and
//!    role"; over a [`milr_substrate::SubstrateKind::Secded`] store the
//!    39-bit code words; over [`milr_substrate::SubstrateKind::Xts`] the
//!    ciphertext, and over [`milr_substrate::SubstrateKind::XtsSecded`]
//!    the code words over it.
//! 2. **Whole-weight errors** with probability `q` — every bit of a
//!    selected weight is flipped in plaintext space
//!    ([`inject_whole_weight`]), the plaintext signature of a
//!    ciphertext-space error under AES-XTS.
//! 3. **Whole-layer corruption** — every parameter of a layer replaced
//!    by a random value, "where none of the values were the same as the
//!    original value" ([`corrupt_layer`]).
//!
//! All injectors are generic over
//! [`milr_substrate::WeightSubstrate`]; bare `&mut [f32]` / `&mut
//! Vec<f32>` buffers implement the trait as plain memory, so existing
//! call sites keep working unchanged. One RBER loop, [`inject_rber`],
//! serves every arm: its report's `affected_words` counts the distinct
//! raw words hit, which under XTS are the garbled 16-byte blocks.
//!
//! All injectors draw from a caller-provided seeded RNG, so every
//! experiment run is reproducible.
//!
//! ```
//! use milr_fault::{inject_rber, FaultRng};
//!
//! let mut weights = vec![1.0f32; 1000];
//! let mut rng = FaultRng::seed(7);
//! let report = inject_rber(&mut weights, 1e-3, &mut rng);
//! // 32,000 bits at p = 1e-3 : tens of flips expected.
//! assert!(report.flipped_bits > 0);
//! assert!(weights.iter().any(|&w| w != 1.0));
//! ```

#![deny(missing_docs)]

mod campaign;
mod injector;
mod rng;

pub use campaign::{
    assert_stuck, inject_burst, milli, plan_burst, plan_stuck_at, BurstPattern, BurstSpec,
    ByzantineSpec, Campaign, ChaosSpec, SkewSpec, SloDecl, StuckAtPlan, StuckAtSpec, TornWriteSpec,
};
pub use injector::{corrupt_layer, inject_bits, inject_rber, inject_whole_weight, InjectionReport};
pub use rng::FaultRng;
