//! # milr-bench
//!
//! Experiment harness regenerating every table and figure of the MILR
//! paper's evaluation (§V). Each binary in `src/bin/` prints the rows or
//! series of one artifact.
//!
//! The harness runs **reduced-scale twins** of the paper networks by
//! default (same layer-type sequence, smaller tensors) so a full sweep
//! finishes in seconds; pass `--paper-scale` to construct and evaluate
//! the verbatim Tables I–III architectures. Every report prints which
//! scale produced it, and EXPERIMENTS.md records the measured outputs.
//!
//! See DESIGN.md §4 for the experiment-by-experiment index.

#![deny(missing_docs)]

pub mod args;
pub mod arms;
pub mod campaigns;
pub mod fleet;
pub mod json;
pub mod live;
pub mod nets;
pub mod obs;
pub mod serve;
pub mod stats;

pub use args::{Args, ArmSet};
pub use arms::{
    run_layer_corruption, run_rber_trial, run_trial, run_whole_weight_trial, Arm, Injection,
    Recovery, SubstrateKind, TrialResult,
};
pub use nets::{prepare, NetChoice, PreparedNet, Scale};
pub use stats::{best_ns, normalized_accuracy, BoxStats};
