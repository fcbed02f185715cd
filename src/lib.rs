//! Top-level reproduction package for **MILR: Mathematically Induced
//! Layer Recovery** (DSN 2021).
//!
//! This crate exists to host the workspace-spanning integration tests in
//! `tests/` and the runnable examples in `examples/`; the library code
//! lives in the `crates/` members:
//!
//! * [`milr_core`] — MILR itself (protection, detection, recovery,
//!   storage accounting, availability model), with serial probe-only
//!   detection and segment-parallel recovery;
//! * [`milr_substrate`] — the unified [`WeightSubstrate`
//!   ](milr_substrate::WeightSubstrate) abstraction over weight storage:
//!   an f32, AES-XTS, int8 or fp16 payload, bare or under SECDED;
//! * [`milr_nn`] — the CNN inference/training substrate;
//! * [`milr_tensor`], [`milr_linalg`] — tensor and solver substrates;
//! * [`milr_ecc`], [`milr_xts`] — SECDED/CRC codes and the AES-XTS
//!   cipher of the encrypted-memory model;
//! * [`milr_fault`] — seeded, substrate-generic fault injection;
//! * [`milr_models`] — the paper's evaluation networks (Tables I–III);
//! * [`milr_integrity`] — the unified integrity engine: the one
//!   scrub→detect→heal→escalate→re-protect→re-anchor pipeline (and the
//!   substrate-backed `ModelHost`) behind serving, storage, and fleet;
//! * [`milr_serve`] — the online inference service (scrubber daemon,
//!   quarantine-and-recover, certified outputs);
//! * [`milr_store`] — the crash-consistent persistent weight store
//!   (`.milr` containers, certified page reads);
//! * [`milr_fleet`] — replicated sharded serving with peer repair and
//!   failover, plus the deterministic multi-replica fault-campaign
//!   simulator.
//!
//! See README.md for a tour and DESIGN.md for the reproduction map.

pub use milr_core;
pub use milr_ecc;
pub use milr_fault;
pub use milr_fleet;
pub use milr_integrity;
pub use milr_linalg;
pub use milr_models;
pub use milr_nn;
pub use milr_serve;
pub use milr_store;
pub use milr_substrate;
pub use milr_tensor;
pub use milr_xts;
