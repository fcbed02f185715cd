//! # milr-e2e-bench
//!
//! An open-loop, fault-landing end-to-end benchmark of the live MILR
//! [`milr_serve::Server`]: Poisson arrivals from a seeded schedule,
//! whole-weight faults injected on time inside the measured window,
//! every released output bit-checked against the fault-free model, and
//! each layer (serve, integrity, core, nn, tensor, substrate, store)
//! timed from outside through its public functions.
//!
//! The crate depends only on the layer crates it measures, so changes
//! to the experiment harness elsewhere cannot move its numbers. See
//! the crate README for workloads, metrics, bounds and findings.

#![deny(missing_docs)]

pub mod bench;
pub mod json;
mod layers;
mod live;
mod rng;
mod spans;
mod speed;
pub mod stats;
pub mod workload;

pub use bench::{run, Options, Outcome};
pub use json::Json;
pub use workload::{workload, Workload, WORKLOADS};
