//! # milr-serve
//!
//! An **online inference service** over MILR-protected weights: the
//! paper's offline detect→recover loop (DSN 2021) turned into a living
//! system that serves batched requests *while* faults land in the
//! weight substrate — and whose availability is **measured**, not just
//! modeled by Equation 6.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──submit──▶ bounded queue ──each tick──▶ forward passes
//!                                                    (scrubber + helpers)
//!                                                    │ on decoded
//!                                                    ▼ substrate weights
//!  ┌──────────────────────────────┐        certification ledger
//!  │ ModelHost                    │        (released after a clean
//!  │  weights in SharedSubstrate  │         bracketing scrub cycle)
//!  │  one locked shard per layer  │
//!  └──────────────────────────────┘
//!        ▲            ▲
//!   scrub/detect    recovery write-back
//!        │            │
//!   scrubber ─────────┴── quarantine (drain | reject) on flagged layer
//! ```
//!
//! * [`ModelHost`] owns the weights inside a
//!   [`milr_substrate::SharedSubstrate`] — one lock-protected shard per
//!   parameterized layer, so scrubbing one layer never blocks reading
//!   another. The in-memory skeleton is weightless; every forward pass
//!   decodes the substrate.
//! * The **scrubber** checks the weights on a fixed clock, each tick
//!   running the substrate's own scrub (ECC) and a MILR detection of
//!   the layers its [`ScrubCursor`] picks
//!   ([`milr_core::Milr::detect_layers`]). The simulators check a few
//!   layers per tick; the live [`Server`] checks the whole model, and
//!   its scrubber also forwards the requests queued since the last
//!   tick, so one wake is drain → tick → (heal).
//! * Outputs are **certified before release**
//!   ([`CertificationLedger`]): a batch is held until a full clean
//!   scrub cycle *starts after* it finished. Faults are monotone, so
//!   the clean cycle proves the batch ran on clean weights; a flagged
//!   scrub quarantines the service, voids everything uncertified back
//!   onto the queue, recovers with MILR, verifies, resumes, and
//!   re-executes the voided work. A quarantine costs clients latency,
//!   never an error. Certified outputs therefore
//!   match the fault-free model bit-for-bit whenever recovery is
//!   bit-exact (CRC-verified convolution recovery is; see the
//!   end-to-end test).
//! * Per-request latency, downtime windows, and **empirical
//!   availability** land in a [`ServeReport`], directly comparable to
//!   the closed-form `milr_core::availability` model.
//!
//! One sans-IO [`ServeCore`] owns that policy — admission, batch
//! formation, the epoch check, certification, quarantine and resume,
//! downtime and SLO accounting, the report — and takes time as an
//! argument. It answers by return value ([`ServeCore::dispatch`] names
//! the slot to run, [`ServeCore::finish_scrub`] whether the tick
//! quarantined) and schedules nothing: each driver keeps its own scrub
//! cadence. Three thin drivers run it: [`sim::simulate`] drives one
//! core from a discrete-event queue on a **virtual clock**,
//! bit-reproducible under a seed (the benchmark and test path); the
//! fleet simulation in `milr-fleet` drives one core per replica behind
//! a shared queue and a router; and [`Server`] runs one core under a
//! mutex with one scrubber thread — which runs the forward passes too,
//! with scoped helpers when more than one batch is owed — and the wall
//! clock. The seeded workload and chaos overlay both simulations draw
//! from live in [`workload`].

#![deny(missing_docs)]

mod coldstart;
pub mod http;
mod ledger;
mod metrics;
mod report;
mod request;
mod scrubber;
mod serve_core;
mod server;
pub mod sim;
#[cfg(test)]
mod testutil;
pub mod workload;

pub use coldstart::{cold_start, cold_start_observed, ColdStartReport};
pub use ledger::CertificationLedger;
// The substrate-backed weight host and the shared integrity engine
// moved to `milr-integrity` (the serve/store/fleet drivers all ride
// it); re-exported here so serving callers keep one import path.
pub use metrics::{DowntimeLog, LatencyStats};
pub use milr_integrity::{
    Budget, EscalationPolicy, IntegrityPipeline, ModelHost, PipelineReport, RoundOutcome,
};
pub use report::{outcome_digest, OutcomeDigest, ServeReport};
pub use request::{RejectReason, RequestId, RequestOutcome, RequestStatus};
pub use scrubber::ScrubCursor;
pub use serve_core::{
    CoreConfig, Pending, RequestQueue, Resolution, ServeCore, ServeCounts, ServeObs, ServeTally,
};
pub use server::{ResponseHandle, ServeError, Server, ServerConfig};
pub use sim::{simulate, simulate_observed, SimConfig, SimResult, VirtualCosts};
pub use workload::ChaosStats;
