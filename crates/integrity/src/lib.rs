//! # milr-integrity
//!
//! **The one integrity loop.** The paper's contribution is a single
//! logical cycle — detect corrupted layers, reconstruct them from
//! checkpoints, re-verify, re-protect — yet by PR 4 this workspace
//! implemented that cycle five separate times (cold start, the online
//! server's recovery thread, the serving simulator, fleet replicas,
//! and the fleet simulator), each with its own heal-round cap,
//! re-protect ordering, and durability rules. This crate is the one
//! place that loop now lives:
//!
//! ```text
//!   Scrub → Detect → Heal → Classify → Escalate → Verify
//!                                                   │ clean
//!                                                   ▼
//!                                         Reprotect → Anchor
//! ```
//!
//! [`IntegrityPipeline`] walks those stages explicitly, parameterized
//! by three pluggable policies:
//!
//! | policy | choices | decides |
//! |---|---|---|
//! | [`DurabilityPolicy`] | [`Volatile`], [`Journaled`] (strict / best-effort) | how heal write-backs and re-anchors reach stable storage |
//! | [`EscalationPolicy`] | `Fail`, `Quarantine`, `PeerRepair` | what happens beyond an exact heal or past the budget |
//! | [`Budget`] | heal rounds, donor retries | when an episode stops trying |
//!
//! The `recover_layers → Milr::protect → commit_reanchor` ladder —
//! quarantine healing, re-protect ordering, CRC-grid rebaselining —
//! appears **only here**; `milr-serve`, `milr-store` cold starts, and
//! `milr-fleet` drive this engine. [`ModelHost`] (the substrate-backed
//! weight owner every driver shares) lives here too.
//!
//! Every run accumulates a [`PipelineReport`] — per-stage timing and
//! outcome counters, embedded in the serving/fleet/cold-start reports
//! — and the post-heal **fast path** re-verifies only the episode's
//! suspect layers via [`milr_core::Milr::detect_layers`] instead of a
//! full re-detect (see the `pipeline` module docs).

#![deny(missing_docs)]

mod host;
mod pipeline;
mod policy;
mod report;

pub use host::ModelHost;
pub use pipeline::{IntegrityPipeline, RoundOutcome, Stage, StageHook, TickOutcome};
pub use policy::{
    Anchored, Budget, DurabilityPolicy, EscalationPolicy, Flushed, Journaled, Volatile,
    DEFAULT_DONOR_RETRIES, DEFAULT_HEAL_ROUNDS,
};
pub use report::{PipelineReport, StageNanos};

use milr_core::MilrError;
use milr_store::StoreError;
use milr_substrate::SubstrateError;

/// Errors from the integrity engine.
#[derive(Debug)]
pub enum IntegrityError {
    /// Protection, detection, or recovery failed.
    Milr(MilrError),
    /// A durable anchor commit failed under a strict policy.
    Store(StoreError),
    /// A substrate (journal flush, write-back) rejected an operation
    /// under a strict policy.
    Substrate(SubstrateError),
    /// The heal-round budget ran out with layers still flagged.
    BudgetExhausted {
        /// Rounds spent before giving up.
        rounds: usize,
        /// The layers still flagged.
        flagged: Vec<usize>,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::Milr(e) => write!(f, "protection error: {e}"),
            IntegrityError::Store(e) => write!(f, "store error: {e}"),
            IntegrityError::Substrate(e) => write!(f, "substrate error: {e}"),
            IntegrityError::BudgetExhausted { rounds, flagged } => write!(
                f,
                "healing could not reach a clean state: layers {flagged:?} still flagged after {rounds} rounds"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntegrityError::Milr(e) => Some(e),
            IntegrityError::Store(e) => Some(e),
            IntegrityError::Substrate(e) => Some(e),
            IntegrityError::BudgetExhausted { .. } => None,
        }
    }
}

impl From<MilrError> for IntegrityError {
    fn from(e: MilrError) -> Self {
        IntegrityError::Milr(e)
    }
}

impl From<StoreError> for IntegrityError {
    fn from(e: StoreError) -> Self {
        IntegrityError::Store(e)
    }
}

impl From<SubstrateError> for IntegrityError {
    fn from(e: SubstrateError) -> Self {
        IntegrityError::Substrate(e)
    }
}

impl From<IntegrityError> for StoreError {
    fn from(e: IntegrityError) -> Self {
        match e {
            IntegrityError::Store(e) => e,
            IntegrityError::Milr(e) => StoreError::Milr(e),
            IntegrityError::Substrate(e) => StoreError::Substrate(e),
            e @ IntegrityError::BudgetExhausted { .. } => StoreError::Corrupt(e.to_string()),
        }
    }
}
