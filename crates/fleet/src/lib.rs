//! # milr-fleet
//!
//! **Replicated sharded serving with peer repair and failover** — the
//! scaling rung above `milr-serve`'s single instance.
//!
//! The paper bounds what MILR can heal from one instance's checkpoints:
//! faults beyond a layer's recoverable set (whole-layer corruption of a
//! partial-recoverability convolution, several layers garbled inside
//! one checkpoint segment) force a refusal or an *approximate* heal.
//! Replication turns that cliff into a repair path: a damaged replica
//! restores bit-exact pages from a healthy peer's **certified** `.milr`
//! store and rejoins the fleet.
//!
//! ```text
//!  clients ──▶ fleet queue ──▶ Router ──▶ replica 0  [Serving]
//!                                  │      replica 1  [Serving]
//!                                  └────▶ replica 2  [Quarantined]
//!                                              │ scrub flagged
//!                                              ▼
//!                                         MILR heal ── exact ──▶ re-anchor, rejoin
//!                                              │ Approx / Failed
//!                                              ▼       (irrecoverable)
//!                                         [Repairing]
//!                                              │ fetch certified pages
//!                                              ▼ from a Serving peer
//!                                         import raw pages, verify,
//!                                         re-protect, re-anchor, rejoin
//! ```
//!
//! * Every replica is a full `milr-serve` stack: a substrate-backed
//!   [`milr_serve::ModelHost`] over its own [`milr_store::Store`], a
//!   chunked scrub cursor, and a certification ledger. Health is a
//!   [`ReplicaState`]: `Serving` / `Quarantined` / `Repairing` / `Cold`.
//! * The [`Router`] spreads batches round-robin over `Serving`
//!   replicas; a quarantine fails traffic over — the quarantined
//!   replica's voided work re-queues onto the fleet queue and peers
//!   absorb it, so **no request is lost during failover**.
//! * Recovery first tries a MILR heal. When the recovery report marks a
//!   layer irrecoverable ([`milr_core::RecoveryOutcome::is_exact`] is
//!   false — the `Approx`/`Failed` outcomes: a conv heal the stored CRC
//!   does not certify, such as an uncertified whole-layer heal, or a
//!   failed solve), [`PeerRepair`] fetches the affected weight pages
//!   from a healthy peer's certified store
//!   ([`milr_store::Store::certified_layer_pages`]), imports them onto
//!   the live substrate bit-for-bit, re-verifies by detection,
//!   re-protects, re-anchors durably, and rejoins.
//! * [`sim::simulate`] drives all of it on a **virtual clock** with
//!   seeded arrivals and per-replica fault campaigns, so every
//!   multi-replica scenario — failover, peer repair, drain-vs-reject —
//!   is bit-reproducible under its seed.

#![deny(missing_docs)]

mod repair;
mod replica;
mod report;
mod router;
pub mod sim;

pub use repair::{peer_repair, PageImage, PeerRepair, RepairStats};
pub use replica::{Replica, ReplicaState};
pub use report::{FleetReport, ReplicaReport};
pub use router::Router;
pub use sim::{simulate, simulate_observed, FleetConfig, FleetSimResult};
// The heal ladder itself lives in the shared integrity engine;
// re-export the pieces fleet drivers and callers see.
pub use milr_integrity::{Budget, PipelineReport, RoundOutcome};

use milr_core::MilrError;
use milr_integrity::IntegrityError;
use milr_store::StoreError;
use milr_substrate::SubstrateError;

/// Errors from fleet orchestration.
#[derive(Debug)]
pub enum FleetError {
    /// A replica's persistent store failed.
    Store(StoreError),
    /// Protection, detection, or recovery failed.
    Milr(MilrError),
    /// A substrate rejected an operation.
    Substrate(SubstrateError),
    /// A replica's heal episode exhausted its round budget with layers
    /// still flagged (the engine refused to keep spinning).
    BudgetExhausted {
        /// Heal rounds spent.
        rounds: usize,
        /// The layers still flagged.
        layers: Vec<usize>,
    },
    /// Peer repair found no healthy peer able to certify the needed
    /// pages.
    NoHealthyPeer {
        /// The replica needing repair.
        replica: usize,
        /// The layers it could not restore.
        layers: Vec<usize>,
    },
    /// Post-repair verification still flags layers: the imported pages
    /// do not decode to the protected weights.
    RepairRejected {
        /// The replica that failed verification.
        replica: usize,
        /// The layers still flagged.
        layers: Vec<usize>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Store(e) => write!(f, "replica store error: {e}"),
            FleetError::Milr(e) => write!(f, "protection error: {e}"),
            FleetError::Substrate(e) => write!(f, "substrate error: {e}"),
            FleetError::BudgetExhausted { rounds, layers } => write!(
                f,
                "heal budget exhausted after {rounds} rounds with layers {layers:?} still flagged"
            ),
            FleetError::NoHealthyPeer { replica, layers } => write!(
                f,
                "no healthy peer could certify pages for replica {replica} layers {layers:?}"
            ),
            FleetError::RepairRejected { replica, layers } => write!(
                f,
                "peer repair of replica {replica} failed verification on layers {layers:?}"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Store(e) => Some(e),
            FleetError::Milr(e) => Some(e),
            FleetError::Substrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        FleetError::Store(e)
    }
}

impl From<MilrError> for FleetError {
    fn from(e: MilrError) -> Self {
        FleetError::Milr(e)
    }
}

impl From<SubstrateError> for FleetError {
    fn from(e: SubstrateError) -> Self {
        FleetError::Substrate(e)
    }
}

impl From<IntegrityError> for FleetError {
    fn from(e: IntegrityError) -> Self {
        match e {
            IntegrityError::Milr(e) => FleetError::Milr(e),
            IntegrityError::Store(e) => FleetError::Store(e),
            IntegrityError::Substrate(e) => FleetError::Substrate(e),
            IntegrityError::BudgetExhausted { rounds, flagged } => FleetError::BudgetExhausted {
                rounds,
                layers: flagged,
            },
        }
    }
}
