//! # milr-store
//!
//! A **crash-consistent persistent weight store** for MILR-protected
//! models: the paper keeps its protection artifacts in error-resistant
//! storage precisely because they are durable and storage-cheap — this
//! crate makes the whole reproduction live up to that, so a model (and
//! its heals) outlives the process that built it.
//!
//! One `.milr` container file holds:
//!
//! * **substrate-encoded weight pages** — the raw image of one of the
//!   evaluation substrates (plain / SECDED / XTS / XTS+SECDED), paged
//!   so [`milr_substrate::FileSubstrate`] can stream models larger
//!   than its block-cache budget. Disk faults in this region land in
//!   the paper's raw error space and are *healed* on load (substrate
//!   scrub + MILR recovery), not rejected;
//! * **checksummed error-resistant sections** — the architecture
//!   skeleton, the serialized protection instance
//!   ([`milr_core::Milr::to_bytes`]) and the [`milr_core::StorageReport`]
//!   (see [`format`](mod@format) for the layout). Damage here fails the load.
//!
//! Two commit protocols keep every kill point loadable ([`journal`]):
//! page write-backs (healed layers, scrub corrections) go through a
//! redo **journal**, and protection **re-anchoring** replaces the
//! whole container via shadow file + atomic rename. A process killed
//! at any step reloads to the old certified state or the new one —
//! never a torn mixture.
//!
//! ```no_run
//! use milr_core::MilrConfig;
//! use milr_store::{Store, StoreOptions};
//! use milr_substrate::SharedSubstrate;
//! # fn model() -> milr_nn::Sequential { unimplemented!() }
//!
//! // Process A: build → protect → save.
//! let golden = model();
//! Store::create("model.milr".as_ref(), &golden, MilrConfig::default(),
//!               StoreOptions::default())?;
//!
//! // Process B (later, maybe after a crash): cold-start.
//! let store = Store::open("model.milr".as_ref())?;
//! let shared = SharedSubstrate::from_parts(
//!     store.open_substrates(64).into_iter().map(|(_, s)| s).collect());
//! let scrub = shared.scrub();          // substrate-level scrub-on-load
//! # let _ = scrub;
//! # Ok::<(), milr_store::StoreError>(())
//! ```
//!
//! The serving integration (`milr-serve`'s `Server::start_from_store`)
//! layers full MILR detection, recovery, and durable re-anchoring on
//! top of this cold-start path.

#![deny(missing_docs)]

mod bytes;
pub mod format;
pub mod journal;
mod store;

pub use format::{LayerEntry, StoreMeta, CONTAINER_VERSION, MAGIC};
pub use journal::{journal_path, shadow_path, Journal};
pub use store::{Store, StoreOptions};

use milr_core::MilrError;
use milr_substrate::SubstrateError;

/// Errors from creating, opening, or committing a store.
#[derive(Debug)]
pub enum StoreError {
    /// The container (or journal/shadow machinery) hit an I/O failure.
    Io(std::io::Error),
    /// The container's error-resistant sections are damaged or
    /// inconsistent: the load is refused rather than risking silent
    /// corruption.
    Corrupt(String),
    /// The embedded protection instance failed to build or decode.
    Milr(MilrError),
    /// A substrate rejected an operation.
    Substrate(SubstrateError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            StoreError::Milr(e) => write!(f, "protection error: {e}"),
            StoreError::Substrate(e) => write!(f, "substrate error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Milr(e) => Some(e),
            StoreError::Substrate(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<MilrError> for StoreError {
    fn from(e: MilrError) -> Self {
        StoreError::Milr(e)
    }
}

impl From<SubstrateError> for StoreError {
    fn from(e: SubstrateError) -> Self {
        StoreError::Substrate(e)
    }
}

/// Convenience: the stored [`milr_core::StorageReport`] plus the persistence
/// surcharge — what the container spends on top of the substrate
/// encoding (section headers, skeleton, serialized artifacts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerFootprint {
    /// Bytes of the weight region (substrate raw images).
    pub weight_bytes: u64,
    /// Bytes of the checksummed head sections (incl. headers).
    pub resistant_bytes: u64,
}

impl ContainerFootprint {
    /// Measures a store's on-disk footprint split.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the file length.
    pub fn measure(store: &Store) -> Result<Self, StoreError> {
        let total = std::fs::metadata(store.path())?.len();
        let weight_bytes: u64 = store.layers().iter().map(|l| l.bytes).sum();
        Ok(ContainerFootprint {
            weight_bytes,
            resistant_bytes: total - weight_bytes,
        })
    }
}
