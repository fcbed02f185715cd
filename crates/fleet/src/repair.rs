//! Peer repair: restoring a damaged replica's weight pages, bit for
//! bit, from a healthy peer's **certified** store.
//!
//! The protocol has a fetch side and an apply side so the two replicas
//! never need to be borrowed at once:
//!
//! 1. **Fetch** ([`fetch_certified`]): the donor reads the affected
//!    layers' raw page runs from its container and *certifies* them —
//!    it replays each layer's MILR detection check against its own
//!    error-resistant artifacts and refuses to ship pages that fail
//!    ([`milr_store::Store::certified_layer_pages`]). A donor whose own
//!    disk is dirty is therefore rejected at the source, and the caller
//!    tries the next peer.
//! 2. **Apply** ([`apply_repair`]): the damaged replica imports the
//!    page images onto its live shards (superseding corrupt and cached
//!    state alike), re-verifies by running its own detection over the
//!    materialized model, then re-protects and durably re-anchors its
//!    store — so the repaired state survives a crash — and is ready to
//!    rejoin.
//!
//! Because every replica serves the same protected model and every
//! substrate encoding is deterministic, the imported pages are
//! **bit-identical** to the donor's — the end-to-end test asserts raw
//! image equality across the fleet after repair.

use crate::replica::Replica;
use crate::FleetError;
use milr_store::Store;

/// One raw page image fetched from a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageImage {
    /// Layer the page belongs to.
    pub layer: usize,
    /// Page index inside the layer's run.
    pub page: usize,
    /// The page's substrate-encoded bytes.
    pub bytes: Vec<u8>,
}

/// What a peer repair moved and touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Layers restored from the peer.
    pub layers: Vec<usize>,
    /// Pages fetched.
    pub pages: usize,
    /// Raw bytes fetched.
    pub bytes: usize,
}

/// A source of certified weight pages — anything that can prove the
/// pages it ships decode to the protected weights. Implemented for
/// [`milr_store::Store`]; a networked fleet would implement it over an
/// RPC client with the same contract.
pub trait PeerRepair {
    /// Reads and certifies one layer's page run.
    ///
    /// # Errors
    ///
    /// An error when the pages cannot be certified (local damage) or
    /// read.
    fn certified_pages(&self, layer: usize) -> Result<Vec<PageImage>, FleetError>;
}

impl PeerRepair for Store {
    fn certified_pages(&self, layer: usize) -> Result<Vec<PageImage>, FleetError> {
        Ok(self
            .certified_layer_pages(layer)?
            .into_iter()
            .enumerate()
            .map(|(page, bytes)| PageImage { layer, page, bytes })
            .collect())
    }
}

/// Fetches certified page images for every layer in `layers` from one
/// peer. All-or-nothing: a single uncertifiable layer fails the whole
/// fetch so the caller can move on to another donor before anything is
/// applied.
///
/// # Errors
///
/// Propagates the peer's certification/read errors.
pub fn fetch_certified(
    peer: &dyn PeerRepair,
    layers: &[usize],
) -> Result<Vec<PageImage>, FleetError> {
    let mut images = Vec::new();
    for &layer in layers {
        images.extend(peer.certified_pages(layer)?);
    }
    Ok(images)
}

/// Applies fetched page images to a damaged replica: imports each
/// layer's concatenated pages onto its live shard, re-verifies the
/// whole model by detection against the replica's own artifacts, then
/// re-protects and durably re-anchors. On success the replica's
/// substrate holds the donor's bits exactly and its store is certified
/// again; the caller transitions it back to
/// [`Serving`](crate::ReplicaState::Serving).
///
/// # Errors
///
/// [`FleetError::RepairRejected`] when post-import detection still
/// flags layers; substrate/store/protection errors otherwise. The
/// replica's state field is not modified on either path.
pub fn apply_repair(
    replica: &mut Replica,
    images: &[PageImage],
) -> Result<RepairStats, FleetError> {
    // A layer's shard is rebuilt from its pages concatenated in page
    // order — sort rather than trusting the peer's delivery order, so
    // an out-of-order `PeerRepair` impl (e.g. a concurrent RPC client)
    // cannot scramble the import.
    let mut images: Vec<&PageImage> = images.iter().collect();
    images.sort_by_key(|p| (p.layer, p.page));
    let mut stats = RepairStats::default();
    let mut i = 0;
    while i < images.len() {
        let layer = images[i].layer;
        let mut image = Vec::new();
        while i < images.len() && images[i].layer == layer {
            image.extend_from_slice(&images[i].bytes);
            stats.pages += 1;
            i += 1;
        }
        stats.bytes += image.len();
        replica.host().import_layer_raw(layer, &image)?;
        stats.layers.push(layer);
    }
    let verify = replica.detect()?;
    if !verify.is_clean() {
        return Err(FleetError::RepairRejected {
            replica: replica.id(),
            layers: verify.flagged,
        });
    }
    replica.reanchor()?;
    Ok(stats)
}

/// Convenience wrapper: fetch from one peer, then apply — for callers
/// whose replica and peer live in distinct bindings (the example; the
/// simulation uses the two halves directly to satisfy the borrow
/// checker across its replica vector).
///
/// # Errors
///
/// See `fetch_certified` and `apply_repair`, the two halves it runs.
pub fn peer_repair(
    replica: &mut Replica,
    peer: &dyn PeerRepair,
    layers: &[usize],
) -> Result<RepairStats, FleetError> {
    let images = fetch_certified(peer, layers)?;
    apply_repair(replica, &images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_core::MilrConfig;
    use milr_nn::{Layer, Sequential};
    use milr_store::{Store, StoreOptions};
    use milr_substrate::SubstrateKind;
    use milr_tensor::{ConvSpec, Padding, TensorRng};
    use std::path::PathBuf;

    fn model() -> Sequential {
        let mut rng = TensorRng::new(5);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(6 * 6 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "milr-fleet-repair-{}-{name}.milr",
            std::process::id()
        ))
    }

    #[test]
    fn store_ships_certified_pages_and_refuses_damaged_ones() {
        let m = model();
        let path = temp("donor");
        let store = Store::create(
            &path,
            &m,
            MilrConfig::default(),
            StoreOptions {
                kind: SubstrateKind::Secded,
                page_weights: 16,
            },
        )
        .unwrap();
        let pages = store.certified_pages(0).unwrap();
        assert_eq!(pages.len(), 3);
        assert!(pages
            .iter()
            .enumerate()
            .all(|(i, p)| p.page == i && p.layer == 0));
        let fetched = fetch_certified(&store, &[0, 3]).unwrap();
        assert_eq!(
            fetched.len(),
            store.layer_page_count(0) + store.layer_page_count(3)
        );
        // Wreck layer 0 on disk beyond ECC: certification refuses.
        let stride = store.layer_raw_bits(0) / 36;
        for bit in 0..4 * stride {
            store.flip_raw_bit(0, bit).unwrap();
        }
        assert!(store.certified_pages(0).is_err());
        assert!(fetch_certified(&store, &[3, 0]).is_err(), "all-or-nothing");
        let _ = std::fs::remove_file(&path);
    }
}
