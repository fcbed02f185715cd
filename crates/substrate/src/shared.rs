//! Shared, sharded substrate access — the concurrency seam between an
//! online serving plane (many reader threads materializing weights for
//! inference) and a maintenance plane (a scrubber daemon repairing and
//! healing the same storage in place).
//!
//! [`SharedSubstrate`] wraps any [`WeightSubstrate`] behind per-shard
//! `RwLock`s inside an `Arc`, so clones are cheap handles onto the same
//! storage. Reads of one shard are atomic with respect to writes and
//! scrubs of that shard — a reader can never observe a half-applied
//! write-back or a mid-flight scrub (no *torn* plaintext), and lock
//! acquisition orders every access into some serial schedule, so each
//! read equals what that serial schedule would produce (no *stale*
//! plaintext). Cross-shard consistency is deliberately **not**
//! provided: shards exist precisely so the scrubber can sweep one
//! while inference reads another; callers that need a consistent
//! multi-shard snapshot sequence their own quiesce point (the serving
//! layer's certification protocol does exactly that).
//!
//! ## Shard epochs
//!
//! Every shard additionally carries a seqlock-style **epoch counter**:
//! a monotonically increasing version bumped by each operation that can
//! change the shard's raw bits (write-back, raw-bit fault injection,
//! raw-image import, and any scrub pass that corrected words in place).
//! The invariant is: *two reads of the same shard that observe the same
//! epoch observed identical bits*. Readers use
//! [`SharedSubstrate::read_shard_into_versioned`] to obtain a decode
//! tagged with the exact epoch it was decoded at (the epoch is sampled while
//! the shard read lock is held, so it cannot race a writer), cache the
//! plaintext keyed by that epoch, and revalidate later with a single
//! relaxed atomic load through [`SharedSubstrate::shard_epoch`] — no
//! lock is taken on the revalidation fast path, which is what lets a
//! steady-state inference plane run with zero shard-lock traffic.

use crate::{RawGeometry, ScrubSummary, SubstrateError, WeightSubstrate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A substrate split into independently locked shards, shareable across
/// threads by cloning the handle.
#[derive(Clone)]
pub struct SharedSubstrate {
    shards: Arc<Vec<RwLock<Box<dyn WeightSubstrate>>>>,
    /// Per-shard data-version counters; bumped (under the shard write
    /// lock) by every operation that may change the shard's raw bits.
    epochs: Arc<Vec<AtomicU64>>,
    /// Prefix sums of per-shard weight counts (`len = shards + 1`).
    weight_offsets: Vec<usize>,
    /// Prefix sums of per-shard raw-bit counts (`len = shards + 1`).
    raw_offsets: Vec<usize>,
}

impl std::fmt::Debug for SharedSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSubstrate")
            .field("shards", &self.shard_count())
            .field("weights", &self.len())
            .field("raw_bits", &self.raw_bits())
            .finish()
    }
}

impl SharedSubstrate {
    /// Wraps pre-built substrates, one per shard, in shard order.
    ///
    /// Weight and raw-bit index spaces are the concatenation of the
    /// shards' spaces.
    pub fn from_parts(parts: Vec<Box<dyn WeightSubstrate>>) -> Self {
        let mut weight_offsets = Vec::with_capacity(parts.len() + 1);
        let mut raw_offsets = Vec::with_capacity(parts.len() + 1);
        weight_offsets.push(0);
        raw_offsets.push(0);
        for part in &parts {
            weight_offsets.push(weight_offsets.last().unwrap() + part.len());
            raw_offsets.push(raw_offsets.last().unwrap() + part.raw_bits());
        }
        let epochs = (0..parts.len()).map(|_| AtomicU64::new(0)).collect();
        SharedSubstrate {
            shards: Arc::new(parts.into_iter().map(RwLock::new).collect()),
            epochs: Arc::new(epochs),
            weight_offsets,
            raw_offsets,
        }
    }

    /// Splits `weights` into `shards` contiguous, nearly equal chunks
    /// and stores each in a fresh substrate built by `build` (e.g.
    /// `|chunk| SubstrateKind::Secded.store(chunk)`).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn store_with(
        weights: &[f32],
        shards: usize,
        build: impl Fn(&[f32]) -> Box<dyn WeightSubstrate>,
    ) -> Self {
        assert!(shards > 0, "at least one shard required");
        let shards = shards.min(weights.len()).max(1);
        let chunk = weights.len().div_ceil(shards);
        let parts: Vec<Box<dyn WeightSubstrate>> = if weights.is_empty() {
            vec![build(weights)]
        } else {
            weights.chunks(chunk).map(build).collect()
        };
        Self::from_parts(parts)
    }

    /// Total stored weights across shards.
    pub fn len(&self) -> usize {
        *self.weight_offsets.last().unwrap()
    }

    /// True when no weights are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total raw (fault-surface) bits across shards.
    pub fn raw_bits(&self) -> usize {
        *self.raw_offsets.last().unwrap()
    }

    /// The global weight-index range `[start, end)` stored by `shard`.
    pub fn shard_weight_range(&self, shard: usize) -> (usize, usize) {
        (self.weight_offsets[shard], self.weight_offsets[shard + 1])
    }

    /// The global raw-bit range `[start, end)` owned by `shard`.
    pub fn shard_raw_range(&self, shard: usize) -> (usize, usize) {
        (self.raw_offsets[shard], self.raw_offsets[shard + 1])
    }

    /// Current epoch of `shard`: a single relaxed-cost atomic load, no
    /// lock taken. Equal epochs across two observations guarantee the
    /// shard's raw bits were identical at both (writers bump under the
    /// shard's write lock). This is the cache-revalidation fast path.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.epochs[shard].load(Ordering::Acquire)
    }

    /// Sum of all shard epochs — a cheap monotone counter of raw-bit
    /// mutations (write-backs, fault injections, scrub corrections)
    /// across the whole substrate, exported as the substrate-plane
    /// `epoch_total` metric.
    pub fn epoch_total(&self) -> u64 {
        self.epochs.iter().map(|e| e.load(Ordering::Acquire)).sum()
    }

    /// Bumps `shard`'s epoch. Must be called with the shard's write
    /// lock held (all internal callers do); the bump-before-unlock
    /// discipline is what makes "same epoch ⇒ same bits" hold.
    fn bump_epoch(&self, shard: usize) {
        self.epochs[shard].fetch_add(1, Ordering::Release);
    }

    /// Decodes one shard's plaintext weights (atomic per shard).
    pub fn read_shard(&self, shard: usize) -> Vec<f32> {
        self.shards[shard]
            .read()
            .expect("lock poisoned")
            .read_weights()
    }

    /// Decodes one shard's plaintext weights directly into `out`
    /// (plain storage is a straight copy) and returns the epoch the
    /// decode observed. The epoch is sampled while the shard read lock
    /// is held, so the pair is exact: `out` holds precisely the decode
    /// of the shard's bits at that epoch — never torn, never tagged
    /// with a neighbouring version.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the shard's weight count.
    pub fn read_shard_into_versioned(&self, shard: usize, out: &mut [f32]) -> u64 {
        let guard = self.shards[shard].read().expect("lock poisoned");
        let epoch = self.epochs[shard].load(Ordering::Acquire);
        guard.read_weights_into(out);
        epoch
    }

    /// Decodes all shards in shard order. Each shard read is atomic;
    /// the concatenation is *per-shard* consistent, not a global
    /// snapshot.
    pub fn read_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(shard.read().expect("lock poisoned").read_weights());
        }
        out
    }

    /// Replaces one shard's weights under its write lock.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LengthMismatch`] when the length differs from
    /// the shard's stored count.
    pub fn write_shard(&self, shard: usize, weights: &[f32]) -> Result<(), SubstrateError> {
        let mut guard = self.shards[shard].write().expect("lock poisoned");
        let result = guard.write_weights(weights);
        if result.is_ok() {
            self.bump_epoch(shard);
        }
        result
    }

    /// Replaces every shard's weights from one contiguous buffer
    /// (shard-by-shard; concurrent readers see old or new weights per
    /// shard, never a torn shard).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LengthMismatch`] when `weights.len()` differs
    /// from [`len`](SharedSubstrate::len); no shard is modified then.
    pub fn write_weights(&self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len() {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len(),
                got: weights.len(),
            });
        }
        for (i, _) in self.shards.iter().enumerate() {
            let (lo, hi) = (self.weight_offsets[i], self.weight_offsets[i + 1]);
            self.write_shard(i, &weights[lo..hi])?;
        }
        Ok(())
    }

    /// Scrubs one shard in place under its write lock. The shard epoch
    /// is bumped only when the pass corrected words (a clean sweep
    /// leaves the bits — and hence any epoch-tagged plaintext cache —
    /// untouched, so periodic scrubbing costs readers nothing).
    pub fn scrub_shard(&self, shard: usize) -> ScrubSummary {
        let mut guard = self.shards[shard].write().expect("lock poisoned");
        let summary = guard.scrub();
        if summary.corrected > 0 {
            self.bump_epoch(shard);
        }
        summary
    }

    /// Scrubs one shard and decodes it into `out` in one pass under its
    /// write lock ([`WeightSubstrate::scrub_read_into`]): `out` holds
    /// exactly the repaired bits, with no writer landing between the
    /// repair and the read. The epoch is bumped exactly when the pass
    /// corrected words, as in [`scrub_shard`](SharedSubstrate::scrub_shard).
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the shard's weight count.
    pub fn scrub_read_shard_into(&self, shard: usize, out: &mut [f32]) -> ScrubSummary {
        let mut guard = self.shards[shard].write().expect("lock poisoned");
        let summary = guard.scrub_read_into(out);
        if summary.corrected > 0 {
            self.bump_epoch(shard);
        }
        summary
    }

    /// Scrubs every shard (shard-by-shard, never blocking readers of
    /// other shards) and sums the statistics.
    pub fn scrub(&self) -> ScrubSummary {
        let mut total = ScrubSummary::default();
        for i in 0..self.shards.len() {
            let s = self.scrub_shard(i);
            total.corrected += s.corrected;
            total.uncorrectable += s.uncorrectable;
        }
        total
    }

    /// Raw-space geometry of the stored encoding (shard 0's; all shards
    /// share one encoding by construction).
    pub fn raw_geometry(&self) -> RawGeometry {
        self.shards[0].read().expect("lock poisoned").raw_geometry()
    }

    /// Reads one bit of the global raw representation under the owning
    /// shard's read lock (no epoch bump — observation, not mutation).
    /// Stuck-at campaigns use this to re-assert a bit only when a scrub
    /// actually corrected it away.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= raw_bits()`.
    pub fn raw_bit(&self, bit: usize) -> bool {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let shard = self.raw_offsets.partition_point(|&o| o <= bit) - 1;
        let guard = self.shards[shard].read().expect("lock poisoned");
        guard.raw_bit(bit - self.raw_offsets[shard])
    }

    /// Flips one bit of the global raw representation (fault
    /// injection), serialized with reads/scrubs of the owning shard.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= raw_bits()`.
    pub fn flip_raw_bit(&self, bit: usize) {
        assert!(bit < self.raw_bits(), "raw bit {bit} out of range");
        let shard = self.raw_offsets.partition_point(|&o| o <= bit) - 1;
        let mut guard = self.shards[shard].write().expect("lock poisoned");
        guard.flip_raw_bit(bit - self.raw_offsets[shard]);
        // Faults change bits like any other writer: the bump is what
        // keeps epoch-tagged caches honest about corrupted storage
        // (serving must observe the corruption, not a stale-clean copy).
        self.bump_epoch(shard);
    }

    /// Serializes one shard's raw image under its read lock — the
    /// persistence snapshot path (see [`WeightSubstrate::export_raw`]).
    pub fn export_shard_raw(&self, shard: usize) -> Vec<u8> {
        self.shards[shard]
            .read()
            .expect("lock poisoned")
            .export_raw()
    }

    /// Replaces one shard's raw image under its write lock — the
    /// peer-repair path: a healthy replica's certified page bytes
    /// overwrite this shard bit-for-bit, atomically with respect to
    /// readers and scrubs of the shard (see
    /// [`WeightSubstrate::import_raw`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`SubstrateError`] (wrong image length,
    /// backing-store failure).
    pub fn import_shard_raw(&self, shard: usize, raw: &[u8]) -> Result<(), SubstrateError> {
        let mut guard = self.shards[shard].write().expect("lock poisoned");
        let result = guard.import_raw(raw);
        if result.is_ok() {
            self.bump_epoch(shard);
        }
        result
    }

    /// Flushes every shard's buffered state to its backing store
    /// (shard-by-shard, like [`scrub`](SharedSubstrate::scrub); a no-op
    /// for in-memory shards).
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's [`SubstrateError`].
    pub fn flush(&self) -> Result<(), SubstrateError> {
        for shard in self.shards.iter() {
            shard.write().expect("lock poisoned").flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubstrateKind;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5 - 8.0).collect()
    }

    #[test]
    fn sharded_roundtrip_matches_flat() {
        let w = weights(37);
        for kind in SubstrateKind::ALL {
            let shared = SharedSubstrate::store_with(&w, 4, |c| kind.store(c));
            assert_eq!(shared.shard_count(), 4, "{kind}");
            assert_eq!(shared.len(), 37, "{kind}");
            assert_eq!(shared.read_weights(), w, "{kind}");
        }
    }

    #[test]
    fn shard_indexing_is_contiguous() {
        let w = weights(10);
        let shared = SharedSubstrate::store_with(&w, 3, |c| SubstrateKind::Plain.store(c));
        // Chunks of ceil(10/3) = 4: [0..4), [4..8), [8..10).
        assert_eq!(shared.shard_weight_range(0), (0, 4));
        assert_eq!(shared.shard_weight_range(1), (4, 8));
        assert_eq!(shared.shard_weight_range(2), (8, 10));
        assert_eq!(shared.read_shard(2), w[8..].to_vec());
    }

    #[test]
    fn writes_and_scrubs_are_per_shard() {
        let w = weights(16);
        let shared = SharedSubstrate::store_with(&w, 4, |c| SubstrateKind::Secded.store(c));
        // Corrupt one raw bit of shard 0's space; scrub repairs it.
        shared.flip_raw_bit(5);
        let summary = shared.scrub_shard(0);
        assert_eq!(summary.corrected, 1);
        assert_eq!(shared.read_weights(), w);
        // Whole-buffer write-back round-trips.
        let w2 = weights(16).iter().map(|v| v + 1.0).collect::<Vec<_>>();
        shared.write_weights(&w2).unwrap();
        assert_eq!(shared.read_weights(), w2);
        assert!(shared.write_weights(&w2[..3]).is_err());
        assert!(shared.write_shard(1, &w2[..1]).is_err());
    }

    #[test]
    fn clones_share_storage() {
        let w = weights(8);
        let a = SharedSubstrate::store_with(&w, 2, |c| SubstrateKind::Plain.store(c));
        let b = a.clone();
        let patched: Vec<f32> = w.iter().map(|v| v * 2.0).collect();
        a.write_shard(0, &patched[..4]).unwrap();
        assert_eq!(b.read_shard(0), patched[..4].to_vec());
        assert_eq!(b.read_shard(1), w[4..].to_vec());
    }

    #[test]
    fn shard_import_restores_donor_bits() {
        let w = weights(24);
        for kind in SubstrateKind::ALL {
            let donor = SharedSubstrate::store_with(&w, 3, |c| kind.store(c));
            let damaged = SharedSubstrate::store_with(&w, 3, |c| kind.store(c));
            let (lo, _) = damaged.shard_raw_range(1);
            damaged.flip_raw_bit(lo + 2);
            damaged.flip_raw_bit(lo + 9);
            assert_ne!(damaged.export_shard_raw(1), donor.export_shard_raw(1));
            damaged
                .import_shard_raw(1, &donor.export_shard_raw(1))
                .unwrap();
            assert_eq!(damaged.export_shard_raw(1), donor.export_shard_raw(1));
            assert_eq!(damaged.read_weights(), w, "{kind}");
            assert!(damaged.import_shard_raw(0, &[1, 2, 3]).is_err(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bounds_checked() {
        let shared = SharedSubstrate::store_with(&weights(2), 1, |c| SubstrateKind::Plain.store(c));
        shared.flip_raw_bit(64);
    }

    #[test]
    fn epochs_track_data_changes() {
        let w = weights(16);
        let shared = SharedSubstrate::store_with(&w, 2, |c| SubstrateKind::Secded.store(c));
        assert_eq!(shared.shard_epoch(0), 0);
        assert_eq!(shared.shard_epoch(1), 0);

        // A fault bumps the owning shard only.
        shared.flip_raw_bit(3);
        assert_eq!(shared.shard_epoch(0), 1);
        assert_eq!(shared.shard_epoch(1), 0);

        // A correcting scrub bumps; a clean scrub does not.
        assert_eq!(shared.scrub_shard(0).corrected, 1);
        assert_eq!(shared.shard_epoch(0), 2);
        assert!(shared.scrub_shard(0).is_clean());
        assert_eq!(shared.shard_epoch(0), 2);

        // Write-back and raw import bump; failed writes do not.
        shared.write_shard(1, &w[8..]).unwrap();
        assert_eq!(shared.shard_epoch(1), 1);
        assert!(shared.write_shard(1, &w[..3]).is_err());
        assert_eq!(shared.shard_epoch(1), 1);
        let image = shared.export_shard_raw(1);
        shared.import_shard_raw(1, &image).unwrap();
        assert_eq!(shared.shard_epoch(1), 2);
        assert!(shared.import_shard_raw(1, &[0u8; 3]).is_err());
        assert_eq!(shared.shard_epoch(1), 2);
    }

    #[test]
    fn versioned_reads_report_the_observed_epoch() {
        let w = weights(12);
        for kind in SubstrateKind::ALL {
            let shared = SharedSubstrate::store_with(&w, 3, |c| kind.store(c));
            let (lo, hi) = shared.shard_weight_range(1);
            let mut buf = vec![0.0f32; hi - lo];
            let epoch = shared.read_shard_into_versioned(1, &mut buf);
            assert_eq!(epoch, 0, "{kind}");
            assert_eq!(buf, shared.read_shard(1), "{kind}");

            let (raw_lo, _) = shared.shard_raw_range(1);
            shared.flip_raw_bit(raw_lo);
            let epoch = shared.read_shard_into_versioned(1, &mut buf);
            assert_eq!(epoch, 1, "{kind}");
            assert_eq!(buf, shared.read_shard(1), "{kind}");
        }
    }
}
