//! The inversion-factor cache: one `Qr` per inverted layer and weight
//! state (DESIGN.md §18, "Factor once per weight state").
//!
//! Inverting a dense or conv layer during recovery solves against a
//! matrix built only from that layer's parameters, its inversion plan
//! and the config's dummy seed. The factor is therefore reusable across
//! heals for as long as the layer's parameter bits stay the same. Each
//! entry keeps a copy of the exact bits it was factored from and every
//! lookup compares them in full, so a hit returns the factor a fresh
//! factorization would have built, and any change re-factors.

use crate::plan::InversionPlan;
use crate::Result;
use milr_linalg::Qr;
use milr_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Hit and miss counts of a [`crate::Milr`]'s inversion-factor cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InversionFactorStats {
    /// Lookups answered by a cached factor.
    pub hits: u64,
    /// Lookups that had to factor (no entry, or its bits differed).
    pub misses: u64,
    /// Cached factors, at most one per inverted layer.
    pub entries: usize,
}

/// One layer's factor and the parameter state it was built from.
pub(crate) struct Factor {
    dims: Vec<usize>,
    bits: Vec<u32>,
    inversion: InversionPlan,
    qr: Qr,
}

impl Factor {
    /// The factored inversion system.
    pub(crate) fn qr(&self) -> &Qr {
        &self.qr
    }

    fn matches(&self, params: &Tensor, inversion: InversionPlan) -> bool {
        self.inversion == inversion
            && self.dims == params.shape().dims()
            && self.bits.len() == params.numel()
            && self
                .bits
                .iter()
                .zip(params.data())
                .all(|(&b, v)| b == v.to_bits())
    }
}

/// The cache itself, keyed by the inverted layer's index. Clones of a
/// `Milr` share one instance; the mutex is held only to look up or
/// insert an entry, never while factoring or solving.
#[derive(Default)]
pub(crate) struct InversionFactors {
    entries: Mutex<HashMap<usize, Arc<Factor>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl InversionFactors {
    fn entries(&self) -> MutexGuard<'_, HashMap<usize, Arc<Factor>>> {
        // The guard only ever covers a map lookup or insert, which
        // leaves the map whole even if its holder panicked.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Layer `index`'s factor for `params` under `inversion`: the
    /// cached one when its bits match, else `build`'s, which replaces
    /// any stale entry.
    pub(crate) fn get(
        &self,
        index: usize,
        params: &Tensor,
        inversion: InversionPlan,
        build: impl FnOnce() -> Result<Qr>,
    ) -> Result<Arc<Factor>> {
        let cached = self.entries().get(&index).cloned();
        if let Some(hit) = cached.filter(|f| f.matches(params, inversion)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(Factor {
            dims: params.shape().dims().to_vec(),
            bits: params.data().iter().map(|v| v.to_bits()).collect(),
            inversion,
            qr: build()?,
        });
        self.entries().insert(index, Arc::clone(&fresh));
        Ok(fresh)
    }

    pub(crate) fn stats(&self) -> InversionFactorStats {
        InversionFactorStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries().len(),
        }
    }
}

impl fmt::Debug for InversionFactors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("InversionFactors")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}
