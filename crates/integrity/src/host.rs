//! The substrate-backed model host: the single owner of the served
//! weights.
//!
//! Weights live **only** in a [`SharedSubstrate`] — one shard per
//! parameterized layer, so the scrubber can sweep (and recovery can
//! rewrite) one layer while inference materializes another. The
//! architecture skeleton kept alongside has its parameters zeroed at
//! construction: every forward pass must go through
//! [`ModelHost::materialize`], which decodes the substrate — or, on
//! the serving hot path, through the fused
//! [`ModelHost::forward_batch`], which decodes each layer's shard at
//! most once and caches the plaintext tagged with the shard's epoch.
//!
//! ## The epoch-tagged plaintext cache
//!
//! Detection and healing must always observe real storage, so
//! [`ModelHost::materialize`] decodes the substrate directly every
//! time. Inference does not: steady-state forwards on an untouched
//! layer revalidate a cached decode with one atomic epoch load
//! ([`SharedSubstrate::shard_epoch`]) — no shard `RwLock`, no decrypt,
//! no ECC decode, no allocation. Any write that changes a shard's bits
//! (heal write-back, re-protection, raw import, correcting scrub, and
//! injected faults alike) bumps the shard epoch, so the next forward
//! re-decodes exactly the layers that changed. Fault injection bumping
//! the epoch is what keeps the cache honest: a corrupted shard is
//! re-decoded and served corrupted — as the paper's threat model
//! demands — never served from a stale-clean copy.
//!
//! ## The scrub tick's skeleton
//!
//! A scrub tick scrubs and decodes its chunk's shards in one locked
//! pass per shard ([`ModelHost::scrub_read_layers`]) into a second
//! zeroed skeleton the host keeps for that purpose, built at the first
//! tick. Detection then reads the chunk's layers from it, so a tick
//! neither clones the architecture nor decodes a shard twice. A flagged
//! tick whose chunk covered every shard keeps that skeleton as the heal
//! episode's snapshot ([`ChunkView::into_model`]); the next tick clones
//! a fresh one.

use milr_nn::{Result as NnResult, Sequential};
use milr_obs::SpanTree;
use milr_substrate::{ScrubSummary, SharedSubstrate, WeightSubstrate};
use milr_tensor::Tensor;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One cached shard decode: plaintext parameters tagged with the shard
/// epoch they were decoded at.
#[derive(Debug, Clone)]
struct LayerCache {
    epoch: u64,
    params: Arc<Tensor>,
}

/// Cumulative counters for the host's plaintext cache (shared by all
/// clones of a host, like the store itself).
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
}

/// Snapshot of the host cache counters; see
/// [`ModelHost::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCacheStats {
    /// Forwards of a parameterized layer served from the cache (one
    /// atomic epoch compare, no substrate decode, no shard lock).
    pub hits: u64,
    /// Forwards that had to decode the shard (cold cache or epoch
    /// moved).
    pub misses: u64,
    /// Layer forwards re-run because the shard epoch moved while the
    /// layer was computing (a writer landed mid-forward).
    pub retries: u64,
}

/// The data plane of the service: a weightless architecture skeleton
/// plus the sharded substrate actually holding the parameters. The
/// control plane (a [`milr_core::Milr`] protection instance, owned by
/// the scrubber) detects against and heals what lives here — and can
/// be re-anchored to the healed state without touching the host.
#[derive(Debug, Clone)]
pub struct ModelHost {
    /// Architecture skeleton; parameter tensors are zeroed.
    template: Sequential,
    store: SharedSubstrate,
    /// Layer index of each shard, ascending.
    param_layers: Vec<usize>,
    /// Parameter tensor dims of each shard.
    param_dims: Vec<Vec<usize>>,
    /// Per-shard epoch-tagged plaintext decodes; `RwLock` so concurrent
    /// clean-path readers validate-and-clone without serializing.
    cache: Arc<Vec<RwLock<Option<LayerCache>>>>,
    counters: Arc<CacheCounters>,
    /// The scrub tick's detection skeleton, lent out by
    /// [`scrub_read_layers`](ModelHost::scrub_read_layers); `None`
    /// until the first tick and while lent.
    skeleton: Arc<Mutex<Option<Sequential>>>,
}

/// A scrub tick's chunk, decoded into the host's detection skeleton by
/// [`ModelHost::scrub_read_layers`]. Only the chunk's layers carry
/// this tick's weights: the others hold zeros or an earlier tick's
/// decode, which detection of the chunk never reads. Dropping the view
/// hands the skeleton back to its host for the next tick;
/// [`into_model`](ChunkView::into_model) keeps it instead.
#[derive(Debug)]
pub struct ChunkView<'a> {
    slot: &'a Mutex<Option<Sequential>>,
    model: Option<Sequential>,
}

impl ChunkView<'_> {
    /// Takes the decoded skeleton out of the view — when the chunk
    /// covered every shard it is a whole-model decode. The host clones
    /// a fresh skeleton from its template at the next tick.
    pub fn into_model(mut self) -> Sequential {
        self.model.take().expect("lent until drop")
    }
}

impl Deref for ChunkView<'_> {
    type Target = Sequential;

    fn deref(&self) -> &Sequential {
        self.model.as_ref().expect("lent until drop")
    }
}

impl Drop for ChunkView<'_> {
    fn drop(&mut self) {
        // A poisoned slot only means a panic while it was locked; the
        // skeleton's contents are rewritten per tick, so keep using it.
        if let Some(model) = self.model.take() {
            *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(model);
        }
    }
}

fn fresh_cache(shards: usize) -> Arc<Vec<RwLock<Option<LayerCache>>>> {
    Arc::new((0..shards).map(|_| RwLock::new(None)).collect())
}

impl ModelHost {
    /// Moves every parameterized layer's weights of `golden` into a
    /// fresh substrate shard built by `build`, and zeroes the
    /// in-memory copies.
    pub fn new(golden: &Sequential, build: &dyn Fn(&[f32]) -> Box<dyn WeightSubstrate>) -> Self {
        let mut template = golden.clone();
        let mut param_layers = Vec::new();
        let mut param_dims = Vec::new();
        let mut parts: Vec<Box<dyn WeightSubstrate>> = Vec::new();
        for (i, layer) in template.layers_mut().iter_mut().enumerate() {
            if let Some(params) = layer.params_mut() {
                param_layers.push(i);
                param_dims.push(params.shape().dims().to_vec());
                parts.push(build(params.data()));
                params.map_in_place(|_| 0.0);
            }
        }
        let cache = fresh_cache(parts.len());
        ModelHost {
            template,
            store: SharedSubstrate::from_parts(parts),
            param_layers,
            param_dims,
            cache,
            counters: Arc::new(CacheCounters::default()),
            skeleton: Arc::default(),
        }
    }

    /// Assembles a host from pre-built substrate shards — the
    /// cold-start path: `parts` maps layer indices of `template` to
    /// substrates already holding those layers' weights (e.g.
    /// file-backed pages opened from a `milr_store::Store`). The
    /// in-memory skeleton is zeroed exactly like
    /// [`ModelHost::new`] — the substrates are the only weight
    /// source.
    ///
    /// # Panics
    ///
    /// Panics when `parts` does not list exactly the parameterized
    /// layers of `template` (ascending), or a substrate's length
    /// differs from its layer's parameter count.
    pub fn from_parts(
        mut template: Sequential,
        parts: Vec<(usize, Box<dyn WeightSubstrate>)>,
    ) -> Self {
        let mut param_layers = Vec::with_capacity(parts.len());
        let mut param_dims = Vec::with_capacity(parts.len());
        let mut substrates = Vec::with_capacity(parts.len());
        let expected: Vec<usize> = template
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_count() > 0)
            .map(|(i, _)| i)
            .collect();
        let got: Vec<usize> = parts.iter().map(|(i, _)| *i).collect();
        assert_eq!(got, expected, "parts must cover the parameterized layers");
        for (layer, sub) in parts {
            let params = template.layers_mut()[layer]
                .params_mut()
                .expect("parts list parameterized layers");
            assert_eq!(
                sub.len(),
                params.numel(),
                "substrate for layer {layer} holds the wrong weight count"
            );
            param_layers.push(layer);
            param_dims.push(params.shape().dims().to_vec());
            params.map_in_place(|_| 0.0);
            substrates.push(sub);
        }
        let cache = fresh_cache(substrates.len());
        ModelHost {
            template,
            store: SharedSubstrate::from_parts(substrates),
            param_layers,
            param_dims,
            cache,
            counters: Arc::new(CacheCounters::default()),
            skeleton: Arc::default(),
        }
    }

    /// The underlying sharded store (one shard per parameterized
    /// layer).
    pub fn store(&self) -> &SharedSubstrate {
        &self.store
    }

    /// The per-example input shape the model takes
    /// ([`Sequential::input_shape`]).
    pub fn input_shape(&self) -> &[usize] {
        self.template.input_shape()
    }

    /// Layer indices backed by substrate shards, ascending (shard `k`
    /// holds layer `param_layers()[k]`).
    pub fn param_layers(&self) -> &[usize] {
        &self.param_layers
    }

    /// Decodes every shard into a runnable model. Each layer's read is
    /// atomic against scrubs/writes of that layer; cross-layer
    /// consistency is the certification protocol's job.
    pub fn materialize(&self) -> Sequential {
        self.materialize_layers(&self.param_layers)
    }

    /// Decodes only the given layers' shards into the (otherwise
    /// zero-weight) skeleton — the scrubber's per-tick path: an
    /// incremental detection chunk only reads its own layers'
    /// parameters, so the other shards are neither locked nor decoded
    /// (on an encrypted substrate that skips the whole-model decrypt
    /// every tick). Layers without a shard are ignored.
    pub fn materialize_layers(&self, layers: &[usize]) -> Sequential {
        let mut model = self.template.clone();
        for &layer in layers {
            if let Ok(shard) = self.param_layers.binary_search(&layer) {
                let params = model.layers_mut()[layer]
                    .params_mut()
                    .expect("param layer cannot lose its params");
                self.store
                    .read_shard_into_versioned(shard, params.data_mut());
            }
        }
        model
    }

    /// Decoded plaintext parameters of `shard`, served from the
    /// epoch-tagged cache when the shard has not changed since the last
    /// decode. The hit path costs one atomic epoch load plus an
    /// uncontended cache-slot read lock — the shard's own `RwLock` is
    /// never touched. The miss path decodes under the shard read lock
    /// (through [`SharedSubstrate::read_shard_into_versioned`], no
    /// intermediate `Vec`) and installs the result.
    pub fn shard_params(&self, shard: usize) -> (Arc<Tensor>, u64) {
        let current = self.store.shard_epoch(shard);
        if let Some(cached) = self.cache[shard]
            .read()
            .expect("cache poisoned")
            .as_ref()
            .filter(|c| c.epoch == current)
        {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return (cached.params.clone(), cached.epoch);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let (w_lo, w_hi) = self.store.shard_weight_range(shard);
        let mut data = vec![0.0f32; w_hi - w_lo];
        let epoch = self.store.read_shard_into_versioned(shard, &mut data);
        let params = Arc::new(
            Tensor::from_vec(data, &self.param_dims[shard])
                .expect("shard length fixed at construction"),
        );
        let mut slot = self.cache[shard].write().expect("cache poisoned");
        // Keep whichever decode is newer; epochs only grow.
        if slot.as_ref().is_none_or(|c| c.epoch <= epoch) {
            *slot = Some(LayerCache {
                epoch,
                params: params.clone(),
            });
        }
        (params, epoch)
    }

    /// Runs a stacked `(B, …)` batch through the model with the fused
    /// decode-forward path: each parameterized layer's plaintext comes
    /// from [`shard_params`](ModelHost::shard_params) (cache or direct
    /// shard decode — never a whole-model materialization), and the
    /// layer's epoch is revalidated after its forward. If a writer
    /// landed mid-layer, that layer alone is re-fetched and re-run
    /// (bounded retries; residual cross-layer staleness is exactly the
    /// cross-shard gap the certification ledger already closes).
    /// Parameterless layers run in place on the batch scratch.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_stacked(&self, batch: Tensor) -> NnResult<Tensor> {
        self.forward_stacked_with(batch, &mut |_, _| {})
    }

    /// The layer walk shared by the plain and traced forwards:
    /// `mark(i, true)` fires immediately before layer `i` runs,
    /// `mark(i, false)` immediately after (not fired when the layer
    /// errors — the caller's span tree clamps unclosed spans).
    fn forward_stacked_with(
        &self,
        mut batch: Tensor,
        mark: &mut dyn FnMut(usize, bool),
    ) -> NnResult<Tensor> {
        const MAX_LAYER_RETRIES: u32 = 4;
        for (i, layer) in self.template.layers().iter().enumerate() {
            mark(i, true);
            match self.param_layers.binary_search(&i) {
                Ok(shard) => {
                    let mut attempts = 0;
                    batch = loop {
                        let (params, epoch) = self.shard_params(shard);
                        let out = layer.forward_with_params(&batch, Some(&params))?;
                        if attempts >= MAX_LAYER_RETRIES || self.store.shard_epoch(shard) == epoch {
                            break out;
                        }
                        attempts += 1;
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    };
                }
                Err(_) => batch = layer.forward_owned(batch)?,
            }
            mark(i, false);
        }
        Ok(batch)
    }

    /// Fused batched inference: stacks `examples`, runs
    /// [`forward_stacked`](ModelHost::forward_stacked), splits the
    /// result back into per-example outputs. Bit-identical to
    /// `materialize().forward_batch(examples)` — same arithmetic on
    /// the same decoded weights — without cloning the template or
    /// decoding untouched shards.
    ///
    /// # Errors
    ///
    /// Propagates stacking and layer shape errors.
    pub fn forward_batch(&self, examples: &[Tensor]) -> NnResult<Vec<Tensor>> {
        let stacked = self.template.stack_batch(examples)?;
        let out = self.forward_stacked(stacked)?;
        Sequential::split_batch(&out, examples.len())
    }

    /// [`forward_batch`](ModelHost::forward_batch) with span
    /// attribution: builds `decode` (batch stacking) and `forward`
    /// children — with one `layer` grandchild per model layer — under
    /// whatever span the caller has open in `tree`, stamped via the
    /// caller's `clock` (the host never reads a clock of its own).
    /// Arithmetic is bit-identical to the untraced path.
    ///
    /// # Errors
    ///
    /// Propagates stacking and layer shape errors; on error the
    /// in-flight spans are left open for the caller's
    /// [`SpanTree::finish`](milr_obs::SpanTree::finish) to clamp.
    pub fn forward_batch_traced(
        &self,
        examples: &[Tensor],
        clock: &mut dyn FnMut() -> u64,
        tree: &mut SpanTree,
    ) -> NnResult<Vec<Tensor>> {
        tree.open(clock(), "decode", examples.len() as u64);
        let stacked = self.template.stack_batch(examples)?;
        tree.close(clock());
        tree.open(clock(), "forward", examples.len() as u64);
        let out = self.forward_stacked_with(stacked, &mut |layer, opening| {
            if opening {
                tree.open(clock(), "layer", layer as u64);
            } else {
                tree.close(clock());
            }
        })?;
        tree.close(clock());
        Sequential::split_batch(&out, examples.len())
    }

    /// Drops every cached decode. Epoch validation makes staleness
    /// impossible without this, so it exists for lifecycle seams that
    /// want a cold cache by construction (a fleet replica rejoining
    /// after repair, tests).
    pub fn invalidate_cache(&self) {
        for slot in self.cache.iter() {
            *slot.write().expect("cache poisoned") = None;
        }
    }

    /// Snapshot of the cache's cumulative hit/miss/retry counters
    /// (shared across host clones).
    pub fn cache_stats(&self) -> HostCacheStats {
        HostCacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
        }
    }

    /// Writes the given layers' parameters from `healed` back into
    /// their shards (the recovery write-back path).
    ///
    /// # Panics
    ///
    /// Panics when a given layer is not substrate-backed or `healed`
    /// has mismatched geometry.
    pub fn write_back(&self, healed: &Sequential, layers: &[usize]) {
        for &layer in layers {
            let shard = self
                .param_layers
                .binary_search(&layer)
                .expect("layer is substrate-backed");
            let params = healed.layers()[layer]
                .params()
                .expect("healed layer has params");
            self.store
                .write_shard(shard, params.data())
                .expect("healed geometry matches the shard");
        }
    }

    /// Runs the substrate's own repair pass (e.g. SECDED correction)
    /// over the given layers' shards and decodes them into the host's
    /// detection skeleton — the scrub tick's one pass over storage
    /// ([`SharedSubstrate::scrub_read_shard_into`], one shard write lock
    /// each). The view holds exactly the repaired bits of each shard;
    /// layers without a shard are ignored. A fresh skeleton is cloned
    /// from the template at the first call (or when another view still
    /// holds the host's); later calls reuse it.
    pub fn scrub_read_layers(&self, layers: &[usize]) -> (ScrubSummary, ChunkView<'_>) {
        let lent = self
            .skeleton
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let mut model = lent.unwrap_or_else(|| self.template.clone());
        let mut total = ScrubSummary::default();
        for &layer in layers {
            if let Ok(shard) = self.param_layers.binary_search(&layer) {
                let params = model.layers_mut()[layer]
                    .params_mut()
                    .expect("param layer cannot lose its params");
                total.absorb(&self.store.scrub_read_shard_into(shard, params.data_mut()));
            }
        }
        let view = ChunkView {
            slot: &self.skeleton,
            model: Some(model),
        };
        (total, view)
    }

    /// Corrupts one stored weight by flipping its entire raw word
    /// (every raw bit the substrate devotes to that weight) — the
    /// whole-weight error family of the paper's evaluation, injected
    /// under the shard lock like any other storage access.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not substrate-backed or `weight` is out
    /// of range for it.
    pub fn corrupt_weight(&self, layer: usize, weight: usize) {
        let shard = self
            .param_layers
            .binary_search(&layer)
            .expect("layer is substrate-backed");
        let (w_lo, w_hi) = self.store.shard_weight_range(shard);
        assert!(weight < w_hi - w_lo, "weight {weight} out of range");
        let (r_lo, r_hi) = self.store.shard_raw_range(shard);
        let stride = (r_hi - r_lo) / (w_hi - w_lo);
        for bit in 0..stride.min(32) {
            self.store.flip_raw_bit(r_lo + weight * stride + bit);
        }
    }

    /// Corrupts **every** stored weight of one layer — beyond-capacity
    /// damage for the replication experiments: whole-layer corruption
    /// of a partial-recoverability layer exceeds what MILR can re-solve
    /// exactly, forcing the irrecoverable path (refuse, approximate, or
    /// — in a fleet — repair from a peer).
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not substrate-backed.
    pub fn corrupt_layer(&self, layer: usize) {
        for weight in 0..self.layer_weight_count(layer) {
            self.corrupt_weight(layer, weight);
        }
    }

    /// Replaces one substrate-backed layer's **raw image** with `raw` —
    /// the peer-repair write path: a healthy peer's certified page
    /// bytes overwrite this layer's shard bit-for-bit, superseding any
    /// corrupt or cached state (see
    /// [`SharedSubstrate::import_shard_raw`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`milr_substrate::SubstrateError`] (wrong
    /// image length, backing-store failure).
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not substrate-backed.
    pub fn import_layer_raw(
        &self,
        layer: usize,
        raw: &[u8],
    ) -> Result<(), milr_substrate::SubstrateError> {
        let shard = self
            .param_layers
            .binary_search(&layer)
            .expect("layer is substrate-backed");
        self.store.import_shard_raw(shard, raw)
    }

    /// Number of stored weights across all shards.
    pub fn weight_count(&self) -> usize {
        self.store.len()
    }

    /// Parameter count of substrate-backed layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not substrate-backed.
    pub fn layer_weight_count(&self, layer: usize) -> usize {
        let shard = self
            .param_layers
            .binary_search(&layer)
            .expect("layer is substrate-backed");
        let (lo, hi) = self.store.shard_weight_range(shard);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_core::{Milr, MilrConfig};
    use milr_nn::Layer;
    use milr_substrate::SubstrateKind;
    use milr_tensor::{ConvSpec, Padding, TensorRng};

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

    fn host(m: &Sequential) -> ModelHost {
        ModelHost::new(m, &|c| SubstrateKind::Plain.store(c))
    }

    #[test]
    fn materialize_reproduces_golden_bits() {
        let golden = model();
        let h = host(&golden);
        assert_eq!(h.param_layers(), &[0, 1, 3]);
        let seen = h.materialize();
        for (a, b) in golden.layers().iter().zip(seen.layers().iter()) {
            match (a.params(), b.params()) {
                (Some(p), Some(q)) => {
                    let pa: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
                    let pb: Vec<u32> = q.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(pa, pb);
                }
                (None, None) => {}
                _ => panic!("param structure diverged"),
            }
        }
        // The template really is weightless: a host whose store is
        // bypassed would serve zeros, not golden weights.
        assert!(h.template.layers()[0]
            .params()
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn corrupt_detect_recover_roundtrip() {
        let golden = model();
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let h = host(&golden);
        h.corrupt_weight(0, 7);
        let mut live = h.materialize();
        assert_ne!(
            live.layers()[0].params().unwrap().data()[7],
            golden.layers()[0].params().unwrap().data()[7]
        );
        let report = milr.detect(&live).unwrap();
        assert_eq!(report.flagged, vec![0]);
        milr.recover_layers(&mut live, &report.flagged).unwrap();
        h.write_back(&live, &report.flagged);
        let healed = h.materialize();
        assert!(milr.detect(&healed).unwrap().is_clean());
    }

    #[test]
    fn scrub_heals_secded_hosted_weights() {
        let golden = model();
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let h = ModelHost::new(&golden, &|c| SubstrateKind::Secded.store(c));
        // One raw bit in layer 3's shard: ECC corrects it in place.
        let (r_lo, _) = h.store().shard_raw_range(2);
        h.store().flip_raw_bit(r_lo + 11);
        let (summary, view) = h.scrub_read_layers(&[3]);
        assert_eq!(summary.corrected, 1);
        assert!(milr.detect_layers(&view, &[3]).unwrap().is_clean());
        drop(view);
        assert!(milr.detect(&h.materialize()).unwrap().is_clean());
    }

    #[test]
    fn scrub_read_layers_reuses_one_skeleton_and_reads_real_storage() {
        let golden = model();
        let h = host(&golden);
        let bits = |m: &Sequential, layer: usize| -> Vec<u32> {
            let p = m.layers()[layer].params().unwrap();
            p.data().iter().map(|v| v.to_bits()).collect()
        };
        let (_, view) = h.scrub_read_layers(&[0]);
        assert_eq!(bits(&view, 0), bits(&golden, 0));
        let first = view.layers()[0].params().unwrap().data().as_ptr();
        drop(view);
        // A fault after the last tick shows in the next one, decoded into
        // the same skeleton.
        h.corrupt_weight(0, 5);
        let (_, view) = h.scrub_read_layers(&[0, 3]);
        assert_eq!(view.layers()[0].params().unwrap().data().as_ptr(), first);
        assert_eq!(bits(&view, 0), bits(&h.materialize(), 0));
        assert_ne!(bits(&view, 0), bits(&golden, 0));
        assert_eq!(bits(&view, 3), bits(&golden, 3));
        // While one view is out, another call builds its own skeleton.
        let (_, other) = h.scrub_read_layers(&[1]);
        assert_eq!(bits(&other, 1), bits(&golden, 1));
        assert!(other.layers()[0]
            .params()
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn whole_layer_corruption_and_peer_image_import_roundtrip() {
        let golden = model();
        for kind in SubstrateKind::ALL {
            let healthy = ModelHost::new(&golden, &|c| kind.store(c));
            let damaged = ModelHost::new(&golden, &|c| kind.store(c));
            damaged.corrupt_layer(0);
            let seen = damaged.materialize_layers(&[0]);
            let diverged = seen.layers()[0]
                .params()
                .unwrap()
                .data()
                .iter()
                .zip(golden.layers()[0].params().unwrap().data())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert!(diverged >= 30, "{kind}: only {diverged}/36 corrupted");
            // Import the healthy twin's raw image: bits restored.
            damaged
                .import_layer_raw(0, &healthy.store().export_shard_raw(0))
                .unwrap();
            assert_eq!(
                damaged.store().export_shard_raw(0),
                healthy.store().export_shard_raw(0),
                "{kind}"
            );
            let healed = damaged.materialize();
            let pa: Vec<u32> = golden.layers()[0]
                .params()
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let pb: Vec<u32> = healed.layers()[0]
                .params()
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(pa, pb, "{kind}");
        }
    }

    #[test]
    fn layer_weight_counts_match_model() {
        let golden = model();
        let h = host(&golden);
        assert_eq!(h.layer_weight_count(0), 3 * 3 * 4);
        assert_eq!(h.layer_weight_count(1), 4);
        assert_eq!(h.weight_count(), golden.param_count());
    }

    #[test]
    fn fused_forward_matches_materialized_forward_bitwise() {
        let golden = model();
        for kind in SubstrateKind::ALL {
            let h = ModelHost::new(&golden, &|c| kind.store(c));
            let mut rng = TensorRng::new(31);
            let examples: Vec<Tensor> = (0..3).map(|_| rng.uniform_tensor(&[8, 8, 1])).collect();
            let fused = h.forward_batch(&examples).unwrap();
            let materialized = h.materialize().forward_batch(&examples).unwrap();
            for (a, b) in fused.iter().zip(materialized.iter()) {
                let ba: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(ba, bb, "{kind}");
            }
        }
    }

    #[test]
    fn cache_hits_on_clean_path_and_invalidates_on_change() {
        let golden = model();
        let h = ModelHost::new(&golden, &|c| SubstrateKind::Secded.store(c));
        let input = TensorRng::new(7).uniform_tensor(&[8, 8, 1]);
        let examples = vec![input];

        h.forward_batch(&examples).unwrap();
        let cold = h.cache_stats();
        assert_eq!(cold.misses, 3, "one decode per parameterized layer");
        assert_eq!(cold.hits, 0);

        h.forward_batch(&examples).unwrap();
        let warm = h.cache_stats();
        assert_eq!(warm.misses, 3, "steady state decodes nothing");
        assert_eq!(warm.hits, 3);

        // A fault bumps the epoch: the corrupted layer re-decodes (and
        // the corruption is observed — no stale-clean serving).
        h.corrupt_weight(0, 2);
        let seen = h.forward_batch(&examples).unwrap();
        let after_fault = h.cache_stats();
        assert_eq!(after_fault.misses, 4, "only the faulted shard re-decodes");
        assert_eq!(after_fault.hits, 5);
        let clean = h.materialize();
        let _ = seen;
        assert!(clean.layers()[0].params().unwrap().data()[2]
            .to_bits()
            .ne(&golden.layers()[0].params().unwrap().data()[2].to_bits()));

        // Heal write-back bumps again; explicit invalidation still works.
        h.write_back(&golden, &[0]);
        h.forward_batch(&examples).unwrap();
        assert_eq!(h.cache_stats().misses, 5);
        h.invalidate_cache();
        h.forward_batch(&examples).unwrap();
        assert_eq!(h.cache_stats().misses, 8, "cold again after invalidate");
    }

    #[test]
    fn cache_is_shared_across_host_clones() {
        let golden = model();
        let h = host(&golden);
        let clone = h.clone();
        let examples = vec![TensorRng::new(3).uniform_tensor(&[8, 8, 1])];
        h.forward_batch(&examples).unwrap();
        clone.forward_batch(&examples).unwrap();
        let stats = clone.cache_stats();
        assert_eq!(stats.misses, 3, "clone reuses the original's decodes");
        assert_eq!(stats.hits, 3);
    }
}
