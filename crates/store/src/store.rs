//! The [`Store`]: one `.milr` container on disk, opened for serving.

use crate::format::{
    read_meta, read_report, read_section, write_meta, write_report, write_section, LayerEntry,
    StoreMeta, CONTAINER_VERSION, MAGIC, SECTION_HEADER,
};
use crate::journal::{recover, replace_container, Journal};
use crate::StoreError;
use milr_core::{Milr, MilrConfig, StorageReport};
use milr_nn::Sequential;
use milr_substrate::{
    FileSubstrate, PageFile, SharedSubstrate, StdFile, SubstrateKind, WeightSubstrate,
};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Creation-time knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Substrate kind encoding the weight pages on disk.
    pub kind: SubstrateKind,
    /// Weights per page (the write-back / streaming granularity).
    pub page_weights: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            // The paper's ECC-DRAM baseline: single disk bit errors are
            // absorbed by the code layer, anything worse by MILR.
            kind: SubstrateKind::Secded,
            page_weights: 1024,
        }
    }
}

/// A persistent MILR-protected model: substrate-encoded weight pages
/// plus the serialized protection instance, in one crash-consistent
/// container file. See the [crate docs](crate) for the format and the
/// commit protocols.
pub struct Store {
    path: PathBuf,
    io: Arc<StdFile>,
    journal: Arc<Journal>,
    meta: StoreMeta,
    milr: Milr,
    report: StorageReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("kind", &self.meta.kind)
            .field("layers", &self.meta.layers.len())
            .field("weights_end", &self.meta.weights_end())
            .finish()
    }
}

/// Encodes `weights` into per-page raw images of `kind`.
fn encode_region(kind: SubstrateKind, weights: &[f32], page_weights: usize, out: &mut Vec<u8>) {
    for chunk in weights.chunks(page_weights.max(1)) {
        out.extend(kind.store(chunk).export_raw());
    }
}

/// Computes the layer table (offsets unassigned) for a model.
fn layout(kind: SubstrateKind, page_weights: usize, template: &Sequential) -> StoreMeta {
    StoreMeta {
        kind,
        page_weights,
        template: template.clone(),
        layers: template
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_count() > 0)
            .map(|(i, l)| LayerEntry {
                layer: i,
                weights: l.param_count(),
                offset: 0,
                bytes: FileSubstrate::region_bytes(kind, l.param_count(), page_weights) as u64,
            })
            .collect(),
    }
}

/// Builds the complete container image, assigning final weight-region
/// offsets into `meta`. `region_of(i)` yields layer `i`'s (by table
/// order) raw page run.
fn build_container(
    meta: &mut StoreMeta,
    artifacts: &[u8],
    report: &StorageReport,
    mut region_of: impl FnMut(usize) -> Vec<u8>,
) -> Vec<u8> {
    let report_bytes = write_report(report);
    // META length is offset-value independent (fixed-width fields), so
    // one sizing pass pins the weight-region start.
    let meta_len = write_meta(meta).len();
    let mut offset =
        (12 + 3 * SECTION_HEADER + meta_len + artifacts.len() + report_bytes.len()) as u64;
    for e in &mut meta.layers {
        e.offset = offset;
        offset += e.bytes;
    }
    let meta_bytes = write_meta(meta);
    assert_eq!(meta_bytes.len(), meta_len, "META must size stably");
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    write_section(&mut out, &meta_bytes);
    write_section(&mut out, artifacts);
    write_section(&mut out, &report_bytes);
    for i in 0..meta.layers.len() {
        assert_eq!(out.len() as u64, meta.layers[i].offset, "layout drift");
        let region = region_of(i);
        assert_eq!(
            region.len() as u64,
            meta.layers[i].bytes,
            "region {i} does not match its layout size"
        );
        out.extend(region);
    }
    out
}

impl Store {
    /// Protects `model` under `config` and writes a fresh container at
    /// `path` (atomically: shadow + rename — a kill leaves the previous
    /// file, or none, never a partial container). Returns the opened
    /// store.
    ///
    /// # Errors
    ///
    /// Propagates MILR protection failures and I/O errors.
    pub fn create(
        path: &Path,
        model: &Sequential,
        config: MilrConfig,
        opts: StoreOptions,
    ) -> Result<Store, StoreError> {
        let milr = Milr::protect(model, config)?;
        Self::create_protected(path, model, &milr, opts)
    }

    /// [`Store::create`] with an already-built protection instance.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create_protected(
        path: &Path,
        model: &Sequential,
        milr: &Milr,
        opts: StoreOptions,
    ) -> Result<Store, StoreError> {
        let kind = opts.kind;
        let report = milr.storage_report(model);
        let mut template = model.clone();
        for layer in template.layers_mut() {
            if let Some(p) = layer.params_mut() {
                p.map_in_place(|_| 0.0);
            }
        }
        let mut meta = layout(kind, opts.page_weights.max(1), &template);
        let artifacts = milr.to_bytes();
        let params: Vec<&[f32]> = meta
            .layers
            .iter()
            .map(|e| {
                model.layers()[e.layer]
                    .params()
                    .expect("table lists param layers")
                    .data()
            })
            .collect();
        let page_weights = meta.page_weights;
        let bytes = build_container(&mut meta, &artifacts, &report, |i| {
            let mut region = Vec::with_capacity(params[i].len() * 8);
            encode_region(kind, params[i], page_weights, &mut region);
            region
        });
        // Settle any predecessor's crash droppings *before* the new
        // container exists: a committed journal left by a previous
        // store at this path must replay into (or be discarded with)
        // the OLD file — replaying old-layout patches into the new
        // container would corrupt it.
        if path.exists() {
            recover(path)?;
        } else {
            let _ = std::fs::remove_file(crate::journal::journal_path(path));
            let _ = std::fs::remove_file(crate::journal::shadow_path(path));
        }
        replace_container(path, &bytes, &mut |_| {})?;
        Self::open(path)
    }

    /// Opens a container: runs crash recovery (journal replay, shadow
    /// cleanup), then parses and checksum-validates the
    /// error-resistant sections. The weight region is *not* validated
    /// here — raw-space faults in it are the serving layer's
    /// scrub-on-load job.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a damaged container (bad magic,
    /// checksum mismatch, truncated weight region, inconsistent meta),
    /// I/O errors otherwise.
    pub fn open(path: &Path) -> Result<Store, StoreError> {
        recover(path)?;
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        // Stream only the error-resistant head sections; the (possibly
        // huge) weight region stays on disk until pages are touched.
        let mut read_n = |n: u64, what: &str| -> Result<Vec<u8>, StoreError> {
            if n > file_len {
                return Err(StoreError::Corrupt(format!(
                    "implausible {what} length {n} in a {file_len}-byte file"
                )));
            }
            let mut buf = vec![0u8; n as usize];
            file.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StoreError::Corrupt(format!("container truncated reading {what}"))
                } else {
                    StoreError::from(e)
                }
            })?;
            Ok(buf)
        };
        let head = read_n(12, "header")?;
        if head[..8] != MAGIC {
            return Err(StoreError::Corrupt("not a .milr container".into()));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != CONTAINER_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported container version {version}"
            )));
        }
        let mut sections = Vec::with_capacity(3);
        for what in ["META", "ARTIFACTS", "REPORT"] {
            let header = read_n(SECTION_HEADER as u64, what)?;
            let len = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
            let payload = read_n(len, what)?;
            let mut section = header;
            section.extend(payload);
            let verified = read_section(&mut crate::bytes::Reader::new(&section), what)?;
            sections.push(verified.to_vec());
        }
        let meta = read_meta(&sections[0])?;
        let milr = Milr::from_bytes(&sections[1])?;
        let report = read_report(&sections[2])?;
        if file_len < meta.weights_end() {
            return Err(StoreError::Corrupt(format!(
                "weight region truncated: file is {file_len} bytes, layout needs {}",
                meta.weights_end()
            )));
        }
        let io = Arc::new(StdFile::open(path)?);
        let journal = Arc::new(Journal::new(path, Arc::clone(&io)));
        Ok(Store {
            path: path.to_path_buf(),
            io,
            journal,
            meta,
            milr,
            report,
        })
    }

    /// The container path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The deserialized protection instance.
    pub fn milr(&self) -> &Milr {
        &self.milr
    }

    /// The stored storage-overhead report.
    pub fn report(&self) -> &StorageReport {
        &self.report
    }

    /// The architecture skeleton (parameters zeroed).
    pub fn template(&self) -> &Sequential {
        &self.meta.template
    }

    /// Substrate kind of the weight pages.
    pub fn kind(&self) -> SubstrateKind {
        self.meta.kind
    }

    /// Weights per page.
    pub fn page_weights(&self) -> usize {
        self.meta.page_weights
    }

    /// The layer table (ascending by layer index).
    pub fn layers(&self) -> &[LayerEntry] {
        &self.meta.layers
    }

    /// The page-commit journal shared by this store's substrates — the
    /// kill-point harness drives it directly via
    /// [`Journal::commit_with_observer`].
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Opens one [`FileSubstrate`] per parameterized layer over the
    /// container's weight region, each write-back committed through
    /// the shared journal. `cache_pages` bounds each substrate's
    /// in-memory block cache (models larger than the budget stream).
    pub fn open_substrates(&self, cache_pages: usize) -> Vec<(usize, Box<dyn WeightSubstrate>)> {
        self.meta
            .layers
            .iter()
            .map(|e| {
                let sub = FileSubstrate::open(
                    self.meta.kind,
                    Arc::clone(&self.io) as Arc<dyn milr_substrate::PageFile>,
                    Arc::clone(&self.journal) as Arc<dyn milr_substrate::PageCommitter>,
                    e.offset,
                    e.weights,
                    self.meta.page_weights,
                    cache_pages,
                );
                (e.layer, Box::new(sub) as Box<dyn WeightSubstrate>)
            })
            .collect()
    }

    /// Number of pages in one stored layer's run.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not in the table.
    pub fn layer_page_count(&self, layer: usize) -> usize {
        self.entry(layer).weights.div_ceil(self.meta.page_weights)
    }

    /// Reads the raw (substrate-encoded) bytes of one page of a
    /// layer's run straight from the container — the page-granular
    /// read peer repair is built on. No decode, no verification: pair
    /// with [`Store::certified_layer_pages`] when the bytes must be
    /// proven clean before use.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not in the table or `page` is out of
    /// range for its run.
    pub fn read_layer_page_raw(&self, layer: usize, page: usize) -> Result<Vec<u8>, StoreError> {
        let e = self.entry(layer);
        let pages = e.weights.div_ceil(self.meta.page_weights);
        assert!(page < pages, "page {page} out of range ({pages} pages)");
        let full = self.meta.kind.raw_image_bytes(self.meta.page_weights);
        let weights = self
            .meta
            .page_weights
            .min(e.weights - page * self.meta.page_weights);
        let mut buf = vec![0u8; self.meta.kind.raw_image_bytes(weights)];
        self.io
            .read_exact_at(e.offset + (page * full) as u64, &mut buf)?;
        Ok(buf)
    }

    /// **Certified** page read of one layer's run: reads every page,
    /// decodes them, and replays the layer's MILR detection check
    /// against the stored artifacts. Only when the check passes are the
    /// raw page images returned — this is what lets a damaged replica
    /// trust a peer's pages: the peer proves, against its own
    /// error-resistant artifacts, that the bytes it ships decode to the
    /// protected weights.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the decoded pages fail the layer's
    /// detection check (the store's own weight region is damaged — pick
    /// another peer); I/O and detection errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not in the table.
    pub fn certified_layer_pages(&self, layer: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        let e = self.entry(layer);
        let pages = e.weights.div_ceil(self.meta.page_weights);
        let mut images = Vec::with_capacity(pages);
        let mut weights = Vec::with_capacity(e.weights);
        for page in 0..pages {
            let image = self.read_layer_page_raw(layer, page)?;
            let page_weights = self
                .meta
                .page_weights
                .min(e.weights - page * self.meta.page_weights);
            let sub = self
                .meta
                .kind
                .restore(&image, page_weights)
                .map_err(|err| {
                    StoreError::Corrupt(format!("page {page} of layer {layer}: {err}"))
                })?;
            weights.extend(sub.read_weights());
            images.push(image);
        }
        let mut model = self.meta.template.clone();
        let params = model.layers_mut()[layer]
            .params_mut()
            .expect("table lists param layers");
        let dims = params.shape().dims().to_vec();
        *params = milr_tensor::Tensor::from_vec(weights, &dims)
            .map_err(|err| StoreError::Corrupt(format!("layer {layer} page run: {err}")))?;
        let check = self.milr.detect_layers(&model, &[layer])?;
        if !check.is_clean() {
            return Err(StoreError::Corrupt(format!(
                "layer {layer} failed its detection check — pages are not certified"
            )));
        }
        Ok(images)
    }

    /// Raw (fault-surface) bits of one layer's on-disk pages — the
    /// index space [`Store::flip_raw_bit`] accepts.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not in the table.
    pub fn layer_raw_bits(&self, layer: usize) -> usize {
        let e = self.entry(layer);
        let pages = e.weights.div_ceil(self.meta.page_weights);
        let full = self.meta.kind.raw_bits_for(self.meta.page_weights);
        let last = e.weights - (pages - 1) * self.meta.page_weights;
        (pages - 1) * full + self.meta.kind.raw_bits_for(last)
    }

    /// Flips one raw bit of a layer's on-disk pages **directly in the
    /// file** — simulated disk corruption, deliberately bypassing the
    /// journal (faults don't announce themselves). `bit` indexes the
    /// layer's substrate raw space, i.e. the same space the in-memory
    /// injectors draw from.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not in the table or `bit` is out of
    /// range.
    pub fn flip_raw_bit(&self, layer: usize, bit: usize) -> Result<(), StoreError> {
        let e = self.entry(layer);
        let direct = Arc::new(milr_substrate::DirectCommitter::new(
            Arc::clone(&self.io) as Arc<dyn milr_substrate::PageFile>
        ));
        let mut sub = FileSubstrate::open(
            self.meta.kind,
            Arc::clone(&self.io) as Arc<dyn milr_substrate::PageFile>,
            direct,
            e.offset,
            e.weights,
            self.meta.page_weights,
            1,
        );
        sub.flip_raw_bit(bit);
        sub.flush()
            .map_err(|err| StoreError::Corrupt(format!("writing fault to disk: {err}")))?;
        Ok(())
    }

    /// Durably re-anchors protection: writes a whole new container —
    /// the given (freshly re-protected) instance, a recomputed storage
    /// report, and the **current** raw weight images of `shared` (one
    /// shard per table entry, in order) — via shadow + atomic rename,
    /// then moves this handle (and every substrate sharing its
    /// [`StdFile`]) onto the new file. A kill at any point leaves the
    /// old certified container or the new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics when `shared`'s shard count or shard sizes disagree with
    /// the layer table.
    pub fn commit_reanchor(
        &mut self,
        milr: &Milr,
        model: &Sequential,
        shared: &SharedSubstrate,
    ) -> Result<(), StoreError> {
        self.commit_reanchor_with_observer(milr, model, shared, &mut |_| {})
    }

    /// [`Store::commit_reanchor`] with a kill-point observer (steps
    /// `"begin"`, `"shadow-written"`, `"renamed"`).
    ///
    /// # Errors
    ///
    /// See [`Store::commit_reanchor`].
    pub fn commit_reanchor_with_observer(
        &mut self,
        milr: &Milr,
        model: &Sequential,
        shared: &SharedSubstrate,
        observe: &mut dyn FnMut(&str),
    ) -> Result<(), StoreError> {
        assert_eq!(
            shared.shard_count(),
            self.meta.layers.len(),
            "one shard per stored layer"
        );
        let report = milr.storage_report(model);
        let artifacts = milr.to_bytes();
        let mut meta = layout(self.meta.kind, self.meta.page_weights, &self.meta.template);
        let bytes = build_container(&mut meta, &artifacts, &report, |i| {
            shared.export_shard_raw(i)
        });
        replace_container(&self.path, &bytes, observe)?;
        // Everyone holding this StdFile must move to the new inode.
        self.io.replace(
            std::fs::File::options()
                .read(true)
                .write(true)
                .open(&self.path)?,
        );
        self.meta = meta;
        self.milr = milr.clone();
        self.report = report;
        Ok(())
    }

    fn entry(&self, layer: usize) -> &LayerEntry {
        self.meta
            .layers
            .iter()
            .find(|e| e.layer == layer)
            .unwrap_or_else(|| panic!("layer {layer} is not stored"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Layer;
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

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("milr-store-{}-{name}.milr", std::process::id()))
    }

    #[test]
    fn create_open_roundtrip_per_kind() {
        let m = model();
        for kind in SubstrateKind::ALL {
            let path = temp(&format!("rt-{kind:?}"));
            let store = Store::create(
                &path,
                &m,
                MilrConfig::default(),
                StoreOptions {
                    kind,
                    page_weights: 16,
                },
            )
            .unwrap();
            assert_eq!(store.kind(), kind);
            assert_eq!(store.layers().len(), 3);
            drop(store);

            let store = Store::open(&path).unwrap();
            let shared = SharedSubstrate::from_parts(
                store
                    .open_substrates(4)
                    .into_iter()
                    .map(|(_, s)| s)
                    .collect(),
            );
            // Decoded weights are bit-identical to the saved model.
            let mut expect = Vec::new();
            for l in m.layers() {
                if let Some(p) = l.params() {
                    expect.extend_from_slice(p.data());
                }
            }
            let got = shared.read_weights();
            let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(eb, gb, "{kind}");
            // Artifacts survive: a clean model detects clean.
            assert!(store.milr().detect(&m).unwrap().is_clean(), "{kind}");
            assert_eq!(store.report(), &store.milr().storage_report(&m));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn open_rejects_damaged_error_resistant_sections() {
        let m = model();
        let path = temp("damage");
        Store::create(&path, &m, MilrConfig::default(), StoreOptions::default()).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(Store::open(&path), Err(StoreError::Corrupt(_))));
        // Flip one byte inside the META section payload.
        let mut bad = good.clone();
        bad[40] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(Store::open(&path), Err(StoreError::Corrupt(_))));
        // Truncate into the weight region.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(Store::open(&path), Err(StoreError::Corrupt(_))));
        // Restore: opens again.
        std::fs::write(&path, &good).unwrap();
        assert!(Store::open(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_fault_injection_lands_in_substrate_raw_space() {
        let m = model();
        let path = temp("fault");
        let store = Store::create(
            &path,
            &m,
            MilrConfig::default(),
            StoreOptions {
                kind: SubstrateKind::Secded,
                page_weights: 8,
            },
        )
        .unwrap();
        let bits = store.layer_raw_bits(0);
        assert_eq!(
            bits,
            SubstrateKind::Secded.raw_bits_for(8) * 4 + SubstrateKind::Secded.raw_bits_for(4)
        );
        store.flip_raw_bit(0, 41).unwrap();
        drop(store);
        // Reopen: the substrate's own scrub sees and corrects exactly
        // one single-bit error.
        let store = Store::open(&path).unwrap();
        let shared = SharedSubstrate::from_parts(
            store
                .open_substrates(2)
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
        );
        let summary = shared.scrub();
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.uncorrectable, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_over_a_crashed_store_discards_its_stale_journal() {
        // A predecessor store killed between "patches-applied" and
        // "journal-removed" leaves a complete journal. Re-creating a
        // store at the same path must not replay those old-layout
        // patches into the fresh container.
        let m = model();
        let path = temp("stale-journal");
        let store = Store::create(
            &path,
            &m,
            MilrConfig::default(),
            StoreOptions {
                kind: SubstrateKind::Plain,
                page_weights: 8,
            },
        )
        .unwrap();
        let patch = milr_substrate::PagePatch {
            offset: store.layers()[0].offset,
            bytes: vec![0xAB; 32],
        };
        let journal = Arc::clone(store.journal());
        drop(store);
        // Simulate the kill: run the protocol but die before the
        // journal is retired.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            journal.commit_with_observer(std::slice::from_ref(&patch), &mut |step| {
                assert!(step != "patches-applied", "kill point");
            })
        }));
        assert!(result.is_err(), "the simulated kill must fire");
        assert!(crate::journal::journal_path(&path).exists());
        // A brand-new store over the same path (different layout) must
        // come up clean, not corrupted by the stale journal.
        let fresh = model();
        let store = Store::create(
            &path,
            &fresh,
            MilrConfig::default(),
            StoreOptions {
                kind: SubstrateKind::Secded,
                page_weights: 32,
            },
        )
        .unwrap();
        assert!(!crate::journal::journal_path(&path).exists());
        let shared = SharedSubstrate::from_parts(
            store
                .open_substrates(4)
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
        );
        let mut expect = Vec::new();
        for l in fresh.layers() {
            if let Some(p) = l.params() {
                expect.extend(p.data().iter().map(|v| v.to_bits()));
            }
        }
        let got: Vec<u32> = shared.read_weights().iter().map(|v| v.to_bits()).collect();
        assert_eq!(expect, got, "stale journal leaked into the new container");
        assert!(store.milr().detect(&fresh).unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_reads_cover_layer_runs_and_certify() {
        let m = model();
        for kind in SubstrateKind::ALL {
            let path = temp(&format!("pages-{kind:?}"));
            let store = Store::create(
                &path,
                &m,
                MilrConfig::default(),
                StoreOptions {
                    kind,
                    page_weights: 16,
                },
            )
            .unwrap();
            // Conv layer 0 holds 36 weights: 3 pages of 16/16/4.
            assert_eq!(store.layer_page_count(0), 3);
            assert_eq!(store.layer_page_count(1), 1);
            let certified = store.certified_layer_pages(0).unwrap();
            assert_eq!(certified.len(), 3);
            // The certified pages are exactly the on-disk page bytes,
            // and concatenate to the layer's full region.
            let mut concat = Vec::new();
            for (i, page) in certified.iter().enumerate() {
                assert_eq!(page, &store.read_layer_page_raw(0, i).unwrap(), "{kind}");
                concat.extend_from_slice(page);
            }
            assert_eq!(concat.len() as u64, store.layers()[0].bytes, "{kind}");
            // Damage the layer on disk: certification must refuse.
            let stride = store.layer_raw_bits(0) / 36;
            for bit in 7 * stride..8 * stride {
                store.flip_raw_bit(0, bit).unwrap();
            }
            assert!(
                matches!(store.certified_layer_pages(0), Err(StoreError::Corrupt(_))),
                "{kind}: damaged pages must not certify"
            );
            // Other layers still certify.
            assert!(store.certified_layer_pages(3).is_ok(), "{kind}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn reanchor_swaps_container_atomically() {
        let m = model();
        let path = temp("reanchor");
        let mut store = Store::create(
            &path,
            &m,
            MilrConfig::default(),
            StoreOptions {
                kind: SubstrateKind::Plain,
                page_weights: 32,
            },
        )
        .unwrap();
        let shared = SharedSubstrate::from_parts(
            store
                .open_substrates(4)
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
        );
        // Mutate weights in memory (not yet flushed), re-protect, and
        // commit: the new container must carry the new weights and the
        // new artifacts together.
        let mut m2 = m.clone();
        m2.layers_mut()[0].params_mut().unwrap().data_mut()[0] = 7.5;
        let mut all = Vec::new();
        for l in m2.layers() {
            if let Some(p) = l.params() {
                all.extend_from_slice(p.data());
            }
        }
        shared.write_weights(&all).unwrap();
        let milr2 = Milr::protect(&m2, MilrConfig::default()).unwrap();
        let mut steps = Vec::new();
        store
            .commit_reanchor_with_observer(&milr2, &m2, &shared, &mut |s| steps.push(s.to_string()))
            .unwrap();
        assert_eq!(steps, ["begin", "shadow-written", "renamed"]);
        drop(shared);
        drop(store);
        let reopened = Store::open(&path).unwrap();
        let shared = SharedSubstrate::from_parts(
            reopened
                .open_substrates(4)
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
        );
        assert_eq!(shared.read_weights()[0], 7.5);
        assert!(reopened.milr().detect(&m2).unwrap().is_clean());
        assert!(!reopened.milr().detect(&m).unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }
}
