//! File-backed weight storage: [`FileSubstrate`] pages a substrate's
//! **raw image** onto a file, so raw-space faults, scrubs, and
//! plaintext reads/writes hit disk pages rather than RAM — the on-disk
//! bytes are substrate-encoded, which means disk corruption lands in
//! exactly the raw space the paper's error model (Eq. 1–6) reasons
//! about.
//!
//! The weight range is split into fixed-weight **pages**; each page is
//! an independent instance of the base encoding (its own SECDED words,
//! its own XTS data units), so any operation touches only the pages it
//! needs and a bounded LRU **block cache** lets models larger than the
//! cache budget stream. Dirty pages are written back on eviction and on
//! [`WeightSubstrate::flush`], always through a [`PageCommitter`] — the
//! seam where `milr-store` substitutes its crash-consistent journal for
//! the default direct write.

use crate::{RawGeometry, ScrubSummary, SubstrateError, SubstrateKind, WeightSubstrate};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Positioned I/O over some backing file, shareable across substrates.
///
/// A deliberately tiny seam: `milr-store` implements it over the
/// container file (and can swap the descriptor after an atomic-rename
/// commit); the built-in [`StdFile`] serves standalone use.
pub trait PageFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including short reads.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;

    /// Writes all of `buf` at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn write_all_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<()>;

    /// Forces written data to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync(&self) -> std::io::Result<()>;
}

/// [`PageFile`] over one `std::fs::File` behind a mutex (portable
/// seek-based positioned I/O), with descriptor replacement for
/// atomic-rename commits.
pub struct StdFile {
    file: Mutex<File>,
}

impl StdFile {
    /// Creates (truncating) a read-write file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(StdFile {
            file: Mutex::new(file),
        })
    }

    /// Opens an existing file at `path` read-write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = File::options().read(true).write(true).open(path)?;
        Ok(StdFile {
            file: Mutex::new(file),
        })
    }

    /// Swaps the underlying descriptor — after a shadow file is renamed
    /// over the original path, readers holding this handle must move to
    /// the new inode or they would keep reading (and writing!) the
    /// unlinked old one.
    pub fn replace(&self, file: File) {
        *self.file.lock().expect("file lock poisoned") = file;
    }

    /// Current file length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn byte_len(&self) -> std::io::Result<u64> {
        Ok(self
            .file
            .lock()
            .expect("file lock poisoned")
            .metadata()?
            .len())
    }
}

impl PageFile for StdFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("file lock poisoned");
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    fn write_all_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("file lock poisoned");
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.file.lock().expect("file lock poisoned").sync_all()
    }
}

/// One pending page write: the page's new raw image at its absolute
/// file offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagePatch {
    /// Absolute file offset of the page.
    pub offset: u64,
    /// The page's full raw image.
    pub bytes: Vec<u8>,
}

/// Durable application of a batch of page writes.
///
/// [`FileSubstrate`] never writes its file directly: every write-back
/// (cache eviction, flush) goes through a committer, so the store layer
/// can interpose a crash-consistent journal. The contract: after
/// `commit` returns, the patches are applied; if the process dies
/// mid-commit, a subsequent recovery pass must observe either all of
/// the batch or none of it.
pub trait PageCommitter: Send + Sync {
    /// Applies the batch durably.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the batch must not be partially visible
    /// after crash recovery.
    fn commit(&self, patches: &[PagePatch]) -> std::io::Result<()>;
}

/// The default committer: write the patches in place and sync. Not
/// torn-write safe (a kill mid-batch leaves partial pages) — stores
/// that need crash consistency provide a journaling committer instead.
pub struct DirectCommitter {
    io: Arc<dyn PageFile>,
}

impl DirectCommitter {
    /// Commits through the given file.
    pub fn new(io: Arc<dyn PageFile>) -> Self {
        DirectCommitter { io }
    }
}

impl PageCommitter for DirectCommitter {
    fn commit(&self, patches: &[PagePatch]) -> std::io::Result<()> {
        for p in patches {
            self.io.write_all_at(p.offset, &p.bytes)?;
        }
        self.io.sync()
    }
}

/// Geometry of one page.
#[derive(Debug, Clone)]
struct PageGeom {
    /// Absolute file offset of the page's raw image.
    offset: u64,
    /// Weights stored by the page (the final page may be shorter).
    weights: usize,
    /// Raw image bytes.
    raw_bytes: usize,
}

/// A cached, decoded-into-memory page.
struct CachedPage {
    sub: Box<dyn WeightSubstrate>,
    dirty: bool,
}

/// Bounded write-back page cache.
struct PageCache {
    map: HashMap<usize, CachedPage>,
    /// Recency order, most recent last.
    lru: Vec<usize>,
}

/// A [`WeightSubstrate`] whose raw image lives in a paged region of a
/// file. See the `file` module docs for the design.
pub struct FileSubstrate {
    kind: SubstrateKind,
    io: Arc<dyn PageFile>,
    committer: Arc<dyn PageCommitter>,
    pages: Vec<PageGeom>,
    /// Prefix sums of per-page weight counts (`len = pages + 1`).
    weight_prefix: Vec<usize>,
    /// Prefix sums of per-page raw-bit counts (`len = pages + 1`).
    rawbit_prefix: Vec<usize>,
    len: usize,
    /// Cache budget in pages (≥ 1).
    cache_pages: usize,
    cache: Mutex<PageCache>,
    /// When set, the backing file is a private temp file removed on
    /// drop (the `SubstrateKind::File*` convenience arms).
    temp_path: Option<PathBuf>,
}

impl std::fmt::Debug for FileSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSubstrate")
            .field("kind", &self.kind)
            .field("weights", &self.len)
            .field("pages", &self.pages.len())
            .field("cache_pages", &self.cache_pages)
            .finish()
    }
}

/// Computes page geometry for `len` weights of `kind` starting at
/// `base_offset`, pages of `page_weights` weights each.
fn geometry(
    kind: SubstrateKind,
    base_offset: u64,
    len: usize,
    page_weights: usize,
) -> (Vec<PageGeom>, Vec<usize>, Vec<usize>) {
    assert!(page_weights > 0, "pages must hold at least one weight");
    let mut pages = Vec::new();
    let mut weight_prefix = vec![0usize];
    let mut rawbit_prefix = vec![0usize];
    let mut offset = base_offset;
    let mut done = 0usize;
    while done < len {
        let weights = page_weights.min(len - done);
        let raw_bytes = kind.raw_image_bytes(weights);
        pages.push(PageGeom {
            offset,
            weights,
            raw_bytes,
        });
        offset += raw_bytes as u64;
        done += weights;
        weight_prefix.push(done);
        rawbit_prefix.push(rawbit_prefix.last().unwrap() + kind.raw_bits_for(weights));
    }
    (pages, weight_prefix, rawbit_prefix)
}

impl FileSubstrate {
    /// Total raw-region bytes a substrate of `kind` holding `len`
    /// weights occupies at `page_weights` weights per page — the
    /// store's layout formula.
    pub fn region_bytes(kind: SubstrateKind, len: usize, page_weights: usize) -> usize {
        let (pages, _, _) = geometry(kind.base(), 0, len, page_weights);
        pages.iter().map(|p| p.raw_bytes).sum()
    }

    /// Encodes `weights` of base kind `kind` into pages written at
    /// `base_offset` of `io`, and returns the substrate over them. The
    /// pages are written directly (creation is not a commit — the
    /// caller makes the whole container durable).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Backend`] on I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is file-backed or `page_weights == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        kind: SubstrateKind,
        io: Arc<dyn PageFile>,
        committer: Arc<dyn PageCommitter>,
        base_offset: u64,
        weights: &[f32],
        page_weights: usize,
        cache_pages: usize,
    ) -> Result<Self, SubstrateError> {
        assert!(!kind.is_file_backed(), "inner encoding must be in-memory");
        let sub = Self::open(
            kind,
            io,
            committer,
            base_offset,
            weights.len(),
            page_weights,
            cache_pages,
        );
        for (i, page) in sub.pages.iter().enumerate() {
            let chunk = &weights[sub.weight_prefix[i]..sub.weight_prefix[i + 1]];
            let image = kind.store(chunk).export_raw();
            debug_assert_eq!(image.len(), page.raw_bytes);
            sub.io
                .write_all_at(page.offset, &image)
                .map_err(|e| SubstrateError::Backend(format!("writing page {i}: {e}")))?;
        }
        sub.io
            .sync()
            .map_err(|e| SubstrateError::Backend(format!("syncing pages: {e}")))?;
        Ok(sub)
    }

    /// Attaches to existing pages (the cold-start path). No I/O happens
    /// until a page is first touched.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is file-backed or `page_weights == 0`.
    pub fn open(
        kind: SubstrateKind,
        io: Arc<dyn PageFile>,
        committer: Arc<dyn PageCommitter>,
        base_offset: u64,
        len: usize,
        page_weights: usize,
        cache_pages: usize,
    ) -> Self {
        assert!(!kind.is_file_backed(), "inner encoding must be in-memory");
        let (pages, weight_prefix, rawbit_prefix) = geometry(kind, base_offset, len, page_weights);
        FileSubstrate {
            kind,
            io,
            committer,
            pages,
            weight_prefix,
            rawbit_prefix,
            len,
            cache_pages: cache_pages.max(1),
            cache: Mutex::new(PageCache {
                map: HashMap::new(),
                lru: Vec::new(),
            }),
            temp_path: None,
        }
    }

    /// Marks the backing file as a private temp file to remove on drop.
    pub(crate) fn with_temp_path(mut self, path: PathBuf) -> Self {
        self.temp_path = Some(path);
        self
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Runs `f` on the cached (loading if necessary) page `index`,
    /// optionally marking it dirty; evicts over-budget pages through
    /// the committer.
    // The entry API cannot express the load-then-maybe-evict dance
    // (eviction needs the whole map mutable while the entry is held).
    #[allow(clippy::map_entry)]
    fn with_page<R>(
        &self,
        index: usize,
        dirty: bool,
        f: impl FnOnce(&mut Box<dyn WeightSubstrate>) -> R,
    ) -> R {
        let mut cache = self.cache.lock().expect("page cache poisoned");
        if !cache.map.contains_key(&index) {
            let geom = &self.pages[index];
            let mut image = vec![0u8; geom.raw_bytes];
            self.io
                .read_exact_at(geom.offset, &mut image)
                .unwrap_or_else(|e| panic!("reading page {index} of {}: {e}", self.kind));
            let sub = self
                .kind
                .restore(&image, geom.weights)
                .expect("geometry guarantees the image length");
            cache.map.insert(index, CachedPage { sub, dirty: false });
            cache.lru.push(index);
            // Evict least-recently-used pages beyond the budget (never
            // the page being touched).
            while cache.map.len() > self.cache_pages {
                let Some(pos) = cache.lru.iter().position(|&p| p != index) else {
                    break;
                };
                let victim = cache.lru.remove(pos);
                let page = cache.map.remove(&victim).expect("lru tracks the map");
                if page.dirty {
                    self.committer
                        .commit(&[PagePatch {
                            offset: self.pages[victim].offset,
                            bytes: page.sub.export_raw(),
                        }])
                        .unwrap_or_else(|e| panic!("writing back page {victim}: {e}"));
                }
            }
        } else {
            let pos = cache
                .lru
                .iter()
                .position(|&p| p == index)
                .expect("cached page is in the lru");
            let idx = cache.lru.remove(pos);
            cache.lru.push(idx);
        }
        let page = cache.map.get_mut(&index).expect("page just ensured");
        page.dirty |= dirty;
        f(&mut page.sub)
    }

    /// The page holding global raw bit `bit`.
    fn page_of_raw_bit(&self, bit: usize) -> usize {
        assert!(
            bit < *self.rawbit_prefix.last().unwrap(),
            "raw bit {bit} out of range"
        );
        self.rawbit_prefix.partition_point(|&o| o <= bit) - 1
    }
}

impl WeightSubstrate for FileSubstrate {
    fn label(&self) -> &'static str {
        match self.kind {
            SubstrateKind::Plain => "file-backed plain",
            SubstrateKind::Secded => "file-backed SECDED",
            SubstrateKind::Xts => "file-backed AES-XTS",
            SubstrateKind::Int8 => "file-backed int8",
            SubstrateKind::Fp16 => "file-backed fp16",
            SubstrateKind::Int8Secded => "file-backed int8 + SECDED",
            SubstrateKind::Fp16Secded => "file-backed fp16 + SECDED",
            _ => "file-backed AES-XTS + SECDED",
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn raw_bits(&self) -> usize {
        *self.rawbit_prefix.last().unwrap()
    }

    fn raw_word_of_bit(&self, bit: usize) -> usize {
        // Raw "words" are page-local; give them a global index by
        // offsetting with the page's first word.
        let page = self.page_of_raw_bit(bit);
        let local = bit - self.rawbit_prefix[page];
        let words_before: usize = (0..page)
            .map(|p| self.kind.raw_words_for(self.pages[p].weights))
            .sum();
        words_before + self.with_page(page, false, |sub| sub.raw_word_of_bit(local))
    }

    fn raw_geometry(&self) -> RawGeometry {
        self.kind.raw_geometry()
    }

    fn raw_bit(&self, bit: usize) -> bool {
        let page = self.page_of_raw_bit(bit);
        let local = bit - self.rawbit_prefix[page];
        self.with_page(page, false, |sub| sub.raw_bit(local))
    }

    fn flip_raw_bit(&mut self, bit: usize) {
        let page = self.page_of_raw_bit(bit);
        let local = bit - self.rawbit_prefix[page];
        self.with_page(page, true, |sub| sub.flip_raw_bit(local));
    }

    fn read_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for page in 0..self.pages.len() {
            out.extend(self.with_page(page, false, |sub| sub.read_weights()));
        }
        out
    }

    fn write_weights(&mut self, weights: &[f32]) -> Result<(), SubstrateError> {
        if weights.len() != self.len {
            return Err(SubstrateError::LengthMismatch {
                expected: self.len,
                got: weights.len(),
            });
        }
        for page in 0..self.pages.len() {
            let chunk = &weights[self.weight_prefix[page]..self.weight_prefix[page + 1]];
            self.with_page(page, true, |sub| sub.write_weights(chunk))?;
        }
        Ok(())
    }

    fn write_weights_sparse(&mut self, updates: &[(usize, f32)]) -> Result<(), SubstrateError> {
        for &(idx, _) in updates {
            if idx >= self.len {
                return Err(SubstrateError::LengthMismatch {
                    expected: self.len,
                    got: idx + 1,
                });
            }
        }
        // Group updates by page so each page is loaded (and dirtied)
        // once, with page-local indices.
        let mut by_page: Vec<(usize, Vec<(usize, f32)>)> = Vec::new();
        for &(idx, value) in updates {
            let page = self.weight_prefix.partition_point(|&o| o <= idx) - 1;
            let local = idx - self.weight_prefix[page];
            match by_page.iter_mut().find(|(p, _)| *p == page) {
                Some((_, list)) => list.push((local, value)),
                None => by_page.push((page, vec![(local, value)])),
            }
        }
        for (page, list) in by_page {
            self.with_page(page, true, |sub| sub.write_weights_sparse(&list))?;
        }
        Ok(())
    }

    fn scrub(&mut self) -> ScrubSummary {
        let mut total = ScrubSummary::default();
        for page in 0..self.pages.len() {
            // Peek first so a clean scrub does not dirty the page.
            let summary = self.with_page(page, false, |sub| sub.scrub());
            if summary.corrected > 0 {
                self.with_page(page, true, |_| {});
            }
            total.corrected += summary.corrected;
            total.uncorrectable += summary.uncorrectable;
        }
        total
    }

    fn export_raw(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pages.iter().map(|p| p.raw_bytes).sum());
        for page in 0..self.pages.len() {
            out.extend(self.with_page(page, false, |sub| sub.export_raw()));
        }
        out
    }

    fn import_raw(&mut self, raw: &[u8]) -> Result<(), SubstrateError> {
        let total: usize = self.pages.iter().map(|p| p.raw_bytes).sum();
        if raw.len() != total {
            return Err(SubstrateError::Backend(format!(
                "raw image of {} bytes does not match the {total}-byte page region",
                raw.len()
            )));
        }
        let mut patches = Vec::with_capacity(self.pages.len());
        let mut done = 0usize;
        for page in &self.pages {
            patches.push(PagePatch {
                offset: page.offset,
                bytes: raw[done..done + page.raw_bytes].to_vec(),
            });
            done += page.raw_bytes;
        }
        self.committer
            .commit(&patches)
            .map_err(|e| SubstrateError::Backend(format!("importing pages: {e}")))?;
        // The imported image supersedes every cached page, dirty ones
        // included — but only drop them once the commit landed: on a
        // failed commit the cache (including unflushed dirty writes)
        // must survive, or the error would silently revert
        // previously-acknowledged state.
        let mut cache = self.cache.lock().expect("page cache poisoned");
        cache.map.clear();
        cache.lru.clear();
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SubstrateError> {
        let mut cache = self.cache.lock().expect("page cache poisoned");
        let mut patches = Vec::new();
        let mut flushed = Vec::new();
        for (&index, page) in cache.map.iter() {
            if page.dirty {
                patches.push(PagePatch {
                    offset: self.pages[index].offset,
                    bytes: page.sub.export_raw(),
                });
                flushed.push(index);
            }
        }
        if patches.is_empty() {
            return Ok(());
        }
        patches.sort_by_key(|p| p.offset);
        self.committer
            .commit(&patches)
            .map_err(|e| SubstrateError::Backend(format!("flushing dirty pages: {e}")))?;
        for index in flushed {
            cache.map.get_mut(&index).expect("still cached").dirty = false;
        }
        Ok(())
    }

    fn storage_overhead(&self) -> usize {
        // Actual extra file bytes beyond 4 per weight.
        self.pages.iter().map(|p| p.raw_bytes).sum::<usize>() - self.len * 4
    }
}

impl Drop for FileSubstrate {
    fn drop(&mut self) {
        if let Some(path) = self.temp_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.21 - 4.0).collect()
    }

    fn file_pair(name: &str) -> (Arc<StdFile>, Arc<DirectCommitter>, PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "milr-filesub-test-{}-{name}.raw",
            std::process::id()
        ));
        let io = Arc::new(StdFile::create(&path).unwrap());
        let committer = Arc::new(DirectCommitter::new(Arc::clone(&io) as _));
        (io, committer, path)
    }

    #[test]
    fn pages_roundtrip_for_every_base_kind() {
        for kind in SubstrateKind::ALL {
            let w = weights(37); // ragged last page at 16/page
            let (io, committer, path) = file_pair(&format!("rt-{kind:?}"));
            let sub =
                FileSubstrate::create(kind, io.clone(), committer.clone(), 0, &w, 16, 2).unwrap();
            assert_eq!(sub.len(), 37, "{kind}");
            assert_eq!(sub.page_count(), 3, "{kind}");
            assert_eq!(sub.read_weights(), w, "{kind}");
            assert_eq!(
                sub.raw_bits(),
                kind.raw_bits_for(16) * 2 + kind.raw_bits_for(5)
            );
            drop(sub);
            // Reopen cold: the pages alone reconstruct the weights.
            let reopened = FileSubstrate::open(kind, io.clone(), committer, 0, 37, 16, 1);
            assert_eq!(reopened.read_weights(), w, "{kind} cold");
            drop(reopened);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn streaming_beyond_cache_budget_evicts_and_persists() {
        let w = weights(64);
        let (io, committer, path) = file_pair("evict");
        let mut sub = FileSubstrate::create(
            SubstrateKind::Secded,
            io.clone(),
            committer.clone(),
            0,
            &w,
            8,
            1,
        )
        .unwrap();
        // Touch every page with a write: evictions must write back.
        let w2: Vec<f32> = w.iter().map(|v| v + 1.0).collect();
        sub.write_weights(&w2).unwrap();
        assert_eq!(sub.read_weights(), w2);
        sub.flush().unwrap();
        drop(sub);
        let reopened = FileSubstrate::open(SubstrateKind::Secded, io, committer, 0, 64, 8, 1);
        assert_eq!(reopened.read_weights(), w2, "evicted pages lost on disk");
        drop(reopened);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn raw_flip_and_scrub_hit_disk_pages() {
        let w = weights(32);
        let (io, committer, path) = file_pair("scrub");
        let mut sub = FileSubstrate::create(
            SubstrateKind::Secded,
            io.clone(),
            committer.clone(),
            0,
            &w,
            8,
            2,
        )
        .unwrap();
        // Flip one raw bit in page 2's space and flush the error state
        // to disk.
        let bit = SubstrateKind::Secded.raw_bits_for(8) * 2 + 11;
        sub.flip_raw_bit(bit);
        sub.flush().unwrap();
        drop(sub);
        // A cold open sees the fault; scrub corrects it in storage.
        let mut cold = FileSubstrate::open(
            SubstrateKind::Secded,
            io.clone(),
            committer.clone(),
            0,
            32,
            8,
            2,
        );
        let summary = cold.scrub();
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.uncorrectable, 0);
        cold.flush().unwrap();
        drop(cold);
        let mut healed = FileSubstrate::open(SubstrateKind::Secded, io, committer, 0, 32, 8, 2);
        assert!(healed.scrub().is_clean(), "correction was not persisted");
        assert_eq!(healed.read_weights(), w);
        drop(healed);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn flush_is_idempotent_and_scoped_to_dirty_pages() {
        let w = weights(24);
        let (io, committer, path) = file_pair("flush");
        let mut sub =
            FileSubstrate::create(SubstrateKind::Plain, io, committer, 0, &w, 8, 4).unwrap();
        sub.flush().unwrap(); // nothing dirty: no-op
        sub.flip_raw_bit(3);
        sub.flush().unwrap();
        sub.flush().unwrap();
        let seen = sub.read_weights();
        assert_eq!(seen[0].to_bits(), w[0].to_bits() ^ (1 << 3));
        drop(sub);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn export_raw_includes_cached_dirty_state() {
        let w = weights(12);
        let (io, committer, path) = file_pair("export");
        let mut sub =
            FileSubstrate::create(SubstrateKind::XtsSecded, io, committer, 0, &w, 4, 8).unwrap();
        sub.flip_raw_bit(5); // dirty, unflushed
        let image = sub.export_raw();
        assert_eq!(
            image.len(),
            FileSubstrate::region_bytes(SubstrateKind::XtsSecded, 12, 4)
        );
        // The exported image carries the unflushed flip: restoring page
        // 0 from it shows the error.
        let page0 = SubstrateKind::XtsSecded
            .restore(&image[..SubstrateKind::XtsSecded.raw_image_bytes(4)], 4)
            .unwrap();
        let mut reference = SubstrateKind::XtsSecded.store(&w[..4]);
        reference.flip_raw_bit(5);
        assert_eq!(page0.export_raw(), reference.export_raw());
        drop(sub);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn temp_file_arms_clean_up() {
        let sub = SubstrateKind::FileSecded.store(&weights(10));
        assert_eq!(sub.len(), 10);
        drop(sub);
        // No assertion on the path (private), but the drop must not
        // panic; creation of many arms must not collide.
        let a = SubstrateKind::FilePlain.store(&weights(4));
        let b = SubstrateKind::FilePlain.store(&weights(4));
        assert_eq!(a.read_weights(), b.read_weights());
    }
}
