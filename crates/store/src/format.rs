//! The `.milr` container format: a versioned, checksummed on-disk
//! layout holding everything a cold start needs.
//!
//! ```text
//! offset 0 : magic  "MILRSTO\x01"                       (8 bytes)
//!        8 : container version (u32)
//!       12 : META      section   u64 len | u32 crc32 | bytes
//!        … : ARTIFACTS section   u64 len | u32 crc32 | bytes
//!        … : REPORT    section   u64 len | u32 crc32 | bytes
//!        … : WEIGHT region — per-layer runs of substrate-encoded pages
//! ```
//!
//! The three leading sections model the paper's **error-resistant
//! storage** (§III): they are CRC-32 checksummed and a mismatch fails
//! the load. The weight region is deliberately *not* checksummed — its
//! bytes are the substrates' raw images, i.e. the fault surface the
//! paper's Eq. 1–6 error model covers, and corruption there is healed
//! by scrub-on-load + MILR rather than rejected.
//!
//! * **META** — substrate kind, page geometry, the model's architecture
//!   skeleton (shapes and specs only; parameters live in the weight
//!   region), and the layer table mapping each parameterized layer to
//!   its page run.
//! * **ARTIFACTS** — the serialized [`milr_core::Milr`] instance
//!   ([`Milr::to_bytes`](milr_core::Milr::to_bytes)).
//! * **REPORT** — the [`StorageReport`], so storage accounting survives
//!   alongside the artifacts it describes.

use crate::bytes::{Reader, Writer};
use crate::StoreError;
use milr_core::StorageReport;
use milr_ecc::crc32;
use milr_nn::{Activation, Layer, Sequential};
use milr_substrate::SubstrateKind;
use milr_tensor::{ConvSpec, Padding, PoolSpec, Tensor};

/// Leading magic of every `.milr` container.
pub const MAGIC: [u8; 8] = *b"MILRSTO\x01";
/// Container format version.
pub const CONTAINER_VERSION: u32 = 1;
/// Bytes of each section header (u64 length + u32 crc).
pub(crate) const SECTION_HEADER: usize = 12;

/// One parameterized layer's run of pages in the weight region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEntry {
    /// Layer index in the model.
    pub layer: usize,
    /// Weights stored.
    pub weights: usize,
    /// Absolute file offset of the layer's first page.
    pub offset: u64,
    /// Total raw bytes of the layer's pages.
    pub bytes: u64,
}

/// The decoded META section.
#[derive(Debug, Clone)]
pub struct StoreMeta {
    /// Base substrate kind encoding the weight pages.
    pub kind: SubstrateKind,
    /// Weights per page.
    pub page_weights: usize,
    /// Architecture skeleton with zeroed parameters.
    pub template: Sequential,
    /// Page-run table, ascending by layer.
    pub layers: Vec<LayerEntry>,
}

impl StoreMeta {
    /// End of the weight region (= expected minimum file length).
    pub fn weights_end(&self) -> u64 {
        self.layers.last().map(|l| l.offset + l.bytes).unwrap_or(0)
    }
}

// ------------------------------------------------------------ sections

/// Appends one checksummed section to `out`.
pub(crate) fn write_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one checksummed section.
pub(crate) fn read_section<'a>(r: &mut Reader<'a>, what: &str) -> Result<&'a [u8], StoreError> {
    let len = r.len(1, what)?;
    let stored = r.u32(what)?;
    let payload = r.take(len, what)?;
    if crc32(payload) != stored {
        return Err(StoreError::Corrupt(format!(
            "{what} section checksum mismatch — error-resistant storage is corrupt"
        )));
    }
    Ok(payload)
}

// ------------------------------------------------------------- model

const TAG_CONV: u8 = 0;
const TAG_DENSE: u8 = 1;
const TAG_BIAS: u8 = 2;
const TAG_ACTIVATION: u8 = 3;
const TAG_MAXPOOL: u8 = 4;
const TAG_AVGPOOL: u8 = 5;
const TAG_FLATTEN: u8 = 6;
const TAG_DROPOUT: u8 = 7;
const TAG_ZEROPAD: u8 = 8;

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Softmax => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
        Activation::Identity => 4,
    }
}

fn activation_from(tag: u8) -> Result<Activation, StoreError> {
    Ok(match tag {
        0 => Activation::Relu,
        1 => Activation::Softmax,
        2 => Activation::Sigmoid,
        3 => Activation::Tanh,
        4 => Activation::Identity,
        t => return Err(StoreError::Corrupt(format!("unknown activation tag {t}"))),
    })
}

/// Encodes the architecture skeleton: shapes and specs only. Parameter
/// values are *not* written — they live in the weight region.
fn write_model(w: &mut Writer, model: &Sequential) {
    w.usize(model.input_shape().len());
    for &d in model.input_shape() {
        w.usize(d);
    }
    w.usize(model.len());
    for layer in model.layers() {
        match layer {
            Layer::Conv2D { filters, spec } => {
                w.u8(TAG_CONV);
                for i in 0..4 {
                    w.usize(filters.shape().dim(i));
                }
                w.usize(spec.filter);
                w.usize(spec.stride);
                w.u8(match spec.padding {
                    Padding::Valid => 0,
                    Padding::Same => 1,
                });
            }
            Layer::Dense { weights } => {
                w.u8(TAG_DENSE);
                w.usize(weights.shape().dim(0));
                w.usize(weights.shape().dim(1));
            }
            Layer::Bias { bias } => {
                w.u8(TAG_BIAS);
                w.usize(bias.numel());
            }
            Layer::Activation(a) => {
                w.u8(TAG_ACTIVATION);
                w.u8(activation_tag(*a));
            }
            Layer::MaxPool2D(spec) => {
                w.u8(TAG_MAXPOOL);
                w.usize(spec.window);
                w.usize(spec.stride);
            }
            Layer::AvgPool2D(spec) => {
                w.u8(TAG_AVGPOOL);
                w.usize(spec.window);
                w.usize(spec.stride);
            }
            Layer::Flatten => w.u8(TAG_FLATTEN),
            Layer::Dropout { rate } => {
                w.u8(TAG_DROPOUT);
                w.f32(*rate);
            }
            Layer::ZeroPad2D { pad } => {
                w.u8(TAG_ZEROPAD);
                w.usize(*pad);
            }
        }
    }
}

fn bad_geometry(e: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("stored model has impossible geometry: {e}"))
}

/// Decodes the skeleton back into a zero-parameter [`Sequential`],
/// re-validating every layer against the running shape.
fn read_model(r: &mut Reader) -> Result<Sequential, StoreError> {
    let ndim = r.len(8, "model.input_shape")?;
    let input: Vec<usize> = (0..ndim)
        .map(|_| r.usize("model.input_shape"))
        .collect::<Result<_, _>>()?;
    let mut model = Sequential::new(input);
    let layers = r.len(1, "model.layers")?;
    for _ in 0..layers {
        let layer = match r.u8("model.layer_tag")? {
            TAG_CONV => {
                let dims: Vec<usize> = (0..4)
                    .map(|_| r.usize("conv.dims"))
                    .collect::<Result<_, _>>()?;
                let filter = r.usize("conv.filter")?;
                let stride = r.usize("conv.stride")?;
                let padding = match r.u8("conv.padding")? {
                    0 => Padding::Valid,
                    1 => Padding::Same,
                    t => return Err(StoreError::Corrupt(format!("unknown padding tag {t}"))),
                };
                if dims.iter().product::<usize>() > 1 << 28 {
                    return Err(bad_geometry("conv filter bank too large"));
                }
                Layer::Conv2D {
                    filters: Tensor::zeros(&dims),
                    spec: ConvSpec::new(filter, stride, padding).map_err(bad_geometry)?,
                }
            }
            TAG_DENSE => {
                let n = r.usize("dense.n")?;
                let p = r.usize("dense.p")?;
                if n.checked_mul(p).is_none_or(|c| c > 1 << 28) {
                    return Err(bad_geometry("dense weight matrix too large"));
                }
                Layer::Dense {
                    weights: Tensor::zeros(&[n, p]),
                }
            }
            TAG_BIAS => {
                let c = r.usize("bias.channels")?;
                if c > 1 << 24 {
                    return Err(bad_geometry("bias vector too large"));
                }
                Layer::bias_zero(c)
            }
            TAG_ACTIVATION => Layer::Activation(activation_from(r.u8("activation")?)?),
            TAG_MAXPOOL => {
                let window = r.usize("pool.window")?;
                let stride = r.usize("pool.stride")?;
                Layer::MaxPool2D(PoolSpec::new(window, stride).map_err(bad_geometry)?)
            }
            TAG_AVGPOOL => {
                let window = r.usize("pool.window")?;
                let stride = r.usize("pool.stride")?;
                Layer::AvgPool2D(PoolSpec::new(window, stride).map_err(bad_geometry)?)
            }
            TAG_FLATTEN => Layer::Flatten,
            TAG_DROPOUT => Layer::Dropout {
                rate: r.f32("dropout.rate")?,
            },
            TAG_ZEROPAD => Layer::ZeroPad2D {
                pad: r.usize("zeropad.pad")?,
            },
            t => return Err(StoreError::Corrupt(format!("unknown layer tag {t}"))),
        };
        model
            .push(layer)
            .map_err(|e| StoreError::Corrupt(format!("stored layer stack is inconsistent: {e}")))?;
    }
    Ok(model)
}

// -------------------------------------------------------------- meta

fn kind_tag(kind: SubstrateKind) -> u8 {
    match kind {
        SubstrateKind::Plain => 0,
        SubstrateKind::Secded => 1,
        SubstrateKind::Xts => 2,
        SubstrateKind::XtsSecded => 3,
        SubstrateKind::Int8 => 4,
        SubstrateKind::Fp16 => 5,
        SubstrateKind::Int8Secded => 6,
        SubstrateKind::Fp16Secded => 7,
    }
}

fn kind_from(tag: u8) -> Result<SubstrateKind, StoreError> {
    Ok(match tag {
        0 => SubstrateKind::Plain,
        1 => SubstrateKind::Secded,
        2 => SubstrateKind::Xts,
        3 => SubstrateKind::XtsSecded,
        4 => SubstrateKind::Int8,
        5 => SubstrateKind::Fp16,
        6 => SubstrateKind::Int8Secded,
        7 => SubstrateKind::Fp16Secded,
        t => return Err(StoreError::Corrupt(format!("unknown substrate tag {t}"))),
    })
}

/// Encodes the META section.
pub(crate) fn write_meta(meta: &StoreMeta) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(1); // meta version
    w.u8(kind_tag(meta.kind));
    w.usize(meta.page_weights);
    write_model(&mut w, &meta.template);
    w.usize(meta.layers.len());
    for e in &meta.layers {
        w.usize(e.layer);
        w.usize(e.weights);
        w.u64(e.offset);
        w.u64(e.bytes);
    }
    w.buf
}

/// Decodes and cross-validates the META section.
pub(crate) fn read_meta(payload: &[u8]) -> Result<StoreMeta, StoreError> {
    let mut r = Reader::new(payload);
    let version = r.u32("meta.version")?;
    if version != 1 {
        return Err(StoreError::Corrupt(format!(
            "unsupported meta version {version}"
        )));
    }
    let kind = kind_from(r.u8("meta.kind")?)?;
    let page_weights = r.usize("meta.page_weights")?;
    if page_weights == 0 {
        return Err(StoreError::Corrupt("zero page size".into()));
    }
    let template = read_model(&mut r)?;
    let n = r.len(32, "meta.layer_table")?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(LayerEntry {
            layer: r.usize("meta.layer")?,
            weights: r.usize("meta.weights")?,
            offset: r.u64("meta.offset")?,
            bytes: r.u64("meta.bytes")?,
        });
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt("trailing bytes in META".into()));
    }
    // The table must exactly mirror the template's parameterized
    // layers.
    let expect: Vec<(usize, usize)> = template
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.param_count() > 0)
        .map(|(i, l)| (i, l.param_count()))
        .collect();
    let got: Vec<(usize, usize)> = layers.iter().map(|e| (e.layer, e.weights)).collect();
    if expect != got {
        return Err(StoreError::Corrupt(
            "layer table does not match the stored architecture".into(),
        ));
    }
    for e in &layers {
        let expect_bytes =
            milr_substrate::FileSubstrate::region_bytes(kind, e.weights, page_weights) as u64;
        if e.bytes != expect_bytes {
            return Err(StoreError::Corrupt(format!(
                "layer {} region is {} bytes, geometry needs {expect_bytes}",
                e.layer, e.bytes
            )));
        }
    }
    Ok(StoreMeta {
        kind,
        page_weights,
        template,
        layers,
    })
}

// ------------------------------------------------------------ report

/// Encodes the REPORT section.
pub(crate) fn write_report(report: &StorageReport) -> Vec<u8> {
    let mut w = Writer::new();
    for v in [
        report.backup_bytes,
        report.ecc_bytes,
        report.full_checkpoint_bytes,
        report.partial_checkpoint_bytes,
        report.dummy_output_bytes,
        report.crc_bytes,
        report.bias_sum_bytes,
        report.seed_bytes,
    ] {
        w.usize(v);
    }
    w.buf
}

/// Decodes the REPORT section.
pub(crate) fn read_report(payload: &[u8]) -> Result<StorageReport, StoreError> {
    let mut r = Reader::new(payload);
    let report = StorageReport {
        backup_bytes: r.usize("report.backup")?,
        ecc_bytes: r.usize("report.ecc")?,
        full_checkpoint_bytes: r.usize("report.full_ckpt")?,
        partial_checkpoint_bytes: r.usize("report.partial_ckpt")?,
        dummy_output_bytes: r.usize("report.dummy")?,
        crc_bytes: r.usize("report.crc")?,
        bias_sum_bytes: r.usize("report.bias")?,
        seed_bytes: r.usize("report.seeds")?,
    };
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt("trailing bytes in REPORT".into()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_tensor::TensorRng;

    fn model() -> Sequential {
        let mut rng = TensorRng::new(2);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::Dropout { rate: 0.25 }).unwrap();
        m.push(Layer::ZeroPad2D { pad: 1 }).unwrap();
        m.push(Layer::AvgPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(3 * 3 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::Activation(Activation::Softmax)).unwrap();
        m
    }

    #[test]
    fn model_skeleton_roundtrips_every_layer_kind() {
        let m = model();
        let mut w = Writer::new();
        write_model(&mut w, &m);
        let restored = read_model(&mut Reader::new(&w.buf)).unwrap();
        assert_eq!(restored.len(), m.len());
        assert_eq!(restored.input_shape(), m.input_shape());
        assert_eq!(restored.output_shape(), m.output_shape());
        for (a, b) in m.layers().iter().zip(restored.layers().iter()) {
            assert_eq!(a.kind_name(), b.kind_name());
            assert_eq!(a.param_count(), b.param_count());
            // Parameters are zeroed, not copied.
            if let Some(p) = b.params() {
                assert!(p.data().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn section_checksum_rejects_corruption() {
        let payload = b"hello sections".to_vec();
        let mut out = Vec::new();
        write_section(&mut out, &payload);
        assert_eq!(
            read_section(&mut Reader::new(&out), "test").unwrap(),
            &payload[..]
        );
        let mut bad = out.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(read_section(&mut Reader::new(&bad), "test").is_err());
        // Truncation is an error too.
        assert!(read_section(&mut Reader::new(&out[..out.len() - 1]), "t").is_err());
    }

    #[test]
    fn report_roundtrips() {
        let report = StorageReport {
            backup_bytes: 1,
            ecc_bytes: 2,
            full_checkpoint_bytes: 3,
            partial_checkpoint_bytes: 4,
            dummy_output_bytes: 5,
            crc_bytes: 6,
            bias_sum_bytes: 7,
            seed_bytes: 8,
        };
        assert_eq!(read_report(&write_report(&report)).unwrap(), report);
        assert!(read_report(&write_report(&report)[..63]).is_err());
    }

    #[test]
    fn meta_rejects_mismatched_layer_table() {
        let m = model();
        let layers: Vec<LayerEntry> = m
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_count() > 0)
            .map(|(i, l)| LayerEntry {
                layer: i,
                weights: l.param_count(),
                offset: 0,
                bytes: milr_substrate::FileSubstrate::region_bytes(
                    SubstrateKind::Plain,
                    l.param_count(),
                    64,
                ) as u64,
            })
            .collect();
        let meta = StoreMeta {
            kind: SubstrateKind::Plain,
            page_weights: 64,
            template: m,
            layers,
        };
        let good = write_meta(&meta);
        assert!(read_meta(&good).is_ok());
        // Drop one table entry: mismatch.
        let mut broken = meta.clone();
        broken.layers.pop();
        assert!(read_meta(&write_meta(&broken)).is_err());
        // Wrong region size: mismatch.
        let mut broken = meta.clone();
        broken.layers[0].bytes += 1;
        assert!(read_meta(&write_meta(&broken)).is_err());
    }
}
