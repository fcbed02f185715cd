//! Binary (de)serialization of a protection instance — the bytes a
//! persistent store keeps in its **error-resistant** artifact section
//! (paper §III: checkpoints, CRC grids, bias sums and dummy outputs
//! live on SSD/HDD/persistent memory, not in the error-prone weight
//! substrate).
//!
//! The format is a versioned, hand-rolled little-endian codec (the
//! workspace has no serde): fixed-width scalars, length-prefixed
//! sequences, and bit-exact `f32`/`f64` payloads so a
//! round-tripped [`Milr`] detects and recovers exactly like the
//! original. The reader is fully bounds-checked — corrupt or truncated
//! input yields [`MilrError::CorruptArtifacts`], never a panic — which
//! the store's property tests lean on.

use crate::artifacts::Artifacts;
use crate::plan::{InversionPlan, LayerPlan, ProtectionPlan, SolvingPlan};
use crate::{Milr, MilrConfig, MilrError, Result, WeightGrid};
use milr_ecc::{Crc2d, Crc2dCodes};
use milr_tensor::Tensor;
use std::collections::BTreeMap;

/// Format version of [`Milr::to_bytes`]. Version 2 appended the
/// weight-grid tag to the config record.
const VERSION: u32 = 2;

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.usize(vs.len());
        for &v in vs {
            self.f32(v);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        let dims = t.shape().dims();
        self.usize(dims.len());
        for &d in dims {
            self.usize(d);
        }
        self.f32s(t.data());
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> MilrError {
    MilrError::CorruptArtifacts(format!("serialized artifacts truncated reading {what}"))
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length prefix, sanity-bounded by the bytes actually remaining
    /// (each element needs at least `min_elem_bytes`), so corrupt
    /// prefixes cannot trigger huge allocations.
    fn len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u64(what)?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > cap {
            return Err(MilrError::CorruptArtifacts(format!(
                "implausible length {n} reading {what}"
            )));
        }
        Ok(n as usize)
    }

    fn usize(&mut self, what: &str) -> Result<usize> {
        Ok(self.u64(what)? as usize)
    }

    fn f32(&mut self, what: &str) -> Result<f32> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let n = self.len(1, what)?;
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| MilrError::CorruptArtifacts(format!("non-UTF-8 string in {what}")))
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>> {
        let n = self.len(4, what)?;
        (0..n).map(|_| self.f32(what)).collect()
    }

    fn u32s(&mut self, what: &str) -> Result<Vec<u32>> {
        let n = self.len(4, what)?;
        (0..n).map(|_| self.u32(what)).collect()
    }

    fn tensor(&mut self, what: &str) -> Result<Tensor> {
        let ndim = self.len(8, what)?;
        let dims: Vec<usize> = (0..ndim).map(|_| self.usize(what)).collect::<Result<_>>()?;
        let data = self.f32s(what)?;
        Tensor::from_vec(data, &dims)
            .map_err(|e| MilrError::CorruptArtifacts(format!("bad tensor in {what}: {e}")))
    }
}

// ---------------------------------------------------------------- codec

fn write_config(w: &mut Writer, c: &MilrConfig) {
    w.u64(c.seed);
    w.f32(c.rtol);
    w.f32(c.atol);
    w.usize(c.flow_batch);
    w.usize(c.crc_group);
    w.u8(c.dense_self_recovery as u8);
    w.u8(c.parallel as u8);
    w.u8(match c.weight_grid {
        WeightGrid::F32 => 0,
        WeightGrid::Int8 => 1,
        WeightGrid::Fp16 => 2,
    });
}

fn read_config(r: &mut Reader) -> Result<MilrConfig> {
    Ok(MilrConfig {
        seed: r.u64("config.seed")?,
        rtol: r.f32("config.rtol")?,
        atol: r.f32("config.atol")?,
        flow_batch: r.usize("config.flow_batch")?,
        crc_group: r.usize("config.crc_group")?,
        dense_self_recovery: r.u8("config.dense_self_recovery")? != 0,
        parallel: r.u8("config.parallel")? != 0,
        weight_grid: match r.u8("config.weight_grid")? {
            0 => WeightGrid::F32,
            1 => WeightGrid::Int8,
            2 => WeightGrid::Fp16,
            t => {
                return Err(MilrError::CorruptArtifacts(format!(
                    "unknown weight-grid tag {t}"
                )))
            }
        },
    })
}

fn write_plan(w: &mut Writer, p: &ProtectionPlan) {
    w.usize(p.layers.len());
    for l in &p.layers {
        w.usize(l.index);
        w.str(&l.kind);
        w.usize(l.param_count);
        match l.solving {
            None => w.u8(0),
            Some(SolvingPlan::DenseFull { dummy_rows }) => {
                w.u8(1);
                w.usize(dummy_rows);
            }
            Some(SolvingPlan::ConvFull) => w.u8(2),
            Some(SolvingPlan::ConvPartial) => w.u8(3),
            Some(SolvingPlan::Bias) => w.u8(4),
        }
        match l.inversion {
            InversionPlan::Native => w.u8(0),
            InversionPlan::DummyData { extra } => {
                w.u8(1);
                w.usize(extra);
            }
            InversionPlan::NotNeeded => w.u8(2),
            InversionPlan::Checkpointed => w.u8(3),
        }
    }
    w.usize(p.checkpoints.len());
    for &c in &p.checkpoints {
        w.usize(c);
    }
}

fn read_plan(r: &mut Reader) -> Result<ProtectionPlan> {
    let n = r.len(18, "plan.layers")?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let index = r.usize("plan.index")?;
        let kind = r.str("plan.kind")?;
        let param_count = r.usize("plan.param_count")?;
        let solving = match r.u8("plan.solving")? {
            0 => None,
            1 => Some(SolvingPlan::DenseFull {
                dummy_rows: r.usize("plan.dummy_rows")?,
            }),
            2 => Some(SolvingPlan::ConvFull),
            3 => Some(SolvingPlan::ConvPartial),
            4 => Some(SolvingPlan::Bias),
            t => {
                return Err(MilrError::CorruptArtifacts(format!(
                    "unknown solving tag {t}"
                )))
            }
        };
        let inversion = match r.u8("plan.inversion")? {
            0 => InversionPlan::Native,
            1 => InversionPlan::DummyData {
                extra: r.usize("plan.extra")?,
            },
            2 => InversionPlan::NotNeeded,
            3 => InversionPlan::Checkpointed,
            t => {
                return Err(MilrError::CorruptArtifacts(format!(
                    "unknown inversion tag {t}"
                )))
            }
        };
        layers.push(LayerPlan {
            index,
            kind,
            param_count,
            solving,
            inversion,
        });
    }
    let n = r.len(8, "plan.checkpoints")?;
    let checkpoints = (0..n)
        .map(|_| r.usize("plan.checkpoint"))
        .collect::<Result<_>>()?;
    Ok(ProtectionPlan {
        layers,
        checkpoints,
    })
}

fn write_tensor_map(w: &mut Writer, m: &BTreeMap<usize, Tensor>) {
    w.usize(m.len());
    for (&k, t) in m {
        w.usize(k);
        w.tensor(t);
    }
}

fn read_tensor_map(r: &mut Reader, what: &str) -> Result<BTreeMap<usize, Tensor>> {
    let n = r.len(16, what)?;
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let k = r.usize(what)?;
        m.insert(k, r.tensor(what)?);
    }
    Ok(m)
}

fn write_artifacts(w: &mut Writer, a: &Artifacts) {
    write_tensor_map(w, &a.full_checkpoints);
    w.usize(a.partial_checkpoints.len());
    for (&k, v) in &a.partial_checkpoints {
        w.usize(k);
        w.f32s(v);
    }
    w.usize(a.bias_sums.len());
    for (&k, &v) in &a.bias_sums {
        w.usize(k);
        w.f64(v);
    }
    w.usize(a.crc_grids.len());
    for (&k, grids) in &a.crc_grids {
        w.usize(k);
        w.usize(grids.len());
        for g in grids {
            let cfg = g.config();
            w.usize(cfg.rows());
            w.usize(cfg.cols());
            w.usize(cfg.group());
            w.u32s(g.row_codes());
            w.u32s(g.col_codes());
        }
    }
    write_tensor_map(w, &a.dense_dummy_outputs);
    write_tensor_map(w, &a.dense_dummy_col_outputs);
    write_tensor_map(w, &a.conv_dummy_outputs);
}

fn read_artifacts(r: &mut Reader) -> Result<Artifacts> {
    let full_checkpoints = read_tensor_map(r, "artifacts.full_checkpoints")?;
    let n = r.len(16, "artifacts.partial_checkpoints")?;
    let mut partial_checkpoints = BTreeMap::new();
    for _ in 0..n {
        let k = r.usize("artifacts.partial_checkpoints")?;
        partial_checkpoints.insert(k, r.f32s("artifacts.partial_checkpoints")?);
    }
    let n = r.len(16, "artifacts.bias_sums")?;
    let mut bias_sums = BTreeMap::new();
    for _ in 0..n {
        let k = r.usize("artifacts.bias_sums")?;
        bias_sums.insert(k, r.f64("artifacts.bias_sums")?);
    }
    let n = r.len(16, "artifacts.crc_grids")?;
    let mut crc_grids = BTreeMap::new();
    for _ in 0..n {
        let k = r.usize("artifacts.crc_grids")?;
        let count = r.len(40, "artifacts.crc_grids")?;
        let mut grids = Vec::with_capacity(count);
        for _ in 0..count {
            let rows = r.usize("crc.rows")?;
            let cols = r.usize("crc.cols")?;
            let group = r.usize("crc.group")?;
            if rows == 0 || cols == 0 || group == 0 || rows > 1 << 20 || cols > 1 << 20 {
                return Err(MilrError::CorruptArtifacts(format!(
                    "implausible CRC grid geometry {rows}x{cols}/{group}"
                )));
            }
            let row_codes = r.u32s("crc.row_codes")?;
            let col_codes = r.u32s("crc.col_codes")?;
            let cfg = Crc2d::with_group(rows, cols, group);
            grids.push(
                Crc2dCodes::from_parts(cfg, row_codes, col_codes)
                    .map_err(MilrError::CorruptArtifacts)?,
            );
        }
        crc_grids.insert(k, grids);
    }
    let dense_dummy_outputs = read_tensor_map(r, "artifacts.dense_dummy_outputs")?;
    let dense_dummy_col_outputs = read_tensor_map(r, "artifacts.dense_dummy_col_outputs")?;
    let conv_dummy_outputs = read_tensor_map(r, "artifacts.conv_dummy_outputs")?;
    Ok(Artifacts {
        full_checkpoints,
        partial_checkpoints,
        bias_sums,
        crc_grids,
        dense_dummy_outputs,
        dense_dummy_col_outputs,
        conv_dummy_outputs,
    })
}

impl Milr {
    /// Serializes the whole protection instance — configuration, plan,
    /// artifacts and model fingerprint — to a self-contained byte
    /// buffer (the persistent store's artifact section).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(VERSION);
        write_config(&mut w, self.config());
        write_plan(&mut w, self.plan());
        write_artifacts(&mut w, self.artifacts());
        let fp = self.fingerprint_data();
        w.usize(fp.len());
        for (kind, params) in fp {
            w.str(kind);
            w.usize(*params);
        }
        w.buf
    }

    /// Deserializes a buffer produced by [`Milr::to_bytes`]. The result
    /// is bit-equivalent to the original instance: identical detection
    /// verdicts and identical recovered parameters.
    ///
    /// # Errors
    ///
    /// [`MilrError::CorruptArtifacts`] for truncated, corrupt, or
    /// version-mismatched input. Never panics on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Milr> {
        let mut r = Reader::new(bytes);
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(MilrError::CorruptArtifacts(format!(
                "unsupported artifact format version {version} (expected {VERSION})"
            )));
        }
        let config = read_config(&mut r)?;
        let plan = read_plan(&mut r)?;
        let artifacts = read_artifacts(&mut r)?;
        let n = r.len(16, "fingerprint")?;
        let mut fingerprint = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = r.str("fingerprint.kind")?;
            let params = r.usize("fingerprint.params")?;
            fingerprint.push((kind, params));
        }
        if r.remaining() != 0 {
            return Err(MilrError::CorruptArtifacts(format!(
                "{} trailing bytes after artifacts",
                r.remaining()
            )));
        }
        Ok(Milr::from_parts(config, plan, artifacts, fingerprint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::{Activation, Layer, Sequential};
    use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};

    fn model() -> Sequential {
        let mut rng = TensorRng::new(11);
        let mut m = Sequential::new(vec![10, 10, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 6, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(6)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::conv2d_random(3, 6, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(2 * 2 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(5)).unwrap();
        m
    }

    #[test]
    fn roundtrip_preserves_detection_and_recovery() {
        let mut m = model();
        let golden = m.clone();
        let milr = Milr::protect(&m, MilrConfig::default()).unwrap();
        let bytes = milr.to_bytes();
        let restored = Milr::from_bytes(&bytes).unwrap();
        assert_eq!(restored.plan(), milr.plan());
        assert_eq!(restored.config(), milr.config());
        // Bit-identical second serialization.
        assert_eq!(restored.to_bytes(), bytes);
        // The restored instance detects and heals exactly like the
        // original.
        m.layers_mut()[0].params_mut().unwrap().data_mut()[3] = 42.0;
        let report = restored.detect(&m).unwrap();
        assert_eq!(report.flagged, vec![0]);
        restored.recover_layers(&mut m, &report.flagged).unwrap();
        let a = m.layers()[0].params().unwrap();
        let b = golden.layers()[0].params().unwrap();
        assert!(a.approx_eq(b, 1e-4, 1e-5));
    }

    #[test]
    fn rejects_unknown_version() {
        let milr = Milr::protect(&model(), MilrConfig::default()).unwrap();
        let mut bytes = milr.to_bytes();
        bytes[0] = 0xEE;
        assert!(matches!(
            Milr::from_bytes(&bytes),
            Err(MilrError::CorruptArtifacts(_))
        ));
    }

    #[test]
    fn truncation_errors_at_every_length() {
        let milr = Milr::protect(&model(), MilrConfig::default()).unwrap();
        let bytes = milr.to_bytes();
        // Every strict prefix must fail cleanly (no panic, no silent
        // success).
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            assert!(
                Milr::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let milr = Milr::protect(&model(), MilrConfig::default()).unwrap();
        let mut bytes = milr.to_bytes();
        bytes.extend_from_slice(&[0, 1, 2]);
        assert!(Milr::from_bytes(&bytes).is_err());
    }
}
