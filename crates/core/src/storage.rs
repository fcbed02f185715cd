//! Storage-overhead accounting (paper Tables V, VII, IX).
//!
//! MILR's artifacts live in error-resistant storage (SSD/HDD/persistent
//! memory, §III); the tables compare their size against a full backup
//! copy of the weights and against per-word SECDED ECC bits.

use crate::artifacts::Artifacts;
use crate::plan::ProtectionPlan;
use milr_nn::Sequential;
use milr_obs::json::JsonObject;

/// Byte-level breakdown of one protection instance's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// A redundant copy of all weights (the "Backup Weights" column):
    /// `params × 4`.
    pub backup_bytes: usize,
    /// SECDED overhead (the "ECC" column): `params × 7 / 8`.
    pub ecc_bytes: usize,
    /// Full checkpoints (including the network-output checkpoint).
    pub full_checkpoint_bytes: usize,
    /// Partial checkpoints (one `f32` per filter / output column).
    pub partial_checkpoint_bytes: usize,
    /// Stored dummy outputs (dense solving rows, dense inversion
    /// columns, conv dummy filters).
    pub dummy_output_bytes: usize,
    /// 2-D CRC codes for partial-recoverability conv layers.
    pub crc_bytes: usize,
    /// Bias parameter sums (8 bytes each).
    pub bias_sum_bytes: usize,
    /// Stored seeds (golden flow + detection root), 8 bytes each.
    pub seed_bytes: usize,
}

impl StorageReport {
    /// Computes the report from a protected model's plan and artifacts.
    pub(crate) fn compute(
        model: &Sequential,
        _plan: &ProtectionPlan,
        artifacts: &Artifacts,
    ) -> Self {
        let params = model.param_count();
        let full_checkpoint_bytes: usize = artifacts
            .full_checkpoints
            .values()
            .map(|t| t.numel() * 4)
            .sum();
        let partial_checkpoint_bytes: usize = artifacts
            .partial_checkpoints
            .values()
            .map(|v| v.len() * 4)
            .sum();
        let dummy_output_bytes: usize = artifacts
            .dense_dummy_outputs
            .values()
            .chain(artifacts.dense_dummy_col_outputs.values())
            .chain(artifacts.conv_dummy_outputs.values())
            .map(|t| t.numel() * 4)
            .sum();
        let crc_bytes: usize = artifacts
            .crc_grids
            .values()
            .flat_map(|grids| grids.iter().map(|g| g.storage_bytes()))
            .sum();
        StorageReport {
            backup_bytes: params * 4,
            ecc_bytes: params * 7 / 8,
            full_checkpoint_bytes,
            partial_checkpoint_bytes,
            dummy_output_bytes,
            crc_bytes,
            bias_sum_bytes: artifacts.bias_sums.len() * 8,
            seed_bytes: 2 * 8,
        }
    }

    /// Total MILR storage (the "MILR" column).
    pub fn milr_bytes(&self) -> usize {
        self.full_checkpoint_bytes
            + self.partial_checkpoint_bytes
            + self.dummy_output_bytes
            + self.crc_bytes
            + self.bias_sum_bytes
            + self.seed_bytes
    }

    /// ECC + MILR combined (the "ECC & MILR" column).
    pub fn ecc_and_milr_bytes(&self) -> usize {
        self.ecc_bytes + self.milr_bytes()
    }

    /// MILR storage as a fraction of the backup-copy alternative
    /// (< 1 means MILR is cheaper, as in Tables VII/IX).
    pub fn fraction_of_backup(&self) -> f64 {
        self.milr_bytes() as f64 / self.backup_bytes.max(1) as f64
    }

    /// Renders the report as a flat JSON object — the machine-readable
    /// twin of [`table_row`](StorageReport::table_row), emitted into
    /// the fig-binary JSON artifacts next to the availability numbers.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("backup_bytes", self.backup_bytes)
            .raw("ecc_bytes", self.ecc_bytes)
            .raw("full_checkpoint_bytes", self.full_checkpoint_bytes)
            .raw("partial_checkpoint_bytes", self.partial_checkpoint_bytes)
            .raw("dummy_output_bytes", self.dummy_output_bytes)
            .raw("crc_bytes", self.crc_bytes)
            .raw("bias_sum_bytes", self.bias_sum_bytes)
            .raw("seed_bytes", self.seed_bytes)
            .raw("milr_bytes", self.milr_bytes())
            .raw("ecc_and_milr_bytes", self.ecc_and_milr_bytes())
            .float("fraction_of_backup", self.fraction_of_backup(), 6)
            .finish()
    }

    /// Formats the paper's storage-table row (values in MB).
    pub fn table_row(&self) -> String {
        let mb = |b: usize| b as f64 / 1_000_000.0;
        format!(
            "{:>10.2} {:>8.2} {:>8.2} {:>10.2}",
            mb(self.backup_bytes),
            mb(self.ecc_bytes),
            mb(self.milr_bytes()),
            mb(self.ecc_and_milr_bytes()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Milr, MilrConfig};
    use milr_nn::{Layer, Sequential};
    use milr_tensor::TensorRng;

    fn report_for(n: usize, p: usize) -> StorageReport {
        let mut rng = TensorRng::new(1);
        let mut m = Sequential::new(vec![n]);
        m.push(Layer::dense_random(n, p, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(p)).unwrap();
        let milr = Milr::protect(&m, MilrConfig::default()).unwrap();
        milr.storage_report(&m)
    }

    #[test]
    fn dense_storage_breakdown() {
        let r = report_for(16, 4);
        // Backup: (16·4 + 4) weights × 4 bytes.
        assert_eq!(r.backup_bytes, 68 * 4);
        assert_eq!(r.ecc_bytes, 68 * 7 / 8);
        // Dummy solving rows: (16−1) rows × 4 cols × 4 bytes.
        assert_eq!(r.dummy_output_bytes, 15 * 4 * 4);
        // Partial checkpoint: 4 column probes.
        assert_eq!(r.partial_checkpoint_bytes, 16);
        assert_eq!(r.bias_sum_bytes, 8);
        // Output checkpoint: (1, 4) tensor.
        assert_eq!(r.full_checkpoint_bytes, 16);
        assert!(r.milr_bytes() > 0);
        assert_eq!(r.ecc_and_milr_bytes(), r.ecc_bytes + r.milr_bytes());
    }

    #[test]
    fn dense_dummy_outputs_dominate_when_n_large() {
        // The MNIST phenomenon (Table V): MILR ≈ backup size because the
        // wide dense layer's dummy outputs cost ~N·P floats.
        let r = report_for(64, 32);
        let dummy = r.dummy_output_bytes as f64;
        assert!(dummy / r.milr_bytes() as f64 > 0.8);
        assert!(r.fraction_of_backup() > 0.5);
    }

    #[test]
    fn table_row_formats_mb() {
        let r = report_for(8, 2);
        let row = r.table_row();
        assert_eq!(row.split_whitespace().count(), 4);
    }

    #[test]
    fn json_carries_totals() {
        let r = report_for(8, 2);
        assert_eq!(
            r.to_json(),
            "{\"backup_bytes\":72,\"ecc_bytes\":15,\"full_checkpoint_bytes\":8,\
            \"partial_checkpoint_bytes\":8,\"dummy_output_bytes\":56,\"crc_bytes\":0,\
            \"bias_sum_bytes\":8,\"seed_bytes\":16,\"milr_bytes\":96,\
            \"ecc_and_milr_bytes\":111,\"fraction_of_backup\":1.333333}"
        );
    }
}
