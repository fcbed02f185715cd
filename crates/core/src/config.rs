use milr_ecc::ring::{f16_snap, int8_snap};

/// The representable-value grid MILR's solvers target.
///
/// Weights living in a quantized substrate occupy a discrete grid whose
/// points are exactly representable in f32 (the int8 scale is a power
/// of two; every binary16 value is an f32 value). Telling the recovery
/// solvers about the grid turns the ±4096-ulp CRC snap search into an
/// **exact integer-ring solve**: the f64 least-squares solution is
/// snapped to the nearest grid point, which *is* the golden bit pattern
/// whenever the layer's stored weights came off that grid — the ulp
/// walk never runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightGrid {
    /// Full-precision f32 weights (the paper's model). Recovery snaps
    /// solver output with the ±4096-ulp CRC bit walk.
    #[default]
    F32,
    /// Weights on the int8 lattice `q · 2⁻⁶` (see `milr_ecc::ring`).
    Int8,
    /// Weights on the IEEE binary16 grid.
    Fp16,
}

impl WeightGrid {
    /// Snaps a value to its nearest grid point (identity for [`F32`]).
    ///
    /// [`F32`]: WeightGrid::F32
    pub fn snap(&self, v: f32) -> f32 {
        match self {
            WeightGrid::F32 => v,
            WeightGrid::Int8 => int8_snap(v),
            WeightGrid::Fp16 => f16_snap(v),
        }
    }

    /// True when grid points are exactly f32-representable and recovery
    /// can bypass the ulp search.
    pub fn is_exact(&self) -> bool {
        !matches!(self, WeightGrid::F32)
    }

    /// CRC-snap search radius in grid steps: ulps for f32, lattice /
    /// bit-pattern steps for the quantized grids (whose snap already
    /// lands on the golden point; the tiny radius only absorbs a
    /// round-to-nearest tie at a grid midpoint).
    pub(crate) fn snap_radius(&self) -> u32 {
        match self {
            WeightGrid::F32 => 4096,
            WeightGrid::Int8 => 8,
            WeightGrid::Fp16 => 16,
        }
    }

    /// The `delta`-th grid step from `base` (descending when `neg`), or
    /// `None` when the step leaves the grid's range.
    pub(crate) fn candidate(&self, base: f32, delta: u32, neg: bool) -> Option<f32> {
        match self {
            WeightGrid::F32 => {
                let bits = base.to_bits();
                Some(f32::from_bits(if neg {
                    bits.wrapping_sub(delta)
                } else {
                    bits.wrapping_add(delta)
                }))
            }
            WeightGrid::Int8 => {
                let q = i32::from(milr_ecc::ring::int8_quantize(base));
                let q = if neg {
                    q - delta as i32
                } else {
                    q + delta as i32
                };
                (-128..=127)
                    .contains(&q)
                    .then(|| milr_ecc::ring::int8_value(q as i8))
            }
            WeightGrid::Fp16 => {
                let bits = i32::from(milr_ecc::ring::f32_to_f16_bits(base));
                let bits = if neg {
                    bits - delta as i32
                } else {
                    bits + delta as i32
                };
                (0..=0xFFFF)
                    .contains(&bits)
                    .then(|| milr_ecc::ring::f16_bits_to_f32(bits as u16))
            }
        }
    }
}

/// Configuration of a MILR protection instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilrConfig {
    /// Master seed. All stored PRNG streams (golden-flow input, per-layer
    /// detection inputs, dummy parameters) derive from it, so the entire
    /// artifact set is reproducible from this one value plus the stored
    /// tensors.
    pub seed: u64,
    /// Relative tolerance of detection comparisons. Detection replays a
    /// forward pass in floating point; this absorbs associativity noise
    /// (paper §V-A *Limitations*). Smaller values catch lower-impact
    /// errors at the price of false positives.
    pub rtol: f32,
    /// Absolute tolerance floor of detection comparisons.
    pub atol: f32,
    /// Rows/images in the golden recovery flow. One image already yields
    /// `G²` equations per convolution filter; dense layers make up any
    /// shortfall with PRNG dummy rows, so the paper-faithful default
    /// is 1.
    pub flow_batch: usize,
    /// Parameters per 2-D CRC group (the paper uses 4).
    pub crc_group: usize,
    /// Extension beyond the paper: store `N` dense dummy rows instead of
    /// `N − B`, making every dense layer recoverable from its dummy
    /// system alone — decoupled from (possibly corrupted) neighbours in
    /// the same checkpoint segment. Costs `B` extra stored rows per
    /// dense layer (`B = 1` by default) and removes the multi-error
    /// coupling for dense layers. Default `false` (paper-faithful).
    pub dense_self_recovery: bool,
    /// The representable-value grid the protected weights live on. Set
    /// to [`WeightGrid::Int8`] / [`WeightGrid::Fp16`] when the model is
    /// stored in a quantized substrate: recovery then snaps solver
    /// output onto the grid exactly instead of walking the f32 ulp
    /// neighbourhood. Default [`WeightGrid::F32`] (paper-faithful).
    pub weight_grid: WeightGrid,
}

impl Default for MilrConfig {
    fn default() -> Self {
        MilrConfig {
            seed: 0x4D49_4C52, // "MILR"
            rtol: 1e-3,
            atol: 1e-4,
            flow_batch: 1,
            crc_group: 4,
            dense_self_recovery: false,
            weight_grid: WeightGrid::F32,
        }
    }
}

impl MilrConfig {
    /// Derives the golden-flow input seed.
    pub(crate) fn flow_seed(&self) -> u64 {
        self.seed ^ 0xF10F_F10F_F10F_F10F
    }

    /// Derives the per-layer detection input seed.
    pub(crate) fn detect_seed(&self, layer: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(layer as u64)
    }

    /// Derives the per-layer dummy-data seed.
    pub(crate) fn dummy_seed(&self, layer: usize) -> u64 {
        self.seed
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .wrapping_add(layer as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_faithful() {
        let c = MilrConfig::default();
        assert_eq!(c.flow_batch, 1);
        assert_eq!(c.crc_group, 4);
        assert!(c.rtol > 0.0 && c.atol > 0.0);
    }

    #[test]
    fn f32_grid_is_identity_and_inexact() {
        let g = WeightGrid::F32;
        for v in [0.1f32, -3.7, 1e-20, f32::MAX] {
            assert_eq!(g.snap(v).to_bits(), v.to_bits());
        }
        assert!(!g.is_exact());
        assert_eq!(
            g.candidate(1.0, 1, false),
            Some(f32::from_bits(1.0f32.to_bits() + 1))
        );
    }

    #[test]
    fn quantized_grids_walk_their_lattices() {
        let g = WeightGrid::Int8;
        assert!(g.is_exact());
        assert_eq!(g.candidate(0.0, 1, false), Some(0.015625));
        assert_eq!(g.candidate(0.0, 1, true), Some(-0.015625));
        assert_eq!(g.candidate(2.0, 1, false), None, "clamps at q = 127");
        let h = WeightGrid::Fp16;
        assert!(h.is_exact());
        assert_eq!(h.candidate(0.0, 0, false), Some(0.0));
        // One f16 step from 1.0 is 1.0 + 2^-10.
        assert_eq!(h.candidate(1.0, 1, false), Some(1.0 + 2.0f32.powi(-10)));
        assert_eq!(h.candidate(0.0, 1, true), None, "below bit pattern 0");
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let c = MilrConfig::default();
        assert_ne!(c.flow_seed(), c.seed);
        assert_ne!(c.detect_seed(0), c.detect_seed(1));
        assert_ne!(c.dummy_seed(3), c.detect_seed(3));
    }
}
