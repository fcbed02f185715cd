//! Declarative chaos/adversary campaign DSL.
//!
//! The paper's fault model is iid raw-space bit flips; production
//! memory fails in correlated patterns. A [`ChaosSpec`] composes the
//! correlated regimes — rowhammer-style [`BurstSpec`] row/column
//! bursts over the raw image's [`RawGeometry`] grid, [`StuckAtSpec`]
//! cells that re-assert after every scrub correction, [`TornWriteSpec`]
//! corruption fired at an integrity-pipeline stage seam mid-heal,
//! [`ByzantineSpec`] donors shipping corrupted pages during peer
//! repair, and [`SkewSpec`] scrub/arrival schedule distortion — and a
//! [`Campaign`] names one such composition together with its seed and
//! the SLO objectives it must hold ([`SloDecl`]).
//!
//! Everything here is plain data with a deterministic `to_json`
//! (through `milr_obs::json`), so a campaign matrix run under one seed
//! serializes byte-identically forever — the property the
//! `campaign_matrix` CI gate locks.

use crate::{FaultRng, InjectionReport};
use milr_obs::json::{array, JsonObject};
use milr_substrate::{RawGeometry, WeightSubstrate};
use std::collections::BTreeSet;

/// Converts milli-units (1000 = 1.0) to a fraction.
pub fn milli(m: u32) -> f64 {
    f64::from(m) / 1000.0
}

/// Correlated burst shapes over the raw image's row/column grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstPattern {
    /// All bits of one victim row flip with the spec probability — a
    /// single-sided rowhammer hit.
    Row,
    /// One bit offset within every row flips with the spec probability
    /// — a failing column driver.
    Column,
    /// A double-sided rowhammer hit: the victim row takes double the
    /// spec probability, its two aggressor neighbours a quarter each.
    DoubleSidedRow,
}

impl BurstPattern {
    /// Stable name used in campaign JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BurstPattern::Row => "row",
            BurstPattern::Column => "column",
            BurstPattern::DoubleSidedRow => "double_sided_row",
        }
    }
}

/// A family of correlated bursts fired over a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSpec {
    /// Burst shape.
    pub pattern: BurstPattern,
    /// Number of bursts fired across the campaign horizon.
    pub bursts: usize,
    /// Per-bit flip probability inside the victim stripe, milli-units.
    pub flip_prob_milli: u32,
}

/// Plans one correlated burst over a raw space of `raw_bits` bits with
/// the given geometry: the returned positions are the bits to flip, in
/// ascending order. Deterministic per RNG state.
///
/// # Panics
///
/// Panics when `raw_bits == 0`.
pub fn plan_burst(
    geo: RawGeometry,
    raw_bits: usize,
    pattern: BurstPattern,
    flip_prob: f64,
    rng: &mut FaultRng,
) -> Vec<usize> {
    assert!(raw_bits > 0, "cannot burst an empty raw space");
    let row_bits = geo.row_bits();
    let rows = geo.rows(raw_bits);
    let p = flip_prob.clamp(0.0, 1.0);
    // (row, per-bit probability) stripes this burst hammers.
    let stripes: Vec<(usize, f64)> = match pattern {
        BurstPattern::Row => vec![(rng.below(rows), p)],
        BurstPattern::DoubleSidedRow => {
            let victim = if rows < 3 { 0 } else { 1 + rng.below(rows - 2) };
            let mut s = vec![(victim, (2.0 * p).min(1.0))];
            if victim > 0 {
                s.push((victim - 1, p / 4.0));
            }
            if victim + 1 < rows {
                s.push((victim + 1, p / 4.0));
            }
            s
        }
        BurstPattern::Column => {
            let col = rng.below(row_bits);
            let mut bits = Vec::new();
            for row in 0..rows {
                let bit = row * row_bits + col;
                if bit < raw_bits && rng.unit() < p {
                    bits.push(bit);
                }
            }
            return bits;
        }
    };
    let mut bits = Vec::new();
    for (row, prob) in stripes {
        let start = row * row_bits;
        for offset in 0..row_bits {
            let bit = start + offset;
            if bit < raw_bits && rng.unit() < prob {
                bits.push(bit);
            }
        }
    }
    bits.sort_unstable();
    bits
}

/// Plans and fires one burst on a substrate, returning the exact
/// distinct-word injection report.
pub fn inject_burst<S: WeightSubstrate + ?Sized>(
    memory: &mut S,
    pattern: BurstPattern,
    flip_prob: f64,
    rng: &mut FaultRng,
) -> InjectionReport {
    let bits = plan_burst(
        memory.raw_geometry(),
        memory.raw_bits(),
        pattern,
        flip_prob,
        rng,
    );
    crate::inject_bits(memory, &bits)
}

/// Stuck-at cells: raw bits pinned to a value that re-asserts after
/// every scrub correction, inside a bounded window of the campaign
/// horizon (so healing can eventually certify and the run drains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckAtSpec {
    /// Number of stuck cells planted.
    pub bits: usize,
    /// Window start, as milli-fraction of the campaign horizon.
    pub from_milli: u32,
    /// Window end, as milli-fraction of the campaign horizon.
    pub until_milli: u32,
}

impl StuckAtSpec {
    /// True when virtual time `now` falls inside the active window of a
    /// campaign ending at `horizon`.
    pub fn active(&self, now: u64, horizon: u64) -> bool {
        let frac = now.saturating_mul(1000) / horizon.max(1);
        frac >= u64::from(self.from_milli) && frac < u64::from(self.until_milli)
    }
}

/// A planted set of stuck cells: raw bit positions and the values they
/// are stuck at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckAtPlan {
    /// `(raw bit, stuck value)` pairs, ascending by position.
    pub cells: Vec<(usize, bool)>,
}

/// Draws `count` distinct stuck cells over `raw_bits` positions with
/// random stuck values. Deterministic per RNG state.
pub fn plan_stuck_at(raw_bits: usize, count: usize, rng: &mut FaultRng) -> StuckAtPlan {
    let mut positions = BTreeSet::new();
    while positions.len() < count.min(raw_bits) {
        positions.insert(rng.below(raw_bits));
    }
    let cells = positions
        .into_iter()
        .map(|bit| (bit, rng.unit() < 0.5))
        .collect();
    StuckAtPlan { cells }
}

/// Re-asserts the plan's cells on a substrate: flips exactly the cells
/// whose current value differs from the stuck value (a blind re-flip
/// would *heal* a cell the scrubber already corrected). Returns the
/// number of cells re-asserted.
pub fn assert_stuck<S: WeightSubstrate + ?Sized>(memory: &mut S, plan: &StuckAtPlan) -> usize {
    let mut flipped = 0;
    for &(bit, value) in &plan.cells {
        if memory.raw_bit(bit) != value {
            memory.flip_raw_bit(bit);
            flipped += 1;
        }
    }
    flipped
}

/// A torn write racing a heal: raw corruption fired when the integrity
/// pipeline enters a named stage seam, a bounded number of times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornWriteSpec {
    /// Stage seam name (an `IntegrityPipeline` stage, e.g. `"heal"`,
    /// `"reprotect"`).
    pub stage: String,
    /// Bounded number of firings across the campaign.
    pub fires: usize,
    /// Raw bits flipped per firing.
    pub flips: usize,
}

/// Byzantine donors: replicas that ship corrupted page images when
/// asked to donate during peer repair. The certified-donor check must
/// catch (and count) every such donation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzantineSpec {
    /// Replica indices that corrupt every page they donate.
    pub donors: Vec<usize>,
    /// Bits flipped per donated page image.
    pub flips: usize,
}

/// Schedule skew: multiplies arrival gaps and the scrub interval in
/// milli-units (1000 = neutral; 500 halves the gap, 2000 doubles it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewSpec {
    /// Arrival-gap multiplier, milli-units.
    pub arrival_milli: u32,
    /// Scrub-interval multiplier, milli-units.
    pub scrub_milli: u32,
}

impl SkewSpec {
    /// Applies a milli-unit multiplier to a duration.
    pub fn scale(nanos: u64, factor_milli: u32) -> u64 {
        (nanos.saturating_mul(u64::from(factor_milli)) / 1000).max(1)
    }
}

/// A composition of correlated-fault regimes. `None` fields leave the
/// corresponding plane untouched; `ChaosSpec::default()` (all `None`)
/// is byte-identical to running without a campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Correlated row/column bursts over the raw image.
    pub bursts: Option<BurstSpec>,
    /// Stuck-at cells re-asserting after scrub correction.
    pub stuck_at: Option<StuckAtSpec>,
    /// Torn writes fired at a pipeline stage seam mid-heal.
    pub torn_write: Option<TornWriteSpec>,
    /// Byzantine donors during peer repair (fleet only).
    pub byzantine: Option<ByzantineSpec>,
    /// Skewed scrub/arrival schedules.
    pub skew: Option<SkewSpec>,
}

impl ChaosSpec {
    /// True when no regime is active.
    pub fn is_quiet(&self) -> bool {
        self == &ChaosSpec::default()
    }

    /// Deterministic JSON object (stable key order); inactive regimes
    /// are omitted.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        if let Some(b) = &self.bursts {
            let burst = JsonObject::new()
                .string("pattern", b.pattern.name())
                .raw("bursts", b.bursts)
                .raw("flip_prob_milli", b.flip_prob_milli);
            o = o.raw("bursts", burst.finish());
        }
        if let Some(s) = &self.stuck_at {
            let stuck = JsonObject::new()
                .raw("bits", s.bits)
                .raw("from_milli", s.from_milli)
                .raw("until_milli", s.until_milli);
            o = o.raw("stuck_at", stuck.finish());
        }
        if let Some(t) = &self.torn_write {
            let torn = JsonObject::new()
                .string("stage", &t.stage)
                .raw("fires", t.fires)
                .raw("flips", t.flips);
            o = o.raw("torn_write", torn.finish());
        }
        if let Some(b) = &self.byzantine {
            let byzantine = JsonObject::new()
                .raw("donors", array(&b.donors))
                .raw("flips", b.flips);
            o = o.raw("byzantine", byzantine.finish());
        }
        if let Some(s) = &self.skew {
            let skew = JsonObject::new()
                .raw("arrival_milli", s.arrival_milli)
                .raw("scrub_milli", s.scrub_milli);
            o = o.raw("skew", skew.finish());
        }
        o.finish()
    }
}

/// The SLO dimensions a campaign can declare objectives on. The bench
/// driver maps these onto `milr_obs::SloSpec` suites. A declaration
/// stays integer milli-units so a campaign compares with `Eq` and
/// renders byte-stable JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloDeclKind {
    /// Fraction of requests answered.
    Availability,
    /// 99th-percentile end-to-end latency under a threshold.
    LatencyP99,
    /// Fraction of heal episodes ending bit-exact.
    HealExactness,
    /// Fraction of scrub passes finding storage certifiable.
    Durability,
}

impl SloDeclKind {
    /// Stable name used in campaign JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SloDeclKind::Availability => "availability",
            SloDeclKind::LatencyP99 => "latency_p99",
            SloDeclKind::HealExactness => "heal_exactness",
            SloDeclKind::Durability => "durability",
        }
    }
}

/// One declared SLO objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloDecl {
    /// Dimension.
    pub kind: SloDeclKind,
    /// Objective in milli-units (995 = 0.995).
    pub objective_milli: u32,
    /// Latency threshold for [`SloDeclKind::LatencyP99`]; ignored by
    /// the other kinds.
    pub latency_threshold_ns: u64,
}

impl SloDecl {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("kind", self.kind.name())
            .raw("objective_milli", self.objective_milli)
            .raw("latency_threshold_ns", self.latency_threshold_ns)
            .finish()
    }
}

/// A named, seeded chaos campaign with its SLO suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (report key and artifact suffix).
    pub name: String,
    /// Seed driving every random draw of the campaign.
    pub seed: u64,
    /// The composed fault regimes.
    pub chaos: ChaosSpec,
    /// Declared SLO objectives this campaign must hold.
    pub slos: Vec<SloDecl>,
}

impl Campaign {
    /// Deterministic JSON object (stable key order).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("name", &self.name)
            .raw("seed", self.seed)
            .raw("chaos", self.chaos.to_json())
            .raw("slos", array(self.slos.iter().map(SloDecl::to_json)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_substrate::SubstrateKind;

    fn weights(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.05 - 1.5).collect()
    }

    #[test]
    fn burst_plans_are_seed_deterministic_across_kinds() {
        for kind in SubstrateKind::ALL {
            for pattern in [
                BurstPattern::Row,
                BurstPattern::Column,
                BurstPattern::DoubleSidedRow,
            ] {
                let w = weights(300);
                let mut a = kind.store(&w);
                let mut b = kind.store(&w);
                let ra = inject_burst(&mut *a, pattern, 0.6, &mut FaultRng::seed(99));
                let rb = inject_burst(&mut *b, pattern, 0.6, &mut FaultRng::seed(99));
                assert_eq!(ra, rb, "{kind} {pattern:?}");
                assert!(ra.flipped_bits > 0, "{kind} {pattern:?}");
                assert_eq!(a.export_raw(), b.export_raw(), "{kind} {pattern:?}");
            }
        }
    }

    #[test]
    fn row_burst_stays_inside_its_stripes() {
        let w = weights(256);
        let mem = SubstrateKind::Secded.store(&w);
        let geo = mem.raw_geometry();
        let bits = plan_burst(
            geo,
            mem.raw_bits(),
            BurstPattern::Row,
            0.9,
            &mut FaultRng::seed(5),
        );
        assert!(!bits.is_empty());
        let rows: BTreeSet<usize> = bits.iter().map(|b| b / geo.row_bits()).collect();
        assert_eq!(rows.len(), 1, "row burst spilled across rows: {rows:?}");
    }

    #[test]
    fn column_burst_hits_one_offset_per_row() {
        let w = weights(256);
        let mem = SubstrateKind::Plain.store(&w);
        let geo = mem.raw_geometry();
        let bits = plan_burst(
            geo,
            mem.raw_bits(),
            BurstPattern::Column,
            1.0,
            &mut FaultRng::seed(7),
        );
        let offsets: BTreeSet<usize> = bits.iter().map(|b| b % geo.row_bits()).collect();
        assert_eq!(offsets.len(), 1, "column burst wandered: {offsets:?}");
        assert_eq!(bits.len(), geo.rows(mem.raw_bits()));
    }

    #[test]
    fn double_sided_burst_concentrates_on_the_victim() {
        let w = weights(4096);
        let mem = SubstrateKind::Plain.store(&w);
        let geo = mem.raw_geometry();
        let bits = plan_burst(
            geo,
            mem.raw_bits(),
            BurstPattern::DoubleSidedRow,
            0.4,
            &mut FaultRng::seed(11),
        );
        let mut per_row: std::collections::BTreeMap<usize, usize> = Default::default();
        for b in &bits {
            *per_row.entry(b / geo.row_bits()).or_default() += 1;
        }
        assert!(per_row.len() <= 3, "{per_row:?}");
        let victim = per_row.iter().max_by_key(|(_, &n)| n).unwrap();
        assert!(
            per_row.values().all(|&n| n <= *victim.1),
            "victim row is not the hottest: {per_row:?}"
        );
    }

    #[test]
    fn stuck_cells_reassert_only_after_correction() {
        let w = weights(200);
        let mut mem = SubstrateKind::Secded.store(&w);
        let plan = plan_stuck_at(mem.raw_bits(), 6, &mut FaultRng::seed(3));
        assert_eq!(plan.cells.len(), 6);
        // First assertion pins the cells; immediate re-assertion is a
        // no-op because nothing corrected them back.
        let first = assert_stuck(&mut *mem, &plan);
        assert!(first > 0, "all six cells already matched by chance");
        assert_eq!(assert_stuck(&mut *mem, &plan), 0);
        // A scrub corrects some cells away; re-assertion pins exactly
        // those again — and a blind re-flip would instead have healed
        // them, which is what raw_bit reads prevent.
        let scrub = mem.scrub();
        let reasserted = assert_stuck(&mut *mem, &plan);
        assert!(
            reasserted <= scrub.corrected + scrub.uncorrectable,
            "reasserted {reasserted} > corrected {}",
            scrub.corrected
        );
        for &(bit, value) in &plan.cells {
            assert_eq!(mem.raw_bit(bit), value, "cell {bit} not held");
        }
    }

    #[test]
    fn stuck_window_bounds_activity() {
        let spec = StuckAtSpec {
            bits: 4,
            from_milli: 100,
            until_milli: 600,
        };
        let horizon = 1_000_000;
        assert!(!spec.active(0, horizon));
        assert!(spec.active(100_000, horizon));
        assert!(spec.active(599_999, horizon));
        assert!(!spec.active(600_000, horizon));
        assert!(!spec.active(horizon, horizon));
    }

    #[test]
    fn chaos_json_is_stable_and_complete() {
        let chaos = ChaosSpec {
            bursts: Some(BurstSpec {
                pattern: BurstPattern::DoubleSidedRow,
                bursts: 3,
                flip_prob_milli: 450,
            }),
            stuck_at: Some(StuckAtSpec {
                bits: 8,
                from_milli: 100,
                until_milli: 700,
            }),
            torn_write: Some(TornWriteSpec {
                stage: "heal".to_string(),
                fires: 2,
                flips: 16,
            }),
            byzantine: Some(ByzantineSpec {
                donors: vec![0, 2],
                flips: 9,
            }),
            skew: Some(SkewSpec {
                arrival_milli: 500,
                scrub_milli: 1500,
            }),
        };
        assert!(!chaos.is_quiet());
        assert!(ChaosSpec::default().is_quiet());
        let campaign = Campaign {
            name: "everything".to_string(),
            seed: 42,
            chaos,
            slos: vec![
                SloDecl {
                    kind: SloDeclKind::Availability,
                    objective_milli: 700,
                    latency_threshold_ns: 0,
                },
                SloDecl {
                    kind: SloDeclKind::LatencyP99,
                    objective_milli: 990,
                    latency_threshold_ns: 400_000_000,
                },
            ],
        };
        let json = campaign.to_json();
        assert_eq!(json, campaign.clone().to_json(), "unstable serialization");
        assert_eq!(
            json,
            "{\"name\":\"everything\",\"seed\":42,\
            \"chaos\":{\"bursts\":{\"pattern\":\"double_sided_row\",\"bursts\":3,\
            \"flip_prob_milli\":450},\"stuck_at\":{\"bits\":8,\"from_milli\":100,\
            \"until_milli\":700},\"torn_write\":{\"stage\":\"heal\",\"fires\":2,\"flips\":16},\
            \"byzantine\":{\"donors\":[0,2],\"flips\":9},\"skew\":{\"arrival_milli\":500,\
            \"scrub_milli\":1500}},\"slos\":[{\"kind\":\"availability\",\
            \"objective_milli\":700,\"latency_threshold_ns\":0},{\"kind\":\"latency_p99\",\
            \"objective_milli\":990,\"latency_threshold_ns\":400000000}]}"
        );
        assert_eq!(ChaosSpec::default().to_json(), "{}");
    }

    #[test]
    fn skew_scale_is_exact_and_never_zero() {
        assert_eq!(SkewSpec::scale(1000, 1000), 1000);
        assert_eq!(SkewSpec::scale(1000, 500), 500);
        assert_eq!(SkewSpec::scale(1000, 2500), 2500);
        assert_eq!(SkewSpec::scale(1, 1), 1, "scaled gap must stay positive");
    }
}
