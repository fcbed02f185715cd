//! Per-stage accounting of one pipeline's lifetime: outcome counters
//! plus cumulative wall time per stage.
//!
//! Counters are deterministic functions of the work performed, so a
//! seeded simulation embedding a [`PipelineReport`] in its run report
//! stays byte-reproducible. Stage timings are only populated when the
//! pipeline was built with wall timing enabled
//! ([`IntegrityPipeline::with_wall_timing`](crate::IntegrityPipeline::with_wall_timing));
//! virtual-clock drivers leave them zero.

use milr_obs::json::JsonObject;

/// Cumulative wall nanoseconds per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Substrate scrub passes (ECC sweep).
    pub scrub: u64,
    /// Detection passes (full and incremental chunks).
    pub detect: u64,
    /// MILR recovery solves, with their write-back and its flush.
    pub heal: u64,
    /// Post-heal verification with its decode: fast-path subset
    /// re-checks, or the full Reprotect gate on gated pipelines.
    pub verify: u64,
    /// Re-protection against the healed state (with its decode on
    /// ungated pipelines).
    pub reprotect: u64,
    /// Durable re-anchor commits.
    pub anchor: u64,
}

impl StageNanos {
    /// Folds another pipeline's stage timings into this one.
    pub fn merge(&mut self, other: &StageNanos) {
        self.scrub += other.scrub;
        self.detect += other.detect;
        self.heal += other.heal;
        self.verify += other.verify;
        self.reprotect += other.reprotect;
        self.anchor += other.anchor;
    }

    /// Renders the timings as a flat JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("scrub", self.scrub)
            .raw("detect", self.detect)
            .raw("heal", self.heal)
            .raw("verify", self.verify)
            .raw("reprotect", self.reprotect)
            .raw("anchor", self.anchor)
            .finish()
    }
}

/// Outcome counters and stage timings of one pipeline's lifetime
/// (ticks and heal episodes accumulate until the driver takes the
/// report). Embedded in `ServeReport`, `FleetReport` (per replica and
/// aggregated), and `ColdStartReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Raw words the substrate's own scrub corrected in place.
    pub scrub_corrected: usize,
    /// Raw words with detected-but-uncorrectable substrate errors.
    pub scrub_uncorrectable: usize,
    /// Full detection passes over every checkable layer.
    pub full_detects: usize,
    /// Incremental detection chunks (scrub-cursor ticks).
    pub chunk_detects: usize,
    /// Fast-path verifies: post-heal re-checks over only the suspect
    /// layers instead of a full re-detect.
    pub fast_verifies: usize,
    /// Layer checks actually replayed across all detection passes.
    pub layers_checked: usize,
    /// Layer checks the fast path skipped relative to full re-detects.
    pub layers_skipped: usize,
    /// Heal rounds run (detect → recover → verify).
    pub heal_rounds: usize,
    /// Layer recoveries written back to the substrate.
    pub layers_healed: usize,
    /// Layers classified beyond exact recovery and escalated (peer
    /// repair).
    pub layers_escalated: usize,
    /// Re-protections (the healed state became the new baseline).
    pub reprotects: usize,
    /// Durable re-anchor commits.
    pub anchors: usize,
    /// Best-effort durability operations that failed (logged and
    /// swallowed; the container on disk may lag the served state).
    pub durability_errors: usize,
    /// Recovery outcomes that restored exact golden bits
    /// (CRC-certified solves). Counts every outcome the Heal stage
    /// produced, including ones later escalated instead of written
    /// back — it feeds the heal-exactness SLO, which judges the
    /// *recovery* machinery, not the write-back policy.
    pub heals_exact: usize,
    /// Recovery outcomes that came back min-norm/approximate or
    /// failed outright.
    pub heals_approx: usize,
    /// Cumulative wall time per stage (zero under virtual clocks).
    pub stage_ns: StageNanos,
}

impl PipelineReport {
    /// Folds another pipeline's counters into this one (fleet
    /// aggregation over replicas).
    pub fn merge(&mut self, other: &PipelineReport) {
        self.scrub_corrected += other.scrub_corrected;
        self.scrub_uncorrectable += other.scrub_uncorrectable;
        self.full_detects += other.full_detects;
        self.chunk_detects += other.chunk_detects;
        self.fast_verifies += other.fast_verifies;
        self.layers_checked += other.layers_checked;
        self.layers_skipped += other.layers_skipped;
        self.heal_rounds += other.heal_rounds;
        self.layers_healed += other.layers_healed;
        self.layers_escalated += other.layers_escalated;
        self.reprotects += other.reprotects;
        self.anchors += other.anchors;
        self.durability_errors += other.durability_errors;
        self.heals_exact += other.heals_exact;
        self.heals_approx += other.heals_approx;
        self.stage_ns.merge(&other.stage_ns);
    }

    /// True when the pipeline never changed anything: no scrub
    /// correction, no heal, no escalation, no re-protect, no anchor —
    /// the strict-no-op contract for running over an already-clean
    /// host.
    pub fn is_noop(&self) -> bool {
        self.scrub_corrected == 0
            && self.scrub_uncorrectable == 0
            && self.heal_rounds == 0
            && self.layers_healed == 0
            && self.layers_escalated == 0
            && self.reprotects == 0
            && self.anchors == 0
            && self.durability_errors == 0
    }

    /// Renders the report as a flat JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("scrub_corrected", self.scrub_corrected)
            .raw("scrub_uncorrectable", self.scrub_uncorrectable)
            .raw("full_detects", self.full_detects)
            .raw("chunk_detects", self.chunk_detects)
            .raw("fast_verifies", self.fast_verifies)
            .raw("layers_checked", self.layers_checked)
            .raw("layers_skipped", self.layers_skipped)
            .raw("heal_rounds", self.heal_rounds)
            .raw("layers_healed", self.layers_healed)
            .raw("layers_escalated", self.layers_escalated)
            .raw("reprotects", self.reprotects)
            .raw("anchors", self.anchors)
            .raw("durability_errors", self.durability_errors)
            .raw("heals_exact", self.heals_exact)
            .raw("heals_approx", self.heals_approx)
            .raw("stage_ns", self.stage_ns.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = PipelineReport {
            scrub_corrected: 1,
            heal_rounds: 2,
            layers_healed: 3,
            stage_ns: StageNanos {
                heal: 10,
                ..StageNanos::default()
            },
            ..PipelineReport::default()
        };
        let b = PipelineReport {
            scrub_corrected: 4,
            heal_rounds: 1,
            layers_escalated: 2,
            stage_ns: StageNanos {
                heal: 5,
                anchor: 7,
                ..StageNanos::default()
            },
            ..PipelineReport::default()
        };
        a.merge(&b);
        assert_eq!(a.scrub_corrected, 5);
        assert_eq!(a.heal_rounds, 3);
        assert_eq!(a.layers_healed, 3);
        assert_eq!(a.layers_escalated, 2);
        assert_eq!(a.stage_ns.heal, 15);
        assert_eq!(a.stage_ns.anchor, 7);
    }

    #[test]
    fn noop_ignores_read_only_counters() {
        let mut r = PipelineReport::default();
        assert!(r.is_noop());
        r.full_detects = 3;
        r.layers_checked = 9;
        r.layers_skipped = 2;
        assert!(r.is_noop(), "detection alone does not change state");
        r.layers_healed = 1;
        assert!(!r.is_noop());
    }

    #[test]
    fn json_is_flat_and_ordered() {
        assert_eq!(
            PipelineReport::default().to_json(),
            "{\"scrub_corrected\":0,\"scrub_uncorrectable\":0,\"full_detects\":0,\
            \"chunk_detects\":0,\"fast_verifies\":0,\"layers_checked\":0,\"layers_skipped\":0,\
            \"heal_rounds\":0,\"layers_healed\":0,\"layers_escalated\":0,\"reprotects\":0,\
            \"anchors\":0,\"durability_errors\":0,\"heals_exact\":0,\"heals_approx\":0,\
            \"stage_ns\":{\"scrub\":0,\"detect\":0,\"heal\":0,\"verify\":0,\"reprotect\":0,\
            \"anchor\":0}}"
        );
        let stages = StageNanos {
            scrub: 1,
            detect: 2,
            heal: 3,
            verify: 4,
            reprotect: 5,
            anchor: 6,
        };
        assert_eq!(
            stages.to_json(),
            r#"{"scrub":1,"detect":2,"heal":3,"verify":4,"reprotect":5,"anchor":6}"#
        );
    }
}
