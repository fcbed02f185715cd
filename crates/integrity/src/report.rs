//! Per-stage accounting of one pipeline's lifetime: outcome counters
//! plus cumulative wall time per stage.
//!
//! Counters are deterministic functions of the work performed, so a
//! seeded simulation embedding a [`PipelineReport`] in its run report
//! stays byte-reproducible. Stage timings are only populated when the
//! pipeline was built with wall timing enabled
//! ([`IntegrityPipeline::with_wall_timing`](crate::IntegrityPipeline::with_wall_timing));
//! virtual-clock drivers leave them zero.

/// Cumulative wall nanoseconds per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Substrate scrub passes (ECC sweep).
    pub scrub: u64,
    /// Detection passes (full and incremental chunks).
    pub detect: u64,
    /// MILR recovery solves.
    pub heal: u64,
    /// Post-heal verification (fast-path subset re-checks).
    pub verify: u64,
    /// Re-protection against the healed state.
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
        format!(
            concat!(
                "{{\"scrub\":{},\"detect\":{},\"heal\":{},",
                "\"verify\":{},\"reprotect\":{},\"anchor\":{}}}"
            ),
            self.scrub, self.detect, self.heal, self.verify, self.reprotect, self.anchor,
        )
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

    /// Renders the report as a flat JSON object (hand-rolled: the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"scrub_corrected\":{},\"scrub_uncorrectable\":{},",
                "\"full_detects\":{},\"chunk_detects\":{},\"fast_verifies\":{},",
                "\"layers_checked\":{},\"layers_skipped\":{},\"heal_rounds\":{},",
                "\"layers_healed\":{},\"layers_escalated\":{},\"reprotects\":{},",
                "\"anchors\":{},\"durability_errors\":{},",
                "\"heals_exact\":{},\"heals_approx\":{},\"stage_ns\":{}}}"
            ),
            self.scrub_corrected,
            self.scrub_uncorrectable,
            self.full_detects,
            self.chunk_detects,
            self.fast_verifies,
            self.layers_checked,
            self.layers_skipped,
            self.heal_rounds,
            self.layers_healed,
            self.layers_escalated,
            self.reprotects,
            self.anchors,
            self.durability_errors,
            self.heals_exact,
            self.heals_approx,
            self.stage_ns.to_json(),
        )
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
        let json = PipelineReport::default().to_json();
        assert!(json.starts_with("{\"scrub_corrected\":0"));
        assert!(json.contains("\"stage_ns\":{\"scrub\":0"));
        assert!(json.ends_with("}}"));
    }
}
