//! The end-of-run service report: counters, empirical availability,
//! latency distribution, and the modeled-vs-measured comparison hook.

use crate::metrics::LatencyStats;
use crate::request::{RequestOutcome, RequestStatus};
use milr_integrity::PipelineReport;
use milr_obs::json::JsonObject;

/// Summary of one serving run (simulated or live).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seed the run was driven by (0 for live runs without one).
    pub seed: u64,
    /// Quarantine policy name (`drain` / `reject`).
    pub policy: String,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests completed with certified outputs.
    pub completed: usize,
    /// Requests rejected (queue-full, quarantine shedding, shutdown).
    pub rejected: usize,
    /// Request executions discarded and re-run because a scrub flagged
    /// the weights they may have been computed on.
    pub reexecuted: usize,
    /// Whole-weight faults injected into the substrate during the run.
    pub faults_injected: usize,
    /// Raw words corrected by the substrate's own scrub (ECC).
    pub scrub_corrected: usize,
    /// Scrub ticks performed.
    pub scrub_ticks: usize,
    /// Quarantine episodes.
    pub quarantines: usize,
    /// Layer recoveries performed across all quarantines.
    pub layers_recovered: usize,
    /// Failed durability commits on a store-backed server (journal
    /// flushes or re-anchor commits that errored). Served outputs stay
    /// correct — the in-memory heal succeeded — but the container on
    /// disk may lag the served state until a later commit succeeds, so
    /// a non-zero count means the crash-restart guarantee is degraded
    /// and the operator should look at the storage. Always 0 for
    /// in-memory servers and simulations.
    pub durability_errors: usize,
    /// Total run length on the service clock, nanoseconds.
    pub total_ns: u64,
    /// Time spent quarantined (unavailable), nanoseconds.
    pub downtime_ns: u64,
    /// Empirical availability: `1 − downtime / total`.
    pub availability: f64,
    /// Latency distribution of completed requests.
    pub latency: LatencyStats,
    /// Batches dispatched by the admission loop.
    pub batches: usize,
    /// Batches dispatched at the full configured `batch_max`.
    pub full_batches: usize,
    /// Mean requests per dispatched batch — the continuous-batching
    /// occupancy (1.0 means no coalescing happened; `batch_max` means
    /// every dispatch shared one decode + GEMM pass across a full
    /// batch).
    pub batch_occupancy: f64,
    /// Order-insensitive digest over `(id, status, output bits)` of
    /// every outcome — two runs with the same seed must agree on it.
    pub digest: u64,
    /// Per-stage counters (and, on wall-clock drivers, timings) of the
    /// shared integrity pipeline behind the run's scrubbing and
    /// recovery. Deterministic under a seed on virtual-clock drivers.
    pub pipeline: PipelineReport,
    /// Error-budget verdict of the run's SLO engine, when the driver
    /// ran one (the simulators always do; aggregation drops it — the
    /// fleet view carries its own). `None` leaves the JSON byte-for-
    /// byte what it was before SLOs existed.
    pub slo: Option<milr_obs::SloReport>,
}

/// FNV-1a over the resolved outcomes, for cheap reproducibility
/// assertions across runs.
pub fn outcome_digest(outcomes: &[RequestOutcome]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut sorted: Vec<&RequestOutcome> = outcomes.iter().collect();
    sorted.sort_by_key(|o| o.id);
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for o in sorted {
        eat(o.id);
        match &o.status {
            RequestStatus::Completed(out) => {
                eat(0);
                for v in out.data() {
                    eat(v.to_bits() as u64);
                }
            }
            RequestStatus::Rejected(reason) => {
                eat(1 + *reason as u64);
            }
        }
    }
    h
}

impl ServeReport {
    /// Aggregates per-replica reports into one fleet **capacity** view.
    ///
    /// Counters sum; `total_ns` is the longest replica clock;
    /// `downtime_ns` is the **mean replica downtime** (Σ downtime / n,
    /// truncated to whole nanoseconds), so the record stays internally
    /// consistent — `1 − downtime_ns / total_ns` reproduces
    /// `availability` up to that truncation, and `downtime_ns` can
    /// never exceed `total_ns`. `availability` itself is computed from
    /// the untruncated sum: the *mean replica* availability
    /// `1 − Σ downtime / (n · total)`, the fraction of fleet capacity
    /// that was serving. This is deliberately not the client-facing
    /// fleet availability (the fleet is only *down* when every replica
    /// is, which needs the overlap of the downtime windows — the fleet
    /// simulation measures that directly). Latency is merged by adding
    /// the replicas' histogram buckets and reading quantiles off the
    /// merged distribution — mean and max come out exact (the
    /// histograms carry exact sums and maxima), percentiles carry only
    /// the ≤ ~3.1% bucket quantization. Averaging per-replica
    /// percentiles, the old behaviour, is simply wrong on heterogeneous
    /// replicas: a fast replica's p99 pulls the "merged" p99 below
    /// values that 5% of fleet traffic exceeds. The digest chains the
    /// replicas' digests in order.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn aggregate(reports: &[ServeReport]) -> ServeReport {
        assert!(!reports.is_empty(), "nothing to aggregate");
        let total_ns = reports.iter().map(|r| r.total_ns).max().unwrap();
        let downtime_sum: u64 = reports.iter().map(|r| r.downtime_ns).sum();
        let downtime_ns = downtime_sum / reports.len() as u64;
        let capacity_ns = total_ns.saturating_mul(reports.len() as u64);
        let mut merged = milr_obs::Histogram::new();
        for r in reports {
            merged.merge(&r.latency.hist);
        }
        let batches: usize = reports.iter().map(|r| r.batches).sum();
        // Recover per-replica request totals from occupancy × batches
        // so the merged occupancy is batch-weighted, not replica-mean.
        let batched_requests: f64 = reports
            .iter()
            .map(|r| r.batch_occupancy * r.batches as f64)
            .sum();
        const PRIME: u64 = 0x100000001b3;
        let mut digest = 0xcbf29ce484222325u64;
        for r in reports {
            for byte in r.digest.to_le_bytes() {
                digest ^= byte as u64;
                digest = digest.wrapping_mul(PRIME);
            }
        }
        let mut pipeline = PipelineReport::default();
        for r in reports {
            pipeline.merge(&r.pipeline);
        }
        ServeReport {
            seed: reports[0].seed,
            policy: reports[0].policy.clone(),
            submitted: reports.iter().map(|r| r.submitted).sum(),
            completed: reports.iter().map(|r| r.completed).sum(),
            rejected: reports.iter().map(|r| r.rejected).sum(),
            reexecuted: reports.iter().map(|r| r.reexecuted).sum(),
            faults_injected: reports.iter().map(|r| r.faults_injected).sum(),
            scrub_corrected: reports.iter().map(|r| r.scrub_corrected).sum(),
            scrub_ticks: reports.iter().map(|r| r.scrub_ticks).sum(),
            quarantines: reports.iter().map(|r| r.quarantines).sum(),
            layers_recovered: reports.iter().map(|r| r.layers_recovered).sum(),
            durability_errors: reports.iter().map(|r| r.durability_errors).sum(),
            total_ns,
            downtime_ns,
            availability: if capacity_ns == 0 {
                1.0
            } else {
                1.0 - downtime_sum as f64 / capacity_ns as f64
            },
            latency: LatencyStats::from_histogram(merged),
            batches,
            full_batches: reports.iter().map(|r| r.full_batches).sum(),
            batch_occupancy: if batches == 0 {
                0.0
            } else {
                batched_requests / batches as f64
            },
            digest,
            pipeline,
            slo: None,
        }
    }

    /// Renders the report as a flat JSON object. The legacy fields keep
    /// their exact order and formatting — the golden-seed parity suite
    /// byte-compares this prefix across refactors — with the pipeline
    /// block and the newer fields (p99, batch-occupancy stats) after
    /// it, and the SLO verdict, when present, last.
    pub fn to_json(&self) -> String {
        let json = JsonObject::new()
            .raw("seed", self.seed)
            .string("policy", &self.policy)
            .raw("submitted", self.submitted)
            .raw("completed", self.completed)
            .raw("rejected", self.rejected)
            .raw("reexecuted", self.reexecuted)
            .raw("faults_injected", self.faults_injected)
            .raw("scrub_corrected", self.scrub_corrected)
            .raw("scrub_ticks", self.scrub_ticks)
            .raw("quarantines", self.quarantines)
            .raw("layers_recovered", self.layers_recovered)
            .raw("durability_errors", self.durability_errors)
            .raw("total_ns", self.total_ns)
            .raw("downtime_ns", self.downtime_ns)
            .float("availability", self.availability, 9)
            .float("latency_mean_us", self.latency.mean_us, 3)
            .float("latency_p50_us", self.latency.p50_us, 3)
            .float("latency_p95_us", self.latency.p95_us, 3)
            .float("latency_max_us", self.latency.max_us, 3)
            .raw("digest", self.digest)
            .raw("pipeline", self.pipeline.to_json())
            .float("latency_p99_us", self.latency.p99_us, 3)
            .raw("batches", self.batches)
            .raw("full_batches", self.full_batches)
            .float("batch_occupancy", self.batch_occupancy, 3);
        match &self.slo {
            Some(slo) => json.raw("slo", slo.to_json()),
            None => json,
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RejectReason;
    use milr_tensor::Tensor;

    fn outcome(id: u64, status: RequestStatus) -> RequestOutcome {
        RequestOutcome {
            id,
            input: Tensor::zeros(&[1]),
            status,
            arrival_ns: 0,
            resolved_ns: 1,
        }
    }

    #[test]
    fn digest_is_order_insensitive_and_content_sensitive() {
        let a = outcome(0, RequestStatus::Completed(Tensor::ones(&[2])));
        let b = outcome(1, RequestStatus::Rejected(RejectReason::QueueFull));
        let fwd = outcome_digest(&[a.clone(), b.clone()]);
        let rev = outcome_digest(&[b.clone(), a]);
        assert_eq!(fwd, rev);
        let changed = outcome(0, RequestStatus::Completed(Tensor::zeros(&[2])));
        assert_ne!(fwd, outcome_digest(&[changed, b]));
    }

    #[test]
    fn aggregate_sums_counters_and_merges_histograms() {
        // Per-replica summaries come from raw samples, exactly as the
        // drivers build them.
        let fast = LatencyStats::from_ns(&[2_000; 8]);
        let slow = LatencyStats::from_ns(&[4_000; 24]);
        let base = ServeReport {
            seed: 3,
            policy: "drain".into(),
            submitted: 10,
            completed: 8,
            rejected: 2,
            reexecuted: 1,
            faults_injected: 1,
            scrub_corrected: 4,
            scrub_ticks: 6,
            quarantines: 1,
            layers_recovered: 1,
            durability_errors: 0,
            total_ns: 1_000,
            downtime_ns: 100,
            availability: 0.9,
            latency: fast,
            batches: 4,
            full_batches: 1,
            batch_occupancy: 2.0,
            digest: 11,
            pipeline: PipelineReport {
                layers_healed: 1,
                ..PipelineReport::default()
            },
            slo: None,
        };
        let other = ServeReport {
            submitted: 30,
            completed: 24,
            total_ns: 2_000,
            downtime_ns: 500,
            latency: slow,
            batches: 6,
            full_batches: 3,
            batch_occupancy: 4.0,
            digest: 12,
            ..base.clone()
        };
        let agg = ServeReport::aggregate(&[base.clone(), other]);
        assert_eq!(agg.submitted, 40);
        assert_eq!(agg.completed, 32);
        // Pipeline counters merge across replicas.
        assert_eq!(agg.pipeline.layers_healed, 2);
        assert_eq!(agg.total_ns, 2_000);
        // Mean replica downtime: (100 + 500) / 2 — self-consistent with
        // total_ns (1 − 300/2000 ≈ availability).
        assert_eq!(agg.downtime_ns, 300);
        // Capacity availability: 1 − 600 / (2 · 2000).
        assert!((agg.availability - (1.0 - 600.0 / 4000.0)).abs() < 1e-12);
        // Histogram-merged latency: mean and max are exact.
        assert_eq!(agg.latency.count, 32);
        assert!((agg.latency.mean_us - (2.0 * 8.0 + 4.0 * 24.0) / 32.0).abs() < 1e-12);
        assert_eq!(agg.latency.max_us, 4.0);
        // Batch stats: counts sum, occupancy is batch-weighted.
        assert_eq!(agg.batches, 10);
        assert_eq!(agg.full_batches, 4);
        assert!((agg.batch_occupancy - (2.0 * 4.0 + 4.0 * 6.0) / 10.0).abs() < 1e-12);
        // Digest is order-sensitive over replica digests (a stable
        // replica ordering is part of the determinism contract).
        let swapped = ServeReport::aggregate(&[
            ServeReport {
                digest: 12,
                ..base.clone()
            },
            ServeReport { digest: 11, ..base },
        ]);
        assert_ne!(agg.digest, swapped.digest);
    }

    #[test]
    fn merged_percentiles_diverge_from_averaged_on_bimodal_replicas() {
        // One fast replica (every request ~1 ms) and one slow replica
        // (every request ~100 ms), equal traffic. Half of all fleet
        // requests take ~100 ms, so the true fleet p95 *is* ~100 ms.
        let fast = LatencyStats::from_ns(&[1_000_000; 100]);
        let slow = LatencyStats::from_ns(&[100_000_000; 100]);
        let template = ServeReport {
            seed: 0,
            policy: "drain".into(),
            submitted: 100,
            completed: 100,
            rejected: 0,
            reexecuted: 0,
            faults_injected: 0,
            scrub_corrected: 0,
            scrub_ticks: 0,
            quarantines: 0,
            layers_recovered: 0,
            durability_errors: 0,
            total_ns: 1_000,
            downtime_ns: 0,
            availability: 1.0,
            latency: fast.clone(),
            batches: 0,
            full_batches: 0,
            batch_occupancy: 0.0,
            digest: 1,
            pipeline: PipelineReport::default(),
            slo: None,
        };
        let replicas = [
            template.clone(),
            ServeReport {
                latency: slow.clone(),
                digest: 2,
                ..template
            },
        ];
        // What count-weighted averaging (the replaced behaviour) would
        // have claimed: the mean of the two p95s.
        let averaged_p95 = (fast.p95_us * 100.0 + slow.p95_us * 100.0) / 200.0;
        assert!((averaged_p95 - 50_500.0).abs() < 1.0);

        // The exact fleet p95 from the concatenated raw samples.
        let mut all = vec![1_000_000u64; 100];
        all.extend_from_slice(&[100_000_000; 100]);
        let exact = LatencyStats::from_ns(&all);
        assert!((exact.p95_us - 100_000.0).abs() < 1e-9);

        // The histogram merge lands within bucket error of the truth...
        let agg = ServeReport::aggregate(&replicas);
        let err = (agg.latency.p95_us - exact.p95_us).abs() / exact.p95_us;
        assert!(
            err <= 0.05,
            "merged p95 {} vs exact {}",
            agg.latency.p95_us,
            exact.p95_us
        );
        // ...while the averaged summary was off by a factor of ~2.
        assert!(
            (averaged_p95 - exact.p95_us).abs() / exact.p95_us > 0.4,
            "averaging should diverge wildly on bimodal replicas"
        );
        // p99 likewise comes from merged buckets.
        let p99_err = (agg.latency.p99_us - exact.p99_us).abs() / exact.p99_us;
        assert!(p99_err <= 0.05);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = ServeReport {
            seed: 7,
            policy: "drain".into(),
            submitted: 10,
            completed: 9,
            rejected: 1,
            reexecuted: 2,
            faults_injected: 1,
            scrub_corrected: 0,
            scrub_ticks: 5,
            quarantines: 1,
            layers_recovered: 1,
            durability_errors: 0,
            total_ns: 1000,
            downtime_ns: 100,
            availability: 0.9,
            latency: LatencyStats::default(),
            batches: 3,
            full_batches: 2,
            batch_occupancy: 2.5,
            digest: 42,
            pipeline: PipelineReport::default(),
            slo: None,
        };
        // Newer fields append after the pipeline block so the legacy
        // prefix the parity suite byte-compares never moves.
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"seed\":7,\"policy\":\"drain\",\"submitted\":10,\"completed\":9,\"rejected\":1,\
            \"reexecuted\":2,\"faults_injected\":1,\"scrub_corrected\":0,\"scrub_ticks\":5,\
            \"quarantines\":1,\"layers_recovered\":1,\"durability_errors\":0,\
            \"total_ns\":1000,\"downtime_ns\":100,\"availability\":0.900000000,\
            \"latency_mean_us\":0.000,\"latency_p50_us\":0.000,\"latency_p95_us\":0.000,\
            \"latency_max_us\":0.000,\"digest\":42,\"pipeline\":{\"scrub_corrected\":0,\
            \"scrub_uncorrectable\":0,\"full_detects\":0,\"chunk_detects\":0,\
            \"fast_verifies\":0,\"layers_checked\":0,\"layers_skipped\":0,\"heal_rounds\":0,\
            \"layers_healed\":0,\"layers_escalated\":0,\"reprotects\":0,\"anchors\":0,\
            \"durability_errors\":0,\"heals_exact\":0,\"heals_approx\":0,\
            \"stage_ns\":{\"scrub\":0,\"detect\":0,\"heal\":0,\"verify\":0,\"reprotect\":0,\
            \"anchor\":0}},\"latency_p99_us\":0.000,\"batches\":3,\"full_batches\":2,\
            \"batch_occupancy\":2.500}"
        );

        // With an SLO verdict attached, the block is appended inside
        // the closing brace and everything before it is unmoved.
        let slo = milr_obs::SloEngine::serving_defaults().report(1_000);
        let with = ServeReport {
            slo: Some(slo.clone()),
            ..r
        }
        .to_json();
        assert_eq!(
            with,
            format!(
                "{},\"slo\":{}}}",
                json.strip_suffix('}').unwrap(),
                slo.to_json()
            )
        );
    }
}
