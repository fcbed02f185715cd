//! Fleet-level reporting: the client-facing aggregate, the capacity
//! view, and one [`ServeReport`] per replica.

use milr_obs::json::{array, JsonObject};
use milr_serve::ServeReport;

/// One replica's slice of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Replica index.
    pub replica: usize,
    /// Peer-repair episodes this replica **completed** (import verified
    /// and durably re-anchored).
    pub peer_repairs: usize,
    /// Pages fetched from peers — all repair traffic, including a fetch
    /// whose post-import verification was rejected by fresh mid-repair
    /// damage (the pages were still moved and applied).
    pub repair_pages: usize,
    /// Raw bytes fetched from peers (same accounting as
    /// [`ReplicaReport::repair_pages`]).
    pub repair_bytes: usize,
    /// Times this replica served as a certified-page donor.
    pub repairs_donated: usize,
    /// Donations this replica *received* whose post-import verification
    /// rejected the pages — a byzantine donor shipping corrupted images,
    /// or fresh damage landing mid-repair. Rejected pages never reach a
    /// certified state: the replica re-enters the heal ladder instead.
    pub rejected_donations: usize,
    /// The replica's serving counters. `submitted` counts requests
    /// dispatched to it (re-dispatches after failover count again);
    /// `completed`/`rejected`/`reexecuted`, latency, and the digest
    /// cover the requests *this replica* resolved; fleet-level
    /// rejections (queue overflow, whole-fleet outage) belong to no
    /// replica and appear only in the fleet aggregate.
    pub report: ServeReport,
}

impl ReplicaReport {
    /// Renders the replica's slice as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("replica", self.replica)
            .raw("peer_repairs", self.peer_repairs)
            .raw("repair_pages", self.repair_pages)
            .raw("repair_bytes", self.repair_bytes)
            .raw("repairs_donated", self.repairs_donated)
            .raw("rejected_donations", self.rejected_donations)
            .raw("report", self.report.to_json())
            .finish()
    }
}

/// Everything a fleet run produced, aggregated three ways.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Replicas in the fleet.
    pub replicas: usize,
    /// The client-facing aggregate: counters over the whole workload,
    /// latency over every completed request, and `downtime_ns` /
    /// `availability` measured on the **fleet** clock — the fleet is
    /// down only while *zero* replicas are serving. This is the
    /// "ServeReport aggregate" the determinism contract covers.
    pub fleet: ServeReport,
    /// The capacity view: [`ServeReport::aggregate`] over the
    /// per-replica reports (mean replica availability, summed
    /// counters).
    pub capacity: ServeReport,
    /// Per-replica slices, by replica index.
    pub per_replica: Vec<ReplicaReport>,
}

impl FleetReport {
    /// Peer-repair episodes across the fleet (derived from
    /// [`FleetReport::per_replica`], so the total can never disagree
    /// with the slices).
    pub fn peer_repairs(&self) -> usize {
        self.per_replica.iter().map(|r| r.peer_repairs).sum()
    }

    /// Pages moved by peer repair across the fleet.
    pub fn repair_pages(&self) -> usize {
        self.per_replica.iter().map(|r| r.repair_pages).sum()
    }

    /// Raw bytes moved by peer repair across the fleet.
    pub fn repair_bytes(&self) -> usize {
        self.per_replica.iter().map(|r| r.repair_bytes).sum()
    }

    /// Donations rejected by post-import verification across the fleet
    /// (byzantine donors caught by the certified-donor check, plus
    /// fresh-damage rejections).
    pub fn rejected_donations(&self) -> usize {
        self.per_replica.iter().map(|r| r.rejected_donations).sum()
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("replicas", self.replicas)
            .raw("peer_repairs", self.peer_repairs())
            .raw("repair_pages", self.repair_pages())
            .raw("repair_bytes", self.repair_bytes())
            .raw("rejected_donations", self.rejected_donations())
            .raw("fleet", self.fleet.to_json())
            .raw("capacity", self.capacity.to_json())
            .raw(
                "per_replica",
                array(self.per_replica.iter().map(ReplicaReport::to_json)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_serve::LatencyStats;

    fn report(digest: u64) -> ServeReport {
        ServeReport {
            seed: 1,
            policy: "drain".into(),
            submitted: 4,
            completed: 4,
            rejected: 0,
            reexecuted: 0,
            faults_injected: 0,
            scrub_corrected: 0,
            scrub_ticks: 2,
            quarantines: 0,
            layers_recovered: 0,
            durability_errors: 0,
            total_ns: 100,
            downtime_ns: 0,
            availability: 1.0,
            latency: LatencyStats::default(),
            batches: 1,
            full_batches: 1,
            batch_occupancy: 4.0,
            digest,
            pipeline: crate::PipelineReport::default(),
            slo: None,
        }
    }

    #[test]
    fn json_nests_all_three_views() {
        let fleet = FleetReport {
            replicas: 2,
            fleet: report(7),
            capacity: ServeReport::aggregate(&[report(1), report(2)]),
            per_replica: vec![
                ReplicaReport {
                    replica: 0,
                    peer_repairs: 1,
                    repair_pages: 3,
                    repair_bytes: 96,
                    repairs_donated: 0,
                    rejected_donations: 1,
                    report: report(1),
                },
                ReplicaReport {
                    replica: 1,
                    peer_repairs: 0,
                    repair_pages: 0,
                    repair_bytes: 0,
                    repairs_donated: 1,
                    rejected_donations: 0,
                    report: report(2),
                },
            ],
        };
        assert_eq!(fleet.peer_repairs(), 1);
        assert_eq!(fleet.repair_pages(), 3);
        assert_eq!(fleet.repair_bytes(), 96);
        assert_eq!(fleet.rejected_donations(), 1);
        assert_eq!(
            fleet.to_json(),
            format!(
                concat!(
                    r#"{{"replicas":2,"peer_repairs":1,"repair_pages":3,"repair_bytes":96,"#,
                    r#""rejected_donations":1,"fleet":{},"capacity":{},"per_replica":["#,
                    r#"{{"replica":0,"peer_repairs":1,"repair_pages":3,"repair_bytes":96,"#,
                    r#""repairs_donated":0,"rejected_donations":1,"report":{}}},"#,
                    r#"{{"replica":1,"peer_repairs":0,"repair_pages":0,"repair_bytes":0,"#,
                    r#""repairs_donated":1,"rejected_donations":0,"report":{}}}]}}"#
                ),
                fleet.fleet.to_json(),
                fleet.capacity.to_json(),
                report(1).to_json(),
                report(2).to_json()
            )
        );
    }
}
