//! Chaos-campaign matrix driver: runs declarative [`Campaign`]s from
//! `milr-fault` through **both** deterministic simulations — the
//! single-instance serving sim and the replicated fleet sim — and
//! folds each run's SLO verdict, chaos ground truth, and digest into
//! one byte-reproducible [`CampaignReport`].
//!
//! The campaign declares *what* goes wrong (correlated bursts, stuck-at
//! pages, torn writes mid-heal, byzantine donors, schedule skew) and
//! *what must still hold* (its SLO suite); this module owns the mapping
//! from those declarations onto concrete `SimConfig` / `FleetConfig`
//! runs. Everything downstream of a fixed seed is deterministic, so the
//! report JSON is byte-identical run over run — which is what lets the
//! nastiest campaigns sit in CI as `--slo-gate` regression scenarios.

use milr_core::MilrConfig;
use milr_fault::{
    BurstPattern, BurstSpec, ByzantineSpec, Campaign, ChaosSpec, SkewSpec, SloDecl, SloDeclKind,
    StuckAtSpec, TornWriteSpec,
};
use milr_fleet::{FleetConfig, FleetError};
use milr_nn::Sequential;
use milr_obs::json::JsonObject;
use milr_obs::{Observer, SloReport, SloSpec};
use milr_serve::sim::SimConfig;
use milr_serve::ChaosStats;
use milr_substrate::SubstrateKind;

/// The campaigns CI locks in as `--slo-gate` regression scenarios —
/// the two nastiest of the builtin roster: the byzantine-donor
/// campaign (the certified-donor check must catch every corrupted
/// donation) and the kitchen-sink storm (bursts + stuck-at + torn
/// writes + schedule skew at once).
pub const CI_GATED: [&str; 2] = ["byzantine-donors", "skewed-storm"];

/// Workload knobs the matrix driver applies to every campaign (the
/// campaign itself owns seed, chaos composition, and SLOs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixTuning {
    /// Requests per simulated run.
    pub requests: usize,
    /// Replicas in the fleet run.
    pub replicas: usize,
}

impl Default for MatrixTuning {
    fn default() -> Self {
        MatrixTuning {
            requests: 120,
            replicas: 3,
        }
    }
}

fn decl(kind: SloDeclKind, objective_milli: u32) -> SloDecl {
    SloDecl {
        kind,
        objective_milli,
        latency_threshold_ns: 0,
    }
}

/// The latency bar campaigns declare: a request stalled behind a full
/// quarantine-plus-redeploy episode must still answer within 400 ms of
/// virtual time — a guard against catastrophic stall, not a p99 tuned
/// to the fault-free service time (the campaigns *deliberately* spend
/// multi-millisecond outages; see `SloEngine::serving_defaults` for
/// why "fast and three nines" would just mean "always red").
const LATENCY_BAR_NS: u64 = 400_000_000;

/// One campaign's declared suite. Objectives are campaign-scaled and
/// shared by both targets, so they sit at the single-instance bar —
/// the fleet clears them with room, the single instance barely.
/// `heal_milli: None` drops the heal-exactness objective (campaigns
/// whose damage legitimately exceeds exact-heal capacity declare no
/// bit-exactness promise; the redeploy path restores golden state
/// without a heal ever being "exact").
fn suite(avail_milli: u32, latency_milli: u32, heal_milli: Option<u32>) -> Vec<SloDecl> {
    let mut slos = vec![
        decl(SloDeclKind::Availability, avail_milli),
        SloDecl {
            kind: SloDeclKind::LatencyP99,
            objective_milli: latency_milli,
            latency_threshold_ns: LATENCY_BAR_NS,
        },
    ];
    if let Some(heal) = heal_milli {
        slos.push(decl(SloDeclKind::HealExactness, heal));
    }
    slos.push(decl(SloDeclKind::Durability, 900));
    slos
}

/// Maps a campaign's numeric SLO declarations onto the observability
/// plane's [`SloSpec`] suite (the one place the two vocabularies
/// meet).
pub fn slo_suite(decls: &[SloDecl]) -> Vec<SloSpec> {
    decls
        .iter()
        .map(|d| {
            let objective = f64::from(d.objective_milli) / 1000.0;
            match d.kind {
                SloDeclKind::Availability => SloSpec::availability(objective),
                SloDeclKind::LatencyP99 => SloSpec::latency_p99(d.latency_threshold_ns, objective),
                SloDeclKind::HealExactness => SloSpec::heal_exactness(objective),
                SloDeclKind::Durability => SloSpec::durability(objective),
            }
        })
        .collect()
}

/// The builtin campaign roster: one campaign per correlated-fault
/// regime, plus the two [`CI_GATED`] composites.
pub fn builtin_campaigns() -> Vec<Campaign> {
    vec![
        Campaign {
            name: "row-burst".into(),
            seed: 0xCA11_0001,
            chaos: ChaosSpec {
                bursts: Some(BurstSpec {
                    pattern: BurstPattern::Row,
                    bursts: 3,
                    flip_prob_milli: 300,
                }),
                ..ChaosSpec::default()
            },
            slos: suite(200, 300, None),
        },
        Campaign {
            name: "column-stuck".into(),
            seed: 0xCA11_0002,
            chaos: ChaosSpec {
                bursts: Some(BurstSpec {
                    pattern: BurstPattern::Column,
                    bursts: 2,
                    flip_prob_milli: 400,
                }),
                stuck_at: Some(StuckAtSpec {
                    bits: 8,
                    from_milli: 100,
                    until_milli: 700,
                }),
                ..ChaosSpec::default()
            },
            slos: suite(500, 300, Some(250)),
        },
        Campaign {
            name: "torn-heal".into(),
            seed: 0xCA11_0003,
            chaos: ChaosSpec {
                torn_write: Some(TornWriteSpec {
                    stage: "Heal".into(),
                    fires: 2,
                    flips: 6,
                }),
                ..ChaosSpec::default()
            },
            slos: suite(500, 300, Some(250)),
        },
        Campaign {
            name: "byzantine-donors".into(),
            seed: 0xCA11_0004,
            chaos: ChaosSpec {
                byzantine: Some(ByzantineSpec {
                    donors: vec![0, 1],
                    flips: 24,
                }),
                ..ChaosSpec::default()
            },
            slos: suite(500, 300, Some(250)),
        },
        Campaign {
            name: "skewed-storm".into(),
            seed: 0xCA11_0005,
            chaos: ChaosSpec {
                bursts: Some(BurstSpec {
                    pattern: BurstPattern::DoubleSidedRow,
                    bursts: 2,
                    flip_prob_milli: 400,
                }),
                stuck_at: Some(StuckAtSpec {
                    bits: 6,
                    from_milli: 100,
                    until_milli: 600,
                }),
                torn_write: Some(TornWriteSpec {
                    stage: "Verify".into(),
                    fires: 1,
                    flips: 4,
                }),
                skew: Some(SkewSpec {
                    arrival_milli: 900,
                    scrub_milli: 1200,
                }),
                ..ChaosSpec::default()
            },
            slos: suite(300, 300, Some(250)),
        },
    ]
}

/// The serving-sim half of a campaign run: the campaign's seed, chaos
/// overlay, and SLO suite over the matrix workload, on the ECC
/// substrate (bursts and stuck-at cells are raw-image regimes; the
/// interesting question is what leaks *through* the ECC layer).
pub fn serve_config(campaign: &Campaign, tuning: &MatrixTuning) -> SimConfig {
    SimConfig {
        seed: campaign.seed,
        requests: tuning.requests,
        faults: 1,
        kind: SubstrateKind::Secded,
        chaos: Some(campaign.chaos.clone()),
        slo_specs: Some(slo_suite(&campaign.slos)),
        ..SimConfig::default()
    }
}

/// The fleet half: same derivation, plus one beyond-MILR-capacity
/// heavy fault whenever the campaign fields byzantine donors — peer
/// repair must actually happen for a corrupted donation to exist.
pub fn fleet_config(campaign: &Campaign, tuning: &MatrixTuning) -> FleetConfig {
    FleetConfig {
        seed: campaign.seed,
        replicas: tuning.replicas,
        requests: tuning.requests,
        faults: 1,
        heavy_faults: usize::from(campaign.chaos.byzantine.is_some()),
        chaos: Some(campaign.chaos.clone()),
        slo_specs: Some(slo_suite(&campaign.slos)),
        ..FleetConfig::default()
    }
}

fn chaos_json(c: &ChaosStats) -> String {
    JsonObject::new()
        .raw("bursts_fired", c.bursts_fired)
        .raw("burst_bits", c.burst_bits)
        .raw("stuck_asserts", c.stuck_asserts)
        .raw("torn_fires", c.torn_fires)
        .raw("redeploys", c.redeploys)
        .finish()
}

/// One simulation target's slice of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetVerdict {
    /// `"serve"` or `"fleet"`.
    pub target: &'static str,
    /// The run's output digest (seed-reproducible).
    pub digest: u64,
    /// Requests completed.
    pub completed: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Faults injected (workload faults plus chaos injections).
    pub faults_injected: usize,
    /// Completed peer-repair episodes (fleet only; 0 for serve).
    pub peer_repairs: usize,
    /// Donations rejected by post-import verification (fleet only).
    pub rejected_donations: usize,
    /// What the chaos overlay actually injected.
    pub chaos: ChaosStats,
    /// The run's SLO verdict against the campaign's declared suite.
    pub slo: SloReport,
}

impl TargetVerdict {
    /// Deterministic JSON object (stable key order).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("target", self.target)
            .raw("digest", self.digest)
            .raw("completed", self.completed)
            .raw("rejected", self.rejected)
            .raw("faults_injected", self.faults_injected)
            .raw("peer_repairs", self.peer_repairs)
            .raw("rejected_donations", self.rejected_donations)
            .raw("chaos", chaos_json(&self.chaos))
            .raw("slo", self.slo.to_json())
            .raw("pass", self.slo.pass)
            .finish()
    }
}

/// The full verdict of one campaign across both simulation targets.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign that ran (name, seed, chaos, declared SLOs).
    pub campaign: Campaign,
    /// The single-instance serving run.
    pub serve: TargetVerdict,
    /// The replicated fleet run.
    pub fleet: TargetVerdict,
}

impl CampaignReport {
    /// True when the campaign fielded no byzantine donors, or the
    /// certified-donor check caught at least one corrupted donation.
    /// A byzantine campaign where nothing was caught is a *harness*
    /// failure — the adversary never engaged — and must not pass.
    pub fn byzantine_caught(&self) -> bool {
        self.campaign.chaos.byzantine.is_none() || self.fleet.rejected_donations > 0
    }

    /// The campaign verdict: both targets hold their declared SLO
    /// suite, and any declared byzantine adversary was caught.
    pub fn pass(&self) -> bool {
        self.serve.slo.pass && self.fleet.slo.pass && self.byzantine_caught()
    }

    /// Deterministic JSON object: same seed in, same bytes out.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("campaign", self.campaign.to_json())
            .raw("serve", self.serve.to_json())
            .raw("fleet", self.fleet.to_json())
            .raw("byzantine_caught", self.byzantine_caught())
            .raw("pass", self.pass())
            .finish()
    }
}

/// Runs one campaign through both simulations with an [`Observer`]
/// threaded through the fleet run (the richer target: per-replica
/// trace sources, peer-repair events). The observer never changes the
/// run — the returned report is byte-identical with or without one.
///
/// # Errors
///
/// Propagates MILR protection/detection/recovery and store failures.
pub fn run_campaign_observed(
    model: &Sequential,
    campaign: &Campaign,
    tuning: &MatrixTuning,
    obs: &Observer,
) -> Result<CampaignReport, FleetError> {
    let serve_result = milr_serve::sim::simulate(
        model,
        MilrConfig::default(),
        &serve_config(campaign, tuning),
    )?;
    let sr = &serve_result.report;
    let serve = TargetVerdict {
        target: "serve",
        digest: sr.digest,
        completed: sr.completed,
        rejected: sr.rejected,
        faults_injected: sr.faults_injected,
        peer_repairs: 0,
        rejected_donations: 0,
        chaos: serve_result.chaos.unwrap_or_default(),
        slo: sr
            .slo
            .clone()
            .expect("serve run carries the campaign SLO suite"),
    };
    let fleet_result = milr_fleet::sim::simulate_observed(
        model,
        MilrConfig::default(),
        &fleet_config(campaign, tuning),
        obs,
    )?;
    let fr = &fleet_result.report;
    let fleet = TargetVerdict {
        target: "fleet",
        digest: fr.fleet.digest,
        completed: fr.fleet.completed,
        rejected: fr.fleet.rejected,
        faults_injected: fr.fleet.faults_injected,
        peer_repairs: fr.peer_repairs(),
        rejected_donations: fr.rejected_donations(),
        chaos: fleet_result.chaos.unwrap_or_default(),
        slo: fr
            .fleet
            .slo
            .clone()
            .expect("fleet run carries the campaign SLO suite"),
    };
    Ok(CampaignReport {
        campaign: campaign.clone(),
        serve,
        fleet,
    })
}

/// [`run_campaign_observed`] without observation.
///
/// # Errors
///
/// As [`run_campaign_observed`].
pub fn run_campaign(
    model: &Sequential,
    campaign: &Campaign,
    tuning: &MatrixTuning,
) -> Result<CampaignReport, FleetError> {
    run_campaign_observed(model, campaign, tuning, &Observer::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_models::serving_probe;

    fn small_tuning() -> MatrixTuning {
        MatrixTuning {
            requests: 60,
            replicas: 3,
        }
    }

    #[test]
    fn roster_names_are_unique_and_cover_the_ci_gate() {
        let roster = builtin_campaigns();
        let names: Vec<&str> = roster.iter().map(|c| c.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate campaign names");
        for gated in CI_GATED {
            assert!(names.contains(&gated), "CI-gated {gated} not in roster");
        }
        // Every campaign declares a non-empty chaos overlay and SLOs.
        for c in &roster {
            assert!(!c.chaos.is_quiet(), "{} is quiet", c.name);
            assert!(!c.slos.is_empty(), "{} declares no SLOs", c.name);
        }
    }

    #[test]
    fn slo_suite_maps_every_declared_kind() {
        let specs = slo_suite(&suite(500, 300, Some(250)));
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].name, "availability");
        assert!((specs[0].objective - 0.5).abs() < 1e-12);
        assert_eq!(specs[1].latency_threshold_ns, LATENCY_BAR_NS);
        assert!((specs[1].objective - 0.3).abs() < 1e-12);
        assert_eq!(specs[2].name, "heal_exactness");
        assert_eq!(specs[3].name, "durability");
        // Campaigns may decline the heal-exactness objective.
        assert_eq!(slo_suite(&suite(200, 300, None)).len(), 3);
    }

    #[test]
    fn campaign_report_json_is_byte_identical_across_runs() {
        let model = serving_probe(11);
        let campaign = builtin_campaigns()
            .into_iter()
            .find(|c| c.name == "skewed-storm")
            .unwrap();
        let tuning = small_tuning();
        let a = run_campaign(&model, &campaign, &tuning).unwrap();
        let b = run_campaign(&model, &campaign, &tuning).unwrap();
        assert_eq!(a, b, "campaign run diverged under a fixed seed");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "campaign report JSON not byte-identical"
        );
        // The chaos overlay actually engaged on both targets.
        assert!(a.serve.chaos.bursts_fired > 0);
        assert!(a.fleet.chaos.bursts_fired > 0);
        assert!(a
            .to_json()
            .contains("\"campaign\":{\"name\":\"skewed-storm\""));

        let serve = TargetVerdict {
            target: "serve",
            digest: 12_345,
            completed: 50,
            rejected: 10,
            faults_injected: 4,
            peer_repairs: 0,
            rejected_donations: 0,
            chaos: ChaosStats {
                bursts_fired: 2,
                burst_bits: 37,
                stuck_asserts: 5,
                torn_fires: 1,
                redeploys: 0,
            },
            slo: SloReport {
                pass: false,
                alerts: 3,
                budgets: Vec::new(),
            },
        };
        let pinned = CampaignReport {
            campaign: Campaign {
                name: "pinned".into(),
                seed: 9,
                chaos: ChaosSpec::default(),
                slos: vec![decl(SloDeclKind::Durability, 900)],
            },
            fleet: TargetVerdict {
                target: "fleet",
                peer_repairs: 2,
                rejected_donations: 1,
                ..serve.clone()
            },
            serve,
        };
        assert_eq!(
            pinned.to_json(),
            "{\"campaign\":{\"name\":\"pinned\",\"seed\":9,\"chaos\":{},\
            \"slos\":[{\"kind\":\"durability\",\"objective_milli\":900,\
            \"latency_threshold_ns\":0}]},\"serve\":{\"target\":\"serve\",\"digest\":12345,\
            \"completed\":50,\"rejected\":10,\"faults_injected\":4,\"peer_repairs\":0,\
            \"rejected_donations\":0,\"chaos\":{\"bursts_fired\":2,\"burst_bits\":37,\
            \"stuck_asserts\":5,\"torn_fires\":1,\"redeploys\":0},\"slo\":{\"pass\":false,\
            \"alerts\":3,\"budgets\":[]},\"pass\":false},\"fleet\":{\"target\":\"fleet\",\
            \"digest\":12345,\"completed\":50,\"rejected\":10,\"faults_injected\":4,\
            \"peer_repairs\":2,\"rejected_donations\":1,\"chaos\":{\"bursts_fired\":2,\
            \"burst_bits\":37,\"stuck_asserts\":5,\"torn_fires\":1,\"redeploys\":0},\
            \"slo\":{\"pass\":false,\"alerts\":3,\"budgets\":[]},\"pass\":false},\
            \"byzantine_caught\":true,\"pass\":false}"
        );
    }

    #[test]
    fn byzantine_campaign_catches_the_adversary() {
        let model = serving_probe(11);
        let campaign = builtin_campaigns()
            .into_iter()
            .find(|c| c.name == "byzantine-donors")
            .unwrap();
        let report = run_campaign(&model, &campaign, &small_tuning()).unwrap();
        assert!(
            report.fleet.rejected_donations >= 1,
            "byzantine donor was never caught"
        );
        assert!(report.byzantine_caught());
        let json = report.to_json();
        assert!(json.contains("\"byzantine_caught\":true"));
    }
}
