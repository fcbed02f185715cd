//! `campaign_matrix`: runs the builtin chaos-campaign roster (or a
//! `--campaign`-selected subset) through both deterministic
//! simulations — single-instance serving and the replicated fleet —
//! and emits one JSON summary of per-campaign verdicts.
//!
//! ```text
//! cargo run --release -p milr-bench --bin campaign_matrix
//! cargo run --release -p milr-bench --bin campaign_matrix -- \
//!     --campaign byzantine-donors --campaign skewed-storm \
//!     --slo-gate --artifact-dir out --json BENCH_campaigns.json
//! ```
//!
//! Every campaign run is seed-deterministic: the same roster on the
//! same model prints byte-identical `CampaignReport` JSON. `--slo-gate`
//! turns the aggregated verdict into the exit code (the CI regression
//! gate over the nastiest campaigns); `--artifact-dir DIR` writes one
//! fleet trace (`TRACE_campaign_<name>.jsonl`) and one SLO verdict
//! (`SLO_campaign_<name>.json`) per campaign.

use milr_bench::campaigns::{builtin_campaigns, run_campaign_observed, MatrixTuning, CI_GATED};
use milr_bench::json::write_summary;
use milr_bench::obs::ObsOutputs;
use milr_obs::json::{array, JsonObject};

struct Cli {
    tuning: MatrixTuning,
    model_seed: u64,
    selected: Vec<String>,
    artifact_dir: Option<String>,
    json: Option<String>,
    slo_gate: bool,
    list: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut tuning = MatrixTuning::default();
    let mut model_seed = 42u64;
    let mut selected = Vec::new();
    let mut artifact_dir = None;
    let mut json = None;
    let mut slo_gate = false;
    let mut list = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--requests" => {
                tuning.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--replicas" => {
                tuning.replicas = value("--replicas")?
                    .parse()
                    .map_err(|e| format!("bad --replicas: {e}"))?
            }
            "--model-seed" => {
                model_seed = value("--model-seed")?
                    .parse()
                    .map_err(|e| format!("bad --model-seed: {e}"))?
            }
            "--campaign" => selected.push(value("--campaign")?),
            "--nastiest" => selected.extend(CI_GATED.iter().map(|s| s.to_string())),
            "--artifact-dir" => artifact_dir = Some(value("--artifact-dir")?),
            "--json" => json = Some(value("--json")?),
            "--slo-gate" => slo_gate = true,
            "--list" => list = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        tuning,
        model_seed,
        selected,
        artifact_dir,
        json,
        slo_gate,
        list,
    })
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: [--requests N] [--replicas N] [--model-seed N] [--campaign NAME]... \
                 [--nastiest] [--artifact-dir DIR] [--slo-gate] [--list] [--json FILE]"
            );
            std::process::exit(2);
        }
    };
    let roster = builtin_campaigns();
    if cli.list {
        println!("# builtin campaigns");
        for c in &roster {
            println!(
                "{:<18} seed {:#x}  chaos {}{}",
                c.name,
                c.seed,
                c.chaos.to_json(),
                if CI_GATED.contains(&c.name.as_str()) {
                    "  [ci-gated]"
                } else {
                    ""
                }
            );
        }
        return;
    }
    let campaigns: Vec<_> = if cli.selected.is_empty() {
        roster
    } else {
        for name in &cli.selected {
            if !roster.iter().any(|c| &c.name == name) {
                eprintln!("error: unknown campaign {name} (try --list)");
                std::process::exit(2);
            }
        }
        roster
            .into_iter()
            .filter(|c| cli.selected.contains(&c.name))
            .collect()
    };
    if let Some(dir) = &cli.artifact_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: create {dir}: {e}");
            std::process::exit(1);
        }
    }

    let net = milr_models::reduced_mnist(cli.model_seed);
    println!("# campaign_matrix — declarative chaos campaigns [reduced MNIST twin]");
    println!(
        "matrix:   {} campaign(s) x (serve + fleet), {} requests, {} replicas",
        campaigns.len(),
        cli.tuning.requests,
        cli.tuning.replicas
    );

    let mut reports = Vec::new();
    for campaign in &campaigns {
        // Per-campaign observability: the fleet run (the richer
        // target) writes one trace and one SLO artifact when asked.
        let obs_out = match &cli.artifact_dir {
            Some(dir) => ObsOutputs::from_flags(
                Some(format!("{dir}/TRACE_campaign_{}.jsonl", campaign.name)),
                None,
            )
            .with_slo(Some(format!("{dir}/SLO_campaign_{}.json", campaign.name))),
            None => ObsOutputs::from_flags(None, None),
        };
        let report = run_campaign_observed(&net.model, campaign, &cli.tuning, &obs_out.observer())
            .expect("campaign simulation cannot fail structurally");
        println!(
            "{:<18} {}  serve[digest {:#x}, {}/{} ok, slo {}]  fleet[digest {:#x}, {}/{} ok, \
             {} peer repair(s), {} rejected donation(s), slo {}]",
            report.campaign.name,
            if report.pass() { "PASS" } else { "FAIL" },
            report.serve.digest,
            report.serve.completed,
            cli.tuning.requests,
            if report.serve.slo.pass {
                "pass"
            } else {
                "FAIL"
            },
            report.fleet.digest,
            report.fleet.completed,
            cli.tuning.requests,
            report.fleet.peer_repairs,
            report.fleet.rejected_donations,
            if report.fleet.slo.pass {
                "pass"
            } else {
                "FAIL"
            },
        );
        let c = &report.fleet.chaos;
        println!(
            "  chaos:  {} burst(s) ({} bits), {} stuck re-assert(s), {} torn write(s) [fleet]{}",
            c.bursts_fired,
            c.burst_bits,
            c.stuck_asserts,
            c.torn_fires,
            if report.campaign.chaos.byzantine.is_some() {
                format!(
                    ", byzantine {}",
                    if report.byzantine_caught() {
                        "caught"
                    } else {
                        "NOT CAUGHT"
                    }
                )
            } else {
                String::new()
            }
        );
        obs_out.flush();
        obs_out.write_slo(Some(&report.fleet.slo));
        reports.push(report);
    }

    let all_pass = reports.iter().all(|r| r.pass());
    println!(
        "verdict:  {} ({}/{} campaigns passed)",
        if all_pass { "PASS" } else { "FAIL" },
        reports.iter().filter(|r| r.pass()).count(),
        reports.len()
    );

    let json = JsonObject::new()
        .raw("requests", cli.tuning.requests)
        .raw("replicas", cli.tuning.replicas)
        .raw("campaigns", array(reports.iter().map(|r| r.to_json())))
        .raw("pass", all_pass)
        .finish();
    write_summary(&json, cli.json.as_deref());

    if cli.slo_gate && !all_pass {
        eprintln!("slo-gate: FAIL (at least one campaign blew its declared SLO suite)");
        std::process::exit(1);
    }
    if cli.slo_gate {
        println!("slo-gate: PASS (every campaign held its declared SLO suite)");
    }
}
