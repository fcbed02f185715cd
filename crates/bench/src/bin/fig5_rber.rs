//! Figures 5 / 7 / 9: normalized accuracy after recovery from varying
//! RBER, box-plot statistics over repeated trials. Default panels are
//! the paper's four DRAM arms (no recovery, ECC, MILR, ECC + MILR);
//! `--arms encrypted` or `--arms all` adds the encrypted-VM arms (XTS,
//! XTS + MILR, XTS + ECC + MILR), where RBER is drawn over the
//! ciphertext. `--json FILE` writes the full panel × rate matrix as a
//! machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin fig5_rber -- --net mnist --trials 40
//! cargo run --release -p milr-bench --bin fig5_rber -- --arms all --json fig5.json
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, run_rber_trial, Args, BoxStats, NetChoice};
use milr_obs::json::{array, JsonObject};

fn rates(net: NetChoice) -> Vec<f64> {
    // Paper x-axes: MNIST sweeps to 1e-3; the CIFAR nets to 5e-4.
    let base = [1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4];
    match net {
        NetChoice::Mnist => base.iter().copied().chain([1e-3]).collect(),
        _ => base.to_vec(),
    }
}

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    println!(
        "# Figure 5/7/9 — {} — normalized accuracy vs RBER ({} trials, clean accuracy {:.3})",
        prep.label, args.trials, prep.clean_accuracy
    );
    let mut panels = Vec::new();
    for &arm in args.arms.arms() {
        println!("\n## panel: {arm}");
        let mut points = Vec::new();
        for &rate in &rates(args.net) {
            let samples: Vec<f64> = (0..args.trials)
                .map(|t| {
                    run_rber_trial(
                        &prep,
                        arm,
                        rate,
                        args.seed ^ (t as u64) << 20 ^ rate.to_bits(),
                    )
                    .normalized
                })
                .collect();
            let stats = BoxStats::compute(&samples);
            println!("rber {rate:7.0e}  {}", stats.row());
            points.push(
                JsonObject::new()
                    .raw("rber", format!("{rate:e}"))
                    .raw("normalized_accuracy", stats.to_json())
                    .finish(),
            );
        }
        panels.push(
            JsonObject::new()
                .string("arm", &arm.to_string())
                .raw("points", array(points))
                .finish(),
        );
    }
    let json = JsonObject::new()
        .string("figure", "fig5_rber")
        .string("net", &prep.label)
        .raw("trials", args.trials)
        .float("clean_accuracy", prep.clean_accuracy, 6)
        .raw("panels", array(panels))
        .finish();
    write_summary(&json, args.json.as_deref());
}
