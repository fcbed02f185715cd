//! Figures 6 / 8 / 10: normalized accuracy after recovery from
//! whole-weight errors (every bit of a selected weight flipped) at
//! varying rates — the plaintext-space signature of ciphertext errors.
//! Panels: no recovery and MILR (ECC is pointless against 32-bit
//! errors, §V-B; whole-weight errors are substrate-independent by
//! definition, so the encrypted arms would duplicate these panels).
//! `--json FILE` writes the panel × rate matrix as a machine-readable
//! summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin fig6_whole_weight -- --net mnist
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, run_whole_weight_trial, Args, Arm, BoxStats};
use milr_obs::json::{array, JsonObject};

const RATES: [f64; 10] = [1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3];

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    println!(
        "# Figure 6/8/10 — {} — whole-weight errors ({} trials, clean accuracy {:.3})",
        prep.label, args.trials, prep.clean_accuracy
    );
    let mut panels = Vec::new();
    for arm in [Arm::NONE, Arm::MILR] {
        println!("\n## panel: {arm}");
        let mut points = Vec::new();
        for &rate in &RATES {
            let samples: Vec<f64> = (0..args.trials)
                .map(|t| {
                    run_whole_weight_trial(
                        &prep,
                        arm,
                        rate,
                        args.seed ^ (t as u64) << 20 ^ rate.to_bits(),
                    )
                    .normalized
                })
                .collect();
            let stats = BoxStats::compute(&samples);
            println!("q {rate:7.0e}  {}", stats.row());
            points.push(
                JsonObject::new()
                    .raw("q", format!("{rate:e}"))
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
        .string("figure", "fig6_whole_weight")
        .string("net", &prep.label)
        .raw("trials", args.trials)
        .float("clean_accuracy", prep.clean_accuracy, 6)
        .raw("panels", array(panels))
        .finish();
    write_summary(&json, args.json.as_deref());
}
