//! Ablation: the dense self-recovery extension (`MilrConfig::
//! dense_self_recovery`). Paper-faithful MILR couples a dense layer's
//! recovery to propagated values that may pass through other corrupted
//! layers in the same checkpoint segment; the extension stores one
//! extra dummy row per dense layer and decouples it. This sweep shows
//! the normalized-accuracy effect at high RBER. `--json FILE` writes
//! both arms' rows as a machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin ablation_dense_self_recovery
//! ```

use milr_bench::json::write_summary;
use milr_bench::nets::prepare_with_config;
use milr_bench::{run_rber_trial, Args, Arm, BoxStats};
use milr_core::MilrConfig;
use milr_obs::json::{array, JsonObject};

fn main() {
    let args = Args::from_env();
    println!("# Ablation — dense self-recovery extension vs paper-faithful MILR");
    let mut arms = Vec::new();
    for (label, cfg) in [
        ("paper-faithful", MilrConfig::default()),
        (
            "self-recovery",
            MilrConfig {
                dense_self_recovery: true,
                ..MilrConfig::default()
            },
        ),
    ] {
        let prep = prepare_with_config(args.net, args.scale, args.seed, cfg);
        println!("\n## {label} ({})", prep.label);
        let mut rows = Vec::new();
        for &rate in &[1e-5f64, 1e-4, 5e-4, 1e-3] {
            let samples: Vec<f64> = (0..args.trials)
                .map(|t| {
                    run_rber_trial(&prep, Arm::MILR, rate, args.seed ^ (t as u64) << 16).normalized
                })
                .collect();
            let stats = BoxStats::compute(&samples);
            println!("rber {rate:7.0e}  {}", stats.row());
            rows.push(
                JsonObject::new()
                    .raw("rber", rate)
                    .raw("normalized_accuracy", stats.to_json())
                    .finish(),
            );
        }
        arms.push(
            JsonObject::new()
                .string("arm", label)
                .string("net", &prep.label)
                .raw("rows", array(rows))
                .finish(),
        );
    }
    let json = JsonObject::new()
        .string("table", "ablation_dense_self_recovery")
        .raw("trials", args.trials)
        .raw("seed", args.seed)
        .raw("arms", array(arms))
        .finish();
    write_summary(&json, args.json.as_deref());
}
