//! Ablation: the initialization-phase planning decisions — checkpoint
//! placement, dummy-data choices and the checkpoint-vs-dummy cost
//! comparison the paper describes in §III. `--json FILE` writes the
//! plan and the storage comparison as a machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin ablation_plan -- --net mnist
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, Args};
use milr_obs::json::{array, JsonObject};

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    let plan = prep.milr.plan();
    println!("# Protection plan — {}", prep.label);
    println!(
        "checkpoints at positions {:?} ({} segments, recoverable-layer budget {})",
        plan.checkpoints,
        plan.segments().len(),
        plan.recoverable_layer_budget()
    );
    println!(
        "\n{:<6} {:<12} {:>10}  {:<26} {:<20}",
        "Layer", "Kind", "Params", "Solving", "Inversion"
    );
    let mut layers = Vec::new();
    for lp in &plan.layers {
        let solving = lp
            .solving
            .map(|s| format!("{s:?}"))
            .unwrap_or_else(|| "-".into());
        let inversion = format!("{:?}", lp.inversion);
        println!(
            "{:<6} {:<12} {:>10}  {:<26} {:<20}",
            lp.index, lp.kind, lp.param_count, solving, inversion,
        );
        layers.push(
            JsonObject::new()
                .raw("index", lp.index)
                .string("kind", &lp.kind.to_string())
                .raw("params", lp.param_count)
                .string("solving", &solving)
                .string("inversion", &inversion)
                .finish(),
        );
    }
    let report = prep.milr.storage_report(&prep.model);
    println!(
        "\nstorage: MILR {} bytes vs backup {} bytes (ratio {:.3})",
        report.milr_bytes(),
        report.backup_bytes,
        report.fraction_of_backup()
    );
    let json = JsonObject::new()
        .string("table", "ablation_plan")
        .string("net", &prep.label)
        .raw("seed", args.seed)
        .raw("checkpoints", array(&plan.checkpoints))
        .raw("segments", plan.segments().len())
        .raw("recoverable_layer_budget", plan.recoverable_layer_budget())
        .raw("layers", array(layers))
        .raw("milr_bytes", report.milr_bytes())
        .raw("backup_bytes", report.backup_bytes)
        .float("fraction_of_backup", report.fraction_of_backup(), 6)
        .finish();
    write_summary(&json, args.json.as_deref());
}
