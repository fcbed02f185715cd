//! Tables IV / VI / VIII: whole-layer corruption — every parameter of
//! one layer replaced by a random value, accuracy before and after MILR
//! recovery, per layer. "N/A *" marks convolution layers on the partial
//! recoverability path, which by design cannot fully recover from
//! whole-layer corruption (§V-B). `--json FILE` writes the rows as a
//! machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin table4_layer -- --net mnist
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, run_layer_corruption, Args, Scale};
use milr_obs::json::{array, JsonObject};

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    println!(
        "# Table IV/VI/VIII — {} — whole-layer corruption (clean accuracy {:.3})",
        prep.label, prep.clean_accuracy
    );
    println!("{:<10} {:<8} {:>8} {:>14}", "Layer", "Kind", "None", "MILR");
    let rows = run_layer_corruption(&prep, args.seed);
    for row in &rows {
        let milr = if row.partial_marker {
            format!("{:6.1}% *N/A", row.milr_normalized * 100.0)
        } else {
            format!("{:6.1}%", row.milr_normalized * 100.0)
        };
        println!(
            "{:<10} {:<8} {:>7.1}% {:>14}",
            row.index,
            row.kind,
            row.none_normalized * 100.0,
            milr
        );
    }
    println!("\n* convolution partial recoverable (least-squares approximation)");
    let rows = rows.iter().map(|row| {
        JsonObject::new()
            .raw("index", row.index)
            .string("kind", &row.kind)
            .float("none_normalized", row.none_normalized, 6)
            .float("milr_normalized", row.milr_normalized, 6)
            .raw("partial", row.partial_marker)
            .finish()
    });
    let scale = match args.scale {
        Scale::Reduced => "reduced",
        Scale::Paper => "paper",
    };
    let json = JsonObject::new()
        .string("table", "table4_layer")
        .string("net", &prep.label)
        .string("scale", scale)
        .raw("seed", args.seed)
        .float("clean_accuracy", prep.clean_accuracy, 6)
        .raw("rows", array(rows))
        .finish();
    write_summary(&json, args.json.as_deref());
}
