//! Tables V / VII / IX: storage overhead of backup weights vs ECC vs
//! MILR vs ECC + MILR, in MB.
//!
//! ```text
//! cargo run --release -p milr-bench --bin table_storage -- --net mnist --paper-scale
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, Args};
use milr_obs::json::JsonObject;

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    let report = prep.milr.storage_report(&prep.model);
    println!("# Table V/VII/IX — {} — storage overhead (MB)", prep.label);
    println!(
        "{:>10} {:>8} {:>8} {:>10}",
        "Backup", "ECC", "MILR", "ECC&MILR"
    );
    println!("{}", report.table_row());
    println!("\nMILR breakdown (bytes):");
    println!(
        "  full checkpoints:    {:>12}",
        report.full_checkpoint_bytes
    );
    println!(
        "  partial checkpoints: {:>12}",
        report.partial_checkpoint_bytes
    );
    println!("  dummy outputs:       {:>12}", report.dummy_output_bytes);
    println!("  2-D CRC codes:       {:>12}", report.crc_bytes);
    println!("  bias sums:           {:>12}", report.bias_sum_bytes);
    println!("  seeds:               {:>12}", report.seed_bytes);
    println!(
        "  MILR / backup ratio: {:>12.3}",
        report.fraction_of_backup()
    );
    // Machine-readable twin of the table row.
    let json = JsonObject::new()
        .string("net", &prep.label)
        .raw("storage", report.to_json())
        .finish();
    write_summary(&json, args.json.as_deref());
}
