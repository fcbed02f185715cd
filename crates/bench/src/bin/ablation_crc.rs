//! Ablation: 2-D CRC group width — localization precision (false
//! positives) vs metadata storage. The paper fixes the group at 4
//! parameters (§IV-B-c); this sweep shows why that is a sweet spot.
//!
//! `--json FILE` writes the rows as a machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin ablation_crc
//! ```

use milr_bench::json::write_summary;
use milr_bench::Args;
use milr_ecc::Crc2d;
use milr_fault::FaultRng;
use milr_obs::json::{array, JsonObject};

fn main() {
    let args = Args::from_env();
    let (rows, cols) = (32usize, 64usize); // a (Z, Y) filter slice
    let grid: Vec<f32> = (0..rows * cols).map(|i| (i as f32).sin()).collect();
    println!("# Ablation — 2-D CRC group width on a {rows}x{cols} parameter slice");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "group", "codes(B)", "errors", "flagged", "false+"
    );
    let mut table = Vec::new();
    for group in [2usize, 4, 8, 16] {
        let cfg = Crc2d::with_group(rows, cols, group);
        let codes = cfg.encode(&grid);
        let mut rng = FaultRng::seed(args.seed);
        for n_err in [1usize, 4, 16, 64] {
            let mut bad = grid.clone();
            let mut truth = std::collections::HashSet::new();
            while truth.len() < n_err {
                let r = rng.below(rows);
                let c = rng.below(cols);
                if truth.insert((r, c)) {
                    bad[r * cols + c] += 1.0;
                }
            }
            let flagged = codes.locate_errors(&bad);
            let false_pos = flagged.iter().filter(|cell| !truth.contains(cell)).count();
            println!(
                "{:>6} {:>10} {:>10} {:>12} {:>12}",
                group,
                codes.storage_bytes(),
                n_err,
                flagged.len(),
                false_pos
            );
            table.push(
                JsonObject::new()
                    .raw("group", group)
                    .raw("code_bytes", codes.storage_bytes())
                    .raw("errors", n_err)
                    .raw("flagged", flagged.len())
                    .raw("false_positives", false_pos)
                    .finish(),
            );
        }
    }
    let json = JsonObject::new()
        .string("table", "ablation_crc")
        .raw("slice_rows", rows)
        .raw("slice_cols", cols)
        .raw("seed", args.seed)
        .raw("rows", array(table))
        .finish();
    write_summary(&json, args.json.as_deref());
}
