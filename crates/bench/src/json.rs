//! The JSON tail the benchmark binaries share.
//!
//! Every `--json` artifact (`BENCH_serve.json`, `BENCH_store.json`,
//! `BENCH_fleet.json`, `table_storage --json`, …) is assembled with
//! [`milr_obs::json::JsonObject`] from library-provided fragments
//! (`ServeReport::to_json`, `StorageReport::to_json`,
//! `FleetReport::to_json`). This module holds the print-and-write
//! tail every binary shares, and the extractor the serve report gate
//! reads a recorded summary with.

/// The shared tail of every benchmark binary: print the JSON summary to
/// stdout and, when `--json FILE` was given, write it (newline
/// terminated) and confirm on stderr.
///
/// # Panics
///
/// Panics when the file cannot be written — a benchmark whose artifact
/// silently vanished is worse than a failed run.
pub fn write_summary(json: &str, path: Option<&str>) {
    println!("{json}");
    if let Some(path) = path {
        std::fs::write(path, format!("{json}\n")).expect("writing the JSON summary");
        eprintln!("wrote {path}");
    }
}

/// The `"report"` object of a summary `serve_load` wrote: the balanced
/// `{…}` after the first `"report":` key (our own serializer, so a scan
/// is exact — no string in it contains a brace).
pub fn report_json(text: &str) -> Option<&str> {
    let key = "\"report\":";
    let start = text.find(key)? + key.len();
    let mut depth = 0usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&text[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}
