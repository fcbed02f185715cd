//! `e2e_bench`: the end-to-end benchmark's command line.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--rate-scale <f>] [--spans-out <path>]
//!     One workload in this process; the last stdout line is the result
//!     object ({"correct","attempted","failed","metrics"}).
//! e2e_bench run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace]
//!           [--rate-scale <f>] [--json <path>]
//!     Every workload (or one), each in a fresh child process; prints
//!     every metric and optionally writes them all as JSON.
//! e2e_bench history --out <path> [--seed <n>] [--seconds <s>]
//!     Two sets of three runs per workload plus one traced run, stamped
//!     with the revision and a machine fingerprint.
//! ```

use milr_e2e_bench::{run, workload, Json, Options, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Measured window when `--seconds` is not given (the repository's
/// `BENCHMARK.json` `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 11;
/// `history`: independent run sets per workload.
const HISTORY_SETS: usize = 2;
/// `history`: untraced runs per set.
const HISTORY_REPEAT: usize = 3;

struct Args {
    sub: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate_scale: f64,
    json: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        sub: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rate_scale: 1.0,
        json: None,
        spans_out: None,
        out: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            a.sub = it.next().cloned();
        }
    }
    let single = a.sub.is_none();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = num(value()?)?,
            "--rate-scale" => a.rate_scale = num(value()?)?,
            "--trace" if single => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace" => a.trace = true,
            "--json" => a.json = Some(value()?.into()),
            "--spans-out" => a.spans_out = Some(value()?.into()),
            "--out" => a.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(a.rate_scale.is_finite() && a.rate_scale > 0.0) {
        return Err("--rate-scale must be positive".into());
    }
    if let Some(name) = &a.workload {
        if workload(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.sub.as_deref() {
        None => one(&args),
        Some("run") => all(&args),
        Some("history") => history(&args),
        Some(other) => {
            eprintln!("e2e_bench: unknown subcommand {other}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process: the form `BENCHMARK.json`'s command uses.
fn one(args: &Args) -> ExitCode {
    let Some(w) = args.workload.as_deref().and_then(workload) else {
        eprintln!("e2e_bench: --workload is required");
        return ExitCode::from(2);
    };
    let outcome = run(&Options {
        workload: w,
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        rate_scale: args.rate_scale,
        spans_out: args.spans_out.clone(),
    });
    println!("{}", outcome.detail);
    println!("{}", outcome.result);
    if outcome.ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2e_bench: clean workload {} mismatched or failed requests",
            w.name
        );
        ExitCode::FAILURE
    }
}

/// One workload in a fresh child process: `(detail, result, ok)`.
fn child(args: &Args, name: &str, trace: bool) -> Result<(Json, Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rate-scale", &args.rate_scale.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 2 {
        return Err(format!("{name}: child printed no result"));
    }
    for line in &lines[..lines.len() - 2] {
        println!("{line}");
    }
    let detail = Json::parse(lines[lines.len() - 2])?;
    let result = Json::parse(lines[lines.len() - 1])?;
    Ok((detail, result, out.status.success()))
}

fn selected(args: &Args) -> Vec<&'static str> {
    match &args.workload {
        Some(name) => vec![workload(name).expect("validated").name],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    }
}

/// `run`: every workload, each in a fresh child process.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in selected(args) {
        let mut row = Json::obj().with("workload", name);
        for trace in [false, true].into_iter().filter(|&t| !t || args.trace) {
            match child(args, name, trace) {
                Ok((detail, result, fine)) => {
                    ok &= fine;
                    let key = if trace { "traced" } else { "untraced" };
                    row.push(
                        key,
                        Json::obj().with("result", result).with("detail", detail),
                    );
                }
                Err(e) => {
                    eprintln!("e2e_bench: {e}");
                    ok = false;
                }
            }
        }
        rows.push(row);
    }
    if let Some(path) = &args.json {
        let doc = Json::obj()
            .with("seed", args.seed)
            .with("seconds", args.seconds)
            .with("rate_scale", args.rate_scale)
            .with("workloads", rows);
        if let Err(e) = std::fs::write(path, doc.to_string() + "\n") {
            eprintln!("e2e_bench: writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Medians of every metric across several result lines.
fn medians(results: &[Json]) -> Json {
    let mut out = Json::obj();
    let Some(first) = results.first().and_then(|r| r.get("metrics")) else {
        return out;
    };
    for (name, m) in first.fields() {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        out.push(
            name,
            Json::obj()
                .with("median", milr_e2e_bench::stats::median(&values))
                .with("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
        );
    }
    out
}

fn fingerprint() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    // The filesystem holding the work directory (beside the
    // executable): the longest mount point that prefixes it.
    let exe = std::env::current_exe()
        .and_then(|p| p.canonicalize())
        .unwrap_or_default();
    let fs = read("/proc/self/mounts")
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && exe.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map(|(_, t)| t)
        .unwrap_or_default();
    Json::obj()
        .with(
            "revision",
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .with(
            "worktree_dirty",
            git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
        )
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("cpu_model", cpu)
        .with("kernel", read("/proc/sys/kernel/osrelease").trim())
        .with("work_dir_fs", fs)
}

/// `history`: the committed baseline — two acceptance run sets and a
/// traced run per workload, with per-set medians.
fn history(args: &Args) -> ExitCode {
    let Some(out) = &args.out else {
        eprintln!("e2e_bench: history needs --out <path>");
        return ExitCode::from(2);
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for name in selected(args) {
        let mut sets = Vec::new();
        for set in 0..HISTORY_SETS {
            let mut results = Vec::new();
            let mut details = Vec::new();
            for r in 0..HISTORY_REPEAT {
                println!("== {name} set {set} run {r}");
                match child(args, name, false) {
                    Ok((d, res, fine)) => {
                        ok &= fine;
                        details.push(d);
                        results.push(res);
                    }
                    Err(e) => {
                        eprintln!("e2e_bench: {e}");
                        ok = false;
                    }
                }
            }
            sets.push(
                Json::obj()
                    .with("medians", medians(&results))
                    .with("runs", results)
                    .with("details", details),
            );
        }
        println!("== {name} traced");
        let traced = match child(args, name, true) {
            Ok((d, res, fine)) => {
                ok &= fine;
                Json::obj().with("result", res).with("detail", d)
            }
            Err(e) => {
                eprintln!("e2e_bench: {e}");
                ok = false;
                Json::Null
            }
        };
        rows.push(
            Json::obj()
                .with("workload", name)
                .with("sets", sets)
                .with("traced", traced),
        );
    }
    let doc = Json::obj()
        .with("machine", fingerprint())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("workloads", rows);
    if let Err(e) = std::fs::write(out, doc.to_string() + "\n") {
        eprintln!("e2e_bench: writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
