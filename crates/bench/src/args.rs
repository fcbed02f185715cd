//! Minimal command-line parsing shared by the experiment binaries.

use crate::{Arm, NetChoice, Scale};

/// Which slice of the substrate × recovery arm matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmSet {
    /// The paper's four DRAM panels (default; reproduces the figures).
    Paper,
    /// The encrypted-VM arms only.
    Encrypted,
    /// The full matrix.
    All,
}

impl ArmSet {
    /// The arms this set selects, in presentation order.
    pub fn arms(&self) -> &'static [Arm] {
        match self {
            ArmSet::Paper => &Arm::PAPER,
            ArmSet::Encrypted => &Arm::ENCRYPTED,
            ArmSet::All => &Arm::ALL,
        }
    }
}

/// Parsed experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which network family to evaluate.
    pub net: NetChoice,
    /// Reduced-scale twin (default) or verbatim paper architecture.
    pub scale: Scale,
    /// Injection trials per point (the paper uses 40).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Which arms of the substrate × recovery matrix to run.
    pub arms: ArmSet,
    /// Also measure (not just model) availability by driving the
    /// `milr-serve` simulation — consumed by `fig12_availability`.
    pub measured: bool,
    /// Write the machine-readable summary (storage report, measured
    /// numbers) to this file as JSON.
    pub json: Option<String>,
    /// Write a JSONL structured-event trace of the run to this file.
    pub trace_out: Option<String>,
    /// Write a Prometheus text-exposition metrics snapshot to this
    /// file.
    pub metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            net: NetChoice::Mnist,
            scale: Scale::Reduced,
            trials: 10,
            seed: 0xBE7C,
            arms: ArmSet::Paper,
            measured: false,
            json: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args`-style arguments.
    ///
    /// Supported flags: `--net mnist|cifar-small|cifar-large`,
    /// `--paper-scale`, `--trials N`, `--seed N`,
    /// `--arms paper|encrypted|all`, `--measured`, `--json FILE`,
    /// `--trace-out FILE`, `--metrics-out FILE`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, malformed
    /// values, or `--trials 0`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--net" => {
                    let v = iter.next().ok_or("--net needs a value")?;
                    out.net = match v.as_str() {
                        "mnist" => NetChoice::Mnist,
                        "cifar-small" => NetChoice::CifarSmall,
                        "cifar-large" => NetChoice::CifarLarge,
                        other => return Err(format!("unknown net {other}")),
                    };
                }
                "--paper-scale" => out.scale = Scale::Paper,
                "--json" => out.json = Some(iter.next().ok_or("--json needs a value")?),
                "--trace-out" => {
                    out.trace_out = Some(iter.next().ok_or("--trace-out needs a value")?)
                }
                "--metrics-out" => {
                    out.metrics_out = Some(iter.next().ok_or("--metrics-out needs a value")?)
                }
                "--measured" => out.measured = true,
                "--trials" => {
                    let v = iter.next().ok_or("--trials needs a value")?;
                    out.trials = v.parse().map_err(|e| format!("bad --trials: {e}"))?;
                    if out.trials == 0 {
                        return Err("--trials must be at least 1".into());
                    }
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--arms" => {
                    let v = iter.next().ok_or("--arms needs a value")?;
                    out.arms = match v.as_str() {
                        "paper" => ArmSet::Paper,
                        "encrypted" => ArmSet::Encrypted,
                        "all" => ArmSet::All,
                        other => return Err(format!("unknown arm set {other}")),
                    };
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--net mnist|cifar-small|cifar-large] [--paper-scale] [--trials N] [--seed N] [--arms paper|encrypted|all] [--measured] [--json FILE] [--trace-out FILE] [--metrics-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Args::default());
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--net",
            "cifar-large",
            "--paper-scale",
            "--trials",
            "40",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(a.net, NetChoice::CifarLarge);
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.trials, 40);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn arm_sets_parse() {
        assert_eq!(parse(&["--arms", "paper"]).unwrap().arms, ArmSet::Paper);
        assert_eq!(
            parse(&["--arms", "encrypted"]).unwrap().arms,
            ArmSet::Encrypted
        );
        assert_eq!(parse(&["--arms", "all"]).unwrap().arms, ArmSet::All);
        assert_eq!(ArmSet::Paper.arms().len(), 4);
        assert_eq!(ArmSet::Encrypted.arms().len(), 3);
        assert_eq!(ArmSet::All.arms().len(), 8);
    }

    #[test]
    fn measured_flag_parses() {
        assert!(!parse(&[]).unwrap().measured);
        assert!(parse(&["--measured"]).unwrap().measured);
    }

    #[test]
    fn json_flag_parses() {
        assert_eq!(parse(&[]).unwrap().json, None);
        assert_eq!(
            parse(&["--json", "out.json"]).unwrap().json.as_deref(),
            Some("out.json")
        );
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&["--trace-out", "t.jsonl", "--metrics-out", "m.prom"]).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--net", "alexnet"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "many"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--arms", "bogus"]).is_err());
    }
}
