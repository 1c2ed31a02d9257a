//! Minimal hand-rolled CLI parsing (no external dependency).

use std::fmt;

/// Experiment size tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Tiny graphs, 2 realizations — smoke-testing the harness itself.
    Smoke,
    /// Scaled-down graphs, 3 realizations — the default; finishes in minutes
    /// on a laptop core while preserving every qualitative shape.
    Quick,
    /// Paper-size graphs and 20 realizations (§6.1 protocol).
    Paper,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Smoke => write!(f, "smoke"),
            Tier::Quick => write!(f, "quick"),
            Tier::Paper => write!(f, "paper"),
        }
    }
}

/// Parsed harness arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Size tier.
    pub tier: Tier,
    /// Restrict to datasets whose name contains one of these (empty = all).
    pub datasets: Vec<String>,
    /// Base RNG seed (default 42; the paper protocol derives realization
    /// seeds from it).
    pub seed: u64,
    /// Override the number of realizations.
    pub realizations: Option<usize>,
    /// Approximation parameter ε in (0, 1) (default 0.5, §6.1).
    pub eps: f64,
    /// Optional directory of real SNAP edge lists (named `<dataset>.txt`).
    pub snap_dir: Option<String>,
    /// Output directory for JSON results (default `results`).
    pub out_dir: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            tier: Tier::Quick,
            datasets: Vec::new(),
            seed: 42,
            realizations: None,
            eps: 0.5,
            snap_dir: None,
            out_dir: "results".to_string(),
        }
    }
}

impl Args {
    /// Parses from an iterator of argument strings (without the program
    /// name). Returns an error message on unknown or malformed flags.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => out.tier = Tier::Smoke,
                "--quick" => out.tier = Tier::Quick,
                "--paper" => out.tier = Tier::Paper,
                "--dataset" | "-d" => {
                    let v = it.next().ok_or("--dataset needs a value")?;
                    out.datasets.push(v.to_lowercase());
                }
                "--seed" => {
                    out.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--realizations" | "-r" => {
                    let n: usize = it
                        .next()
                        .ok_or("--realizations needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --realizations: {e}"))?;
                    if n == 0 {
                        return Err(format!("bad --realizations: needs at least 1\n{USAGE}"));
                    }
                    out.realizations = Some(n);
                }
                "--eps" => {
                    out.eps = it
                        .next()
                        .ok_or("--eps needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --eps: {e}"))?;
                    // The negation also rejects NaN.
                    if !(out.eps > 0.0 && out.eps < 1.0) {
                        return Err(format!("bad --eps: {} is outside (0, 1)\n{USAGE}", out.eps));
                    }
                }
                "--snap" => out.snap_dir = Some(it.next().ok_or("--snap needs a directory")?),
                "--out" => out.out_dir = it.next().ok_or("--out needs a directory")?,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// Parses `std::env::args()`.
    pub fn from_env() -> Result<Args, String> {
        Args::parse(std::env::args().skip(1))
    }

    /// Number of realizations for this tier (§6: the paper uses 20).
    pub fn num_realizations(&self) -> usize {
        self.realizations.unwrap_or(match self.tier {
            Tier::Smoke => 2,
            Tier::Quick => 3,
            Tier::Paper => 20,
        })
    }

    /// `true` if `name` is selected by the `--dataset` filters.
    pub fn selects(&self, name: &str) -> bool {
        self.datasets.is_empty()
            || self
                .datasets
                .iter()
                .any(|d| name.to_lowercase().contains(d))
    }
}

/// `reproduce_all`'s usage string.
pub const USAGE: &str = "usage: reproduce_all [--smoke|--quick|--paper] [--dataset NAME]... \
[--seed N] [--realizations N] [--eps F] [--snap DIR] [--out DIR]";

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = p(&[]).unwrap();
        assert_eq!(a.tier, Tier::Quick);
        assert_eq!(a.seed, 42);
        assert_eq!(a.num_realizations(), 3);
        assert!(a.selects("anything"));
    }

    #[test]
    fn tier_flags() {
        assert_eq!(p(&["--paper"]).unwrap().tier, Tier::Paper);
        assert_eq!(p(&["--paper"]).unwrap().num_realizations(), 20);
        assert_eq!(p(&["--smoke"]).unwrap().num_realizations(), 2);
    }

    #[test]
    fn dataset_filter() {
        let a = p(&["--dataset", "NetHEPT"]).unwrap();
        assert!(a.selects("nethept-like"));
        assert!(!a.selects("epinions-like"));
    }

    #[test]
    fn numeric_flags() {
        let a = p(&["--seed", "7", "--realizations", "9", "--eps", "0.25"]).unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.num_realizations(), 9);
        assert_eq!(a.eps, 0.25);
    }

    #[test]
    fn rejects_out_of_range_values() {
        for eps in ["0", "1", "1.5", "-0.5", "NaN", "inf"] {
            let err = p(&["--eps", eps]).unwrap_err();
            assert!(err.contains("--eps") && err.contains(USAGE), "{eps}: {err}");
        }
        let err = p(&["--realizations", "0"]).unwrap_err();
        assert!(
            err.contains("--realizations") && err.contains(USAGE),
            "{err}"
        );
        let a = p(&["--eps", "0.999", "-r", "1"]).unwrap();
        assert_eq!((a.eps, a.num_realizations()), (0.999, 1));
    }

    #[test]
    fn rejects_unknown() {
        assert!(p(&["--bogus"]).is_err());
        assert!(p(&["--seed"]).is_err());
        assert!(p(&["--seed", "x"]).is_err());
    }
}
