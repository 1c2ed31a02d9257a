//! Diffusion model selector.

use smin_graph::error::quoted;
use std::fmt;

/// The two propagation models evaluated in the paper (§2.1). Both admit the
/// live-edge characterization that reverse-reachable sampling relies on:
///
/// * **IC** — every edge `⟨u, v⟩` is independently live with `p(u, v)`;
/// * **LT** — every node keeps at most one live incoming edge, edge `⟨u, v⟩`
///   being chosen with probability `p(u, v)` (and no edge with
///   `1 − Σ_u p(u, v)`), which requires incoming probabilities to sum to ≤ 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Independent cascade.
    IC,
    /// Linear threshold.
    LT,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::IC => write!(f, "IC"),
            Model::LT => write!(f, "LT"),
        }
    }
}

impl std::str::FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "IC" => Ok(Model::IC),
            "LT" => Ok(Model::LT),
            _ => Err(format!(
                "unknown diffusion model {} (expected IC or LT)",
                quoted(s)
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        assert_eq!("ic".parse::<Model>().unwrap(), Model::IC);
        assert_eq!("LT".parse::<Model>().unwrap(), Model::LT);
        assert!("pagerank".parse::<Model>().is_err());
        assert_eq!(Model::IC.to_string(), "IC");
    }
}
