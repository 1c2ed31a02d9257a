//! Synthetic social-network generators.
//!
//! The paper evaluates on four SNAP datasets (NetHEPT, Epinions, Youtube,
//! LiveJournal). Those files are not redistributable with this repository, so
//! the benchmark harness substitutes structurally-matched synthetic graphs:
//! a directed Chung–Lu model reproduces each dataset's size and power-law
//! degree shape (Figure 3), and the classic Barabási–Albert, Erdős–Rényi and
//! Watts–Strogatz models are provided for ablations and tests.
//!
//! Every generator is deterministic given the `Rng` it is handed.

mod alias;
mod ba;
mod chung_lu;
mod er;
mod ws;

pub use alias::AliasTable;
pub use ba::barabasi_albert;
pub use chung_lu::{chung_lu_directed, power_law_weights};
pub use er::erdos_renyi;
pub use ws::watts_strogatz;

use crate::csr::NodeId;
use crate::error::GraphError;
use crate::weights::{apply_weights, WeightModel};
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// A generator family and its parameters, as `asm generate` and
/// `POST /v1/graphs` name them. [`generate`](Self::generate) checks the
/// preconditions the generators assert before drawing anything, so both
/// front doors turn a bad spec into an error instead of a panic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GeneratorSpec {
    /// [`chung_lu_directed`]: `m` directed edges, degree exponent `gamma`.
    ChungLu { m: usize, gamma: f64 },
    /// [`erdos_renyi`]: `m` directed edges.
    ErdosRenyi { m: usize },
    /// [`barabasi_albert`]: `attach` undirected edges per arriving node.
    BarabasiAlbert { attach: usize },
    /// [`watts_strogatz`]: ring degree `k`, rewiring probability `beta`.
    WattsStrogatz { k: usize, beta: f64 },
}

impl GeneratorSpec {
    /// Checks the spec on `n` nodes against what its generator asserts; the
    /// error names the offending parameter.
    fn check(&self, n: usize) -> Result<(), String> {
        match *self {
            GeneratorSpec::ChungLu { m, gamma } => {
                check_directed_edges(n, m)?;
                if gamma.is_nan() || gamma <= 1.0 {
                    return Err(format!("'gamma' must exceed 1, got {gamma}"));
                }
            }
            GeneratorSpec::ErdosRenyi { m } => check_directed_edges(n, m)?,
            GeneratorSpec::BarabasiAlbert { attach } => {
                if !(1..n).contains(&attach) {
                    return Err(format!(
                        "'attach' must lie in [1, n) = [1, {n}), got {attach}"
                    ));
                }
            }
            GeneratorSpec::WattsStrogatz { k, beta } => {
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("'k' must be even and at least 2, got {k}"));
                }
                if n <= k {
                    return Err(format!("'n' must exceed 'k' = {k}, got {n}"));
                }
                if !(0.0..=1.0).contains(&beta) {
                    return Err(format!("'beta' must lie in [0, 1], got {beta}"));
                }
            }
        }
        Ok(())
    }

    /// Checks the spec, then draws its edges on `n` nodes and weights them
    /// with `model` ([`assemble`]), all from `rng`. The error names the
    /// parameter a generator would have asserted on, or the parameters
    /// that stalled [`chung_lu_directed`]'s rejection sampling.
    pub fn generate(
        &self,
        n: usize,
        model: WeightModel,
        rng: &mut impl Rng,
    ) -> Result<Graph, String> {
        self.check(n)?;
        let (pairs, directed) = match *self {
            GeneratorSpec::ChungLu { m, gamma } => (chung_lu_directed(n, m, gamma, rng)?, true),
            GeneratorSpec::ErdosRenyi { m } => (erdos_renyi(n, m, rng), true),
            GeneratorSpec::BarabasiAlbert { attach } => (barabasi_albert(n, attach, rng), false),
            GeneratorSpec::WattsStrogatz { k, beta } => (watts_strogatz(n, k, beta, rng), false),
        };
        assemble(n, &pairs, directed, model, rng).map_err(|e| e.to_string())
    }
}

/// What the directed-edge generators (ER, Chung–Lu) assert: two nodes at
/// least, and no more edges than the `n(n − 1)` distinct directed pairs.
fn check_directed_edges(n: usize, m: usize) -> Result<(), String> {
    let pairs = (n as u128) * (n as u128).saturating_sub(1);
    if n < 2 {
        Err(format!("'n' must be at least 2, got {n}"))
    } else if m as u128 > pairs {
        Err(format!(
            "'m' = {m} exceeds the n(n-1) = {pairs} distinct directed edges on {n} nodes"
        ))
    } else {
        Ok(())
    }
}

/// Turns a generated pair list into a weighted [`Graph`], mirroring edges for
/// undirected families and applying `model` afterwards.
pub fn assemble(
    n: usize,
    pairs: &[(NodeId, NodeId)],
    directed: bool,
    model: WeightModel,
    rng: &mut impl Rng,
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(
        n,
        if directed {
            pairs.len()
        } else {
            pairs.len() * 2
        },
    );
    for &(u, v) in pairs {
        if directed {
            b.add_edge(u, v)?;
        } else {
            b.add_undirected_p(u, v, 1.0)?;
        }
    }
    let structural = b.build()?;
    Ok(apply_weights(&structural, model, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn assemble_undirected_mirrors() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = assemble(
            3,
            &[(0, 1), (1, 2)],
            false,
            WeightModel::Uniform(0.2),
            &mut rng,
        )
        .unwrap();
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(2, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn assemble_directed_keeps_orientation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = assemble(3, &[(0, 1)], true, WeightModel::WeightedCascade, &mut rng).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }
}
