//! Edge probability (weight) models.
//!
//! The paper's experiments use the *weighted cascade* (WC) convention
//! `p(⟨u, v⟩) = 1 / indeg(v)` (§6.1), which also yields a valid LT instance
//! because incoming probabilities sum to exactly 1. Uniform and trivalency
//! models are provided for completeness — they are the other two standard
//! conventions in the influence maximization literature.

use crate::csr::Graph;
use rand::Rng;

/// The trivalency probability palette of Chen et al. (KDD'10).
pub const TRIVALENCY: [f64; 3] = [0.1, 0.01, 0.001];

/// How to assign propagation probabilities to edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightModel {
    /// `p(⟨u, v⟩) = 1 / indeg(v)` — the paper's setting.
    WeightedCascade,
    /// Every edge gets the same probability.
    Uniform(f64),
    /// Each edge draws uniformly from `{0.1, 0.01, 0.001}`.
    Trivalency,
}

impl std::str::FromStr for WeightModel {
    type Err = String;

    /// `wc`, `tri`, or `uniform:P` with `P` in `(0, 1]`.
    fn from_str(spec: &str) -> Result<WeightModel, String> {
        match spec {
            "wc" => Ok(WeightModel::WeightedCascade),
            "tri" => Ok(WeightModel::Trivalency),
            other => {
                let p = other.strip_prefix("uniform:").ok_or_else(|| {
                    format!("unknown weight model '{other}' (wc | uniform:P | tri)")
                })?;
                let p: f64 = p
                    .parse()
                    .map_err(|e| format!("bad uniform probability: {e}"))?;
                if p > 0.0 && p <= 1.0 {
                    Ok(WeightModel::Uniform(p))
                } else {
                    Err(format!("uniform probability must lie in (0, 1], got {p}"))
                }
            }
        }
    }
}

/// Returns a copy of `g` with probabilities reassigned according to `model`.
///
/// `rng` is only consulted by [`WeightModel::Trivalency`]; the other models
/// are deterministic.
pub fn apply_weights(g: &Graph, model: WeightModel, rng: &mut impl Rng) -> Graph {
    match model {
        WeightModel::WeightedCascade => {
            // Counted from the forward targets: `in_degree` would build
            // `g`'s whole reverse CSR only to read its degrees.
            let in_deg = g.in_degrees();
            g.map_probabilities(|_, v, _| 1.0 / in_deg[v as usize] as f64)
        }
        WeightModel::Uniform(p) => {
            assert!(p > 0.0 && p <= 1.0, "uniform probability must be in (0, 1]");
            g.map_probabilities(|_, _, _| p)
        }
        WeightModel::Trivalency => {
            g.map_probabilities(|_, _, _| TRIVALENCY[rng.random_range(0..3usize)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn star() -> Graph {
        // 0, 1, 2 all point at 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3).unwrap();
        b.add_edge(1, 3).unwrap();
        b.add_edge(2, 3).unwrap();
        b.add_edge(3, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn weighted_cascade_is_one_over_indeg() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        let wc = apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        for (u, p, _) in wc.in_edges(3) {
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "edge from {u} has p = {p}");
        }
        let (_, p, _) = wc.in_edges(0).next().unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn weighting_leaves_the_input_reverse_csr_unbuilt() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        for model in [
            WeightModel::WeightedCascade,
            WeightModel::Uniform(0.5),
            WeightModel::Trivalency,
        ] {
            let _ = apply_weights(&g, model, &mut rng);
            assert!(!g.reverse_built(), "{model:?}");
        }
    }

    #[test]
    fn weighted_cascade_yields_valid_lt() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        let wc = apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        assert!(wc.is_valid_lt());
        for v in 0..4u32 {
            if wc.in_degree(v) > 0 {
                assert!((wc.in_prob_sum(v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn uniform_sets_every_edge() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        let u = apply_weights(&g, WeightModel::Uniform(0.05), &mut rng);
        assert!(u.edges().all(|(_, _, p)| p == 0.05));
    }

    #[test]
    fn trivalency_uses_palette() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(7);
        let t = apply_weights(&g, WeightModel::Trivalency, &mut rng);
        assert!(t.edges().all(|(_, _, p)| TRIVALENCY.contains(&p)));
    }

    #[test]
    #[should_panic(expected = "uniform probability")]
    fn uniform_rejects_zero() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = apply_weights(&g, WeightModel::Uniform(0.0), &mut rng);
    }
}
