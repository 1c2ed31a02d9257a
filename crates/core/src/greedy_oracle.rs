//! Exact adaptive greedy — the Golovin–Krause oracle policy (§2.4) realized
//! by exhaustive enumeration.
//!
//! The `(ln η + 1)²` analysis assumes an oracle that returns the *exact*
//! maximizer of `Δ(v | S_{i−1})` each round. Computing expected spread is
//! #P-hard in general, but on tiny graphs we can enumerate the realization
//! space and recover the oracle exactly. This module is the ground truth the
//! integration tests compare TRIM against.

use crate::asti::drive;
use crate::error::AsmError;
use crate::report::Round;
use rand::Rng;
use smin_diffusion::exact::{for_each_ic_realization, for_each_lt_realization};
use smin_diffusion::{ForwardSim, InfluenceOracle, Model, ResidualState};
use smin_graph::cast::u32_of;
use smin_graph::{Graph, NodeId};

/// Exact `Δ(v | S_{i−1})` for every alive node: expected *marginal truncated*
/// spread on the residual graph given the `active` mask and shortfall
/// `eta_i`. O(2^m · n) — tiny graphs only.
pub fn exact_marginal_truncated_spreads(
    g: &Graph,
    model: Model,
    active: &[bool],
    eta_i: usize,
) -> Vec<f64> {
    let n = g.n();
    let mut sim = ForwardSim::new(n);
    let mut delta = vec![0.0f64; n];
    let mut visit = |phi: &smin_diffusion::Realization, p: f64| {
        for v in 0..u32_of(n) {
            if active[v as usize] {
                continue;
            }
            let spread = sim.spread_restricted(g, phi, &[v], Some(active));
            delta[v as usize] += p * spread.min(eta_i) as f64;
        }
    };
    match model {
        Model::IC => for_each_ic_realization(g, &mut visit),
        Model::LT => for_each_lt_realization(g, &mut visit),
    }
    delta
}

/// One exact greedy step: the alive node maximizing `Δ(v | S_{i−1})`.
/// Returns `None` when every node is active.
pub fn exact_greedy_step(
    g: &Graph,
    model: Model,
    active: &[bool],
    eta_i: usize,
) -> Option<(NodeId, f64)> {
    let delta = exact_marginal_truncated_spreads(g, model, active, eta_i);
    let mut best: Option<(NodeId, f64)> = None;
    for (v, &d) in delta.iter().enumerate() {
        if !active[v] && best.is_none_or(|(_, bd)| d > bd) {
            best = Some((v as NodeId, d));
        }
    }
    best
}

/// The full oracle policy of Golovin–Krause: exact greedy each round until
/// `eta` nodes are active, through ASTI's adaptive loop. The returned
/// vector lists the seeds in selection order.
pub fn exact_greedy_policy(
    g: &Graph,
    model: Model,
    eta: usize,
    oracle: &mut impl InfluenceOracle,
    _rng: &mut impl Rng,
) -> Result<Vec<NodeId>, AsmError> {
    let mut residual = ResidualState::new(g.n());
    let report = drive(g, model, eta, oracle, &mut residual, false, |r, eta_i| {
        let active: Vec<bool> = r.alive_mask().iter().map(|&alive| !alive).collect();
        let (v, delta) =
            exact_greedy_step(g, model, &active, eta_i).expect("a node is alive each round");
        Ok(Round {
            seeds: vec![v],
            est_truncated_spread: delta,
            ..Round::default()
        })
    })?;
    Ok(report.seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Realization, RealizationOracle};
    use smin_graph::GraphBuilder;

    fn figure2() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn matches_example_2_3_values() {
        let g = figure2();
        let active = vec![false; 4];
        let delta = exact_marginal_truncated_spreads(&g, Model::IC, &active, 2);
        assert!((delta[0] - 1.75).abs() < 1e-12);
        assert!((delta[1] - 2.0).abs() < 1e-12);
        assert!((delta[2] - 2.0).abs() < 1e-12);
        assert!((delta[3] - 1.0).abs() < 1e-12);
        let (best, val) = exact_greedy_step(&g, Model::IC, &active, 2).unwrap();
        assert!(best == 1 || best == 2);
        assert!((val - 2.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_account_for_active_nodes() {
        let g = figure2();
        // v2 active: v1's marginal truncated spread at η_i = 2 loses the
        // v2 branch.
        let mut active = vec![false; 4];
        active[1] = true;
        let delta = exact_marginal_truncated_spreads(&g, Model::IC, &active, 2);
        assert!(delta[0] < 1.75);
        assert_eq!(delta[1], 0.0, "active nodes have zero marginal");
    }

    #[test]
    fn policy_terminates_and_reaches_eta() {
        let g = figure2();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let seeds = exact_greedy_policy(&g, Model::IC, 2, &mut oracle, &mut rng).unwrap();
            assert!(oracle.num_active() >= 2);
            assert!(!seeds.is_empty());
            // first seed is never the trap node v1
            assert!(seeds[0] == 1 || seeds[0] == 2, "first = {}", seeds[0]);
        }
    }

    #[test]
    fn oracle_policy_uses_one_seed_when_first_suffices() {
        let g = figure2();
        // Under every realization v2 activates itself + v4 (p = 1 edge), so
        // a single seed always suffices for η = 2.
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let seeds = exact_greedy_policy(&g, Model::IC, 2, &mut oracle, &mut rng).unwrap();
            assert_eq!(seeds.len(), 1);
        }
    }
}
