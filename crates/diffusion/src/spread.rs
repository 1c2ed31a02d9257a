//! Monte-Carlo estimation of expected (truncated) spread.
//!
//! Only tests call these: the cross-checks against exact enumeration and
//! ATEUC's expected-spread check. The greedy-oracle comparator enumerates
//! exactly, and the production algorithms estimate via RR / mRR sets
//! instead (far cheaper per query).

use crate::forward::ForwardSim;
use crate::model::Model;
use rand::Rng;
use smin_graph::{Graph, NodeId};

/// Monte-Carlo estimate of `E[I(S)]` over `iters` fresh simulations.
pub fn mc_expected_spread(
    g: &Graph,
    model: Model,
    seeds: &[NodeId],
    iters: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut sim = ForwardSim::new(g.n());
    let mut total = 0usize;
    for _ in 0..iters {
        total += sim.simulate(g, model, seeds, rng);
    }
    total as f64 / iters.max(1) as f64
}

/// Monte-Carlo estimate of the truncated expectation
/// `E[Γ(S)] = E[min{I(S), η}]` (Definition 2.2). Note this is *not*
/// `min{E[I(S)], η}` — truncation happens inside the expectation, which is
/// exactly why vanilla spread estimators mislead ASM (Example 2.3).
pub fn mc_expected_truncated(
    g: &Graph,
    model: Model,
    seeds: &[NodeId],
    eta: usize,
    iters: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut sim = ForwardSim::new(g.n());
    let mut total = 0usize;
    for _ in 0..iters {
        total += sim.simulate(g, model, seeds, rng).min(eta);
    }
    total as f64 / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::GraphBuilder;

    fn fork() -> Graph {
        // 0 -> 1 (p=0.5), 0 -> 2 (p=0.5)
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn expected_spread_of_fork() {
        let g = fork();
        let mut rng = SmallRng::seed_from_u64(13);
        let est = mc_expected_spread(&g, Model::IC, &[0], 40_000, &mut rng);
        assert!((est - 2.0).abs() < 0.03, "E[I] = {est}");
    }

    #[test]
    fn truncation_is_inside_expectation() {
        let g = fork();
        let mut rng = SmallRng::seed_from_u64(14);
        // I({0}) is 1, 2 or 3 with prob 1/4, 1/2, 1/4; min with eta=2 gives
        // E = 0.25*1 + 0.5*2 + 0.25*2 = 1.75 < min(E[I], 2) = 2.
        let est = mc_expected_truncated(&g, Model::IC, &[0], 2, 40_000, &mut rng);
        assert!((est - 1.75).abs() < 0.03, "E[Γ] = {est}");
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let g = fork();
        let mut rng = SmallRng::seed_from_u64(15);
        assert_eq!(mc_expected_spread(&g, Model::IC, &[], 100, &mut rng), 0.0);
    }
}
