//! Exact expectations by exhaustive realization enumeration.
//!
//! Only feasible for tiny graphs (the realization space is `2^m` for IC and
//! `Π_v (indeg(v) + 1)` for LT), but invaluable for validating the samplers:
//! Theorem 3.3's estimator bounds and the paper's Example 2.3 are checked
//! against these exact values in the test suites.

use crate::forward::ForwardSim;
use crate::model::Model;
use crate::realization::Realization;
use smin_graph::cast::u32_of;
use smin_graph::{Graph, NodeId};

/// Hard cap on the number of enumerated realizations (~4M) so that a misuse
/// on a big graph fails fast instead of running forever.
const MAX_WORLDS: f64 = 4_194_304.0;

/// Visits every IC realization of `g` with its probability. Probabilities
/// sum to 1 exactly (up to floating point).
pub fn for_each_ic_realization(g: &Graph, mut f: impl FnMut(&Realization, f64)) {
    let m = g.m();
    assert!(
        (m as f64).exp2() <= MAX_WORLDS,
        "2^{m} realizations is too many to enumerate"
    );
    let probs: Vec<f64> = g.edges().map(|(_, _, p)| p).collect();
    let mut live = vec![false; m];
    enum_ic(&probs, 0, 1.0, &mut live, &mut f);
}

fn enum_ic(
    probs: &[f64],
    e: usize,
    acc: f64,
    live: &mut Vec<bool>,
    f: &mut impl FnMut(&Realization, f64),
) {
    if e == probs.len() {
        // Cloning the status vector per world keeps the API simple; the
        // world count is capped so this is cheap in absolute terms.
        let phi = Realization::from_ic_statuses(live.clone());
        f(&phi, acc);
        return;
    }
    live[e] = true;
    enum_ic(probs, e + 1, acc * probs[e], live, f);
    live[e] = false;
    enum_ic(probs, e + 1, acc * (1.0 - probs[e]), live, f);
}

/// Visits every LT realization (per-node live in-edge choices) with its
/// probability.
pub fn for_each_lt_realization(g: &Graph, mut f: impl FnMut(&Realization, f64)) {
    let n = g.n();
    let mut worlds = 1.0f64;
    for v in 0..u32_of(n) {
        worlds *= (g.in_degree(v) + 1) as f64;
        assert!(
            worlds <= MAX_WORLDS,
            "too many LT realizations to enumerate"
        );
    }
    let mut chosen: Vec<Option<NodeId>> = vec![None; n];
    enum_lt(g, 0, 1.0, &mut chosen, &mut f);
}

fn enum_lt(
    g: &Graph,
    v: usize,
    acc: f64,
    chosen: &mut Vec<Option<NodeId>>,
    f: &mut impl FnMut(&Realization, f64),
) {
    if acc == 0.0 {
        return; // dead branch; skipping keeps the sum exact
    }
    if v == g.n() {
        let phi = Realization::from_lt_choices(chosen.clone());
        f(&phi, acc);
        return;
    }
    let mut none_mass = 1.0;
    for (u, p) in g.in_edges(v as NodeId) {
        none_mass -= p;
        chosen[v] = Some(u);
        enum_lt(g, v + 1, acc * p, chosen, f);
    }
    chosen[v] = None;
    enum_lt(g, v + 1, acc * none_mass.max(0.0), chosen, f);
}

/// Exact `E[I(S)]` by enumeration.
pub fn exact_expected_spread(g: &Graph, model: Model, seeds: &[NodeId]) -> f64 {
    let mut sim = ForwardSim::new(g.n());
    let mut total = 0.0;
    let mut visit = |phi: &Realization, p: f64| {
        total += p * sim.spread(g, phi, seeds) as f64;
    };
    match model {
        Model::IC => for_each_ic_realization(g, &mut visit),
        Model::LT => for_each_lt_realization(g, &mut visit),
    }
    total
}

/// Exact `E[Γ(S)] = E[min{I(S), η}]` by enumeration (Definition 2.2).
pub fn exact_expected_truncated(g: &Graph, model: Model, seeds: &[NodeId], eta: usize) -> f64 {
    let mut sim = ForwardSim::new(g.n());
    let mut total = 0.0;
    let mut visit = |phi: &Realization, p: f64| {
        total += p * sim.spread(g, phi, seeds).min(eta) as f64;
    };
    match model {
        Model::IC => for_each_ic_realization(g, &mut visit),
        Model::LT => for_each_lt_realization(g, &mut visit),
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use smin_graph::GraphBuilder;

    /// The Figure 2 graph of Example 2.3: v1→v2 and v1→v3 with p = 0.5,
    /// v2→v4 and v3→v4 with p = 1. Node ids: v1=0, v2=1, v3=2, v4=3.
    fn figure2() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let g = figure2();
        let mut total = 0.0;
        for_each_ic_realization(&g, |_, p| total += p);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example_2_3_vanilla_spreads() {
        let g = figure2();
        // E[I(v1)] = 0.25·(3 + 3 + 4 + 1) = 2.75 — the *largest* vanilla
        // spread, which is exactly the trap described in the paper.
        assert!((exact_expected_spread(&g, Model::IC, &[0]) - 2.75).abs() < 1e-12);
        assert!((exact_expected_spread(&g, Model::IC, &[1]) - 2.0).abs() < 1e-12);
        assert!((exact_expected_spread(&g, Model::IC, &[2]) - 2.0).abs() < 1e-12);
        assert!((exact_expected_spread(&g, Model::IC, &[3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example_2_3_truncated_spreads() {
        let g = figure2();
        let eta = 2;
        // Truncated at η = 2 the ordering flips: v2/v3 (2.0) beat v1 (1.75).
        assert!((exact_expected_truncated(&g, Model::IC, &[0], eta) - 1.75).abs() < 1e-12);
        assert!((exact_expected_truncated(&g, Model::IC, &[1], eta) - 2.0).abs() < 1e-12);
        assert!((exact_expected_truncated(&g, Model::IC, &[2], eta) - 2.0).abs() < 1e-12);
        assert!((exact_expected_truncated(&g, Model::IC, &[3], eta) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_never_increases() {
        let g = figure2();
        for v in 0..4u32 {
            for eta in 1..=4 {
                let full = exact_expected_spread(&g, Model::IC, &[v]);
                let trunc = exact_expected_truncated(&g, Model::IC, &[v], eta);
                assert!(trunc <= full + 1e-12);
                assert!(trunc <= eta as f64 + 1e-12);
            }
        }
    }

    #[test]
    fn lt_enumeration_matches_hand_computation() {
        // 0 -> 1 with p 0.5; LT: node 1 keeps the edge with prob 0.5.
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut total = 0.0;
        for_each_lt_realization(&g, |_, p| total += p);
        assert!((total - 1.0).abs() < 1e-12);
        assert!((exact_expected_spread(&g, Model::LT, &[0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lt_and_ic_agree_on_deterministic_graph() {
        // all probabilities 1 and in-degree ≤ 1 → both models are plain
        // reachability.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 1.0).unwrap();
        b.add_edge_p(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(exact_expected_spread(&g, Model::IC, &[0]), 3.0);
        assert_eq!(exact_expected_spread(&g, Model::LT, &[0]), 3.0);
    }

    #[test]
    fn mc_estimates_converge_to_exact() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = figure2();
        let mut rng = SmallRng::seed_from_u64(21);
        let mc = crate::spread::mc_expected_spread(&g, Model::IC, &[0], 60_000, &mut rng);
        assert!((mc - 2.75).abs() < 0.03, "mc = {mc}");
        let mct = crate::spread::mc_expected_truncated(&g, Model::IC, &[0], 2, 60_000, &mut rng);
        assert!((mct - 1.75).abs() < 0.03, "mc trunc = {mct}");
    }
}
