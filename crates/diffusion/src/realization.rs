//! Live-edge realizations `ϕ ∈ Ω` (§2.1).
//!
//! A realization fixes every random choice of the diffusion process:
//!
//! * under **IC**, each edge is independently live or blocked;
//! * under **LT**, each node retains at most one live incoming edge, which
//!   the realization names by its source (a graph has at most one edge
//!   `⟨u, v⟩` per pair).
//!
//! The spread of a seed set under a realization is plain reachability over
//! live edges, which is what [`forward`](crate::forward) computes.

use crate::model::Model;
use rand::Rng;
use smin_graph::cast::u32_of;
use smin_graph::{Graph, NodeId};

/// Sentinel for "node chose no incoming edge" in LT realizations; no node
/// has this id, since a graph has at most `u32::MAX` nodes.
pub(crate) const LT_NONE: NodeId = NodeId::MAX;

/// Sentinel for "choice not drawn yet" where LT choices are drawn lazily
/// (`ForwardSim::simulate_lt`, `SimulationOracle`).
pub(crate) const LT_UNDRAWN: NodeId = NodeId::MAX - 1;

/// Draws `v`'s LT choice from one uniform: the source `u` of in-edge
/// `⟨u, v⟩` with probability `p(u, v)`, [`LT_NONE`] with the remaining mass.
pub(crate) fn draw_lt_choice(g: &Graph, v: NodeId, rng: &mut impl Rng) -> NodeId {
    let mut r = rng.random::<f64>();
    for (u, p) in g.in_edges(v) {
        if r < p {
            return u;
        }
        r -= p;
    }
    LT_NONE
}

/// A fully materialized realization of a probabilistic graph.
#[derive(Clone, Debug)]
pub enum Realization {
    /// IC: `live[e]` is the status of forward edge `e`.
    Ic { live: Vec<bool> },
    /// LT: `chosen[v]` is the source `u` of the single live edge `⟨u, v⟩`
    /// into `v`, or `u32::MAX` when `v` kept none.
    Lt { chosen: Vec<NodeId> },
}

impl Realization {
    /// Samples a realization of `g` under `model`.
    ///
    /// For LT, each node `v` picks incoming edge `⟨u, v⟩` with probability
    /// `p(u, v)` and nothing with the remaining mass; the graph must be a
    /// valid LT instance (incoming probabilities summing to ≤ 1), which is
    /// asserted in debug builds.
    pub fn sample(g: &Graph, model: Model, rng: &mut impl Rng) -> Realization {
        match model {
            Model::IC => {
                let mut live = Vec::with_capacity(g.m());
                for (_, _, p) in g.edges() {
                    live.push(rng.random::<f64>() < p);
                }
                Realization::Ic { live }
            }
            Model::LT => {
                let chosen = (0..u32_of(g.n()))
                    .map(|v| {
                        debug_assert!(
                            g.in_prob_sum(v) <= 1.0 + 1e-9,
                            "node {v} has incoming probability mass > 1; not a valid LT instance"
                        );
                        draw_lt_choice(g, v, rng)
                    })
                    .collect();
                Realization::Lt { chosen }
            }
        }
    }

    /// Model this realization was sampled under.
    pub fn model(&self) -> Model {
        match self {
            Realization::Ic { .. } => Model::IC,
            Realization::Lt { .. } => Model::LT,
        }
    }

    /// Whether forward edge `e`, from `src` into `dst`, is live. IC reads
    /// the edge's status, LT whether `dst` chose `src`.
    #[inline]
    pub fn is_live(&self, e: u32, src: NodeId, dst: NodeId) -> bool {
        match self {
            Realization::Ic { live } => live[e as usize],
            Realization::Lt { chosen } => chosen[dst as usize] == src,
        }
    }

    /// Builds an IC realization directly from edge statuses (tests,
    /// enumeration).
    pub fn from_ic_statuses(live: Vec<bool>) -> Realization {
        Realization::Ic { live }
    }

    /// Builds an LT realization from the source each node chose (`None` →
    /// no live in-edge).
    pub fn from_lt_choices(chosen: Vec<Option<NodeId>>) -> Realization {
        Realization::Lt {
            chosen: chosen.into_iter().map(|c| c.unwrap_or(LT_NONE)).collect(),
        }
    }

    /// Number of live edges (diagnostics).
    pub fn live_edge_count(&self) -> usize {
        match self {
            Realization::Ic { live } => live.iter().filter(|&&b| b).count(),
            Realization::Lt { chosen } => chosen.iter().filter(|&&c| c != LT_NONE).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::GraphBuilder;

    fn line(p: f64) -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, p).unwrap();
        b.add_edge_p(1, 2, p).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ic_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let all = Realization::sample(&line(1.0), Model::IC, &mut rng);
        assert_eq!(all.live_edge_count(), 2);
        let g_eps = line(1e-12);
        let none = Realization::sample(&g_eps, Model::IC, &mut rng);
        assert_eq!(none.live_edge_count(), 0);
    }

    #[test]
    fn ic_liveness_rate_matches_probability() {
        let g = line(0.3);
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 20_000;
        let mut live0 = 0usize;
        for _ in 0..trials {
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            if phi.is_live(0, 0, 1) {
                live0 += 1;
            }
        }
        let rate = live0 as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn lt_picks_at_most_one_in_edge() {
        // two parents with p = 0.5 each -> exactly one chosen or none... here
        // 0.5 + 0.5 = 1.0 so always exactly one.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.add_edge_p(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut chose0 = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let phi = Realization::sample(&g, Model::LT, &mut rng);
            match &phi {
                Realization::Lt { chosen } => {
                    assert_ne!(chosen[2], LT_NONE, "mass sums to 1, must pick one");
                    if chosen[2] == 0 {
                        // node 2 chose its in-edge from node 0
                        chose0 += 1;
                    }
                }
                _ => unreachable!(),
            }
        }
        let rate = chose0 as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn lt_leftover_mass_means_none() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.25).unwrap();
        let g = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let trials = 20_000;
        let mut none = 0usize;
        for _ in 0..trials {
            let phi = Realization::sample(&g, Model::LT, &mut rng);
            if phi.live_edge_count() == 0 {
                none += 1;
            }
        }
        let rate = none as f64 / trials as f64;
        assert!((rate - 0.75).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn lt_is_live_matches_choice() {
        // node 1 chose its in-edge from node 0; the edge id plays no part
        let phi = Realization::from_lt_choices(vec![None, Some(0), None]);
        assert!(phi.is_live(0, 0, 1));
        assert!(phi.is_live(7, 0, 1));
        assert!(!phi.is_live(0, 2, 1));
        assert!(!phi.is_live(0, 1, 0));
    }
}
