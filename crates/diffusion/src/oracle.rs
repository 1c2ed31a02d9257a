//! The select→observe interface of Algorithm 1.
//!
//! ASTI never inspects the hidden realization directly — it submits a batch
//! of seeds and receives the set of newly activated nodes. Two
//! implementations are provided:
//!
//! * [`RealizationOracle`] — a realization is sampled (or injected) up front;
//!   this is the paper's experimental protocol (20 fixed realizations per
//!   dataset, §6);
//! * [`SimulationOracle`] — random choices are drawn lazily the first time
//!   propagation touches them (principle of deferred decisions), equivalent
//!   in distribution but `O(touched)` rather than `O(m)` up front.

use crate::forward::ForwardSim;
use crate::model::Model;
use crate::realization::{draw_lt_choice, Realization, LT_UNDRAWN};
use rand::Rng;
use smin_graph::{Graph, NodeId};

/// Feedback channel between a policy and the (hidden) world.
pub trait InfluenceOracle {
    /// Activates `seeds`, propagates, and returns every *newly* activated
    /// node (the seeds themselves included unless already active).
    fn observe(&mut self, seeds: &[NodeId]) -> Vec<NodeId>;

    /// Activation mask after all observations so far.
    fn active_mask(&self) -> &[bool];

    /// Number of active nodes.
    fn num_active(&self) -> usize;
}

/// Oracle over a pre-sampled (or injected) realization.
pub struct RealizationOracle<'g> {
    g: &'g Graph,
    phi: Realization,
    active: Vec<bool>,
    num_active: usize,
    sim: ForwardSim,
}

impl<'g> RealizationOracle<'g> {
    /// Wraps a fixed realization.
    pub fn new(g: &'g Graph, phi: Realization) -> Self {
        RealizationOracle {
            g,
            phi,
            active: vec![false; g.n()],
            num_active: 0,
            sim: ForwardSim::new(g.n()),
        }
    }

    /// Samples a fresh realization under `model`.
    pub fn sampled(g: &'g Graph, model: Model, rng: &mut impl Rng) -> Self {
        Self::new(g, Realization::sample(g, model, rng))
    }

    /// The underlying realization (e.g. to re-evaluate a non-adaptive seed
    /// set on the same world).
    pub fn realization(&self) -> &Realization {
        &self.phi
    }

    /// Resets all activations, keeping the realization.
    pub fn reset(&mut self) {
        self.active.iter_mut().for_each(|b| *b = false);
        self.num_active = 0;
    }
}

impl InfluenceOracle for RealizationOracle<'_> {
    fn observe(&mut self, seeds: &[NodeId]) -> Vec<NodeId> {
        let newly = self
            .sim
            .reachable_restricted(self.g, &self.phi, seeds, &self.active);
        for &u in &newly {
            self.active[u as usize] = true;
        }
        self.num_active += newly.len();
        newly
    }

    fn active_mask(&self) -> &[bool] {
        &self.active
    }

    fn num_active(&self) -> usize {
        self.num_active
    }
}

/// Oracle that draws the world lazily (deferred decisions).
///
/// IC keeps no record of its coins: an edge is examined only when its
/// source is dequeued, and a node is dequeued only in the `observe` that
/// activates it, so no coin is ever asked for twice.
pub struct SimulationOracle<'g, R: Rng> {
    g: &'g Graph,
    model: Model,
    rng: R,
    /// LT: the source of each node's chosen in-edge once drawn, else
    /// `LT_UNDRAWN`; a choice persists across `observe` calls.
    chosen: Vec<NodeId>,
    active: Vec<bool>,
    num_active: usize,
}

impl<'g, R: Rng> SimulationOracle<'g, R> {
    /// New lazily-sampled world.
    pub fn new(g: &'g Graph, model: Model, rng: R) -> Self {
        SimulationOracle {
            g,
            model,
            rng,
            chosen: if model == Model::LT {
                vec![LT_UNDRAWN; g.n()]
            } else {
                Vec::new()
            },
            active: vec![false; g.n()],
            num_active: 0,
        }
    }
}

impl<R: Rng> InfluenceOracle for SimulationOracle<'_, R> {
    fn observe(&mut self, seeds: &[NodeId]) -> Vec<NodeId> {
        let SimulationOracle {
            g,
            model,
            rng,
            chosen,
            active,
            ..
        } = self;
        let mut newly = Vec::new();
        for &s in seeds {
            if !active[s as usize] {
                active[s as usize] = true;
                newly.push(s);
            }
        }
        // `newly` is the BFS queue too: it receives every node in the order
        // it is reached.
        let mut head = 0;
        while head < newly.len() {
            let u = newly[head];
            head += 1;
            for (v, p) in g.out_edges(u) {
                if active[v as usize] {
                    continue;
                }
                let live = match model {
                    Model::IC => rng.random::<f64>() < p,
                    Model::LT => {
                        let choice = &mut chosen[v as usize];
                        if *choice == LT_UNDRAWN {
                            *choice = draw_lt_choice(g, v, rng);
                        }
                        *choice == u
                    }
                };
                if live {
                    active[v as usize] = true;
                    newly.push(v);
                }
            }
        }
        self.num_active += newly.len();
        newly
    }

    fn active_mask(&self) -> &[bool] {
        &self.active
    }

    fn num_active(&self) -> usize {
        self.num_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 1.0).unwrap();
        b.add_edge_p(1, 2, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn realization_oracle_observes_incrementally() {
        let g = path3();
        let phi = Realization::from_ic_statuses(vec![true, false]);
        let mut o = RealizationOracle::new(&g, phi);
        let mut first = o.observe(&[0]);
        first.sort_unstable();
        assert_eq!(first, vec![0, 1]);
        assert_eq!(o.num_active(), 2);
        // re-observing an active node yields nothing
        assert!(o.observe(&[1]).is_empty());
        let second = o.observe(&[2]);
        assert_eq!(second, vec![2]);
        assert_eq!(o.num_active(), 3);
    }

    #[test]
    fn reset_clears_activations() {
        let g = path3();
        let phi = Realization::from_ic_statuses(vec![true, true]);
        let mut o = RealizationOracle::new(&g, phi);
        o.observe(&[0]);
        assert_eq!(o.num_active(), 3);
        o.reset();
        assert_eq!(o.num_active(), 0);
        assert!(o.active_mask().iter().all(|&b| !b));
    }

    #[test]
    fn simulation_oracle_consistent_coins() {
        // p = 1 edges: the lazy oracle must activate the whole path.
        let g = path3();
        let mut o = SimulationOracle::new(&g, Model::IC, SmallRng::seed_from_u64(3));
        let newly = o.observe(&[0]);
        assert_eq!(newly.len(), 3);
        assert_eq!(o.num_active(), 3);
    }

    #[test]
    fn simulation_oracle_draws_each_edge_once() {
        // One edge with p = 0.5: observing each endpoint repeatedly must
        // never flip the coin twice (the edge is examined only once).
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        for seed in 0..200u64 {
            let mut o = SimulationOracle::new(&g, Model::IC, SmallRng::seed_from_u64(seed));
            let first = o.observe(&[0]).len();
            // after the first observation, the world is fixed
            let total = o.num_active();
            assert_eq!(total, first);
            assert!(o.observe(&[0]).is_empty());
        }
    }

    #[test]
    fn simulation_oracle_lt_mean_matches() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.25).unwrap();
        let g = b.build().unwrap();
        let mut hits = 0usize;
        let trials = 20_000;
        for seed in 0..trials {
            let mut o = SimulationOracle::new(&g, Model::LT, SmallRng::seed_from_u64(seed as u64));
            hits += o.observe(&[0]).len() - 1;
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn oracles_agree_on_deterministic_graphs() {
        let g = path3();
        let phi = Realization::from_ic_statuses(vec![true, true]);
        let mut a = RealizationOracle::new(&g, phi);
        let mut b = SimulationOracle::new(&g, Model::IC, SmallRng::seed_from_u64(1));
        assert_eq!(a.observe(&[2]), b.observe(&[2]));
        assert_eq!(a.observe(&[0]).len(), b.observe(&[0]).len());
    }
}
