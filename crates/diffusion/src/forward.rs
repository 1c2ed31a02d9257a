//! Forward propagation: spread `I_ϕ(S)` on a realization and fresh-coin
//! simulation.
//!
//! [`ForwardSim`] owns reusable scratch buffers so repeated spread queries on
//! the same graph allocate nothing (the Monte-Carlo estimator calls it tens
//! of thousands of times).

use crate::model::Model;
use crate::realization::{draw_lt_choice, Realization, LT_UNDRAWN};
use rand::Rng;
use smin_graph::{Graph, NodeId};

/// Reusable BFS scratch for forward spread computations over one graph.
pub struct ForwardSim {
    visited: Vec<bool>,
    /// The nodes the current run reached, in the order it reached them: the
    /// run's BFS queue, and where the next run clears `visited`, so clearing
    /// between runs is O(touched), not O(n).
    touched: Vec<NodeId>,
    /// [`Self::simulate_lt`]'s choices, sized on its first call: each
    /// node's drawn source, else `LT_UNDRAWN`.
    chosen: Vec<NodeId>,
    /// The nodes whose choice the current run drew, reset by the next run.
    drawn: Vec<NodeId>,
}

impl ForwardSim {
    /// Scratch sized for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        ForwardSim {
            visited: vec![false; n],
            touched: Vec::new(),
            chosen: Vec::new(),
            drawn: Vec::new(),
        }
    }

    fn visit(&mut self, v: NodeId) {
        self.visited[v as usize] = true;
        self.touched.push(v);
    }

    /// Clears the previous run, then reaches each of `seeds` once, except
    /// those already `active`.
    fn start(&mut self, seeds: &[NodeId], active: Option<&[bool]>) {
        for &u in &self.touched {
            self.visited[u as usize] = false;
        }
        self.touched.clear();
        for &v in &self.drawn {
            self.chosen[v as usize] = LT_UNDRAWN;
        }
        self.drawn.clear();
        for &s in seeds {
            if !self.visited[s as usize] && !active.is_some_and(|a| a[s as usize]) {
                self.visit(s);
            }
        }
    }

    /// Spread `I_ϕ(S)`: number of nodes reachable from `seeds` via live edges
    /// of `phi`.
    pub fn spread(&mut self, g: &Graph, phi: &Realization, seeds: &[NodeId]) -> usize {
        self.spread_restricted(g, phi, seeds, None)
    }

    /// Marginal spread `I_ϕ(S | S_active)`: live-edge reachability restricted
    /// to nodes that are not already `active` (§2.3 — the marginal spread of
    /// `S` equals its spread in the residual graph). Seeds already active
    /// contribute nothing.
    pub fn spread_restricted(
        &mut self,
        g: &Graph,
        phi: &Realization,
        seeds: &[NodeId],
        active: Option<&[bool]>,
    ) -> usize {
        self.run(g, phi, seeds, active);
        self.touched.len()
    }

    /// As [`spread_restricted`](Self::spread_restricted) but returning the
    /// newly reached nodes (the "observe" step of Algorithm 1).
    pub fn reachable_restricted(
        &mut self,
        g: &Graph,
        phi: &Realization,
        seeds: &[NodeId],
        active: &[bool],
    ) -> Vec<NodeId> {
        self.run(g, phi, seeds, Some(active));
        self.touched.clone()
    }

    fn run(&mut self, g: &Graph, phi: &Realization, seeds: &[NodeId], active: Option<&[bool]>) {
        self.start(seeds, active);
        let blocked = |u: NodeId| active.is_some_and(|a| a[u as usize]);
        let mut head = 0;
        while head < self.touched.len() {
            let u = self.touched[head];
            head += 1;
            for (e, v, _) in g.out_edges_indexed(u) {
                if !self.visited[v as usize] && !blocked(v) && phi.is_live(e, u, v) {
                    self.visit(v);
                }
            }
        }
    }

    /// Fresh-coin IC simulation (flips each touched edge once; equivalent in
    /// distribution to sampling a realization and running [`Self::spread`],
    /// but without materializing `O(m)` state).
    pub fn simulate_ic(&mut self, g: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
        self.start(seeds, None);
        let mut head = 0;
        while head < self.touched.len() {
            let u = self.touched[head];
            head += 1;
            for (v, p) in g.out_edges(u) {
                if !self.visited[v as usize] && rng.random::<f64>() < p {
                    self.visit(v);
                }
            }
        }
        self.touched.len()
    }

    /// Fresh-choice LT simulation via the live-edge equivalence (Kempe et
    /// al. 2003): BFS forward, and for edge `u → v` decide whether `v`
    /// chose `u`, drawing `v`'s single live in-edge on its first
    /// examination.
    pub fn simulate_lt(&mut self, g: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
        self.start(seeds, None);
        self.chosen.resize(g.n(), LT_UNDRAWN);
        let mut head = 0;
        while head < self.touched.len() {
            let u = self.touched[head];
            head += 1;
            for (v, _) in g.out_edges(u) {
                if self.visited[v as usize] {
                    continue;
                }
                if self.chosen[v as usize] == LT_UNDRAWN {
                    self.chosen[v as usize] = draw_lt_choice(g, v, rng);
                    self.drawn.push(v);
                }
                if self.chosen[v as usize] == u {
                    self.visit(v);
                }
            }
        }
        self.touched.len()
    }

    /// Dispatches on `model`.
    pub fn simulate(
        &mut self,
        g: &Graph,
        model: Model,
        seeds: &[NodeId],
        rng: &mut impl Rng,
    ) -> usize {
        match model {
            Model::IC => self.simulate_ic(g, seeds, rng),
            Model::LT => self.simulate_lt(g, seeds, rng),
        }
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
    fn spread_follows_live_edges_only() {
        let g = path3();
        let mut sim = ForwardSim::new(3);
        let all_live = Realization::from_ic_statuses(vec![true, true]);
        assert_eq!(sim.spread(&g, &all_live, &[0]), 3);
        let first_blocked = Realization::from_ic_statuses(vec![false, true]);
        assert_eq!(sim.spread(&g, &first_blocked, &[0]), 1);
        assert_eq!(sim.spread(&g, &first_blocked, &[1]), 2);
    }

    #[test]
    fn restricted_spread_skips_active_nodes() {
        let g = path3();
        let mut sim = ForwardSim::new(3);
        let phi = Realization::from_ic_statuses(vec![true, true]);
        let active = vec![false, true, false];
        // 0 would reach 1 and 2, but 1 is active: propagation stops there —
        // paths through active nodes add nothing new (their live out-edges
        // already fired).
        assert_eq!(sim.spread_restricted(&g, &phi, &[0], Some(&active)), 1);
        // an already-active seed contributes nothing
        assert_eq!(sim.spread_restricted(&g, &phi, &[1], Some(&active)), 0);
    }

    #[test]
    fn reachable_returns_new_nodes() {
        let g = path3();
        let mut sim = ForwardSim::new(3);
        let phi = Realization::from_ic_statuses(vec![true, false]);
        let mut r = sim.reachable_restricted(&g, &phi, &[0], &[false; 3]);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = path3();
        let mut sim = ForwardSim::new(3);
        let phi = Realization::from_ic_statuses(vec![false, false]);
        assert_eq!(sim.spread(&g, &phi, &[0, 0, 0]), 1);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let g = path3();
        let mut sim = ForwardSim::new(3);
        let phi = Realization::from_ic_statuses(vec![true, true]);
        assert_eq!(sim.spread(&g, &phi, &[0]), 3);
        assert_eq!(sim.spread(&g, &phi, &[2]), 1);
        assert_eq!(sim.spread(&g, &phi, &[0]), 3);
    }

    #[test]
    fn simulate_ic_rate_matches_edge_probability() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.4).unwrap();
        let g = b.build().unwrap();
        let mut sim = ForwardSim::new(2);
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 20_000;
        let hits: usize = (0..trials)
            .map(|_| sim.simulate_ic(&g, &[0], &mut rng) - 1)
            .sum();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.4).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn simulate_lt_rate_matches_choice_probability() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 2, 0.3).unwrap();
        b.add_edge_p(1, 2, 0.3).unwrap();
        let g = b.build().unwrap();
        let mut sim = ForwardSim::new(3);
        let mut rng = SmallRng::seed_from_u64(6);
        let trials = 20_000;
        // Seeding {0}: node 2 activates iff its single live in-edge is 0->2,
        // which happens with probability 0.3.
        let hits: usize = (0..trials)
            .map(|_| sim.simulate_lt(&g, &[0], &mut rng) - 1)
            .sum();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn lt_realization_spread_consistent_with_simulation_mean() {
        // line 0 -> 1 -> 2 with p = 0.5 each; E[I({0})] = 1 + 0.5 + 0.25.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut sim = ForwardSim::new(3);
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 40_000;
        let mut total_phi = 0usize;
        let mut total_sim = 0usize;
        for _ in 0..trials {
            let phi = Realization::sample(&g, Model::LT, &mut rng);
            total_phi += sim.spread(&g, &phi, &[0]);
            total_sim += sim.simulate_lt(&g, &[0], &mut rng);
        }
        let mean_phi = total_phi as f64 / trials as f64;
        let mean_sim = total_sim as f64 / trials as f64;
        assert!((mean_phi - 1.75).abs() < 0.03, "phi mean = {mean_phi}");
        assert!((mean_sim - 1.75).abs() < 0.03, "sim mean = {mean_sim}");
    }
}
