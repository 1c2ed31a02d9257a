//! Forward propagation: spread `I_ϕ(S)` on a realization and fresh-coin
//! simulation.
//!
//! [`ForwardSim`] owns reusable scratch buffers so repeated spread queries on
//! the same graph allocate nothing (the Monte-Carlo estimator calls it tens
//! of thousands of times).

use crate::model::Model;
use crate::realization::Realization;
use rand::Rng;
use smin_graph::{Graph, NodeId};

/// Reusable BFS scratch for forward spread computations over one graph.
pub struct ForwardSim {
    visited: Vec<bool>,
    /// Epoch trick: `visited` is only valid where `epoch_of == epoch`, so
    /// clearing between runs is O(touched), not O(n).
    touched: Vec<NodeId>,
    queue: Vec<NodeId>,
}

impl ForwardSim {
    /// Scratch sized for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        ForwardSim {
            visited: vec![false; n],
            touched: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for &u in &self.touched {
            self.visited[u as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
    }

    /// Spread `I_ϕ(S)`: number of nodes reachable from `seeds` via live edges
    /// of `phi`.
    pub fn spread(&mut self, g: &Graph, phi: &Realization, seeds: &[NodeId]) -> usize {
        self.spread_restricted(g, phi, seeds, None)
    }

    /// Nodes reached (including the seeds), materialized.
    pub fn reachable(&mut self, g: &Graph, phi: &Realization, seeds: &[NodeId]) -> Vec<NodeId> {
        self.run(g, phi, seeds, None);
        self.touched.clone()
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
        self.reset();
        let blocked = |u: NodeId| active.is_some_and(|a| a[u as usize]);
        for &s in seeds {
            if !self.visited[s as usize] && !blocked(s) {
                self.visited[s as usize] = true;
                self.touched.push(s);
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for (e, v, _) in g.out_edges_indexed(u) {
                if !self.visited[v as usize] && !blocked(v) && phi.is_live(e, u, v) {
                    self.visited[v as usize] = true;
                    self.touched.push(v);
                    self.queue.push(v);
                }
            }
        }
    }

    /// Fresh-coin IC simulation (flips each touched edge once; equivalent in
    /// distribution to sampling a realization and running [`Self::spread`],
    /// but without materializing `O(m)` state).
    pub fn simulate_ic(&mut self, g: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
        self.reset();
        for &s in seeds {
            if !self.visited[s as usize] {
                self.visited[s as usize] = true;
                self.touched.push(s);
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for (v, p) in g.out_edges(u) {
                if !self.visited[v as usize] && rng.random::<f64>() < p {
                    self.visited[v as usize] = true;
                    self.touched.push(v);
                    self.queue.push(v);
                }
            }
        }
        self.touched.len()
    }

    /// Fresh-choice LT simulation via the live-edge equivalence: each
    /// first-touched node draws its single live in-edge on demand.
    pub fn simulate_lt(&mut self, g: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
        // LT forward simulation by thresholds requires tracking accumulated
        // weight per node; the live-edge view is simpler and exactly
        // equivalent (Kempe et al. 2003): sample each node's choice lazily
        // and BFS forward over chosen edges. We do the reverse: BFS forward,
        // and for edge u -> v decide "did v choose u?" by drawing v's choice
        // once on first examination.
        let n = g.n();
        // chosen[v]: u32::MAX - 1 = undrawn, u32::MAX = drew none, else the
        // chosen in-edge's source.
        const UNDRAWN: NodeId = NodeId::MAX - 1;
        const NONE: NodeId = NodeId::MAX;
        let mut chosen = vec![UNDRAWN; n];

        self.reset();
        for &s in seeds {
            if !self.visited[s as usize] {
                self.visited[s as usize] = true;
                self.touched.push(s);
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for (v, _) in g.out_edges(u) {
                if self.visited[v as usize] {
                    continue;
                }
                if chosen[v as usize] == UNDRAWN {
                    let mut r = rng.random::<f64>();
                    chosen[v as usize] = NONE;
                    for (w, p) in g.in_edges(v) {
                        if r < p {
                            chosen[v as usize] = w;
                            break;
                        }
                        r -= p;
                    }
                }
                if chosen[v as usize] == u {
                    self.visited[v as usize] = true;
                    self.touched.push(v);
                    self.queue.push(v);
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
        let mut r = sim.reachable(&g, &phi, &[0]);
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
