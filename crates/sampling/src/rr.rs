//! Reverse reachable (RR) set sampling.
//!
//! A random RR set rooted at `v` contains every node that reaches `v` in a
//! random realization; `E[I(S)] = n · Pr[RR ∩ S ≠ ∅]` (Borgs et al., §3.2).
//! The sampler performs a *stochastic* reverse BFS, drawing each random
//! choice on first examination (principle of deferred decisions), so no
//! realization is ever materialized:
//!
//! * **IC** — each incoming edge is flipped independently the first time its
//!   head node is dequeued; since every node is dequeued at most once, each
//!   edge is examined at most once and the merged multi-root search remains
//!   consistent with a single underlying realization (§3.3's requirement);
//! * **LT** — the dequeued node draws its single live in-edge.
//!
//! The sampler honors a residual alive-mask so the same code serves rounds
//! `i > 1` on `G_i`.
//!
//! The dequeued node's in-edges come from [`Graph::in_sources`]: when they
//! all share one probability (every node under weighted cascade and uniform
//! weights) the loop streams only the source column against that constant,
//! otherwise it reads each edge's probability from [`Graph::in_edges`]. Both
//! run the same loop body over the same sources in the same order, so they
//! draw the same coins, compare them against the same probabilities and
//! count the same edges: which path runs changes the speed, never a sampled
//! set.

use rand::Rng;
use smin_diffusion::Model;
use smin_graph::{FixedBitSet, Graph, NodeId};

/// Reusable scratch for reverse stochastic BFS on one graph.
pub struct ReverseSampler {
    /// Word-packed frontier membership: 8× denser than the former
    /// `Vec<bool>`, so the mask for a million-node graph stays cache-resident
    /// across the thousands of samples each doubling round draws.
    visited: FixedBitSet,
}

impl ReverseSampler {
    /// Scratch for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        ReverseSampler {
            visited: FixedBitSet::new(n),
        }
    }

    /// Samples one RR/mRR set from `roots` into `out` (cleared first).
    ///
    /// Dead roots (per `alive`) are skipped. The returned set lists every
    /// alive node that reaches some root in the sampled world, roots
    /// included, in BFS order: `out` is the search queue. Returns the number
    /// of edges examined (the sampler's cost, used by the EPT accounting in
    /// benchmarks).
    pub fn sample_into(
        &mut self,
        g: &Graph,
        model: Model,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) -> usize {
        out.clear();
        let is_alive = |u: NodeId| alive.is_none_or(|a| a[u as usize]);
        for &r in roots {
            if is_alive(r) && self.visited.insert(r as usize) {
                out.push(r);
            }
        }
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let visited = &mut self.visited;
            edges_examined += match g.in_sources(v) {
                (srcs, Some(p)) => {
                    let in_edges = srcs.iter().map(|&u| (u, p));
                    expand(visited, model, in_edges, is_alive, rng, out)
                }
                (_, None) => {
                    let in_edges = g.in_edges(v).map(|(u, p, _)| (u, p));
                    expand(visited, model, in_edges, is_alive, rng, out)
                }
            };
        }
        // O(|set|) cleanup keeps repeated sampling allocation-free.
        for &u in out.iter() {
            self.visited.remove(u as usize);
        }
        edges_examined
    }

    /// Convenience wrapper allocating a fresh vector.
    pub fn sample(
        &mut self,
        g: &Graph,
        model: Model,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.sample_into(g, model, alive, roots, rng, &mut out);
        out
    }
}

/// Examines one dequeued node's `(source, probability)` in-edges, appends
/// every newly reached alive source to `out`, and returns the number of
/// edges examined.
#[inline]
fn expand(
    visited: &mut FixedBitSet,
    model: Model,
    in_edges: impl Iterator<Item = (NodeId, f64)>,
    is_alive: impl Fn(NodeId) -> bool,
    rng: &mut impl Rng,
    out: &mut Vec<NodeId>,
) -> usize {
    let mut examined = 0usize;
    match model {
        Model::IC => {
            for (u, p) in in_edges {
                if !is_alive(u) {
                    continue;
                }
                examined += 1;
                if !visited.contains(u as usize) && rng.random::<f64>() < p {
                    visited.insert(u as usize);
                    out.push(u);
                }
            }
        }
        Model::LT => {
            // v keeps exactly one live in-edge with prob p(u, v); if the
            // chosen source is dead the choice maps to "none", which is
            // exactly the induced-subgraph distribution.
            let mut r = rng.random::<f64>();
            for (u, p) in in_edges {
                examined += 1;
                if r < p {
                    if is_alive(u) && visited.insert(u as usize) {
                        out.push(u);
                    }
                    break;
                }
                r -= p;
            }
        }
    }
    examined
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::Model;
    use smin_graph::GraphBuilder;

    fn path3(p: f64) -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, p).unwrap();
        b.add_edge_p(1, 2, p).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn p1_gives_full_ancestor_closure() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = s.sample(&g, Model::IC, None, &[2], &mut rng);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
    }

    #[test]
    fn tiny_p_gives_root_only() {
        let g = path3(1e-12);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let rr = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(rr, vec![2]);
    }

    #[test]
    fn root_always_present() {
        let g = path3(0.5);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let rr = s.sample(&g, Model::IC, None, &[1], &mut rng);
            assert!(rr.contains(&1));
        }
    }

    #[test]
    fn membership_rate_equals_reach_probability() {
        // P[0 ∈ RR(2)] = P[0 reaches 2] = p².
        let g = path3(0.5);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 40_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            if s.sample(&g, Model::IC, None, &[2], &mut rng).contains(&0) {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn alive_mask_blocks_dead_nodes() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(4);
        let alive = vec![true, false, true];
        // node 1 is dead: 0 can no longer reach 2 inside the residual graph
        let rr = s.sample(&g, Model::IC, Some(&alive), &[2], &mut rng);
        assert_eq!(rr, vec![2]);
        // a dead root yields an empty set
        let rr = s.sample(&g, Model::IC, Some(&alive), &[1], &mut rng);
        assert!(rr.is_empty());
    }

    #[test]
    fn multi_root_is_union_like() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut rr = s.sample(&g, Model::IC, None, &[0, 2], &mut rng);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
        // duplicated roots are not double-counted
        let rr = s.sample(&g, Model::IC, None, &[0, 0], &mut rng);
        assert_eq!(rr, vec![0]);
    }

    #[test]
    fn lt_membership_rate_matches_choice_probability() {
        // v2 has two parents each with p = 0.3; P[0 ∈ RR(2)] = 0.3.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 2, 0.3).unwrap();
        b.add_edge_p(1, 2, 0.3).unwrap();
        let g = b.build().unwrap();
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(6);
        let trials = 40_000;
        let mut hit0 = 0usize;
        let mut both = 0usize;
        for _ in 0..trials {
            let rr = s.sample(&g, Model::LT, None, &[2], &mut rng);
            if rr.contains(&0) {
                hit0 += 1;
            }
            if rr.contains(&0) && rr.contains(&1) {
                both += 1;
            }
        }
        let rate = hit0 as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
        assert_eq!(both, 0, "LT keeps at most one live in-edge");
    }

    #[test]
    fn lt_dead_chosen_source_maps_to_none() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut s = ReverseSampler::new(2);
        let mut rng = SmallRng::seed_from_u64(7);
        let alive = vec![false, true];
        let rr = s.sample(&g, Model::LT, Some(&alive), &[1], &mut rng);
        assert_eq!(rr, vec![1]);
    }

    #[test]
    fn scratch_is_clean_between_samples() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(a.len(), 3);
        let b = s.sample(&g, Model::IC, None, &[0], &mut rng);
        assert_eq!(b, vec![0]);
        let c = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(c.len(), 3);
    }
}
