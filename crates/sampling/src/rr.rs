//! Reverse reachable (RR) set sampling.
//!
//! A random RR set rooted at `v` contains every node that reaches `v` in a
//! random realization; `E[I(S)] = n · Pr[RR ∩ S ≠ ∅]` (Borgs et al., §3.2).
//! The sampler performs a *stochastic* reverse BFS, drawing each random
//! choice on first examination (principle of deferred decisions), so no
//! realization is ever materialized:
//!
//! * **IC** — the first time a node is dequeued, the sampler decides which
//!   of its in-edges are live; since every node is dequeued at most once,
//!   each edge is decided at most once and the merged multi-root search
//!   remains consistent with a single underlying realization (§3.3's
//!   requirement);
//! * **LT** — the dequeued node draws its single live in-edge.
//!
//! The sampler honors a residual alive-mask so the same code serves rounds
//! `i > 1` on `G_i`. Each model has its own BFS loop, so neither pays for
//! the other's branches.
//!
//! # IC: the live in-edges of a node at once
//!
//! Under IC each in-edge of a dequeued node `v` is live independently with
//! its probability. When `v`'s `d` in-edges all share one `p` (every node
//! under weighted cascade and uniform weights), the number of live ones is
//! `c ~ Binomial(d, p)`, and given `c` the live subset is uniform over the
//! `C(d, c)` subsets of positions. So the sampler draws `c` from one
//! uniform `x` by sequential inversion — the smallest `c` with
//! `x < P(0) + … + P(c)`, from `P(0) = (1 − p)^d` (stored per node by the
//! graph, [`Graph::in_sources_ic`]) and
//! `P(c + 1) = P(c)·(d − c)/(c + 1)·p/(1 − p)` — then `c` distinct
//! positions: one range draw when `c = 1`, Floyd's algorithm when `c ≥ 2`.
//! Each picked source that is alive and not yet in the set joins it; a dead
//! or already-visited source drawn live is dropped, exactly as a per-edge
//! coin on it would never add it. This is the subset sampling of SUBSIM
//! (Guo, Tang, Tang, Xiao, SIGMOD 2020) with the count drawn by inversion
//! instead of geometric skips: under weighted cascade `d·p = 1`, so a node
//! costs about two draws instead of one coin per in-edge. `p = 1` adds
//! every source without a draw.
//!
//! The draw pays only while live in-edges are few next to all in-edges:
//! each live one costs an inversion step, a range draw and a pick where a
//! coin costs one draw, and a coin on a source already in the set is never
//! flipped, while the draw picks such sources and drops them. So a node
//! draws by count only when `p ≤` [`MAX_BINOMIAL_P`] and
//! `d·p ≤` [`MAX_BINOMIAL_MEAN`]; every other IC node flips one coin per
//! alive in-edge not yet in the set, as do nodes without a shared
//! probability (trivalency, mixed weights). Under weighted cascade
//! (`p = 1/d`) that is every node with three or more in-edges; in-degree 2
//! flips coins. With `p ≤ 1/3`, `(1 − p)^d ≥ e^(−1.22·d·p)`, so at
//! `d·p ≤ 16` the inversion starts from at least `e^(−19.5)`, never from an
//! underflowed `P(0)`. The choice depends only on the graph, never on an
//! option.
//!
//! # What `edges_examined` counts
//!
//! The count is the sampler's cost (the EPT accounting of Lemma 3.8): the
//! in-edges it reads. The per-edge IC coins count every alive in-edge of a
//! dequeued node; the binomial draw counts the `c` in-edges it returns,
//! alive or not (`d` when `p = 1`), which are the only ones it reads. In
//! expectation that is `d·p`: at most the coins' `d` when every source is
//! alive, and at most `p` more per dead source otherwise, so Lemma 3.8's
//! bound on the coins' count bounds the draw's too, up to that share.
//! LT counts the in-edges its scan examines.
//!
//! # LT
//!
//! The dequeued node's in-edges come from [`Graph::in_sources`]. LT on a
//! node whose `d` in-edges share `p` skips the loop: its subtraction scan
//! (`r < p` picks, else `r -= p`) stops at index `⌊r/p⌋`, which one
//! division finds. When `r` lies within the scan's accumulated rounding
//! error of a multiple of `p`, the division and the scan could disagree, so
//! the sampler runs the scan on the same `r` instead (see `lt_shared`).
//! Either way the node draws one coin, picks the same source and reports
//! the edges the scan examines. Nodes without a shared probability read
//! each edge's probability from [`Graph::in_probs`].

use rand::Rng;
use smin_diffusion::Model;
use smin_graph::{FixedBitSet, Graph, NodeId};

/// Largest shared probability `p` for which an IC node draws its live
/// in-edges by count. Timed per IC set on 5 000-node Chung–Lu graphs of
/// mean in-degree 4 and 10 under uniform `p`, against the coins in the same
/// binary: the draw took 0.81–0.89× the coins' time at `p = 0.3`, but
/// 0.87–1.22× at `p = 0.4` and 1.12–1.46× at `p = 0.5`, where sets fill
/// most of the graph and most picks land on sources already in the set.
pub const MAX_BINOMIAL_P: f64 = 1.0 / 3.0;

/// Largest mean number of live in-edges, `d·p`, for which an IC node draws
/// them by count: sequential inversion steps about `d·p + 1` times and
/// Floyd's algorithm compares each pick with the ones before it, so the
/// draw's cost grows faster than the mean where the coins' grows with `d`.
/// On one in-star at `p = 1/4`, the draw took 0.71× the coins' time at
/// `d·p = 16` and 1.06× at 128. Under weighted cascade `d·p = 1`.
pub const MAX_BINOMIAL_MEAN: f64 = 16.0;

/// Reusable scratch for reverse stochastic BFS on one graph.
pub struct ReverseSampler {
    /// Word-packed frontier membership: 8× denser than the former
    /// `Vec<bool>`, so the mask for a million-node graph stays cache-resident
    /// across the thousands of samples each round draws.
    visited: FixedBitSet,
    /// In-edge positions picked so far by one node's Floyd draw.
    picks: Vec<usize>,
}

impl ReverseSampler {
    /// Scratch for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        ReverseSampler {
            visited: FixedBitSet::new(n),
            picks: Vec::new(),
        }
    }

    /// Samples one RR/mRR set from `roots` into `out` (cleared first).
    ///
    /// Dead roots (per `alive`) are skipped. The returned set lists every
    /// alive node that reaches some root in the sampled world, roots
    /// included, in BFS order: `out` is the search queue. Returns the number
    /// of edges examined (the sampler's cost, used by the EPT accounting in
    /// benchmarks; the module docs say what it counts).
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
        let edges_examined = match model {
            Model::IC => self.ic_search(g, is_alive, rng, out),
            Model::LT => self.lt_search(g, is_alive, rng, out),
        };
        // O(|set|) cleanup keeps repeated sampling allocation-free.
        for &u in out.iter() {
            self.visited.remove(u as usize);
        }
        edges_examined
    }

    /// IC's reverse BFS from the roots already in `out`; returns the edges
    /// examined. Kept out of line, as [`lt_search`](Self::lt_search) is, so
    /// each model's loop is compiled on its own, whatever the other's code.
    #[inline(never)]
    fn ic_search(
        &mut self,
        g: &Graph,
        is_alive: impl Fn(NodeId) -> bool + Copy,
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) -> usize {
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let visited = &mut self.visited;
            edges_examined += match g.in_sources_ic(v) {
                (srcs, Some((1.0, _))) => {
                    for &u in srcs {
                        keep(visited, u, is_alive(u), out);
                    }
                    srcs.len()
                }
                (srcs, Some((p, p0)))
                    if p <= MAX_BINOMIAL_P && srcs.len() as f64 * p <= MAX_BINOMIAL_MEAN =>
                {
                    let c = binomial_count(srcs.len(), p, p0, rng.random());
                    ic_live_subset(visited, &mut self.picks, srcs, c, is_alive, rng, out);
                    c
                }
                (srcs, Some((p, _))) => {
                    let in_edges = srcs.iter().map(|&u| (u, p));
                    ic_coins(visited, in_edges, is_alive, rng, out)
                }
                (srcs, None) => {
                    let in_edges = srcs.iter().copied().zip(g.in_probs(v).iter().copied());
                    ic_coins(visited, in_edges, is_alive, rng, out)
                }
            };
        }
        edges_examined
    }

    /// LT's reverse BFS from the roots already in `out`; returns the edges
    /// examined.
    #[inline(never)]
    fn lt_search(
        &mut self,
        g: &Graph,
        is_alive: impl Fn(NodeId) -> bool + Copy,
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) -> usize {
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let visited = &mut self.visited;
            edges_examined += match g.in_sources(v) {
                (srcs, Some(p)) => lt_shared(visited, srcs, p, is_alive, rng.random(), out),
                (srcs, None) => {
                    let in_edges = srcs.iter().copied().zip(g.in_probs(v).iter().copied());
                    lt_scan(visited, in_edges, is_alive, rng.random(), out)
                }
            };
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

/// IC's per-edge coins for one dequeued node's `(source, probability)`
/// in-edges: appends every newly reached alive source to `out` and returns
/// the number of alive in-edges examined.
#[inline]
fn ic_coins(
    visited: &mut FixedBitSet,
    in_edges: impl Iterator<Item = (NodeId, f64)>,
    is_alive: impl Fn(NodeId) -> bool,
    rng: &mut impl Rng,
    out: &mut Vec<NodeId>,
) -> usize {
    let mut examined = 0usize;
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
    examined
}

/// The number of live in-edges among `d` that are each live with
/// probability `p < 1`, from the uniform `x` by sequential inversion: the
/// smallest `c` with `x < P(0) + … + P(c)` for `c ~ Binomial(d, p)`, where
/// `p0 = P(0) = (1 − p)^d` and `P(c + 1) = P(c)·(d − c)/(c + 1)·p/(1 − p)`.
/// Stops at `d` should rounding leave the sum a hair below `x`.
#[inline]
fn binomial_count(d: usize, p: f64, p0: f64, x: f64) -> usize {
    let odds = p / (1.0 - p);
    let (mut c, mut pmf, mut cdf) = (0usize, p0, p0);
    while x >= cdf && c < d {
        pmf *= (d - c) as f64 / (c + 1) as f64 * odds;
        c += 1;
        cdf += pmf;
    }
    c
}

/// Picks `c` distinct positions of `srcs` uniformly — one range draw when
/// `c = 1`, Floyd's algorithm when `c ≥ 2` — and keeps each picked source
/// that is alive and not yet visited, in the order picked. The range draw
/// is Floyd's first step without its scratch; `c = 1` is the commonest
/// nonzero count under weighted cascade, and sending it through Floyd made
/// IC sets about 5% slower.
///
/// Floyd's algorithm: for `j = d − c, …, d − 1`, draw `t` uniform in
/// `0..=j` and pick `t`, or `j` when `t` was picked already. Every
/// `c`-subset comes out with probability `1/C(d, c)`. `picks` is scratch.
#[inline]
fn ic_live_subset(
    visited: &mut FixedBitSet,
    picks: &mut Vec<usize>,
    srcs: &[NodeId],
    c: usize,
    is_alive: impl Fn(NodeId) -> bool,
    rng: &mut impl Rng,
    out: &mut Vec<NodeId>,
) {
    let d = srcs.len();
    match c {
        0 => {}
        1 => {
            let u = srcs[rng.random_range(0..d)];
            keep(visited, u, is_alive(u), out);
        }
        _ => {
            picks.clear();
            for j in d - c..d {
                let t = rng.random_range(0..=j);
                let pick = if picks.contains(&t) { j } else { t };
                picks.push(pick);
                let u = srcs[pick];
                keep(visited, u, is_alive(u), out);
            }
        }
    }
}

/// LT's live in-edge draw for one dequeued node, with the uniform `r`
/// already drawn: walks the `(source, probability)` in-edges subtracting
/// each probability from `r` and keeps the first edge where `r < p`.
/// Returns the number of edges examined.
///
/// The node keeps exactly one live in-edge with probability `p(u, v)`; if
/// the chosen source is dead the choice maps to "none", which is exactly
/// the induced-subgraph distribution.
#[inline]
fn lt_scan(
    visited: &mut FixedBitSet,
    in_edges: impl Iterator<Item = (NodeId, f64)>,
    is_alive: impl Fn(NodeId) -> bool,
    mut r: f64,
    out: &mut Vec<NodeId>,
) -> usize {
    let mut examined = 0usize;
    for (u, p) in in_edges {
        examined += 1;
        if r < p {
            keep(visited, u, is_alive(u), out);
            break;
        }
        r -= p;
    }
    examined
}

/// Keeps the picked source `u`: appends it to `out` and marks it visited
/// iff it is `alive` and not visited yet, without branching on either. One
/// [`FixedBitSet::insert_word`] of the alive-masked bit, an unconditional
/// push, and a truncate that takes the push back when no bit was fresh.
#[inline]
fn keep(visited: &mut FixedBitSet, u: NodeId, alive: bool, out: &mut Vec<NodeId>) {
    let i = u as usize;
    let fresh = visited.insert_word(i >> 6, u64::from(alive) << (i & 63));
    let len = out.len();
    out.push(u);
    out.truncate(len + usize::from(fresh != 0));
}

/// [`lt_scan`] over `d` in-edges that all carry `p`, in O(1) unless `r`
/// sits at a multiple of `p`.
///
/// In exact arithmetic the scan stops at `k = ⌊r/p⌋` with `k + 1` edges
/// examined, or examines all `d` and keeps none when `r ≥ d·p`. In floating
/// point, with `u = ε/2`:
///
/// * after `i` subtractions the scan's running value is within `i·u` of
///   `r − i·p`, since each step rounds a result in `[0, 1)`;
/// * the computed `r − k·p`, when it lies in `(0, p)`, is within `2u` of
///   its true value (one rounded product and one rounded difference, both
///   below 1).
///
/// So when the computed remainder lies more than `(d + 4)·ε = (2d + 8)·u`
/// from both 0 and `p`, every step `i < k` of the scan compares `≥ p` and
/// step `k` compares `< p`: the scan picks `srcs[k]`. Likewise, a computed
/// `r − d·p` above the same tolerance means no step compares `< p`.
/// Everything else runs the scan itself on the same `r`, so the pick and
/// the edge count equal the scan's on every input.
#[inline]
fn lt_shared(
    visited: &mut FixedBitSet,
    srcs: &[NodeId],
    p: f64,
    is_alive: impl Fn(NodeId) -> bool,
    r: f64,
    out: &mut Vec<NodeId>,
) -> usize {
    let d = srcs.len();
    let tol = (d + 4) as f64 * f64::EPSILON;
    // Saturating cast: NaN (r = p = 0) gives 0 and falls back below.
    let k = (r / p) as usize;
    if k < d {
        let rem = r - k as f64 * p;
        if rem > tol && rem < p - tol {
            let u = srcs[k];
            keep(visited, u, is_alive(u), out);
            return k + 1;
        }
    } else if r - d as f64 * p > tol {
        return d;
    }
    lt_scan(visited, srcs.iter().map(|&u| (u, p)), is_alive, r, out)
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
