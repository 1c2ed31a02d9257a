//! Mutable edge accumulator producing immutable [`Graph`]s.

use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// What to do when the same directed edge `⟨u, v⟩` is added more than once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DedupPolicy {
    /// Combine duplicate probabilities with a noisy-or: `1 − Π(1 − p_i)`.
    /// This is the natural semantics for independent-cascade edges and the
    /// default.
    #[default]
    NoisyOr,
    /// Keep the first occurrence, drop the rest.
    KeepFirst,
    /// Fail with [`GraphError::DuplicateEdge`].
    Error,
}

/// Accumulates edges and produces a CSR [`Graph`].
///
/// ```
/// use smin_graph::{GraphBuilder, DedupPolicy};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge_p(0, 1, 0.5).unwrap();
/// b.add_edge_p(1, 2, 0.9).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
    dedup: DedupPolicy,
    skipped_self_loops: usize,
}

impl GraphBuilder {
    /// A builder for a graph over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            dedup: DedupPolicy::default(),
            skipped_self_loops: 0,
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            dedup: DedupPolicy::default(),
            skipped_self_loops: 0,
        }
    }

    /// Sets the duplicate-edge policy (default: [`DedupPolicy::NoisyOr`]).
    pub fn dedup_policy(mut self, policy: DedupPolicy) -> Self {
        self.dedup = policy;
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges accumulated so far (pre-dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Self loops silently skipped so far (they carry no influence).
    pub fn skipped_self_loops(&self) -> usize {
        self.skipped_self_loops
    }

    /// Adds `⟨u, v⟩` with placeholder probability 1.0 (reweight later via
    /// [`weights`](crate::weights)). Self loops are skipped and counted.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.add_edge_p(u, v, 1.0)
    }

    /// Adds `⟨u, v⟩` with probability `p ∈ (0, 1]`.
    pub fn add_edge_p(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<(), GraphError> {
        if u as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(GraphError::InvalidProbability { u, v, p });
        }
        if u == v {
            self.skipped_self_loops += 1;
            return Ok(());
        }
        self.edges.push((u, v, p));
        Ok(())
    }

    /// Adds both `⟨u, v⟩` and `⟨v, u⟩` (undirected input, §6.1: "an
    /// undirected edge is transformed into two directed edges").
    pub fn add_undirected_p(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<(), GraphError> {
        self.add_edge_p(u, v, p)?;
        self.add_edge_p(v, u, p)
    }

    /// Sorts, deduplicates, and freezes into a CSR [`Graph`].
    pub fn build(mut self) -> Result<Graph, GraphError> {
        // Counting sort by source gives O(n + m); then sort each bucket by dst.
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));

        let mut fwd_off = vec![0usize; self.n + 1];
        let mut fwd_dst: Vec<NodeId> = Vec::with_capacity(self.edges.len());
        let mut fwd_prob: Vec<f64> = Vec::with_capacity(self.edges.len());

        let mut i = 0;
        while i < self.edges.len() {
            let (u, v, p) = self.edges[i];
            let mut j = i + 1;
            let mut merged = p;
            while j < self.edges.len() && self.edges[j].0 == u && self.edges[j].1 == v {
                let q = self.edges[j].2;
                match self.dedup {
                    DedupPolicy::NoisyOr => merged = 1.0 - (1.0 - merged) * (1.0 - q),
                    DedupPolicy::KeepFirst => {}
                    DedupPolicy::Error => return Err(GraphError::DuplicateEdge { u, v }),
                }
                j += 1;
            }
            fwd_dst.push(v);
            fwd_prob.push(merged.min(1.0));
            fwd_off[u as usize + 1] += 1;
            i = j;
        }
        for k in 0..self.n {
            fwd_off[k + 1] += fwd_off[k];
        }

        Ok(Graph::from_csr(self.n, fwd_off, fwd_dst, fwd_prob))
    }
}

/// Builds a graph directly from an iterator of `(u, v)` pairs with uniform
/// probability `p`, mirroring each edge when `directed` is false.
pub fn graph_from_pairs(
    n: usize,
    pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    directed: bool,
    p: f64,
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for (u, v) in pairs {
        if directed {
            b.add_edge_p(u, v, p)?;
        } else {
            b.add_undirected_p(u, v, p)?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 2),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge_p(0, 1, 0.0).is_err());
        assert!(b.add_edge_p(0, 1, 1.5).is_err());
        assert!(b.add_edge_p(0, 1, f64::NAN).is_err());
        assert!(b.add_edge_p(0, 1, 1.0).is_ok());
    }

    #[test]
    fn skips_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.skipped_self_loops(), 1);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn noisy_or_dedup() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
        let (_, p) = g.out_edges(0).next().unwrap();
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn keep_first_dedup() {
        let mut b = GraphBuilder::new(2).dedup_policy(DedupPolicy::KeepFirst);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 1, 0.9).unwrap();
        let g = b.build().unwrap();
        let (_, p) = g.out_edges(0).next().unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn error_dedup() {
        let mut b = GraphBuilder::new(2).dedup_policy(DedupPolicy::Error);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 1, 0.9).unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_p(0, 1, 0.3).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(5).build().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn graph_from_pairs_undirected() {
        let g = graph_from_pairs(3, vec![(0, 1), (1, 2)], false, 0.5).unwrap();
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(2, 1));
    }
}
