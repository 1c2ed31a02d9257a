//! Immutable CSR graph with forward and reverse adjacency.
//!
//! Reverse adjacency is first-class because reverse reachable set sampling
//! (the hot path of TRIM) traverses incoming edges. A reverse slot holds only
//! the edge's source, plus its probability on graphs where some node's
//! in-edges carry different ones; edge-level state (an IC realization's
//! live/blocked status) is indexed by forward edge, and an LT realization
//! names each node's live in-edge by its source.

use crate::cast::u32_of;
use std::iter::{Copied, Repeat, Zip};
use std::slice;

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which covers the
/// largest dataset in the paper (LiveJournal, 4.85M nodes) with room to spare
/// while halving index memory compared to `usize`.
pub type NodeId = u32;

/// Edge count below which CSR construction and snapshot decoding run inline:
/// thread spawn overhead outweighs the parallelism. Purely a performance
/// knob — the output is bit-identical either way.
pub(crate) const MIN_PARALLEL_EDGES: usize = 1 << 18;

/// Environment variable overriding the default worker count (used by CI to
/// exercise both the one-thread and the multi-thread schedule).
pub const THREADS_ENV: &str = "SMIN_THREADS";

/// Resolves the worker count: an explicit request wins, then the
/// [`THREADS_ENV`] override, then [`std::thread::available_parallelism`].
/// Always at least 1. The one parse of [`THREADS_ENV`]: graph construction
/// and sketch sampling (`smin_sampling::resolve_threads`) both call it.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// Worker count for parallel graph construction/decoding: [`resolve_threads`]
/// capped at 8 (the work is memory-bandwidth bound beyond that). Every
/// result is bit-identical for every worker count; this only sets the
/// wall-clock.
pub(crate) fn build_workers(m: usize) -> usize {
    if m < MIN_PARALLEL_EDGES {
        return 1;
    }
    resolve_threads(None).min(8)
}

/// Reverse adjacency of a [`Graph`] in columns: one 16-byte [`InRange`]
/// record per node and its `none_live` entry, then the `src` column and,
/// only on a graph with a node whose in-edges do not share one probability,
/// the `prob` column, both indexed by reverse slot. A reverse BFS over a
/// node whose in-edges share one probability (every node under weighted
/// cascade or uniform weights) loads its record once and then reads only
/// `src`. So a graph whose nodes all share stores 4 bytes per reverse slot
/// and any other graph 12; `prob` is empty when every node shares.
///
/// `none_live[v]` is `(1 − p)^d` for a node whose `d` in-edges share `p`:
/// the probability that none of them is live when each is live
/// independently with probability `p`, which the IC sampler's binomial
/// draw starts from. It is NaN where the node has no shared probability.
/// The column is its own so that [`InRange`] stays 16 bytes, and it is
/// computed once here rather than per dequeued node: computing it per drawn
/// node as `exp(d·ln(1 − p))` raised the `campaign-ic` benchmark's
/// `p50_ms` by 9% (10 of 10 alternating pairs on a 2-vCPU x86-64 VM).
#[derive(Clone, Debug)]
struct RevCsr {
    nodes: Vec<InRange>,
    none_live: Vec<f64>,
    src: Vec<NodeId>,
    prob: Vec<f64>,
}

/// The iterator [`Graph::in_edges`] returns: a node's sources zipped with
/// its shared probability or with its slice of the per-slot column, the
/// variant picked once per node. In an interleaved probe of an LT-style
/// scan over every node on a 2-vCPU x86-64 VM, one `chain` of the column
/// and a repeat in place of the two variants walked a weighted-cascade
/// graph 1.04–1.18× and a trivalency graph 1.25–1.27× slower, and `perf`'s
/// LT realization row read ~1.4× the time it took with per-slot columns.
enum InEdges<'a> {
    Shared(Zip<Copied<slice::Iter<'a, NodeId>>, Repeat<f64>>),
    PerSlot(Zip<Copied<slice::Iter<'a, NodeId>>, Copied<slice::Iter<'a, f64>>>),
}

impl Iterator for InEdges<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, f64)> {
        match self {
            InEdges::Shared(it) => it.next(),
            InEdges::PerSlot(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            InEdges::Shared(it) => it.size_hint(),
            InEdges::PerSlot(it) => it.size_hint(),
        }
    }
}

/// One node's reverse slots `start..end` and the probability all of its
/// in-edges carry, NaN when they differ or there are none.
#[derive(Clone, Copy, Debug)]
struct InRange {
    start: u32,
    end: u32,
    shared_p: f64,
}

impl InRange {
    #[inline]
    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A directed probabilistic graph in compressed-sparse-row form.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder); the
/// resulting graph is immutable. Edges within a node's adjacency are sorted by
/// neighbor id and deduplicated according to the builder's policy.
///
/// The reverse CSR is materialized lazily on the first reverse traversal:
/// loading a snapshot, registering a graph, or restarting a server never pays
/// the O(n + m) transpose, only the first RR-sampling query does — once per
/// graph, with a result that is bit-identical no matter when or from how many
/// threads it is first demanded.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    fwd_off: Vec<usize>,
    fwd_dst: Vec<NodeId>,
    fwd_prob: Vec<f64>,
    rev: std::sync::OnceLock<RevCsr>,
    lt_overload: std::sync::OnceLock<Option<(NodeId, f64)>>,
}

impl Graph {
    /// Assembles a graph from already-sorted CSR arrays. Used by the builder;
    /// not public because it does not validate invariants.
    pub(crate) fn from_csr(
        n: usize,
        fwd_off: Vec<usize>,
        fwd_dst: Vec<NodeId>,
        fwd_prob: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(fwd_off.len(), n + 1);
        debug_assert_eq!(fwd_prob.len(), fwd_dst.len());
        Graph {
            n,
            fwd_off,
            fwd_dst,
            fwd_prob,
            rev: std::sync::OnceLock::new(),
            lt_overload: std::sync::OnceLock::new(),
        }
    }

    /// The reverse CSR, built on first use.
    #[inline]
    fn rev(&self) -> &RevCsr {
        self.rev.get_or_init(|| {
            let workers = build_workers(self.m());
            build_reverse(&self.fwd_off, &self.fwd_dst, &self.fwd_prob, workers)
        })
    }

    /// Raw forward-CSR columns `(offsets, targets, probabilities)` for the
    /// snapshot encoder. Crate-private: the slices expose internal layout.
    pub(crate) fn csr_columns(&self) -> (&[usize], &[NodeId], &[f64]) {
        (&self.fwd_off, &self.fwd_dst, &self.fwd_prob)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.fwd_dst.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.fwd_off[u + 1] - self.fwd_off[u]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.rev().nodes[v as usize].slots().len()
    }

    /// Outgoing neighbors of `u` with propagation probabilities, sorted by id.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let u = u as usize;
        let r = self.fwd_off[u]..self.fwd_off[u + 1];
        self.fwd_dst[r.clone()]
            .iter()
            .copied()
            .zip(self.fwd_prob[r].iter().copied())
    }

    /// Outgoing neighbors of `u` together with the forward edge index.
    #[inline]
    pub fn out_edges_indexed(&self, u: NodeId) -> impl Iterator<Item = (u32, NodeId, f64)> + '_ {
        let u = u as usize;
        let r = self.fwd_off[u]..self.fwd_off[u + 1];
        r.clone()
            .map(u32_of)
            .zip(self.fwd_dst[r.clone()].iter().copied())
            .zip(self.fwd_prob[r].iter().copied())
            .map(|((e, v), p)| (e, v, p))
    }

    /// Incoming neighbors of `v` as `(source, probability)`, sorted by
    /// source. A node whose in-edges share one probability yields that one
    /// from its record; only other nodes read the per-slot column.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let rev = self.rev();
        let rec = rev.nodes[v as usize];
        let srcs = rev.src[rec.slots()].iter().copied();
        if rec.shared_p.is_nan() {
            let probs = rev.prob.get(rec.slots()).unwrap_or_default();
            InEdges::PerSlot(srcs.zip(probs.iter().copied()))
        } else {
            InEdges::Shared(srcs.zip(std::iter::repeat(rec.shared_p)))
        }
    }

    /// The probability of each of `v`'s in-edges, in
    /// [`in_sources`](Self::in_sources) order, where `in_sources` finds no
    /// shared one; empty where it does. Only a graph with such a node
    /// stores these.
    #[inline]
    pub fn in_probs(&self, v: NodeId) -> &[f64] {
        let rev = self.rev();
        let rec = rev.nodes[v as usize];
        if rec.shared_p.is_nan() {
            rev.prob.get(rec.slots()).unwrap_or_default()
        } else {
            &[]
        }
    }

    /// Sources of `v`'s in-edges, in [`in_edges`](Self::in_edges) order,
    /// with the probability every one of them carries. The probability is
    /// `None` when `v` has no in-edges, when two in-edges carry different
    /// probabilities (compared bit for bit), or when they carry NaN.
    #[inline]
    pub fn in_sources(&self, v: NodeId) -> (&[NodeId], Option<f64>) {
        let rev = self.rev();
        let rec = rev.nodes[v as usize];
        let shared = (!rec.shared_p.is_nan()).then_some(rec.shared_p);
        (&rev.src[rec.slots()], shared)
    }

    /// [`in_sources`](Self::in_sources) with, beside the shared probability
    /// `p`, the probability `(1 − p)^d` that none of `v`'s `d` in-edges is
    /// live when each is live independently with probability `p` (IC).
    /// Stored per node when the reverse CSR is built: 0 at `p = 1`, 1 at
    /// `p = 0`, and it may underflow to 0 or a subnormal for large `d·p`.
    #[inline]
    pub fn in_sources_ic(&self, v: NodeId) -> (&[NodeId], Option<(f64, f64)>) {
        let rev = self.rev();
        let rec = rev.nodes[v as usize];
        let shared = (!rec.shared_p.is_nan()).then(|| (rec.shared_p, rev.none_live[v as usize]));
        (&rev.src[rec.slots()], shared)
    }

    /// Iterates every edge as `(u, v, p)` in forward CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.out_edges(u as NodeId)
                .map(move |(v, p)| (u as NodeId, v, p))
        })
    }

    /// Returns whether the directed edge `⟨u, v⟩` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let r = self.fwd_off[u as usize]..self.fwd_off[u as usize + 1];
        self.fwd_dst[r].binary_search(&v).is_ok()
    }

    /// Sum of incoming probabilities of `v`; the LT model requires this to be
    /// at most 1 for every node.
    pub fn in_prob_sum(&self, v: NodeId) -> f64 {
        self.in_edges(v).map(|(_, p)| p).sum()
    }

    /// The first node whose incoming probabilities sum to more than
    /// `1 + 1e-9` (tolerance for floating point accumulation), with that
    /// sum as [`in_prob_sum`](Self::in_prob_sum) computes it: the witness
    /// that the graph is not a valid LT instance. The O(m) scan runs once
    /// per graph.
    pub fn lt_overload(&self) -> Option<(NodeId, f64)> {
        *self.lt_overload.get_or_init(|| {
            (0..u32_of(self.n))
                .map(|v| (v, self.in_prob_sum(v)))
                .find(|&(_, mass)| mass > 1.0 + 1e-9)
        })
    }

    /// `true` when no node has an [`lt_overload`](Self::lt_overload), i.e.
    /// the graph is a valid LT instance.
    pub fn is_valid_lt(&self) -> bool {
        self.lt_overload().is_none()
    }

    /// Replaces every edge probability via `f(u, v, current)` keeping the
    /// structure; used by [`weights`](crate::weights) to apply weight models.
    pub fn map_probabilities(&self, mut f: impl FnMut(NodeId, NodeId, f64) -> f64) -> Graph {
        let mut fwd_prob = Vec::with_capacity(self.m());
        for u in 0..self.n {
            for e in self.fwd_off[u]..self.fwd_off[u + 1] {
                fwd_prob.push(f(u as NodeId, self.fwd_dst[e], self.fwd_prob[e]));
            }
        }
        Graph::from_csr(self.n, self.fwd_off.clone(), self.fwd_dst.clone(), fwd_prob)
    }

    /// Bytes held by the forward and reverse CSR columns (diagnostics),
    /// counted from the columns themselves. Builds the reverse CSR if no
    /// reverse traversal has yet, so the figure does not depend on whether
    /// one has.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let rev = self.rev();
        size_of_val(&self.fwd_off[..])
            + size_of_val(&self.fwd_dst[..])
            + size_of_val(&self.fwd_prob[..])
            + size_of_val(&rev.nodes[..])
            + size_of_val(&rev.none_live[..])
            + size_of_val(&rev.src[..])
            + size_of_val(&rev.prob[..])
    }

    /// In-degree of every node, counted in one pass over the forward
    /// targets: unlike [`in_degree`](Self::in_degree), it never builds the
    /// reverse CSR.
    pub(crate) fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for &v in &self.fwd_dst {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Whether the reverse CSR has been built (tests of who builds it).
    #[cfg(test)]
    pub(crate) fn reverse_built(&self) -> bool {
        self.rev.get().is_some()
    }
}

/// Builds the reverse CSR from forward columns: a counting pass and a prefix
/// sum into the node records, then the scatter of `src`, which also records
/// each node's shared probability, then the `none_live` column from the
/// finished records. Only when some node with in-edges has no shared
/// probability does a second scatter fill `prob`; otherwise the column is
/// never allocated. With `workers > 1` the target-id space is split into
/// contiguous ranges of roughly equal in-edge mass and each worker scatters
/// only its own range into its own disjoint slices of the records and
/// columns — slot positions are a pure function of the input, so the result
/// is bit-identical for every worker count.
fn build_reverse(
    fwd_off: &[usize],
    fwd_dst: &[NodeId],
    fwd_prob: &[f64],
    workers: usize,
) -> RevCsr {
    let m = fwd_dst.len();
    let mut nodes = vec![
        InRange {
            start: 0,
            end: 0,
            shared_p: f64::NAN,
        };
        fwd_off.len() - 1
    ];
    for &v in fwd_dst {
        nodes[v as usize].end += 1;
    }
    // `end` holds the in-degree until here; from here on it is the scatter
    // cursor, which stops at the node's true end.
    let mut acc = 0usize;
    for rec in &mut nodes {
        let deg = rec.end as usize;
        rec.start = u32_of(acc);
        rec.end = rec.start;
        acc += deg;
    }
    let split = ScatterSplit::new(&nodes, m, workers);
    let mut src: Vec<NodeId> = vec![0; m];
    split.run(&mut nodes, &mut src, |vlo, nodes, src| {
        // The first in-edge sets the record's probability and any later one
        // that differs bit for bit sets NaN, which no later edge undoes.
        scatter_reverse(vlo, fwd_off, fwd_dst, nodes, |rec, slot, u, e| {
            src[slot] = u;
            let p = fwd_prob[e];
            if rec.end != rec.start && p.to_bits() != rec.shared_p.to_bits() {
                rec.shared_p = f64::NAN;
            } else {
                rec.shared_p = p;
            }
        });
    });
    let mut prob = Vec::new();
    if nodes.iter().any(|r| r.shared_p.is_nan() && r.end > r.start) {
        prob = vec![0.0; m];
        for rec in &mut nodes {
            rec.end = rec.start;
        }
        split.run(&mut nodes, &mut prob, |vlo, nodes, prob| {
            scatter_reverse(vlo, fwd_off, fwd_dst, nodes, |_, slot, _, e| {
                prob[slot] = fwd_prob[e];
            });
        });
    }
    let none_live = nodes
        .iter()
        .map(|r| none_live_of(r.shared_p, r.slots().len()))
        .collect();
    RevCsr {
        nodes,
        none_live,
        src,
        prob,
    }
}

/// `(1 − p)^d` as `exp(d·ln(1 − p))`, whose relative error stays within a
/// few ulps while `d·p` is small, where `d` multiplications would compound
/// the rounding of `1 − p` `d` times: 0 at `p = 1`, 1 at `p = 0`, NaN for a
/// NaN `p`.
fn none_live_of(p: f64, d: usize) -> f64 {
    (d as f64 * (-p).ln_1p()).exp()
}

/// How a reverse scatter splits over workers: the target-id boundaries of
/// each worker's range and the reverse-slot boundaries they imply.
struct ScatterSplit {
    bounds: Vec<usize>,
    slot_bounds: Vec<usize>,
}

impl ScatterSplit {
    fn new(nodes: &[InRange], m: usize, workers: usize) -> Self {
        let bounds = balance_bounds(nodes, m, workers);
        let slot_bounds = bounds
            .iter()
            .map(|&v| nodes.get(v).map_or(m, |r| r.start as usize))
            .collect();
        ScatterSplit {
            bounds,
            slot_bounds,
        }
    }

    /// Calls `work(vlo, records, column)` once per worker range, on that
    /// range's records and its slice of a slot-indexed column; inline for
    /// one worker, on scoped threads otherwise.
    fn run<T: Send>(
        &self,
        nodes: &mut [InRange],
        column: &mut [T],
        work: impl Fn(usize, &mut [InRange], &mut [T]) + Sync,
    ) {
        let workers = self.bounds.len() - 1;
        if workers == 1 {
            return work(0, nodes, column);
        }
        std::thread::scope(|scope| {
            let (mut nodes_rest, mut column_rest) = (nodes, column);
            for w in 0..workers {
                let vlo = self.bounds[w];
                let my_nodes = split_front(&mut nodes_rest, self.bounds[w + 1] - vlo);
                let slots = self.slot_bounds[w + 1] - self.slot_bounds[w];
                let my_column = split_front(&mut column_rest, slots);
                let work = &work;
                scope.spawn(move || work(vlo, my_nodes, my_column));
            }
        });
    }
}

/// Splits the first `k` elements off `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(k);
    *rest = tail;
    front
}

/// Walks every forward edge whose target falls in
/// `[vlo, vlo + nodes.len())` and calls `put(record, slot, source, edge)`
/// with the target's record and the edge's slot, relative to the first
/// record's `start`, then advances the record's `end`. On entry each
/// record's `end` equals its `start` and serves as the node's cursor. Slot
/// positions depend only on the input arrays (forward order within each
/// target), so concurrent workers on disjoint ranges reproduce the
/// sequential result.
#[inline]
fn scatter_reverse(
    vlo: usize,
    fwd_off: &[usize],
    fwd_dst: &[NodeId],
    nodes: &mut [InRange],
    mut put: impl FnMut(&mut InRange, usize, NodeId, usize),
) {
    let base = nodes.first().map_or(0, |r| r.start as usize);
    let targets = vlo..vlo + nodes.len();
    let n = fwd_off.len() - 1;
    for u in 0..n {
        let edges = fwd_off[u]..fwd_off[u + 1];
        for (e, &v) in edges.clone().zip(&fwd_dst[edges]) {
            let v = v as usize;
            if targets.contains(&v) {
                let rec = &mut nodes[v - vlo];
                put(rec, rec.end as usize - base, u as NodeId, e);
                rec.end += 1;
            }
        }
    }
}

/// Splits the target-id space `[0, n)` into `workers` contiguous ranges of
/// roughly equal in-edge mass (`m` in-edges in total), returning the
/// `workers + 1` boundary ids.
fn balance_bounds(nodes: &[InRange], m: usize, workers: usize) -> Vec<usize> {
    let n = nodes.len();
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0usize);
    for w in 1..workers {
        let target = m * w / workers;
        let v = nodes.partition_point(|r| (r.start as usize) < target);
        bounds.push(v.max(bounds[w - 1]));
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::{build_reverse, InRange, MIN_PARALLEL_EDGES};
    use crate::builder::GraphBuilder;
    use crate::NodeId;

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.25).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 0.75).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn adjacency_sorted_and_probs_attached() {
        let g = diamond();
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 0.5), (2, 0.25)]);
        let in3: Vec<_> = g.in_edges(3).collect();
        assert_eq!(in3, vec![(1, 1.0), (2, 0.75)]);
    }

    #[test]
    fn per_slot_probabilities_only_where_a_node_does_not_share() {
        let g = diamond();
        assert_eq!(g.rev().prob.len(), g.m(), "node 3 carries 1.0 and 0.75");
        let halved = g.map_probabilities(|_, v, p| if v == 3 { 0.5 } else { p });
        assert!(halved.rev().prob.is_empty());
        // a node of either kind yields its in-edges with their probabilities
        for h in [&g, &halved] {
            for v in 0..4u32 {
                for (u, p) in h.in_edges(v) {
                    assert!(h
                        .out_edges(u)
                        .any(|(w, q)| w == v && q.to_bits() == p.to_bits()));
                }
                assert_eq!(h.in_edges(v).count(), h.in_degree(v));
            }
        }
    }

    #[test]
    fn in_sources_shares_only_identical_probabilities() {
        let g = diamond();
        assert_eq!(g.in_sources(0), (&[][..], None), "no in-edges");
        assert_eq!(g.in_sources(1), (&[0][..], Some(0.5)));
        assert_eq!(g.in_sources(2), (&[0][..], Some(0.25)));
        assert_eq!(g.in_sources(3), (&[1, 2][..], None), "1.0 vs 0.75");
        let halved = g.map_probabilities(|_, v, p| if v == 3 { 0.5 } else { p });
        assert_eq!(halved.in_sources(3), (&[1, 2][..], Some(0.5)));
    }

    #[test]
    fn memory_bytes_counts_the_node_records() {
        // forward: 5 offsets (8 B) + 4 targets (4 B) + 4 probabilities
        // (8 B); reverse: 4 node records (16 B) and `none_live` entries
        // (8 B) + 4 slots of source (4 B), and of probability (8 B) only
        // when a node's in-edges differ.
        assert_eq!(std::mem::size_of::<InRange>(), 16);
        let forward = 40 + 16 + 32;
        let per_edge = diamond();
        assert_eq!(per_edge.memory_bytes(), forward + 64 + 32 + 16 + 32);
        let shared = per_edge.map_probabilities(|_, v, p| if v == 3 { 0.5 } else { p });
        assert_eq!(shared.memory_bytes(), forward + 64 + 32 + 16);
        let empty = GraphBuilder::new(0).build().unwrap();
        assert_eq!(empty.memory_bytes(), 8);
    }

    #[test]
    fn in_sources_ic_carries_the_chance_that_no_in_edge_is_live() {
        let g = diamond();
        let ic = |g: &crate::Graph, v| {
            let (srcs, shared) = g.in_sources_ic(v);
            assert_eq!(shared.map(|(p, _)| p), g.in_sources(v).1);
            (srcs.to_vec(), shared.map(|(_, p0)| p0))
        };
        let close = |got: Option<f64>, want: f64| {
            let got = got.expect("shared");
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want,
                "{got} vs {want}"
            );
        };
        assert_eq!(ic(&g, 0), (vec![], None), "no in-edges");
        close(ic(&g, 1).1, 0.5);
        close(ic(&g, 2).1, 0.75);
        assert_eq!(ic(&g, 3), (vec![1, 2], None), "1.0 vs 0.75");
        let halved = g.map_probabilities(|_, v, p| if v == 3 { 0.5 } else { p });
        close(ic(&halved, 3).1, 0.25);
        let certain = g.map_probabilities(|_, _, _| 1.0);
        assert_eq!(ic(&certain, 3), (vec![1, 2], Some(0.0)));
        let never = g.map_probabilities(|_, _, _| 0.0);
        assert_eq!(ic(&never, 3), (vec![1, 2], Some(1.0)));
        // (1 − 1/d)^d agrees with the repeated product, which drifts by up
        // to ~d/2 ulps of 1 − 1/d
        for d in [3usize, 40, 1_000, 100_000] {
            let p = 1.0 / d as f64;
            let want = (1.0 - p).powi(d as i32);
            assert!((super::none_live_of(p, d) - want).abs() < 1e-10 * want);
        }
        // a large d·p underflows to 0
        assert_eq!(super::none_live_of(0.5, 2_000), 0.0);
    }

    #[test]
    fn degree_count_leaves_the_reverse_csr_unbuilt() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert!(!g.reverse_built());
        assert_eq!(g.in_degree(3), 2);
        assert!(g.reverse_built());
    }

    /// Forward columns of a pseudo-random graph with `MIN_PARALLEL_EDGES`
    /// plus a few edges, so the parallel scatter actually splits. Every
    /// fifth node's out-edges carry a per-edge probability, so some targets
    /// share one in-probability and others do not.
    fn parallel_sized_columns() -> (Vec<usize>, Vec<NodeId>, Vec<f64>) {
        let n = 20_000usize;
        let m = MIN_PARALLEL_EDGES + 1_000;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut off = vec![0usize; n + 1];
        let (mut dst, mut prob) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for e in 0..m {
            let u = e * n / m;
            off[u + 1] = e + 1;
            let v = next() as usize % n;
            dst.push(v as NodeId);
            prob.push(if u.is_multiple_of(5) {
                [0.5, 0.25, 0.125][e % 3]
            } else {
                0.25
            });
        }
        for u in 0..n {
            off[u + 1] = off[u + 1].max(off[u]);
        }
        (off, dst, prob)
    }

    #[test]
    fn parallel_reverse_scatter_matches_sequential() {
        let (off, dst, prob) = parallel_sized_columns();
        assert!(dst.len() > MIN_PARALLEL_EDGES);
        let records = |nodes: &[InRange]| -> Vec<(u32, u32, u64)> {
            nodes
                .iter()
                .map(|r| (r.start, r.end, r.shared_p.to_bits()))
                .collect()
        };
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // every fifth source's out-edges carry their own probability, and
        // then every one carries 0.25, so both layouts split
        let shared = vec![0.25; prob.len()];
        for (prob, layout_len) in [(&prob, dst.len()), (&shared, 0)] {
            let seq = build_reverse(&off, &dst, prob, 1);
            let par = build_reverse(&off, &dst, prob, 3);
            assert_eq!(records(&seq.nodes), records(&par.nodes));
            assert_eq!(bits(&seq.none_live), bits(&par.none_live));
            assert_eq!(seq.src, par.src);
            assert_eq!(bits(&seq.prob), bits(&par.prob));
            assert_eq!(seq.prob.len(), layout_len);
        }
        // both kinds of node occur, so both branches of the record are pinned
        let seq = build_reverse(&off, &dst, &prob, 1);
        let with_in = seq.nodes.iter().filter(|r| r.end > r.start);
        let (shared, mixed): (Vec<&InRange>, Vec<_>) = with_in.partition(|r| !r.shared_p.is_nan());
        assert!(!shared.is_empty() && !mixed.is_empty());
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(0, 1, 0.5)));
        assert!(all.contains(&(2, 3, 0.75)));
    }

    #[test]
    fn map_probabilities_keeps_structure() {
        let g = diamond();
        let g2 = g.map_probabilities(|_, _, p| p / 2.0);
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        let out0: Vec<_> = g2.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 0.25), (2, 0.125)]);
    }

    #[test]
    fn lt_validity_check() {
        let g = diamond();
        // node 3 receives 1.0 + 0.75 > 1 -> invalid LT instance
        assert!(!g.is_valid_lt());
        let (node, mass) = g.lt_overload().unwrap();
        assert_eq!(node, 3);
        assert_eq!(mass.to_bits(), g.in_prob_sum(3).to_bits());
        let g2 = g.map_probabilities(|_, v, p| if v == 3 { p / 2.0 } else { p });
        assert!(g2.is_valid_lt());
        assert_eq!(g2.lt_overload(), None);
    }
}
