//! The residual graph `G_i` (§2.3) as a mutable alive-mask over the base
//! graph.
//!
//! After each adaptive round the nodes activated so far are removed;
//! `G_{i+1}` is the subgraph induced by the survivors. Rather than rebuilding
//! CSR arrays every round, [`ResidualState`] keeps:
//!
//! * `alive: Vec<bool>` — consulted by reverse BFS to skip dead nodes;
//! * a dense `alive_nodes` list with back-pointers — O(1) kill, and the
//!   positions that root draws index into.
//!
//! Sketch generation reads the state through [`ResidualSnapshot`], an
//! immutable view that many worker threads can share, and draws roots with
//! [`DistinctDraw`]: k distinct positions in the dense list by Floyd's
//! algorithm, which never permutes the list. Sampling therefore never
//! mutates the residual graph; only [`ResidualState::kill`] and
//! [`ResidualState::reset`] change it.

use rand::Rng;
use smin_graph::cast::u32_of;
use smin_graph::{GenStamp, NodeId};

/// Alive/dead bookkeeping for the residual graph.
#[derive(Clone, Debug)]
pub struct ResidualState {
    alive: Vec<bool>,
    /// Dense list of alive nodes (order unspecified).
    alive_nodes: Vec<NodeId>,
    /// `pos[u]` = index of `u` in `alive_nodes` (valid only while alive).
    pos: Vec<u32>,
}

impl ResidualState {
    /// All `n` nodes alive.
    pub fn new(n: usize) -> Self {
        ResidualState {
            alive: vec![true; n],
            alive_nodes: (0..n as NodeId).collect(),
            pos: (0..u32_of(n)).collect(),
        }
    }

    /// Revives every node, returning to the all-alive state of
    /// [`ResidualState::new`] without reallocating. Long-running services
    /// keep one `ResidualState` per cached graph and reset it between
    /// requests instead of rebuilding the three `n`-sized buffers.
    pub fn reset(&mut self) {
        self.alive.fill(true);
        self.alive_nodes.clear();
        self.alive_nodes.extend(0..self.pos.len() as NodeId);
        for (u, p) in self.pos.iter_mut().enumerate() {
            *p = u32_of(u);
        }
    }

    /// Number of alive nodes `n_i`.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.alive_nodes.len()
    }

    /// Whether `u` is still alive (inactive).
    #[inline]
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u as usize]
    }

    /// Read-only alive mask (for BFS loops).
    #[inline]
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// The alive nodes in unspecified order.
    #[inline]
    pub fn alive_nodes(&self) -> &[NodeId] {
        &self.alive_nodes
    }

    /// An immutable view of the current residual graph, shareable across
    /// threads. Valid until the next `kill` (the borrow checker enforces
    /// this).
    #[inline]
    pub fn snapshot(&self) -> ResidualSnapshot<'_> {
        ResidualSnapshot {
            alive: &self.alive,
            alive_nodes: &self.alive_nodes,
        }
    }

    /// Removes `u` (just activated). No-op if already dead.
    pub fn kill(&mut self, u: NodeId) {
        if !self.alive[u as usize] {
            return;
        }
        self.alive[u as usize] = false;
        let i = self.pos[u as usize] as usize;
        let last = *self
            .alive_nodes
            .last()
            .expect("alive list cannot be empty here");
        self.alive_nodes.swap_remove(i);
        if last != u {
            self.pos[last as usize] = u32_of(i);
        }
    }

    /// Removes every node in `nodes`.
    pub fn kill_all(&mut self, nodes: &[NodeId]) {
        for &u in nodes {
            self.kill(u);
        }
    }
}

/// A read-only snapshot of the residual graph: the alive mask plus the dense
/// alive list. `Copy` and `Sync`, so sketch-generation workers can share one
/// snapshot without locking — root sampling goes through [`DistinctDraw`],
/// which draws *positions* in the list.
#[derive(Clone, Copy, Debug)]
pub struct ResidualSnapshot<'a> {
    alive: &'a [bool],
    alive_nodes: &'a [NodeId],
}

impl<'a> ResidualSnapshot<'a> {
    /// Number of alive nodes `n_i`.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.alive_nodes.len()
    }

    /// Read-only alive mask (for BFS loops).
    #[inline]
    pub fn alive_mask(&self) -> &'a [bool] {
        self.alive
    }

    /// The alive nodes in unspecified order.
    #[inline]
    pub fn alive_nodes(&self) -> &'a [NodeId] {
        self.alive_nodes
    }

    /// Whether `u` is alive in this snapshot.
    #[inline]
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u as usize]
    }
}

/// Reusable scratch for uniform k-distinct draws from a [`ResidualSnapshot`].
///
/// Implements Floyd's algorithm over *positions* `0..n_alive`: each call
/// consumes exactly `k` range draws from the RNG and touches `O(k)` memory,
/// with a generation-stamped membership buffer ([`GenStamp`]) so repeated
/// calls stay allocation-free. It never mutates the alive list, which is
/// what lets one snapshot serve many threads.
#[derive(Clone, Debug, Default)]
pub struct DistinctDraw {
    /// Marks positions already taken in the current draw.
    taken: GenStamp,
}

impl DistinctDraw {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        DistinctDraw::default()
    }

    /// Samples `k` distinct alive nodes uniformly into `out` (cleared
    /// first), in draw order. Panics if `k > n_alive`.
    pub fn sample_from(
        &mut self,
        snap: &ResidualSnapshot<'_>,
        k: usize,
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) {
        let n = snap.n_alive();
        assert!(k <= n, "cannot sample {k} distinct nodes from {n} alive");
        out.clear();
        self.taken.begin(n);
        let alive = snap.alive_nodes();
        // Floyd's F2: positions (n-k)..n, remapping collisions to j itself.
        for j in (n - k)..n {
            let t = rng.random_range(0..=j);
            let pick = if self.taken.is_marked(t) { j } else { t };
            self.taken.mark(pick);
            out.push(alive[pick]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn kill_updates_counts_and_mask() {
        let mut r = ResidualState::new(5);
        assert_eq!(r.n_alive(), 5);
        r.kill(2);
        assert_eq!(r.n_alive(), 4);
        assert!(!r.is_alive(2));
        assert!(r.is_alive(0));
        r.kill(2); // idempotent
        assert_eq!(r.n_alive(), 4);
    }

    #[test]
    fn kill_all_and_list_consistency() {
        let mut r = ResidualState::new(6);
        r.kill_all(&[0, 5, 3]);
        assert_eq!(r.n_alive(), 3);
        let mut alive: Vec<_> = r.alive_nodes().to_vec();
        alive.sort_unstable();
        assert_eq!(alive, vec![1, 2, 4]);
        for &u in r.alive_nodes() {
            assert!(r.is_alive(u));
        }
    }

    #[test]
    fn reset_revives_everything() {
        let mut r = ResidualState::new(6);
        r.kill_all(&[0, 2, 5]); // each kill swaps the dense list's tail in
        r.reset();
        assert_eq!(r.n_alive(), 6);
        let fresh = ResidualState::new(6);
        assert_eq!(r.alive_mask(), fresh.alive_mask());
        assert_eq!(r.alive_nodes(), fresh.alive_nodes());
        // kills after reset keep the list/pos invariants
        r.kill_all(&[1, 4]);
        assert_eq!(r.n_alive(), 4);
        for &u in r.alive_nodes() {
            assert!(r.is_alive(u));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        DistinctDraw::new().sample_from(&r.snapshot(), 4, &mut rng, &mut out);
        assert!(out.iter().all(|&u| r.is_alive(u)));
    }

    #[test]
    fn kill_after_sampling_stays_consistent() {
        let mut r = ResidualState::new(8);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut draw = DistinctDraw::new();
        let mut out = Vec::new();
        draw.sample_from(&r.snapshot(), 3, &mut rng, &mut out);
        let victim = out[0];
        r.kill(victim);
        assert!(!r.is_alive(victim));
        assert_eq!(r.n_alive(), 7);
        // the dense list no longer contains the victim
        assert!(!r.alive_nodes().contains(&victim));
        // and sampling still returns alive nodes only
        for _ in 0..50 {
            draw.sample_from(&r.snapshot(), 5, &mut rng, &mut out);
            assert!(out.iter().all(|&u| r.is_alive(u)));
        }
    }

    #[test]
    fn snapshot_views_current_state() {
        let mut r = ResidualState::new(6);
        r.kill_all(&[1, 4]);
        let snap = r.snapshot();
        assert_eq!(snap.n_alive(), 4);
        assert!(!snap.is_alive(1));
        assert!(snap.is_alive(0));
        assert_eq!(snap.alive_mask(), r.alive_mask());
        assert_eq!(snap.alive_nodes(), r.alive_nodes());
    }

    #[test]
    fn distinct_draw_is_distinct_alive_and_immutable() {
        let mut r = ResidualState::new(10);
        r.kill_all(&[0, 1, 2]);
        let before: Vec<NodeId> = r.alive_nodes().to_vec();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut draw = DistinctDraw::new();
        let mut out = Vec::new();
        for _ in 0..300 {
            let snap = r.snapshot();
            draw.sample_from(&snap, 4, &mut rng, &mut out);
            assert_eq!(out.len(), 4);
            let mut s = out.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4, "samples must be distinct");
            assert!(out.iter().all(|&u| r.is_alive(u)));
        }
        assert_eq!(r.alive_nodes(), before, "the draw must not permute state");
    }

    #[test]
    fn distinct_draw_is_uniform() {
        let r = ResidualState::new(5);
        let mut rng = SmallRng::seed_from_u64(22);
        let mut draw = DistinctDraw::new();
        let mut out = Vec::new();
        let mut counts = [0usize; 5];
        let trials = 50_000;
        for _ in 0..trials {
            draw.sample_from(&r.snapshot(), 2, &mut rng, &mut out);
            for &u in &out {
                counts[u as usize] += 1;
            }
        }
        // each node appears with probability 2/5
        for (u, &c) in counts.iter().enumerate() {
            let rate = c as f64 / trials as f64;
            assert!((rate - 0.4).abs() < 0.02, "node {u}: rate = {rate}");
        }
    }

    #[test]
    fn distinct_draw_full_population() {
        let r = ResidualState::new(7);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut draw = DistinctDraw::new();
        let mut out = Vec::new();
        draw.sample_from(&r.snapshot(), 7, &mut rng, &mut out);
        let mut s = out.clone();
        s.sort_unstable();
        assert_eq!(s, (0..7).collect::<Vec<NodeId>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn distinct_draw_oversample_panics() {
        let r = ResidualState::new(3);
        let mut rng = SmallRng::seed_from_u64(24);
        let mut draw = DistinctDraw::new();
        let mut out = Vec::new();
        draw.sample_from(&r.snapshot(), 4, &mut rng, &mut out);
    }

    #[test]
    fn distinct_draw_deterministic_per_seed() {
        let r = ResidualState::new(50);
        let mut draw_a = DistinctDraw::new();
        let mut draw_b = DistinctDraw::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for seed in 0..20u64 {
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            draw_a.sample_from(&r.snapshot(), 10, &mut rng_a, &mut a);
            draw_b.sample_from(&r.snapshot(), 10, &mut rng_b, &mut b);
            assert_eq!(a, b, "seed {seed}: draw must depend only on the RNG");
        }
    }
}
