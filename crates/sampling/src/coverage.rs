//! Coverage engine: greedy maximum coverage over a sketch pool (TRIM-B
//! Line 8), and the candidate scan every pick goes through.
//!
//! The classic greedy algorithm guarantees covering at least
//! `ρ_b = 1 − (1 − 1/b)^b` of the optimum for `b` picks (Vazirani 2003).
//! [`CoverageEngine::select`] also bounds the optimum from above, with the
//! online bound of OPIM-C (Tang, Tang, Xiao, Yuan, SIGMOD 2018):
//!
//! ```text
//! U = min over the greedy prefixes S_0 … S_b of
//!     min(|R|, Λ_R(S_i) + the sum of the b largest marginals given S_i)
//! ```
//!
//! Any `b` nodes add at most their `b` marginals to `S_i` (submodularity),
//! so `U` bounds the best `b` nodes' coverage. The greedy's own `ρ_b`
//! argument gives `ρ_b·U ≤ Λ_R(S_b)`, so `U` is never looser than the
//! `Λ_R(S_b)/ρ_b` TRIM-B's Line 10 divides by. `U` costs no extra pass per
//! pick: the walk that finds each pick already reads every live marginal,
//! and keeps the `b` largest; one more walk after the last pick adds
//! `S_b`'s term. The same marginals bound the coverage the call will end
//! with — `Λ_R(S_i)` plus the `b − i` largest — so
//! [`CoverageEngine::select_while`] can abandon a call as soon as that
//! bound is too small to matter to its caller.
//!
//! TRIM-B's `b`-pick greedy and ATEUC's bound-driven `select_until` loops
//! share one greedy loop over one marginal-maintenance implementation
//! ([`CoverageEngine`]). Every pick, TRIM's and AdaptIM's argmax
//! ([`SketchPool::argmax`]) included, goes through one tie-breaking scan
//! (higher gain first, then smaller node id), so every algorithm returns
//! identical selections on identical pools.
//!
//! Committing a pick needs the sets containing it, and the pool keeps no
//! node→sets inverted index. A greedy run's first 8 picks (`SCAN_PICKS`)
//! find their sets by scanning the pool's member column (16 members per
//! vectorized `==` fold), stopping at the pick's last uncovered set. The
//! paper's TRIM-B batches are at most 8, so there no index is ever built: a
//! transpose costs more than 8 scans, and it would be stale by the next
//! call, which runs on a grown pool. A run that picks more (`select` with
//! `b > 8`, `select_until`) builds the index once, at pick 9, as a
//! counting-sort CSR transpose of the sets still uncovered (a prefix sum
//! of the marginals, then a scatter of those set ids in set order) into
//! buffers the engine keeps across calls.
//!
//! The hot paths run on word-parallel kernels: past the scanned picks,
//! `commit_pick` batches newly covered sets 64 at a time against the
//! covered mask's words before touching marginals, and the candidate scans
//! walk in unrolled 4-wide strides — all bit-identical to the scalar
//! reference scans they replaced (same tie-breaking total order).

use crate::pool::SketchPool;
use smin_graph::cast::u32_of;
use smin_graph::{FixedBitSet, NodeId, Ones};

/// Picks per greedy run that find their sets by scanning the pool's member
/// column: 8, TRIM-B's largest batch in the paper. Pick 9 of a longer run
/// builds the transpose instead, over the sets still uncovered.
const SCAN_PICKS: usize = 8;

/// Result of a greedy cover run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyCover {
    /// Selected nodes in pick order (may be shorter than `b` if the pool is
    /// exhausted).
    pub seeds: Vec<NodeId>,
    /// Number of sets covered by `seeds`.
    pub covered: u32,
    /// From [`CoverageEngine::select`]: OPIM-C's upper bound `U` on the
    /// coverage of any `b` nodes (module docs), with
    /// `covered ≤ upper ≤ covered/ρ_b`. [`CoverageEngine::select_until`],
    /// which has no batch size, reports the trivial bound `|R|`.
    pub upper: u32,
}

/// The shared tie-breaking rule as a two-candidate merge: `b` replaces `a`
/// iff it has strictly higher gain, or equal gain and a smaller node id.
/// On candidates with distinct ids this is the max of a strict total order
/// (gain descending, id ascending), so merges associate and commute — the
/// unrolled scans below may fold lanes in any order.
#[inline]
fn better(a: (NodeId, u32), b: (NodeId, u32)) -> (NodeId, u32) {
    if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
        b
    } else {
        a
    }
}

/// Sentinel that loses [`better`] to every real candidate (real candidates
/// carry positive gain; zero-gain nodes are never offered as candidates).
const NO_PICK: (NodeId, u32) = (NodeId::MAX, 0);

/// Scalar reference for [`best_node`]: the one-at-a-time scan the unrolled
/// kernel must agree with on every input (debug builds assert it; the
/// kernel-equivalence proptests pin it from the outside).
fn best_node_reference(nodes: &[NodeId], gain: &[u32]) -> Option<(NodeId, u32)> {
    let mut best: Option<(NodeId, u32)> = None;
    for &v in nodes {
        let c = gain[v as usize];
        if c != 0 && best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
            best = Some((v, c));
        }
    }
    best
}

/// Packs a candidate into one orderable word: gain in the high half, the
/// bitwise NOT of the id in the low half. `max` over packed keys is exactly
/// the shared tie-breaking rule — higher gain wins, equal gain falls to the
/// larger `!id`, i.e. the smaller id — so the argmax scan runs branchless.
#[inline]
fn pack(v: NodeId, c: u32) -> u64 {
    (u64::from(c) << 32) | u64::from(!v)
}

/// Inverse of [`pack`]; `None` when the key carries zero gain (either the
/// zeroed sentinel lane, or only exhausted candidates were offered).
#[inline]
fn unpack(key: u64) -> Option<(NodeId, u32)> {
    let c = u32_of((key >> 32) as usize);
    (c != 0).then(|| (!u32_of((key & u64::from(u32::MAX)) as usize), c))
}

/// The shared tie-breaking scan: the entry of `nodes` with the largest
/// positive `gain`, ties toward the smaller node id; `None` when no entry
/// has positive gain. This one function defines the selection order for
/// every coverage consumer (TRIM argmax included).
///
/// Walks `nodes` in unrolled 4-wide strides, each stride lane max-folding a
/// packed `(gain, ¬id)` key into its own accumulator — branchless, and the
/// four gain loads of one iteration don't serialize on a single
/// best-so-far register.
#[inline]
pub(crate) fn best_node(nodes: &[NodeId], gain: &[u32]) -> Option<(NodeId, u32)> {
    let mut lanes = [0u64; 4];
    let mut chunks = nodes.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).max(pack(v, gain[v as usize]));
        }
    }
    let mut best = lanes.into_iter().fold(0, u64::max);
    for &v in chunks.remainder() {
        best = best.max(pack(v, gain[v as usize]));
    }
    let result = unpack(best);
    debug_assert_eq!(result, best_node_reference(nodes, gain));
    result
}

/// Keeps the `k` largest entries of `buf` (at least `k` long) and returns
/// the smallest one kept.
fn keep_largest(buf: &mut Vec<u32>, k: usize) -> u32 {
    let cut = buf.len() - k;
    buf.select_nth_unstable(cut);
    buf.drain(..cut);
    buf[0]
}

/// Compacting candidate scan behind every greedy pick: drops
/// permanently-exhausted nodes (zero marginal — submodularity keeps them
/// zero) out of `scan` in place while tracking the best candidate in four
/// independent lanes, exactly like [`best_node`]. Returns the pick with
/// the shared tie-breaking, or `None` when no live candidate remains.
///
/// The same walk leaves the `k` largest marginals in `top`, sorted
/// ascending, zeros standing in for missing candidates. A marginal is
/// buffered only when it beats the smallest one kept so far, and a full
/// buffer of `2k` shrinks back to its `k` largest, so past the first few
/// candidates this costs one compare each. With `k = 0` nothing is kept.
fn scan_best(
    scan: &mut Vec<NodeId>,
    gain: &[u32],
    k: usize,
    top: &mut Vec<u32>,
) -> Option<(NodeId, u32)> {
    top.clear();
    // smallest marginal kept so far: only a larger one can be among the k
    let mut floor = if k == 0 { u32::MAX } else { 0 };
    let mut lanes = [NO_PICK; 4];
    let mut live = 0usize;
    let len = scan.len();
    let mut r = 0usize;
    while r + 4 <= len {
        // fixed-trip inner loop: unrolled, no per-element bounds checks on
        // the lane accumulators
        for lane in 0..4 {
            let v = scan[r + lane];
            let c = gain[v as usize];
            if c != 0 {
                scan[live] = v;
                live += 1;
                lanes[lane] = better(lanes[lane], (v, c));
                if c > floor {
                    top.push(c);
                    if top.len() == 2 * k {
                        floor = keep_largest(top, k);
                    }
                }
            }
        }
        r += 4;
    }
    while r < len {
        let v = scan[r];
        let c = gain[v as usize];
        if c != 0 {
            scan[live] = v;
            live += 1;
            lanes[0] = better(lanes[0], (v, c));
            if c > floor {
                top.push(c);
                if top.len() == 2 * k {
                    floor = keep_largest(top, k);
                }
            }
        }
        r += 1;
    }
    scan.truncate(live);
    if top.len() > k {
        keep_largest(top, k);
    }
    top.resize(k, 0);
    top.sort_unstable();
    let best = lanes.into_iter().fold(NO_PICK, better);
    (best.1 != 0).then_some(best)
}

/// Reusable marginal-coverage maintenance shared by every greedy
/// consumer. All buffers, the transpose of runs past 8 picks included,
/// are retained across calls, so a `CoverageEngine` embedded in
/// per-round scratch (e.g. `TrimScratch`) makes repeated selection
/// allocation-free once it has seen its largest pool.
#[derive(Default)]
pub struct CoverageEngine {
    /// Marginal coverage of each node under the current partial selection.
    marginal: Vec<u32>,
    /// Sets already covered by the current partial selection.
    set_covered: FixedBitSet,
    /// The node→sets transpose of the sets a run's first [`SCAN_PICKS`]
    /// picks left uncovered, built at its next pick:
    /// `node_sets[node_off[v]..node_off[v + 1]]` are those sets containing
    /// `v`, in ascending id order. Stale outside such a run.
    node_off: Vec<usize>,
    node_sets: Vec<u32>,
    /// Compact scan list: nodes whose marginal is still positive. Exhausted
    /// nodes are swapped out during the scan and never revisited —
    /// submodularity guarantees a zero marginal stays zero.
    scan: Vec<NodeId>,
    /// Nodes examined by the most recent selection (instrumentation; the
    /// compaction regression test pins this).
    pub last_scanned: usize,
    /// `(word index, mask)` batches of the pick being committed: the set-id
    /// list of the picked node compressed 64 ids per word.
    word_buf: Vec<(u32, u64)>,
    /// The `b` largest marginals of the latest walk, for `U`, and the
    /// buffer [`scan_best`] collects them in.
    top: Vec<u32>,
}

impl CoverageEngine {
    /// A fresh engine; buffers are sized lazily per pool.
    pub fn new() -> Self {
        CoverageEngine::default()
    }

    /// Heap bytes retained by the engine's buffers, the transpose included
    /// once a run has built it.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.marginal.capacity() * size_of::<u32>()
            + self.set_covered.heap_bytes()
            + self.node_off.capacity() * size_of::<usize>()
            + self.node_sets.capacity() * size_of::<u32>()
            + self.scan.capacity() * size_of::<NodeId>()
            + self.word_buf.capacity() * size_of::<(u32, u64)>()
            + self.top.capacity() * size_of::<u32>()
    }

    /// Starts a greedy run on `pool`: loads its coverage counts as the
    /// marginals, clears the covered-set mask, and fills the scan list with
    /// every covered node.
    fn begin(&mut self, pool: &SketchPool) {
        self.marginal.clear();
        self.marginal.extend_from_slice(pool.coverage_counts());
        self.set_covered.grow(pool.len());
        self.set_covered.clear();
        self.scan.clear();
        self.scan.extend_from_slice(pool.touched_nodes());
        self.last_scanned = 0;
    }

    /// Commits `v`, the run's `pick`-th pick (from 1), into the partial
    /// selection: marks its uncovered sets covered and decrements every
    /// member's marginal once per such set.
    ///
    /// The first [`SCAN_PICKS`] picks find those sets with the pool's
    /// column scan, which stops once it has covered `marginal[v]` of them.
    /// The next pick builds the transpose of the sets still uncovered, and
    /// from then on each pick commits its transposed row.
    fn commit_pick(&mut self, pool: &SketchPool, v: NodeId, pick: usize) {
        if pick <= SCAN_PICKS {
            let marginal = &mut self.marginal;
            pool.cover_sets_of(v, marginal[v as usize], &mut self.set_covered, |s| {
                for &u in pool.set(s) {
                    marginal[u as usize] -= 1;
                }
            });
        } else {
            if pick == SCAN_PICKS + 1 {
                pool.transpose_into(
                    &self.marginal,
                    &self.set_covered,
                    &mut self.node_off,
                    &mut self.node_sets,
                );
            }
            self.commit_row(pool, v);
        }
        debug_assert_eq!(self.marginal[v as usize], 0);
    }

    /// Commits `v` through its transposed row.
    ///
    /// Word-parallel: the row lists set ids in strictly increasing order,
    /// so it compresses into one `(word, mask)` pair per touched word of
    /// the covered mask. Each batch then hits `set_covered` with a single
    /// [`FixedBitSet::insert_word`] — up to 64 membership tests in one
    /// fetch/or — and only the returned freshly-set bits walk their set
    /// members to decrement marginals.
    fn commit_row(&mut self, pool: &SketchPool, v: NodeId) {
        self.word_buf.clear();
        let row = &self.node_sets[self.node_off[v as usize]..self.node_off[v as usize + 1]];
        for &s in row {
            let wi = s >> 6;
            let bit = 1u64 << (s & 63);
            match self.word_buf.last_mut() {
                Some((w, mask)) if *w == wi => *mask |= bit,
                _ => self.word_buf.push((wi, bit)),
            }
        }
        for &(wi, mask) in &self.word_buf {
            let mut fresh = self.set_covered.insert_word(wi as usize, mask);
            while fresh != 0 {
                let s = (wi << 6) | fresh.trailing_zeros();
                fresh &= fresh - 1;
                for &u in pool.set(s) {
                    self.marginal[u as usize] -= 1;
                }
            }
        }
    }

    /// The one greedy loop behind every selection: picks the live candidate
    /// with the largest marginal (shared tie-breaking) until
    /// `done(picks, covered)` holds, `walked` declines or coverage runs
    /// out. Each pick rescans the live candidate list, compacting out nodes
    /// whose marginal dropped to zero and keeping the `top` largest
    /// marginals; `walked(picks, covered, largest)` sees those, ascending,
    /// before the pick is taken. A run of `k` picks costs
    /// `O(n + k·|live| + min(k, 8)·Σ|R|)`: each scanned pick reads at most
    /// the whole member column, and a longer run adds one `O(n + Σ|R|)`
    /// transpose build.
    fn greedy(
        &mut self,
        pool: &SketchPool,
        top: usize,
        mut done: impl FnMut(usize, u32) -> bool,
        mut walked: impl FnMut(usize, u32, &[u32]) -> bool,
    ) -> (Vec<NodeId>, u32) {
        self.begin(pool);
        let mut seeds = Vec::new();
        let mut covered = 0u32;
        while !done(seeds.len(), covered) {
            self.last_scanned += self.scan.len();
            let best = scan_best(&mut self.scan, &self.marginal, top, &mut self.top);
            if !walked(seeds.len(), covered, &self.top) {
                break;
            }
            let Some((v, gain)) = best else {
                break;
            };
            seeds.push(v);
            covered += gain;
            self.commit_pick(pool, v, seeds.len());
        }
        (seeds, covered)
    }

    /// Sets covered by the most recent selection, as a word-skipping
    /// iterator of set ids over the engine's covered mask.
    pub fn covered_sets(&self) -> Ones<'_> {
        self.set_covered.ones()
    }

    /// Picks up to `b` nodes greedily maximizing marginal set coverage
    /// (TRIM-B Line 8), with OPIM-C's bound `U` on any `b` nodes' coverage
    /// in [`GreedyCover::upper`].
    pub fn select(&mut self, pool: &SketchPool, b: usize) -> GreedyCover {
        self.select_while(pool, b, |_| true)
            .expect("a selection that always continues completes")
    }

    /// [`select`](Self::select) that may give up: before pick `i + 1` it
    /// calls `go(bound)`, where `bound` is `Λ_R(S_i)` plus the `b − i`
    /// largest marginals given `S_i`, capped at `|R|`. The remaining picks
    /// add at most those marginals, so `bound` is at least the coverage the
    /// call would end with; it never grows from one pick to the next. The
    /// call returns `None` as soon as `go` returns false.
    pub fn select_while(
        &mut self,
        pool: &SketchPool,
        b: usize,
        mut go: impl FnMut(u32) -> bool,
    ) -> Option<GreedyCover> {
        let sets = pool.len() as u64;
        let bound = |covered: u32, largest: &[u32]| {
            let sum: u64 = largest.iter().map(|&c| u64::from(c)).sum();
            u32_of((u64::from(covered) + sum).min(sets) as usize)
        };
        let mut upper = u32::MAX;
        let mut gave_up = false;
        let (seeds, covered) = self.greedy(
            pool,
            b,
            |_, _| false,
            |picks, covered, largest| {
                upper = upper.min(bound(covered, largest));
                // past the last pick the walk only added S_b's term to U
                gave_up = picks < b && !go(bound(covered, &largest[picks..]));
                picks < b && !gave_up
            },
        );
        (!gave_up).then_some(GreedyCover {
            seeds,
            covered,
            upper,
        })
    }

    /// Greedy picks until `bound(Λ(S))` reaches `target` or coverage runs
    /// out (ATEUC's stopping rule). Returns the cover and whether the target
    /// was reached.
    pub fn select_until(
        &mut self,
        pool: &SketchPool,
        target: f64,
        bound: impl Fn(f64) -> f64,
    ) -> (GreedyCover, bool) {
        let reached = |covered: u32| bound(f64::from(covered)) >= target;
        let (seeds, covered) = self.greedy(pool, 0, |_, covered| reached(covered), |_, _, _| true);
        let cover = GreedyCover {
            seeds,
            covered,
            upper: u32_of(pool.len()),
        };
        (cover, reached(covered))
    }
}

/// Picks up to `b` nodes greedily maximizing marginal set coverage on a
/// fresh engine (see [`CoverageEngine::select`]).
pub fn greedy_max_coverage(pool: &SketchPool, b: usize) -> GreedyCover {
    CoverageEngine::new().select(pool, b)
}

/// `ρ_b = 1 − (1 − 1/b)^b`, the greedy max-coverage guarantee for batch size
/// `b` (`ρ_1 = 1`, decreasing toward `1 − 1/e`).
pub fn rho_b(b: usize) -> f64 {
    assert!(b >= 1, "batch size must be at least 1");
    1.0 - (1.0 - 1.0 / b as f64).powi(b as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_from(sets: &[&[NodeId]], n: usize) -> SketchPool {
        let mut p = SketchPool::new(n);
        for s in sets {
            p.add_set(s);
        }
        p
    }

    #[test]
    fn single_pick_is_argmax() {
        let pool = pool_from(&[&[0, 1], &[1], &[2]], 3);
        let g = greedy_max_coverage(&pool, 1);
        assert_eq!(g.seeds, vec![1]);
        assert_eq!(g.covered, 2);
        assert_eq!(pool.argmax(), Some((1, 2)));
    }

    #[test]
    fn marginal_gains_respected() {
        // node 0 covers sets {A, B}; node 1 covers {A, C}; node 2 covers {D}.
        // Greedy picks 0 (gain 2) then 1 (marginal gain 1 from C, not 2).
        let pool = pool_from(&[&[0, 1], &[0], &[1], &[2]], 3);
        let g = greedy_max_coverage(&pool, 2);
        assert_eq!(g.seeds[0], 0);
        assert_eq!(g.covered, 3);
    }

    #[test]
    fn exhausted_pool_stops_early() {
        let pool = pool_from(&[&[0], &[0]], 2);
        let g = greedy_max_coverage(&pool, 3);
        assert_eq!(g.seeds, vec![0]);
        assert_eq!(g.covered, 2);
    }

    #[test]
    fn covers_everything_when_b_large() {
        let pool = pool_from(&[&[0], &[1], &[2]], 3);
        let g = greedy_max_coverage(&pool, 3);
        assert_eq!(g.covered, 3);
        assert_eq!(g.seeds.len(), 3);
    }

    #[test]
    fn greedy_meets_rho_b_guarantee_exhaustive() {
        // Brute-force optimum over all size-b subsets on a small instance
        // and check covered ≥ ρ_b · OPT.
        let sets: Vec<Vec<NodeId>> = vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4],
            vec![0, 4],
            vec![1, 3],
            vec![5],
        ];
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        let pool = pool_from(&refs, 6);
        for b in 1..=3usize {
            let g = greedy_max_coverage(&pool, b);
            // brute force optimum
            let mut opt = 0u32;
            let nodes: Vec<NodeId> = (0..6).collect();
            fn rec(
                nodes: &[NodeId],
                pool: &SketchPool,
                b: usize,
                start: usize,
                cur: &mut Vec<NodeId>,
                opt: &mut u32,
            ) {
                if cur.len() == b {
                    let union = (0..pool.len() as u32)
                        .filter(|&s| pool.set(s).iter().any(|v| cur.contains(v)))
                        .count();
                    *opt = (*opt).max(union as u32);
                    return;
                }
                for i in start..nodes.len() {
                    cur.push(nodes[i]);
                    rec(nodes, pool, b, i + 1, cur, opt);
                    cur.pop();
                }
            }
            let mut cur = Vec::new();
            rec(&nodes, &pool, b, 0, &mut cur, &mut opt);
            assert!(
                g.covered as f64 >= rho_b(b) * opt as f64 - 1e-9,
                "b = {b}: greedy {} < ρ_b·OPT = {}",
                g.covered,
                rho_b(b) * opt as f64
            );
        }
    }

    #[test]
    fn reused_engine_matches_fresh_greedy_exactly() {
        // One engine across pools of varying node and set counts, so its
        // transpose buffers grow and shrink: every selection must equal a
        // fresh engine's on the same pool.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let mut engine = CoverageEngine::new();
        for case in 0..30 {
            let n = 2 + (case % 20);
            let sets = 1 + (case * 7) % 50;
            let mut pool = SketchPool::new(n);
            for _ in 0..sets {
                let size = 1 + rng.random_range(0..n.min(5));
                let mut s: Vec<NodeId> = (0..size).map(|_| rng.random_range(0..n as u32)).collect();
                s.sort_unstable();
                s.dedup();
                pool.add_set(&s);
            }
            for b in [1usize, 2, 3, 8] {
                let fresh = greedy_max_coverage(&pool, b);
                let reused = engine.select(&pool, b);
                assert_eq!(fresh, reused, "case {case}, b = {b}");
            }
        }
    }

    #[test]
    fn engine_reuse_across_pools_is_clean() {
        // One engine serving different pools back to back (the TrimScratch
        // pattern) must never leak covered-set, marginal or transpose state.
        let mut engine = CoverageEngine::new();
        let big = pool_from(&[&[0, 1], &[1, 2], &[2], &[3]], 4);
        let small = pool_from(&[&[0]], 2);
        for _ in 0..3 {
            let g = engine.select(&big, 2);
            assert_eq!(g, greedy_max_coverage(&big, 2));
            let g = engine.select(&small, 1);
            assert_eq!(g.seeds, vec![0]);
            assert_eq!(g.covered, 1);
            let g = engine.select(&big, 4);
            assert_eq!(g.covered, 4);
        }
    }

    #[test]
    fn eager_scan_compacts_exhausted_nodes() {
        // 20 clusters: hub i covers that cluster's 50 sets, and each set
        // carries a unique leaf. Greedy picks the 20 hubs; once a hub is
        // picked its 50 leaves are permanently zero and must drop out of
        // later scans. Without compaction every round rescans all 1020
        // nodes (20 × 1020 = 20400 node visits); with it the scan shrinks by
        // 51 nodes per round.
        let clusters = 20usize;
        let sets_per = 50usize;
        let n = clusters + clusters * sets_per;
        let mut pool = SketchPool::new(n);
        for c in 0..clusters {
            let hub = c as NodeId;
            for s in 0..sets_per {
                let leaf = (clusters + c * sets_per + s) as NodeId;
                pool.add_set(&[hub, leaf]);
            }
        }
        let mut engine = CoverageEngine::new();
        let g = engine.select(&pool, clusters);
        assert_eq!(g.seeds.len(), clusters);
        assert_eq!(g.covered as usize, clusters * sets_per);
        let naive_visits = clusters * n;
        assert!(
            engine.last_scanned < naive_visits * 6 / 10,
            "compaction regressed: scanned {} of naive {}",
            engine.last_scanned,
            naive_visits
        );
        // every hub ties at gain 50, so they come out in id order
        assert_eq!(g.seeds, (0..clusters as NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn eight_picks_hold_no_transpose() {
        // Σ|R| = 64 000 memberships over 1 000 nodes, each set in BFS-like
        // (unsorted) order. A transpose would hold 4 bytes per membership;
        // a fresh engine's b = 8 selection scans the pool instead and keeps
        // only per-node and per-set buffers. Its picks are the first eight
        // of a b = 9 selection, which builds the transpose at pick 9.
        let n = 1_000u32;
        let mut pool = SketchPool::new(n as usize);
        for i in 0..2_000u32 {
            let set: Vec<NodeId> = (0..32).map(|k| (i * 7_919 + k * 729) % n).collect();
            pool.add_set(&set);
        }
        let mut engine = CoverageEngine::new();
        let g = engine.select(&pool, 8);
        assert_eq!(g.seeds.len(), 8);
        assert!(
            engine.heap_bytes() < 4 * pool.total_size(),
            "engine holds {} bytes for Σ|R| = {}",
            engine.heap_bytes(),
            pool.total_size()
        );
        assert_eq!(engine.covered_sets().count(), g.covered as usize);
        let g9 = CoverageEngine::new().select(&pool, 9);
        assert_eq!(g9.seeds[..8], g.seeds[..]);
    }

    #[test]
    fn select_until_reaches_target_or_exhausts() {
        let pool = pool_from(&[&[0], &[0], &[1], &[2]], 3);
        let mut engine = CoverageEngine::new();
        // identity bound: stop once 3 sets are covered
        let (g, reached) = engine.select_until(&pool, 3.0, |c| c);
        assert!(reached);
        assert_eq!(g.seeds, vec![0, 1]);
        assert_eq!(g.covered, 3);
        // unreachable target: exhausts coverage and reports failure
        let (g, reached) = engine.select_until(&pool, 100.0, |c| c);
        assert!(!reached);
        assert_eq!(g.covered, 4);
        assert_eq!(g.seeds, vec![0, 1, 2]);
        // already-satisfied target picks nothing
        let (g, reached) = engine.select_until(&pool, 0.0, |c| c);
        assert!(reached);
        assert!(g.seeds.is_empty());
    }

    #[test]
    fn empty_pool_selects_nothing() {
        let pool = SketchPool::new(4);
        let mut engine = CoverageEngine::new();
        let g = engine.select(&pool, 3);
        assert!(g.seeds.is_empty());
        assert_eq!(g.covered, 0);
        let (g, reached) = engine.select_until(&pool, 1.0, |c| c);
        assert!(!reached);
        assert!(g.seeds.is_empty());
    }

    #[test]
    fn rho_values() {
        assert!((rho_b(1) - 1.0).abs() < 1e-12);
        assert!((rho_b(2) - 0.75).abs() < 1e-12);
        assert!(rho_b(8) > 1.0 - 1.0 / std::f64::consts::E);
        assert!(rho_b(1000) > 1.0 - 1.0 / std::f64::consts::E - 1e-3);
    }
}
