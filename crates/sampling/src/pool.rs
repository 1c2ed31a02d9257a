//! Sketch storage: the coverage counts every selection reads, and the
//! sets themselves, which only greedy coverage reads.
//!
//! TRIM and AdaptIM need only `argmax_v Λ_R(v)` and `|R|` at every
//! certificate check; TRIM-B's pre-check, the sum of the `b` largest
//! `Λ_R(v)`, reads the same counts. Greedy maximum coverage (TRIM-B and
//! ATEUC) also needs each set's members. So each reader grows the type that
//! holds what it reads:
//!
//! * [`SketchCounts`]: `coverage[v] = Λ_R(v)`, the `touched` list of nodes
//!   with non-zero coverage, and `|R|`, maintained as sets arrive so the
//!   argmax never re-scans old sets. Its heap is O(n) whatever `|R|` is: 4
//!   bytes per node for `Λ_R`, and the touched list, which never outgrows
//!   the nodes.
//! * [`SketchPool`]: a [`SketchCounts`] plus the sets, flattened CSR-style
//!   into `set_nodes` + `set_off`. Appending a set costs one copy plus one
//!   counter bump per member.
//!
//! [`SketchGenPool::generate`](crate::SketchGenPool::generate) appends into
//! either through [`SketchSink`]. Both are struct-of-arrays over a handful
//! of flat buffers, with no per-node or per-set heap allocations.
//!
//! The pool keeps no node→sets inverted index. Greedy maximum coverage is
//! its only reader, and its first 8 picks do without one:
//! `SketchPool::cover_sets_of` finds a pick's sets by scanning the member
//! column, 16 members per vectorized `==` fold. Only a greedy run that
//! picks more builds the index, once, with `SketchPool::transpose_into`: a
//! counting-sort transpose of the sets still uncovered, into buffers the
//! coverage engine owns.
//!
//! Both are refilled hundreds of times per adaptive run (the growing
//! samples of Algorithm 2/3); [`SketchCounts::reset`] and
//! [`SketchPool::reset`] keep every buffer's capacity, so a warm one
//! refills without reallocating.

use smin_graph::cast::u32_of;
use smin_graph::{FixedBitSet, NodeId};

/// Members per step of [`SketchPool::cover_sets_of`]'s column scan: one
/// fixed-length `==` fold, which the compiler turns into four 128-bit
/// compares.
const SCAN_CHUNK: usize = 16;

/// Where [`SketchGenPool::generate`](crate::SketchGenPool::generate)
/// appends the sets it samples, in index order.
// `is_empty` would have no caller: the generator reads only `len`.
#[allow(clippy::len_without_is_empty)]
pub trait SketchSink {
    /// Number of sets `|R|` appended so far.
    fn len(&self) -> usize;
    /// Appends one set; duplicates within `nodes` must already be removed
    /// (the samplers guarantee this).
    fn add_set(&mut self, nodes: &[NodeId]);
}

/// Coverage counts of the sampled (m)RR sets over nodes `0..n`, without
/// the sets: everything TRIM's and AdaptIM's argmax reads, in O(n) bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchCounts {
    /// `coverage[v] = Λ_R(v)`, the number of sets containing `v`.
    coverage: Vec<u32>,
    /// Nodes with non-zero coverage, in first-touch order. Lets `argmax` and
    /// `reset` run in O(touched) instead of O(n) — essential when the counts
    /// are reused across hundreds of adaptive rounds on a multi-million-node
    /// graph.
    touched: Vec<NodeId>,
    /// Sets counted, `|R|`.
    len: usize,
}

impl SketchCounts {
    /// Empty counts over `n` nodes.
    pub fn new(n: usize) -> Self {
        SketchCounts {
            coverage: vec![0; n],
            touched: Vec::new(),
            len: 0,
        }
    }

    /// Forgets every set, keeping all allocations, in O(touched).
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.coverage[v as usize] = 0;
        }
        self.touched.clear();
        self.len = 0;
    }

    /// Number of sets `|R|`. Sets that were sampled empty (all roots dead)
    /// count too — the estimator treats them as covering nothing.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no sets have been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the coverage column and the touched list: O(n),
    /// however many sets were counted.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.coverage.capacity() * size_of::<u32>() + self.touched.capacity() * size_of::<NodeId>()
    }

    /// Counts one set; duplicates within `nodes` must already be removed
    /// (the samplers guarantee this).
    pub fn add_set(&mut self, nodes: &[NodeId]) {
        // Counts and a pool's set ids are u32; θ_max beyond u32::MAX would
        // silently wrap them if this ever truncated.
        assert!(
            self.len < u32::MAX as usize,
            "{} sets counted; adding more would overflow the u32 counts and set ids",
            self.len
        );
        for &v in nodes {
            let c = &mut self.coverage[v as usize];
            if *c == 0 {
                self.touched.push(v);
            }
            *c += 1;
        }
        self.len += 1;
    }

    /// `Λ_R(v)`.
    #[inline]
    pub fn coverage(&self, v: NodeId) -> u32 {
        self.coverage[v as usize]
    }

    /// Coverage counts for all nodes.
    #[inline]
    pub fn coverage_counts(&self) -> &[u32] {
        &self.coverage
    }

    /// Nodes that appear in at least one set (first-touch order).
    #[inline]
    pub fn touched_nodes(&self) -> &[NodeId] {
        &self.touched
    }

    /// `argmax_v Λ_R(v)`; `None` when no set covers anything. O(touched).
    ///
    /// Delegates to the coverage engine's shared candidate scan, so the tie
    /// rule (higher coverage, then smaller node id) is identical to the
    /// first pick of every greedy selection in [`crate::coverage`].
    pub fn argmax(&self) -> Option<(NodeId, u32)> {
        crate::coverage::best_node(&self.touched, &self.coverage)
    }
}

impl SketchSink for SketchCounts {
    fn len(&self) -> usize {
        SketchCounts::len(self)
    }

    fn add_set(&mut self, nodes: &[NodeId]) {
        SketchCounts::add_set(self, nodes);
    }
}

/// A pool of reverse-reachable sets over nodes `0..n`: their
/// [`SketchCounts`] plus their members, for greedy coverage.
#[derive(Clone, Debug)]
pub struct SketchPool {
    counts: SketchCounts,
    /// Flattened node lists, one slice per set.
    set_nodes: Vec<NodeId>,
    set_off: Vec<usize>,
}

impl SketchPool {
    /// An empty pool over `n` nodes.
    pub fn new(n: usize) -> Self {
        SketchPool {
            counts: SketchCounts::new(n),
            set_nodes: Vec::new(),
            set_off: vec![0],
        }
    }

    /// Empties the pool keeping all allocations, in O(touched).
    ///
    /// This is the pool-recycling contract the service layer builds on: a
    /// reset pool must *retain* every buffer's capacity (flattened sets,
    /// per-node columns), so per-request rebuilds on a warm pool perform no
    /// reallocation. Debug builds assert that [`heap_bytes`] never shrinks
    /// across a reset.
    ///
    /// [`heap_bytes`]: SketchPool::heap_bytes
    pub fn reset(&mut self) {
        #[cfg(debug_assertions)]
        let bytes_before = self.heap_bytes();
        self.counts.reset();
        self.set_nodes.clear();
        self.set_off.clear();
        self.set_off.push(0);
        #[cfg(debug_assertions)]
        debug_assert!(
            self.heap_bytes() >= bytes_before,
            "SketchPool::reset released capacity ({} -> {} bytes); recycled \
             pools must keep their buffers",
            bytes_before,
            self.heap_bytes()
        );
    }

    /// The pool's coverage counts.
    #[inline]
    pub fn counts(&self) -> &SketchCounts {
        &self.counts
    }

    /// Number of sets `|R|` ([`SketchCounts::len`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no sets have been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total of all set sizes (drives the greedy cover cost).
    #[inline]
    pub fn total_size(&self) -> usize {
        self.set_nodes.len()
    }

    /// Heap bytes currently held by the pool's buffers (flattened sets,
    /// per-node columns). Benchmarks and the service report this to track
    /// retained warm-pool memory.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.counts.heap_bytes()
            + self.set_nodes.capacity() * size_of::<NodeId>()
            + self.set_off.capacity() * size_of::<usize>()
    }

    /// Adds one set; duplicates within `nodes` must already be removed
    /// (the samplers guarantee this).
    pub fn add_set(&mut self, nodes: &[NodeId]) {
        self.counts.add_set(nodes);
        self.set_nodes.extend_from_slice(nodes);
        self.set_off.push(self.set_nodes.len());
    }

    /// The nodes of set `id`.
    #[inline]
    pub fn set(&self, id: u32) -> &[NodeId] {
        &self.set_nodes[self.set_off[id as usize]..self.set_off[id as usize + 1]]
    }

    /// `Λ_R(v)`.
    #[inline]
    pub fn coverage(&self, v: NodeId) -> u32 {
        self.counts.coverage(v)
    }

    /// Coverage counts for all nodes.
    #[inline]
    pub fn coverage_counts(&self) -> &[u32] {
        self.counts.coverage_counts()
    }

    /// Nodes that appear in at least one set (first-touch order).
    #[inline]
    pub fn touched_nodes(&self) -> &[NodeId] {
        self.counts.touched_nodes()
    }

    /// `argmax_v Λ_R(v)` ([`SketchCounts::argmax`]).
    pub fn argmax(&self) -> Option<(NodeId, u32)> {
        self.counts.argmax()
    }

    /// Marks covered, in `covered`, the sets containing `v` that it does
    /// not hold yet, and passes each one's id to `on_cover` in ascending
    /// order. `uncovered` must be the number of such sets (the coverage
    /// engine's marginal of `v`): the scan stops at the last of them
    /// instead of at the end of the pool.
    ///
    /// Needs no inverted index. The member column is scanned in chunks of
    /// [`SCAN_CHUNK`], each tested for `v` by a branch-free `==` fold the
    /// compiler vectorizes; only a chunk that holds `v` is walked member by
    /// member. A set cursor over the offsets maps each hit to its set and
    /// only moves forward, so a call costs O(|R|) plus the members up to
    /// the last uncovered hit.
    pub(crate) fn cover_sets_of(
        &self,
        v: NodeId,
        uncovered: u32,
        covered: &mut FixedBitSet,
        mut on_cover: impl FnMut(u32),
    ) {
        if uncovered == 0 {
            return;
        }
        let mut left = uncovered;
        let mut set = 0usize;
        // Covers the set holding member `pos`; `true` once none is left.
        let mut hit = |pos: usize| {
            while self.set_off[set + 1] <= pos {
                set += 1;
            }
            if covered.insert(set) {
                on_cover(u32_of(set));
                left -= 1;
            }
            left == 0
        };
        let (chunks, rest) = self.set_nodes.as_chunks::<SCAN_CHUNK>();
        for (start, chunk) in (0..).step_by(SCAN_CHUNK).zip(chunks) {
            if chunk.iter().fold(false, |any, &u| any | (u == v)) {
                for (pos, &u) in (start..).zip(chunk) {
                    if u == v && hit(pos) {
                        return;
                    }
                }
            }
        }
        for (pos, &u) in (chunks.len() * SCAN_CHUNK..).zip(rest) {
            if u == v && hit(pos) {
                return;
            }
        }
    }

    /// Writes the node→sets inverted index of the sets `skip` does not
    /// hold into the caller's buffers as a CSR transpose: afterwards
    /// `sets[off[v]..off[v + 1]]` lists those sets containing `v`, in
    /// ascending id order. `counts[v]` must be that row's length: the
    /// coverage counts when `skip` is empty, the engine's marginals when it
    /// holds the sets a greedy run has covered. Both buffers are
    /// overwritten and keep their capacity, so a caller that holds them
    /// across calls rebuilds without reallocating. O(n + |R| + Σ|R|).
    ///
    /// Counting sort: a prefix sum of `counts` gives each node's start,
    /// then one scatter of the kept set ids in set order fills the rows.
    /// `off[v + 1]` serves as node `v`'s write cursor during the scatter
    /// and finishes at `v`'s end, which is exactly `v + 1`'s start. The
    /// scatter writes every slot of `sets`, so stale contents are never
    /// cleared.
    pub(crate) fn transpose_into(
        &self,
        counts: &[u32],
        skip: &FixedBitSet,
        off: &mut Vec<usize>,
        sets: &mut Vec<u32>,
    ) {
        off.clear();
        off.push(0);
        let mut start = 0usize;
        off.extend(counts.iter().map(|&c| {
            let s = start;
            start += c as usize;
            s
        }));
        sets.resize(start, 0);
        for (id, w) in (0u32..).zip(self.set_off.windows(2)) {
            if skip.contains(id as usize) {
                continue;
            }
            for &v in &self.set_nodes[w[0]..w[1]] {
                let cursor = &mut off[v as usize + 1];
                sets[*cursor] = id;
                *cursor += 1;
            }
        }
    }
}

impl SketchSink for SketchPool {
    fn len(&self) -> usize {
        SketchPool::len(self)
    }

    fn add_set(&mut self, nodes: &[NodeId]) {
        SketchPool::add_set(self, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transpose of every set in the pool.
    fn transpose_all(pool: &SketchPool, off: &mut Vec<usize>, sets: &mut Vec<u32>) {
        let none = FixedBitSet::new(pool.len());
        pool.transpose_into(pool.coverage_counts(), &none, off, sets);
    }

    /// The transposed row of `v`: the sets containing it.
    fn sets_of_vec(pool: &SketchPool, v: NodeId) -> Vec<u32> {
        let (mut off, mut sets) = (Vec::new(), Vec::new());
        transpose_all(pool, &mut off, &mut sets);
        sets[off[v as usize]..off[v as usize + 1]].to_vec()
    }

    /// The ids `cover_sets_of` passes on, and the mask afterwards.
    fn covered_by_scan(
        pool: &SketchPool,
        v: NodeId,
        uncovered: u32,
        covered: &mut FixedBitSet,
    ) -> Vec<u32> {
        let mut ids = Vec::new();
        pool.cover_sets_of(v, uncovered, covered, |s| ids.push(s));
        ids
    }

    #[test]
    fn coverage_counts_incrementally() {
        let mut pool = SketchPool::new(4);
        pool.add_set(&[0, 1]);
        pool.add_set(&[1, 2]);
        pool.add_set(&[1]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.coverage(0), 1);
        assert_eq!(pool.coverage(1), 3);
        assert_eq!(pool.coverage(2), 1);
        assert_eq!(pool.coverage(3), 0);
        assert_eq!(pool.total_size(), 5);
    }

    #[test]
    fn argmax_picks_heaviest() {
        let mut pool = SketchPool::new(3);
        pool.add_set(&[0]);
        pool.add_set(&[2]);
        pool.add_set(&[2]);
        assert_eq!(pool.argmax(), Some((2, 2)));
    }

    #[test]
    fn argmax_breaks_ties_toward_smaller_id() {
        let mut pool = SketchPool::new(4);
        pool.add_set(&[3]); // touched first, same coverage
        pool.add_set(&[1]);
        assert_eq!(pool.argmax(), Some((1, 1)));
    }

    #[test]
    fn argmax_none_when_empty() {
        let pool = SketchPool::new(3);
        assert_eq!(pool.argmax(), None);
        let mut pool = SketchPool::new(3);
        pool.add_set(&[]);
        assert_eq!(pool.argmax(), None);
        assert_eq!(pool.len(), 1, "empty sets still count toward |R|");
    }

    #[test]
    fn inverted_index_consistent() {
        let mut pool = SketchPool::new(3);
        pool.add_set(&[0, 2]);
        pool.add_set(&[2]);
        assert_eq!(sets_of_vec(&pool, 2), vec![0, 1]);
        assert_eq!(sets_of_vec(&pool, 0), vec![0]);
        assert_eq!(sets_of_vec(&pool, 1), Vec::<u32>::new());
        assert_eq!(pool.set(0), &[0, 2]);
        assert_eq!(pool.set(1), &[2]);
    }

    #[test]
    fn inverted_index_spans_many_chunks() {
        // One node in 100 sets, another in every third: long rows must list
        // ids in exact insertion order, and each row's length is Λ_R(v).
        let mut pool = SketchPool::new(2);
        for i in 0..100u32 {
            if i % 3 == 0 {
                pool.add_set(&[0, 1]);
            } else {
                pool.add_set(&[0]);
            }
        }
        assert_eq!(pool.coverage(0), 100);
        assert_eq!(sets_of_vec(&pool, 0), (0..100).collect::<Vec<_>>());
        assert_eq!(
            sets_of_vec(&pool, 1),
            (0..100).filter(|i| i % 3 == 0).collect::<Vec<_>>()
        );
        let (mut off, mut sets) = (Vec::new(), Vec::new());
        transpose_all(&pool, &mut off, &mut sets);
        assert_eq!(
            off,
            vec![0, 100, 134],
            "row bounds are the count prefix sum"
        );
        assert_eq!(sets.len(), pool.total_size());
    }

    #[test]
    fn transpose_reuses_buffers_across_growth_and_reset() {
        // The engine's pattern: the same two buffers across a growing pool,
        // a reset and a smaller refill. Nothing may leak between builds.
        let (mut off, mut sets) = (Vec::new(), Vec::new());
        let mut pool = SketchPool::new(4);
        pool.add_set(&[0, 1]);
        pool.add_set(&[1, 2]);
        transpose_all(&pool, &mut off, &mut sets);
        assert_eq!(
            (&off[..], &sets[..]),
            (&[0, 1, 3, 4, 4][..], &[0, 0, 1, 1][..])
        );
        pool.add_set(&[3, 1]);
        transpose_all(&pool, &mut off, &mut sets);
        assert_eq!(
            (&off[..], &sets[..]),
            (&[0, 1, 4, 5, 6][..], &[0, 0, 1, 2, 1, 2][..])
        );
        pool.reset();
        pool.add_set(&[2]);
        transpose_all(&pool, &mut off, &mut sets);
        assert_eq!((&off[..], &sets[..]), (&[0, 0, 0, 1, 1][..], &[0][..]));
    }

    #[test]
    fn transpose_skips_covered_sets() {
        // With sets 1 and 3 covered and the counts reduced to match, every
        // row lists only the uncovered sets, still in ascending order.
        let mut pool = SketchPool::new(4);
        for s in [&[0, 1][..], &[1, 2], &[2, 1, 0], &[1], &[3, 1]] {
            pool.add_set(s);
        }
        let mut skip = FixedBitSet::new(pool.len());
        skip.insert(1);
        skip.insert(3);
        let (mut off, mut sets) = (Vec::new(), Vec::new());
        pool.transpose_into(&[2, 3, 1, 1], &skip, &mut off, &mut sets);
        assert_eq!(
            off,
            vec![0, 2, 5, 6, 7],
            "row bounds are the count prefix sum"
        );
        assert_eq!(sets, vec![0, 2, 0, 2, 4, 2, 4]);
    }

    #[test]
    fn column_scan_covers_uncovered_sets_across_chunks() {
        // Sets of 7 members tile the column, so sets and hits straddle the
        // 16-member chunk boundaries; node 5 sits in every third set and
        // once in the unchunked tail. Sets already covered are skipped,
        // and the scan stops once `uncovered` sets are covered.
        let mut pool = SketchPool::new(40);
        for i in 0..30u32 {
            let mut set: Vec<NodeId> = (10..16).map(|u| u + i % 20).collect();
            set.insert((i % 7) as usize, if i % 3 == 0 { 5 } else { 6 });
            pool.add_set(&set);
        }
        pool.add_set(&[7, 5]);
        let holding: Vec<u32> = (0..30).step_by(3).chain([30]).collect();
        assert_eq!(sets_of_vec(&pool, 5), holding);
        assert!(
            !pool.total_size().is_multiple_of(SCAN_CHUNK),
            "the tail is scanned too"
        );

        let mut covered = FixedBitSet::new(pool.len());
        assert_eq!(covered_by_scan(&pool, 5, 11, &mut covered), holding);
        assert!(covered.ones().eq(holding.iter().map(|&s| s as usize)));

        let mut covered = FixedBitSet::new(pool.len());
        for s in [0, 9, 10, 30] {
            covered.insert(s);
        }
        let fresh: Vec<u32> = vec![3, 6, 12, 15, 18];
        assert_eq!(covered_by_scan(&pool, 5, 5, &mut covered), fresh);
        assert_eq!(covered.count_ones(), 4 + fresh.len());
        assert!(!covered.contains(21), "stopped after the fifth fresh set");
        assert!(covered_by_scan(&pool, 5, 0, &mut covered).is_empty());
        assert!(covered_by_scan(&pool, 39, 1, &mut covered).is_empty());
    }

    #[test]
    fn reset_keeps_pool_usable() {
        let mut pool = SketchPool::new(3);
        pool.add_set(&[0, 1]);
        pool.add_set(&[1]);
        pool.reset();
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.coverage(1), 0);
        assert!(pool.touched_nodes().is_empty());
        assert_eq!(pool.argmax(), None);
        pool.add_set(&[2]);
        assert_eq!(pool.argmax(), Some((2, 1)));
        assert_eq!(sets_of_vec(&pool, 1), Vec::<u32>::new());
        assert_eq!(sets_of_vec(&pool, 2), vec![0]);
    }

    #[test]
    fn reset_retains_exact_capacity() {
        // The recycling contract: heap_bytes is invariant across reset, so a
        // warm pool refilled to the same size reallocates nothing.
        let mut pool = SketchPool::new(64);
        for i in 0..500u32 {
            pool.add_set(&[i % 64, (i + 1) % 64, (i + 7) % 64]);
        }
        let filled = pool.heap_bytes();
        pool.reset();
        assert_eq!(pool.heap_bytes(), filled, "reset must not release buffers");
        for i in 0..500u32 {
            pool.add_set(&[i % 64, (i + 1) % 64, (i + 7) % 64]);
        }
        assert_eq!(
            pool.heap_bytes(),
            filled,
            "identical refill on a recycled pool must not grow the heap"
        );
    }

    #[test]
    fn reset_then_refill_reuses_arena_without_leaks() {
        let mut pool = SketchPool::new(4);
        for _ in 0..30 {
            pool.add_set(&[0, 2]);
        }
        pool.reset();
        assert!(pool.heap_bytes() > 0, "capacity survives reset");
        for i in 0..10u32 {
            pool.add_set(&[2, 3]);
            assert_eq!(pool.coverage(2), i + 1);
        }
        assert_eq!(sets_of_vec(&pool, 0), Vec::<u32>::new());
        assert_eq!(sets_of_vec(&pool, 2), (0..10).collect::<Vec<_>>());
        assert_eq!(sets_of_vec(&pool, 3), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn touched_nodes_tracks_first_touch() {
        let mut pool = SketchPool::new(4);
        pool.add_set(&[2, 0]);
        pool.add_set(&[0, 3]);
        assert_eq!(pool.touched_nodes(), &[2, 0, 3]);
    }

    #[test]
    fn clone_keeps_queries_independent() {
        let mut pool = SketchPool::new(3);
        pool.add_set(&[0, 1]);
        let cloned = pool.clone();
        pool.add_set(&[0]);
        assert_eq!(pool.coverage(0), 2);
        assert_eq!(sets_of_vec(&pool, 0), vec![0, 1]);
        assert_eq!(cloned.coverage(0), 1);
        assert_eq!(cloned.len(), 1);
        assert_eq!(sets_of_vec(&cloned, 0), vec![0]);
    }

    #[test]
    fn counts_mirror_the_pool_without_its_members() {
        // Fed the same sets, the counts equal the pool's own, through a
        // reset and a refill, and their heap stays at its first size while
        // the pool's grows with the members.
        fn fill(pool: &mut SketchPool, counts: &mut SketchCounts, sets: u32) {
            for i in 0..sets {
                let set = [i % 64, (i + 1) % 64, (i + 7) % 64];
                pool.add_set(&set);
                counts.add_set(&set);
            }
        }
        let mut pool = SketchPool::new(64);
        let mut counts = SketchCounts::new(64);
        fill(&mut pool, &mut counts, 100);
        assert_eq!(pool.counts(), &counts);
        assert_eq!(counts.len(), 100);
        assert_eq!(counts.argmax(), pool.argmax());
        let (small_pool, small_counts) = (pool.heap_bytes(), counts.heap_bytes());

        pool.reset();
        counts.reset();
        assert_eq!(pool.counts(), &counts);
        assert!(counts.is_empty() && counts.touched_nodes().is_empty());
        assert_eq!(counts.argmax(), None);
        assert!(counts.coverage_counts().iter().all(|&c| c == 0));

        fill(&mut pool, &mut counts, 10_000);
        assert_eq!(pool.counts(), &counts);
        assert_eq!(counts.heap_bytes(), small_counts, "counts grew with |R|");
        assert!(pool.heap_bytes() > small_pool + 4 * 10_000);
    }

    #[test]
    fn sinks_append_through_the_trait() {
        fn append(sink: &mut impl SketchSink, sets: &[&[NodeId]]) -> usize {
            for s in sets {
                sink.add_set(s);
            }
            sink.len()
        }
        let sets: &[&[NodeId]] = &[&[0, 1], &[], &[1]];
        let mut pool = SketchPool::new(2);
        let mut counts = SketchCounts::new(2);
        assert_eq!(append(&mut pool, sets), 3);
        assert_eq!(append(&mut counts, sets), 3);
        assert_eq!(pool.counts(), &counts);
        assert_eq!(counts.coverage_counts(), &[1, 2]);
    }

    #[test]
    fn heap_bytes_tracks_growth() {
        let mut pool = SketchPool::new(100);
        let empty = pool.heap_bytes();
        for i in 0..50u32 {
            pool.add_set(&[i, i + 1, i + 2]);
        }
        assert!(pool.heap_bytes() > empty);
    }
}
