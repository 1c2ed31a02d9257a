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
//! * [`SketchPool`]: a [`SketchCounts`] plus the sets, each in the smaller
//!   of two encodings. A *sparse* set keeps its `u32` id list, flattened
//!   CSR-style into `set_nodes` + `set_off`. A *dense* set, one whose id list
//!   would take more bytes than a bitmap over the nodes (`4·|S| >
//!   8·⌈n/64⌉`, over 626 members at `n = 20 000`), keeps that bitmap of
//!   `⌈n/64⌉` words in `dense_bits`, its id in `dense_ids`. This is the
//!   container rule of Roaring bitmaps (Chambi, Lemire, Kaser, Godin, *Softw.
//!   Pract. Exper.* 2016), with no setting: a set costs at most `8·⌈n/64⌉`
//!   bytes (about `n/8`) plus its offset and id, however many members it
//!   has. Appending a set costs, per member, one copy or one bit set plus
//!   one counter bump.
//!
//! [`SketchGenPool::generate`](crate::SketchGenPool::generate) appends into
//! either through [`SketchSink`]. Both are struct-of-arrays over a handful
//! of flat buffers, with no per-node or per-set heap allocations.
//!
//! The counts see every set's members in the sampler's BFS order, but the
//! pool keeps that order only for sparse sets; a dense set's members come
//! back in ascending order. Every reader walks members through
//! [`SketchPool::for_each_member`], which allocates nothing, and the greedy
//! reads no order, so every selection is the same in either encoding.
//!
//! The pool keeps no node→sets inverted index. Greedy maximum coverage is
//! its only reader, and its first 8 picks do without one:
//! [`SketchPool::cover_sets_of`] tests the pick's bit in each dense set,
//! then finds its sparse sets by scanning the member column, 16 members
//! per vectorized `==` fold. Only a greedy run that picks more builds the
//! index, once, with [`SketchPool::transpose_into`]: a counting-sort
//! transpose of the sets still uncovered, into buffers the coverage engine
//! owns.
//!
//! Both are refilled hundreds of times per adaptive run (the growing
//! samples of Algorithm 2/3); [`SketchCounts::reset`] and
//! [`SketchPool::reset`] keep every buffer's capacity, so a warm one
//! refills without reallocating.

use smin_graph::cast::u32_of;
use smin_graph::{FixedBitSet, NodeId};
use std::borrow::Cow;

/// Members per step of [`SketchPool::cover_sets_of`]'s column scan: one
/// fixed-length `==` fold, which the compiler turns into four 128-bit
/// compares.
const SCAN_CHUNK: usize = 16;

/// Members that [`for_each_bit`] collects before passing them on.
const WALK_BUF: usize = 256;

/// Passes the index of each set bit of `bits` to `f`, in ascending order.
///
/// A set just past the dense threshold has 2 to 8 members per word. A loop
/// that pops one bit per step mispredicts its exit on nearly every such
/// word: on a pool of such sets that made a b = 8 greedy about 1.5 times as
/// slow as on id lists. So a word of at most 8 members is written 8 slots
/// at a time,
/// with no branch per member (the slots past its count hold junk that the
/// next word overwrites), into a buffer that `f` drains in one pass. A
/// fuller word is popped bit by bit, where the exit costs little against
/// its members.
fn for_each_bit(bits: &[u64], mut f: impl FnMut(NodeId)) {
    // a full buffer, plus one word's 8 slots
    let mut buf = [0; WALK_BUF + 8];
    let mut len = 0;
    for (i, &word) in bits.iter().enumerate() {
        let base = u32_of(i << 6);
        let count = word.count_ones() as usize;
        let mut rest = word;
        if count > 8 {
            buf[..len].iter().for_each(|&v| f(v));
            len = 0;
            while rest != 0 {
                f(base | rest.trailing_zeros());
                rest &= rest - 1;
            }
            continue;
        }
        for slot in &mut buf[len..len + 8] {
            *slot = base | rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
        }
        len += count;
        if len >= WALK_BUF {
            buf[..len].iter().for_each(|&v| f(v));
            len = 0;
        }
    }
    buf[..len].iter().for_each(|&v| f(v));
}

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
///
/// Each set is stored in the smaller of two encodings: a *sparse* set as its
/// `u32` id list, a *dense* one (`4·|S| > 8·⌈n/64⌉` bytes) as a bitmap of
/// `⌈n/64⌉` words. Readers walk either through [`for_each_member`].
///
/// [`for_each_member`]: SketchPool::for_each_member
#[derive(Clone, Debug)]
pub struct SketchPool {
    counts: SketchCounts,
    /// Words per dense set's bitmap: `⌈n/64⌉` (at least 1).
    words: usize,
    /// The sparse sets' members, flattened: set `id`'s are
    /// `set_nodes[set_off[id]..set_off[id + 1]]`, in append order. A dense
    /// or empty set has an empty range.
    set_nodes: Vec<NodeId>,
    set_off: Vec<usize>,
    /// The dense sets' ids, ascending; a dense set's rank here is its
    /// bitmap's index in `dense_bits`.
    dense_ids: Vec<u32>,
    /// The dense sets' bitmaps, `words` words each, in `dense_ids` order:
    /// bit `v` is set iff `v` is a member.
    dense_bits: Vec<u64>,
    /// `Σ|S|` over every set, both encodings.
    members: usize,
}

impl SketchPool {
    /// An empty pool over `n` nodes.
    pub fn new(n: usize) -> Self {
        SketchPool {
            counts: SketchCounts::new(n),
            words: n.div_ceil(64).max(1),
            set_nodes: Vec::new(),
            set_off: vec![0],
            dense_ids: Vec::new(),
            dense_bits: Vec::new(),
            members: 0,
        }
    }

    /// Empties the pool keeping all allocations, in O(touched).
    ///
    /// This is the pool-recycling contract the service layer builds on: a
    /// reset pool must *retain* every buffer's capacity (both member
    /// encodings, per-node columns), so per-request rebuilds on a warm pool
    /// perform no reallocation. Debug builds assert that [`heap_bytes`]
    /// never shrinks across a reset.
    ///
    /// [`heap_bytes`]: SketchPool::heap_bytes
    pub fn reset(&mut self) {
        #[cfg(debug_assertions)]
        let bytes_before = self.heap_bytes();
        self.counts.reset();
        self.set_nodes.clear();
        self.set_off.clear();
        self.set_off.push(0);
        self.dense_ids.clear();
        self.dense_bits.clear();
        self.members = 0;
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

    /// Total of all set sizes `Σ|S|`, in either encoding (drives the greedy
    /// cover cost).
    #[inline]
    pub fn total_size(&self) -> usize {
        self.members
    }

    /// Heap bytes currently held by the pool's buffers (both member
    /// encodings, per-node columns). Benchmarks and the service report this
    /// to track retained warm-pool memory.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.counts.heap_bytes()
            + self.set_nodes.capacity() * size_of::<NodeId>()
            + self.set_off.capacity() * size_of::<usize>()
            + self.dense_ids.capacity() * size_of::<u32>()
            + self.dense_bits.capacity() * size_of::<u64>()
    }

    /// Adds one set; duplicates within `nodes` must already be removed
    /// (the samplers guarantee this). The counts see the members in the
    /// order given; the set is kept as a bitmap exactly when that is
    /// smaller than its id list.
    pub fn add_set(&mut self, nodes: &[NodeId]) {
        use std::mem::{size_of, size_of_val};
        self.counts.add_set(nodes);
        self.members += nodes.len();
        if size_of_val(nodes) > size_of::<u64>() * self.words {
            self.dense_ids.push(u32_of(self.set_off.len() - 1));
            let start = self.dense_bits.len();
            self.dense_bits.resize(start + self.words, 0);
            let bits = &mut self.dense_bits[start..];
            for &v in nodes {
                bits[v as usize >> 6] |= 1 << (v & 63);
            }
        } else {
            self.set_nodes.extend_from_slice(nodes);
        }
        self.set_off.push(self.set_nodes.len());
    }

    /// Set `id`'s range of the sparse member column; empty for a dense or
    /// empty set.
    #[inline]
    fn span(&self, id: u32) -> &[NodeId] {
        &self.set_nodes[self.set_off[id as usize]..self.set_off[id as usize + 1]]
    }

    /// Set `id`'s bitmap when it is dense.
    fn bitmap(&self, id: u32) -> Option<&[u64]> {
        let rank = self.dense_ids.binary_search(&id).ok()?;
        Some(&self.dense_bits[rank * self.words..][..self.words])
    }

    /// Passes each member of set `id` to `f`, without allocating: a sparse
    /// set's in append order, a dense set's in ascending order.
    #[inline]
    pub fn for_each_member(&self, id: u32, mut f: impl FnMut(NodeId)) {
        let span = self.span(id);
        if !span.is_empty() {
            span.iter().for_each(|&v| f(v));
        } else if let Some(bits) = self.bitmap(id) {
            for_each_bit(bits, f);
        }
    }

    /// The members of set `id`: borrowed, in append order, for a sparse
    /// set; collected in ascending order for a dense one. Either way the
    /// same set of nodes, but only a sparse set keeps the sampler's BFS
    /// order (the greedy never reads the order; the counts saw it).
    pub fn set(&self, id: u32) -> Cow<'_, [NodeId]> {
        match self.bitmap(id) {
            Some(bits) => {
                let mut members = Vec::new();
                for_each_bit(bits, |v| members.push(v));
                Cow::Owned(members)
            }
            None => Cow::Borrowed(self.span(id)),
        }
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
    /// not hold yet, and passes each one's id to `on_cover`: the dense
    /// sets' in ascending order, then the sparse sets' in ascending order.
    /// `uncovered` must be the number of such sets (the coverage engine's
    /// marginal of `v`): the scan stops at the last of them instead of at
    /// the end of the pool.
    ///
    /// Needs no inverted index. Each dense set costs one bit test. The
    /// sparse member column is scanned in chunks of 16 members, each
    /// tested for `v` by a branch-free `==` fold the compiler vectorizes;
    /// only a chunk that holds `v` is walked member by member. A set cursor
    /// over the offsets maps each hit to its set and only moves forward, so
    /// a call costs O(|R|) plus the sparse members up to the last uncovered
    /// hit.
    pub fn cover_sets_of(
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
        let (word, bit) = (v as usize >> 6, 1u64 << (v & 63));
        let dense_words = self.dense_bits.iter().skip(word).step_by(self.words);
        for (&id, &bits) in self.dense_ids.iter().zip(dense_words) {
            if bits & bit != 0 && covered.insert(id as usize) {
                on_cover(id);
                left -= 1;
                if left == 0 {
                    return;
                }
            }
        }
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
    /// across calls rebuilds without reallocating. O(n + |R| + Σ|R|), plus
    /// `⌈n/64⌉` words per dense set.
    ///
    /// Counting sort: a prefix sum of `counts` gives each node's start,
    /// then one scatter of the kept set ids in set order, each set's
    /// members walked in either encoding, fills the rows. `off[v + 1]`
    /// serves as node `v`'s write cursor during the scatter and finishes at
    /// `v`'s end, which is exactly `v + 1`'s start. The scatter writes
    /// every slot of `sets`, so stale contents are never cleared.
    pub fn transpose_into(
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
        for id in 0..u32_of(self.len()) {
            if skip.contains(id as usize) {
                continue;
            }
            self.for_each_member(id, |v| {
                let cursor = &mut off[v as usize + 1];
                sets[*cursor] = id;
                *cursor += 1;
            });
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
        assert_eq!(*pool.set(0), [0, 2]);
        assert_eq!(*pool.set(1), [2]);
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
        // and the scan stops once `uncovered` sets are covered. Over 512
        // nodes a bitmap takes 8 words, so every set here is an id list.
        let mut pool = SketchPool::new(512);
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

    /// `size` distinct nodes of `0..n` in a scrambled order, as a BFS
    /// appends them (7 919 is prime, so the map is a permutation).
    fn scrambled(n: usize, size: usize, shift: u32) -> Vec<NodeId> {
        (0..size)
            .map(|k| u32_of((k * 7_919 + shift as usize) % n))
            .collect()
    }

    #[test]
    fn each_set_takes_the_smaller_encoding() {
        // At n = 20 000 a bitmap is 313 words, 2 504 bytes: an id list of
        // 626 members (2 504 bytes) stays a list, one of 627 becomes a
        // bitmap. Both give back the same members; only a list keeps the
        // order they came in, and the counts saw every member either way.
        let n = 20_000;
        let sizes = [0, 1, 625, 626, 627, 11_000, n];
        let sets: Vec<Vec<NodeId>> = (0..)
            .zip(sizes)
            .map(|(i, size)| scrambled(n, size, i))
            .collect();
        let mut pool = SketchPool::new(n);
        let mut counts = SketchCounts::new(n);
        for set in &sets {
            pool.add_set(set);
            counts.add_set(set);
        }
        assert_eq!(pool.dense_ids, [4, 5, 6]);
        assert_eq!(pool.dense_bits.len(), 3 * 313);
        assert_eq!(pool.set_nodes.len(), 1 + 625 + 626);
        assert_eq!(pool.counts(), &counts);
        assert_eq!(pool.total_size(), sizes.iter().sum::<usize>());
        for (id, set) in (0..).zip(&sets) {
            let mut walked = Vec::new();
            pool.for_each_member(id, |v| walked.push(v));
            assert_eq!(*pool.set(id), walked[..], "set {id}");
            if pool.bitmap(id).is_some() {
                assert!(walked.is_sorted(), "set {id}: a bitmap walks ascending");
                let mut want = set.clone();
                want.sort_unstable();
                assert_eq!(walked, want, "set {id}");
            } else {
                assert!(matches!(pool.set(id), Cow::Borrowed(_)), "set {id}");
                assert_eq!(&walked, set, "set {id}: a list keeps its order");
            }
        }
    }

    #[test]
    fn bit_walk_matches_a_scan_at_every_word_density() {
        // Runs of words from empty to full, so the walk switches between
        // its buffered and bit-by-bit paths and flushes mid-run.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bits: Vec<u64> = (0..600)
            .map(|i| match i / 40 % 5 {
                0 => 0,
                1 => next() & next() & next() & next(),
                2 => next() & next() & next(),
                3 => next(),
                _ => next() | next(),
            })
            .collect();
        let mut walked = Vec::new();
        for_each_bit(&bits, |v| walked.push(v));
        let scan: Vec<NodeId> = (0..u32_of(64 * bits.len()))
            .filter(|&v| bits[v as usize >> 6] & (1 << (v & 63)) != 0)
            .collect();
        assert_eq!(walked, scan);
    }

    #[test]
    fn k_dense_sets_hold_at_most_n_over_8_bytes_each() {
        // A dense set stores its bitmap (8⌈n/64⌉ bytes), its offset (8) and
        // its id (4), so k of them store at most k·(8⌈n/64⌉ + 16) bytes
        // besides the counts' O(n) and the leading offset, whatever their
        // sizes. Vec's doubling allocates at most twice what is stored,
        // plus the first allocations' minimum capacities. The same sets as
        // id lists would take 4 bytes per member: 44 000 bytes each here,
        // over 8 times what the pool holds.
        let n = 20_000usize;
        let per_set = 8 * n.div_ceil(64) + 16;
        let mut pool = SketchPool::new(n);
        for k in 1..=300 {
            pool.add_set(&scrambled(n, 11_000, k));
            let k = k as usize;
            let stored =
                8 * pool.set_off.len() + 4 * pool.dense_ids.len() + 8 * pool.dense_bits.len();
            assert!(stored <= k * per_set + 8, "k = {k}: {stored} bytes stored");
            let beyond_counts = pool.heap_bytes() - pool.counts().heap_bytes();
            assert!(
                beyond_counts <= 2 * k * per_set + 64,
                "k = {k}: {beyond_counts} bytes allocated"
            );
        }
        assert!(pool.counts().heap_bytes() <= 12 * n);
        assert!(pool.heap_bytes() * 8 < 4 * pool.total_size());
        pool.reset();
        assert!(pool.dense_ids.is_empty() && pool.dense_bits.is_empty());
        assert_eq!(pool.total_size(), 0);
    }

    #[test]
    fn column_scan_tests_dense_sets_then_scans_sparse_ones() {
        // Over 64 nodes a bitmap is one word, so sets of 3 or more members
        // are dense. Node 5 is in dense sets 0 and 3 and in sparse sets 1
        // and 4; the scan covers the dense ones, then the sparse ones,
        // skips covered sets and stops at the last uncovered one.
        let mut pool = SketchPool::new(64);
        let sets: [&[NodeId]; 7] = [
            &[9, 5, 8],
            &[5, 1],
            &[2, 3, 4],
            &[63, 6, 5, 40],
            &[5],
            &[],
            &[6],
        ];
        for set in sets {
            pool.add_set(set);
        }
        assert_eq!(pool.dense_ids, [0, 2, 3]);
        assert_eq!(sets_of_vec(&pool, 5), [0, 1, 3, 4]);
        assert_eq!(sets_of_vec(&pool, 6), [3, 6]);
        assert_eq!(sets_of_vec(&pool, 63), [3]);
        assert_eq!(*pool.set(3), [5, 6, 40, 63]);
        assert!(pool.set(5).is_empty());

        let mut covered = FixedBitSet::new(pool.len());
        assert_eq!(covered_by_scan(&pool, 5, 4, &mut covered), [0, 3, 1, 4]);
        assert!(covered.ones().eq([0, 1, 3, 4]));

        let mut covered = FixedBitSet::new(pool.len());
        covered.insert(3);
        assert_eq!(covered_by_scan(&pool, 5, 1, &mut covered), [0]);
        assert_eq!(covered_by_scan(&pool, 5, 2, &mut covered), [1, 4]);
        assert!(covered.ones().eq([0, 1, 3, 4]));

        // the transpose skips covered sets of either encoding
        let mut skip = FixedBitSet::new(pool.len());
        skip.insert(0);
        skip.insert(1);
        let mut marginal = pool.coverage_counts().to_vec();
        for id in [0, 1] {
            pool.for_each_member(id, |v| marginal[v as usize] -= 1);
        }
        let (mut off, mut rows) = (Vec::new(), Vec::new());
        pool.transpose_into(&marginal, &skip, &mut off, &mut rows);
        assert_eq!(&rows[off[5]..off[6]], [3, 4]);
        assert_eq!(&rows[off[6]..off[7]], [3, 6]);
        assert_eq!(off[10] - off[9], 0, "node 9 is only in covered set 0");
    }
}
