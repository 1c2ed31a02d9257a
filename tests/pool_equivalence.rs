//! Layout-equivalence property: the columnar [`SketchPool`] and the
//! coverage engine's member-column scans and node→sets transpose must be
//! observationally identical to a naive reference pool (`Vec<Vec<u32>>`
//! inverted index, the pre-refactor layout) on every query surface — set
//! contents, coverage counts, argmax, union coverage, and greedy
//! selections — for arbitrary random pools, including across `reset` and
//! across pool growth between two selections on one engine. The member-free
//! [`SketchCounts`] that TRIM and AdaptIM grow, fed the same sets, must
//! answer `|R|`, the coverage counts and the argmax identically too.
//!
//! The pool keeps each set in the smaller of two encodings, an id list or a
//! bitmap of `⌈n/64⌉` words (over `2⌈n/64⌉` members). The second family of
//! cases draws sets below, at and above that threshold, empty ones
//! included, at node counts around the word boundaries, and checks both
//! encodings on every surface: members (as sets), counts, the column
//! scan's ids and mask, the transpose's rows, and `select` /
//! `select_until`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seedmin::sampling::{greedy_max_coverage, CoverageEngine, SketchCounts, SketchPool};
use smin_graph::{FixedBitSet, NodeId};

/// The reference layout: per-node `Vec`s, scans everything, obviously
/// correct. Tie-breaking matches the engine (higher gain, then smaller id).
struct NaivePool {
    n: usize,
    sets: Vec<Vec<NodeId>>,
    node_sets: Vec<Vec<u32>>,
}

impl NaivePool {
    fn new(n: usize) -> Self {
        NaivePool {
            n,
            sets: Vec::new(),
            node_sets: vec![Vec::new(); n],
        }
    }

    fn add_set(&mut self, nodes: &[NodeId]) {
        let id = self.sets.len() as u32;
        for &v in nodes {
            self.node_sets[v as usize].push(id);
        }
        self.sets.push(nodes.to_vec());
    }

    fn coverage_counts(&self) -> Vec<u32> {
        (0..self.n)
            .map(|v| self.node_sets[v].len() as u32)
            .collect()
    }

    fn argmax(&self) -> Option<(NodeId, u32)> {
        let mut best: Option<(NodeId, u32)> = None;
        for v in 0..self.n as u32 {
            let c = self.node_sets[v as usize].len() as u32;
            if c > 0 && best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
                best = Some((v, c));
            }
        }
        best
    }

    fn coverage_of_set(&self, nodes: &[NodeId]) -> u32 {
        let mut seen = vec![false; self.sets.len()];
        let mut c = 0;
        for &v in nodes {
            for &s in &self.node_sets[v as usize] {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    c += 1;
                }
            }
        }
        c
    }

    fn greedy(&self, b: usize) -> (Vec<NodeId>, u32) {
        self.greedy_until(b, u32::MAX)
    }

    /// The greedy, stopping after `b` picks or once `target` sets are
    /// covered.
    fn greedy_until(&self, b: usize, target: u32) -> (Vec<NodeId>, u32) {
        let mut marginal = self.coverage_counts();
        let mut covered_sets = vec![false; self.sets.len()];
        let mut seeds = Vec::new();
        let mut covered = 0;
        while seeds.len() < b && covered < target {
            let mut best: Option<(NodeId, u32)> = None;
            for v in 0..self.n as u32 {
                let c = marginal[v as usize];
                if c > 0 && best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
                    best = Some((v, c));
                }
            }
            let Some((v, gain)) = best else { break };
            seeds.push(v);
            covered += gain;
            for &s in &self.node_sets[v as usize] {
                if !covered_sets[s as usize] {
                    covered_sets[s as usize] = true;
                    for &u in &self.sets[s as usize] {
                        marginal[u as usize] -= 1;
                    }
                }
            }
        }
        (seeds, covered)
    }
}

/// Strategy: a batch of random duplicate-free sets over `0..n`.
fn random_sets() -> impl Strategy<Value = (usize, Vec<Vec<NodeId>>)> {
    (2usize..40, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = rng.random_range(0..60usize);
        let sets = (0..batch)
            .map(|_| {
                let size = rng.random_range(0..12usize);
                let mut s: Vec<NodeId> = (0..size).map(|_| rng.random_range(0..n as u32)).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        (n, sets)
    })
}

/// Node counts around the bitmap's word boundaries, and the size of the
/// largest id list at each: `2⌈n/64⌉` members, whose 4 bytes each equal the
/// bitmap's `8⌈n/64⌉`.
const NODE_COUNTS: [usize; 6] = [1, 63, 64, 65, 600, 20_000];

/// Strategy: duplicate-free sets over `0..n` for an `n` of
/// [`NODE_COUNTS`], in random member order, sized below, at and just above
/// the largest id list, far above it, or empty.
fn mixed_sets() -> impl Strategy<Value = (usize, Vec<Vec<NodeId>>)> {
    (0..NODE_COUNTS.len(), 0u64..10_000).prop_map(|(which, seed)| {
        let n = NODE_COUNTS[which];
        let list = (2 * n.div_ceil(64)).min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..n as u32).collect();
        let batch = rng.random_range(0..24usize);
        let sets = (0..batch)
            .map(|_| {
                let size = match rng.random_range(0..6) {
                    0 => 0,
                    1 => rng.random_range(0..=list),
                    2 => list,
                    3 => (list + 1).min(n),
                    _ => rng.random_range(list..=n),
                };
                // a partial Fisher–Yates shuffle: `size` distinct nodes
                for i in 0..size {
                    let j = rng.random_range(i..n);
                    nodes.swap(i, j);
                }
                nodes[..size].to_vec()
            })
            .collect();
        (n, sets)
    })
}

/// A random mask over `sets` sets, about one in three set.
fn random_mask(sets: usize, rng: &mut SmallRng) -> FixedBitSet {
    let mut mask = FixedBitSet::new(sets);
    for s in 0..sets {
        if rng.random_range(0..3) == 0 {
            mask.insert(s);
        }
    }
    mask
}

/// Both encodings against the naive reference on every surface the
/// coverage engine reads: members, the column scan and the transpose.
fn assert_members_scan_and_transpose(pool: &SketchPool, naive: &NaivePool, seed: u64) {
    let n = naive.n;
    assert_eq!(
        pool.total_size(),
        naive.sets.iter().map(Vec::len).sum::<usize>()
    );
    for (i, set) in (0u32..).zip(&naive.sets) {
        let mut want = set.clone();
        want.sort_unstable();
        let mut walked = Vec::new();
        pool.for_each_member(i, |v| walked.push(v));
        assert_eq!(*pool.set(i), walked[..], "set {i}");
        if set.len() <= 2 * n.div_ceil(64) {
            assert_eq!(&walked, set, "set {i}: an id list keeps the append order");
        }
        walked.sort_unstable();
        assert_eq!(walked, want, "set {i}");
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let step = n.div_ceil(40);
    for v in (0..n as u32).step_by(step) {
        let mut covered = random_mask(pool.len(), &mut rng);
        let before = covered.clone();
        let want: Vec<u32> = naive.node_sets[v as usize]
            .iter()
            .copied()
            .filter(|&s| !before.contains(s as usize))
            .collect();
        let mut got = Vec::new();
        pool.cover_sets_of(v, want.len() as u32, &mut covered, |s| got.push(s));
        got.sort_unstable();
        assert_eq!(got, want, "node {v}: sets covered");
        let mut mask: Vec<usize> = before
            .ones()
            .chain(want.iter().map(|&s| s as usize))
            .collect();
        mask.sort_unstable();
        assert!(covered.ones().eq(mask), "node {v}: mask");
    }

    let skip = random_mask(pool.len(), &mut rng);
    let rows: Vec<Vec<u32>> = naive
        .node_sets
        .iter()
        .map(|sets| {
            sets.iter()
                .copied()
                .filter(|&s| !skip.contains(s as usize))
                .collect()
        })
        .collect();
    let counts: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
    let (mut off, mut sets) = (Vec::new(), Vec::new());
    pool.transpose_into(&counts, &skip, &mut off, &mut sets);
    for (v, row) in rows.iter().enumerate() {
        assert_eq!(&sets[off[v]..off[v + 1]], &row[..], "row {v}");
    }
    assert_eq!(off[n], sets.len());
}

/// The pool, the counts and the naive reference, fed the same sets.
fn build_all(n: usize, sets: &[Vec<NodeId>]) -> (SketchPool, SketchCounts, NaivePool) {
    let mut pool = SketchPool::new(n);
    let mut counts = SketchCounts::new(n);
    let mut naive = NaivePool::new(n);
    for s in sets {
        pool.add_set(s);
        counts.add_set(s);
        naive.add_set(s);
    }
    (pool, counts, naive)
}

/// `Λ_R(S)` read off the pool's own sets: the number hit by any of `nodes`.
fn union_coverage(pool: &SketchPool, nodes: &[NodeId]) -> u32 {
    (0..pool.len() as u32)
        .filter(|&s| pool.set(s).iter().any(|v| nodes.contains(v)))
        .count() as u32
}

/// Every query surface of `pool` and `counts` against `naive`, greedy
/// selections included: a fresh engine per call and the caller's reused
/// `engine` must both equal the naive greedy, pick for pick.
fn assert_equivalent(
    pool: &SketchPool,
    counts: &SketchCounts,
    naive: &NaivePool,
    engine: &mut CoverageEngine,
) {
    assert_eq!(counts.len(), naive.sets.len());
    assert_eq!(counts.coverage_counts(), &naive.coverage_counts()[..]);
    assert_eq!(counts.argmax(), naive.argmax());
    assert_eq!(pool.len(), naive.sets.len());
    for (i, set) in naive.sets.iter().enumerate() {
        let (mut got, mut want) = (pool.set(i as u32).into_owned(), set.clone());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "set {i} diverged");
    }
    assert_eq!(pool.coverage_counts(), &naive.coverage_counts()[..]);
    assert_eq!(pool.argmax(), naive.argmax());
    for b in [1usize, 2, 3, 8] {
        let (seeds, covered) = naive.greedy(b);
        let fresh = greedy_max_coverage(pool, b);
        assert_eq!(fresh.seeds, seeds, "fresh engine, b = {b}");
        assert_eq!(fresh.covered, covered, "fresh engine, b = {b}");
        let reused = engine.select(pool, b);
        assert_eq!(reused.seeds, seeds, "reused engine, b = {b}");
        assert_eq!(reused.covered, covered, "reused engine, b = {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_encodings_match_naive_reference((n, sets) in mixed_sets(), seed in 0u64..1_000) {
        let (pool, counts, naive) = build_all(n, &sets);
        let mut engine = CoverageEngine::new();
        assert_equivalent(&pool, &counts, &naive, &mut engine);
        assert_members_scan_and_transpose(&pool, &naive, seed);
        // past 8 picks a greedy run builds the transpose and commits rows
        for b in [12usize, n] {
            let (seeds, covered) = naive.greedy(b);
            let got = engine.select(&pool, b);
            assert_eq!(&got.seeds, &seeds, "b = {}", b);
            assert_eq!(got.covered, covered, "b = {}", b);
        }
        for target in [1u32, (sets.len() / 2) as u32, sets.len() as u32 + 1] {
            let (seeds, covered) = naive.greedy_until(usize::MAX, target);
            let (got, reached) = engine.select_until(&pool, f64::from(target), |c| c);
            assert_eq!(&got.seeds, &seeds, "target {}", target);
            assert_eq!(got.covered, covered, "target {}", target);
            assert_eq!(reached, covered >= target, "target {}", target);
        }
    }

    #[test]
    fn arena_pool_matches_naive_reference((n, sets) in random_sets()) {
        let (pool, counts, naive) = build_all(n, &sets);
        assert_equivalent(&pool, &counts, &naive, &mut CoverageEngine::new());

        // union-coverage queries on a few deterministic member subsets
        let all: Vec<NodeId> = (0..n as u32).collect();
        prop_assert_eq!(union_coverage(&pool, &all), naive.coverage_of_set(&all));
        let evens: Vec<NodeId> = (0..n as u32).step_by(2).collect();
        prop_assert_eq!(union_coverage(&pool, &evens), naive.coverage_of_set(&evens));
        prop_assert_eq!(union_coverage(&pool, &[]), 0);
    }

    #[test]
    fn arena_pool_matches_naive_after_reset((n, sets) in random_sets()) {
        // Fill, select, reset, refill with the same sets reversed: the
        // recycled pool and counts, and the engine that already selected on
        // the first fill, must behave exactly like a fresh naive pool, and
        // right after the reset like an empty one.
        let (mut pool, mut counts, naive) = build_all(n, &sets);
        let mut engine = CoverageEngine::new();
        assert_equivalent(&pool, &counts, &naive, &mut engine);
        pool.reset();
        counts.reset();
        let mut naive = NaivePool::new(n);
        assert_equivalent(&pool, &counts, &naive, &mut engine);
        prop_assert!(counts.is_empty() && counts.touched_nodes().is_empty());
        for s in sets.iter().rev() {
            pool.add_set(s);
            counts.add_set(s);
            naive.add_set(s);
        }
        assert_equivalent(&pool, &counts, &naive, &mut engine);
    }

    #[test]
    fn engine_reselects_correctly_after_the_pool_grows((n, sets) in random_sets()) {
        // The TRIM-B doubling pattern: one engine selects, the pool grows
        // by more sets, and the same engine selects again. The second
        // selection must see the grown pool, not an index kept from the
        // first.
        let (first, more) = sets.split_at(sets.len() / 2);
        let (mut pool, mut counts, mut naive) = build_all(n, first);
        let mut engine = CoverageEngine::new();
        assert_equivalent(&pool, &counts, &naive, &mut engine);
        for s in more {
            pool.add_set(s);
            counts.add_set(s);
            naive.add_set(s);
        }
        assert_equivalent(&pool, &counts, &naive, &mut engine);
        let (got, reached) = engine.select_until(&pool, f64::MAX, |c| c);
        prop_assert!(!reached);
        let all: Vec<NodeId> = (0..n as u32).collect();
        prop_assert_eq!(got.covered, naive.coverage_of_set(&all));
    }
}
