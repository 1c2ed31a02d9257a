//! Kernel-equivalence properties: the word-parallel coverage kernels (the
//! member-column scan of a greedy run's first 8 picks, word-batched
//! `commit_pick` over the transpose built after them, unrolled candidate
//! scans, word-skipping bitset primitives) must be observationally
//! identical to the obviously-correct scalar references —
//! bit for bit, on arbitrary random inputs, including pool sizes that
//! straddle the 64-bit word boundaries of the covered mask. The reverse BFS
//! behind every sketch, which reads a shared in-probability per node where
//! one exists, must likewise reproduce a per-edge reference sampler set for
//! set, edge count for edge count, coin for coin.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seedmin::sampling::{CoverageEngine, SketchPool};
use smin_graph::{FixedBitSet, NodeId};

// ---------------------------------------------------------------------------
// FixedBitSet word primitives vs per-bit references
// ---------------------------------------------------------------------------

/// Strategy: a bitset capacity and a pseudo-random bit pattern seed.
fn bits_and_seed() -> impl Strategy<Value = (usize, u64)> {
    (1usize..200, 0u64..10_000)
}

fn random_bitset(len: usize, rng: &mut SmallRng, density: f64) -> FixedBitSet {
    let mut b = FixedBitSet::new(len);
    for i in 0..len {
        if rng.random_range(0.0..1.0) < density {
            b.insert(i);
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_word_matches_per_bit_inserts((len, seed) in bits_and_seed()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut word_wise = random_bitset(len, &mut rng, 0.3);
        let mut bit_wise = word_wise.clone();
        let words = len.div_ceil(64);
        for wi in 0..words {
            // random mask clipped to the capacity of this word
            let live = (len - (wi << 6)).min(64);
            let clip = if live == 64 { u64::MAX } else { (1u64 << live) - 1 };
            let mask = rng.random_range(0..=u64::MAX) & clip;
            let fresh = word_wise.insert_word(wi, mask);
            // reference: insert bit by bit, collecting the fresh ones
            let mut fresh_ref = 0u64;
            for bit in 0..live {
                if mask & (1u64 << bit) != 0 && bit_wise.insert((wi << 6) | bit) {
                    fresh_ref |= 1u64 << bit;
                }
            }
            prop_assert_eq!(fresh, fresh_ref);
        }
        let a: Vec<usize> = word_wise.ones().collect();
        let b: Vec<usize> = bit_wise.ones().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn union_count_matches_union_with_plus_count((len, seed) in bits_and_seed()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_bitset(len, &mut rng, 0.4);
        let b = random_bitset(len, &mut rng, 0.4);
        let before = a.count_ones();
        let mut fused = a.clone();
        let fresh = fused.union_count(&b);
        let mut reference = a.clone();
        reference.union_with(&b);
        prop_assert_eq!(fused.count_ones(), reference.count_ones());
        prop_assert_eq!(before + fresh, fused.count_ones());
        let x: Vec<usize> = fused.ones().collect();
        let y: Vec<usize> = reference.ones().collect();
        prop_assert_eq!(x, y);
    }

    #[test]
    fn count_ones_range_matches_filtered_ones((len, seed) in bits_and_seed()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let b = random_bitset(len, &mut rng, 0.5);
        for _ in 0..8 {
            let lo = rng.random_range(0..=len);
            let hi = rng.random_range(lo..=len);
            let word_wise = b.count_ones_range(lo, hi);
            let scalar = b.ones().filter(|&i| lo <= i && i < hi).count();
            prop_assert_eq!(word_wise, scalar);
        }
    }

    #[test]
    fn ones_iterator_matches_contains_scan((len, seed) in bits_and_seed()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let b = random_bitset(len, &mut rng, 0.2);
        let skipping: Vec<usize> = b.ones().collect();
        let scalar: Vec<usize> = (0..len).filter(|&i| b.contains(i)).collect();
        prop_assert_eq!(skipping, scalar);
    }
}

// ---------------------------------------------------------------------------
// CoverageEngine selections vs a scalar reference greedy
// ---------------------------------------------------------------------------

/// Scalar reference: full rescans, per-bit covered flags, the engine's
/// tie-breaking (higher gain, then smaller id).
struct ScalarGreedy {
    n: usize,
    sets: Vec<Vec<NodeId>>,
    node_sets: Vec<Vec<u32>>,
}

impl ScalarGreedy {
    fn new(n: usize, sets: &[Vec<NodeId>]) -> Self {
        let mut node_sets = vec![Vec::new(); n];
        for (id, s) in sets.iter().enumerate() {
            for &v in s {
                node_sets[v as usize].push(id as u32);
            }
        }
        ScalarGreedy {
            n,
            sets: sets.to_vec(),
            node_sets,
        }
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

    /// Greedy until `b` picks or `stop(covered)` says done; returns
    /// (seeds, covered, stopped_by_target).
    fn greedy(&self, b: usize, stop: impl Fn(u32) -> bool) -> (Vec<NodeId>, u32, bool) {
        let mut marginal: Vec<u32> = (0..self.n)
            .map(|v| self.node_sets[v].len() as u32)
            .collect();
        let mut covered_sets = vec![false; self.sets.len()];
        let mut seeds = Vec::new();
        let mut covered = 0u32;
        loop {
            if stop(covered) {
                return (seeds, covered, true);
            }
            if seeds.len() == b {
                return (seeds, covered, false);
            }
            let mut best: Option<(NodeId, u32)> = None;
            for v in 0..self.n as u32 {
                let c = marginal[v as usize];
                if c > 0 && best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
                    best = Some((v, c));
                }
            }
            let Some((v, gain)) = best else {
                return (seeds, covered, false);
            };
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
    }
}

/// Strategy: random pools whose set count deliberately lands on or near the
/// covered-mask word boundaries (63/64/65, 127/128/129) a third of the
/// time, so `insert_word`'s boundary clipping is continuously exercised.
/// Each set's members are shuffled, as in a sampled set's BFS order.
fn random_pools() -> impl Strategy<Value = (usize, Vec<Vec<NodeId>>)> {
    (2usize..50, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = if seed % 3 == 0 {
            [63usize, 64, 65, 127, 128, 129][rng.random_range(0..6usize)]
        } else {
            rng.random_range(0..200usize)
        };
        let sets = (0..batch)
            .map(|_| {
                let size = rng.random_range(0..10usize);
                let mut s: Vec<NodeId> = (0..size).map(|_| rng.random_range(0..n as u32)).collect();
                s.sort_unstable();
                s.dedup();
                for i in (1..s.len()).rev() {
                    s.swap(i, rng.random_range(0..i + 1));
                }
                s
            })
            .collect();
        (n, sets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernelized_engine_matches_scalar_greedy((n, sets) in random_pools()) {
        let mut pool = SketchPool::new(n);
        for s in &sets {
            pool.add_set(s);
        }
        let reference = ScalarGreedy::new(n, &sets);
        let mut engine = CoverageEngine::new();

        prop_assert_eq!(engine.argmax(&pool), reference.argmax());

        for b in [1usize, 2, 7, 8, 9, 16, 63, 64, 65, 200] {
            let (seeds, covered, _) = reference.greedy(b, |_| false);
            let got = engine.select(&pool, b);
            prop_assert_eq!(&got.seeds, &seeds);
            prop_assert_eq!(got.covered, covered);
            // every covered set the kernels marked is genuinely covered
            prop_assert_eq!(engine.covered_sets().count(), covered as usize);
        }

        for target in [0.0, 1.0, 16.0, 64.0, 1e9] {
            let (seeds, covered, reached) =
                reference.greedy(usize::MAX, |c| f64::from(c) >= target);
            let (got, got_reached) = engine.select_until(&pool, target, |c| c);
            prop_assert_eq!(&got.seeds, &seeds);
            prop_assert_eq!(got.covered, covered);
            prop_assert_eq!(got_reached, reached);
        }
    }
}

/// The `perf` harness's pools at bench scale: 1k/4k/16k mRR sets (IC,
/// η = 100) on its pinned 2k-node / 8k-edge Chung–Lu WC graph, the 16k
/// pool holding ~1.8 M members. The proptests above stop at 200 sets of at
/// most 10 members; this pins the engine to the scalar greedy where `perf`
/// times it, on both sides of the 9th pick, the first one to build the
/// transpose. One engine serves the growing pools, as across TRIM's
/// doublings.
#[test]
fn engine_matches_scalar_greedy_on_bench_scale_pools() {
    use seedmin::diffusion::{Model, ResidualState};
    use seedmin::graph::generators::{assemble, chung_lu_directed};
    use seedmin::graph::WeightModel;
    use seedmin::sampling::{MrrSampler, RootCountDist};

    let n = 2_000;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let pairs = chung_lu_directed(n, 8_000, 2.1, &mut rng);
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let residual = ResidualState::new(n);
    let mut sampler = MrrSampler::new(n);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut out = Vec::new();
    let sets: Vec<Vec<NodeId>> = (0..16_384)
        .map(|_| {
            sampler.sample_into(
                &g,
                Model::IC,
                &residual,
                100,
                RootCountDist::Randomized,
                &mut rng,
                &mut out,
            );
            out.clone()
        })
        .collect();

    let mut engine = CoverageEngine::new();
    for size in [1_024usize, 4_096, 16_384] {
        let sets = &sets[..size];
        let mut pool = SketchPool::new(n);
        for s in sets {
            pool.add_set(s);
        }
        let reference = ScalarGreedy::new(n, sets);
        for b in [1usize, 2, 4, 8, 9, 32, 64] {
            let (seeds, covered, _) = reference.greedy(b, |_| false);
            let got = engine.select(&pool, b);
            assert_eq!(got.seeds, seeds, "{size} sets, b = {b}");
            assert_eq!(got.covered, covered, "{size} sets, b = {b}");
            assert_eq!(engine.covered_sets().count(), covered as usize);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `coverage_bound` is the sum of the `b` largest counts capped at
    /// `|R|`, and never below what the greedy covers: TRIM-B skips a greedy
    /// call on it.
    #[test]
    fn coverage_bound_dominates_greedy((n, sets) in random_pools()) {
        let mut pool = SketchPool::new(n);
        for s in &sets {
            pool.add_set(s);
        }
        let mut counts: Vec<u32> = pool.coverage_counts().to_vec();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut engine = CoverageEngine::new();
        for b in [0usize, 1, 2, 3, 7, 8, 16, 63, 64, 200] {
            let top: u32 = counts.iter().take(b).sum();
            let bound = engine.coverage_bound(&pool, b);
            prop_assert_eq!(bound, top.min(pool.len() as u32));
            let greedy = engine.select(&pool, b);
            prop_assert!(bound >= greedy.covered, "b = {}: {} < {}", b, bound, greedy.covered);
            // On a warm engine the bound allocates nothing and leaves the
            // next selection untouched.
            let warm = engine.heap_bytes();
            engine.coverage_bound(&pool, b);
            prop_assert_eq!(engine.heap_bytes(), warm);
            prop_assert_eq!(engine.select(&pool, b), greedy);
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-count identity through the kernelized engine
// ---------------------------------------------------------------------------

/// TRIM-B selections driven through the kernelized engine are byte-identical
/// at 1 and 4 sketch-generation threads, under IC and LT, and so are the
/// greedy call count and the engine's recorded scan volume (selection is
/// single-threaded downstream of the pool).
#[test]
fn trim_b_selections_identical_across_thread_counts() {
    use seedmin::algo::trim::TrimScratch;
    use seedmin::algo::trim_b::trim_b;
    use seedmin::diffusion::{Model, ResidualState};
    use seedmin::graph::generators::{assemble, chung_lu_directed};
    use seedmin::graph::WeightModel;
    use seedmin::prelude::TrimParams;

    let mut rng = SmallRng::seed_from_u64(0x51CC);
    let pairs = chung_lu_directed(500, 2_000, 2.1, &mut rng);
    let g = assemble(500, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let residual = ResidualState::new(500);

    for model in [Model::IC, Model::LT] {
        let mut baseline: Option<(Vec<u32>, u32, usize, usize, usize)> = None;
        for threads in [1usize, 4] {
            let params = TrimParams::with_eps(0.4).with_threads(threads);
            let mut scratch = TrimScratch::new(g.n());
            let mut rng = SmallRng::seed_from_u64(0xFA57);
            let out = trim_b(&g, model, &residual, 50, 4, &params, &mut scratch, &mut rng).unwrap();
            let state = (
                out.seeds.clone(),
                out.coverage,
                out.sets_generated,
                out.greedy_calls,
                scratch.engine().last_scanned,
            );
            match &baseline {
                None => baseline = Some(state),
                Some(base) => assert_eq!(&state, base, "{model}: {threads} threads diverged"),
            }
        }
        let (seeds, _, _, _, scanned) = baseline.unwrap();
        assert!(!seeds.is_empty());
        assert!(
            scanned >= seeds.len(),
            "every committed pick scans >= 1 node"
        );
    }
}

// ---------------------------------------------------------------------------
// Reverse BFS vs the per-edge reference sampler
// ---------------------------------------------------------------------------

/// The reverse BFS as it was before the reverse CSR carried a shared
/// in-probability per node: every in-edge's probability read from
/// `in_edges`, and a BFS queue kept apart from the output set.
struct ReferenceSampler {
    visited: Vec<bool>,
    queue: Vec<NodeId>,
}

impl ReferenceSampler {
    fn new(n: usize) -> Self {
        ReferenceSampler {
            visited: vec![false; n],
            queue: Vec::new(),
        }
    }

    fn sample_into(
        &mut self,
        g: &seedmin::graph::Graph,
        model: seedmin::diffusion::Model,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) -> usize {
        use seedmin::diffusion::Model;
        out.clear();
        self.queue.clear();
        let is_alive = |u: NodeId| alive.is_none_or(|a| a[u as usize]);
        for &r in roots {
            if is_alive(r) && !self.visited[r as usize] {
                self.visited[r as usize] = true;
                out.push(r);
                self.queue.push(r);
            }
        }
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            match model {
                Model::IC => {
                    for (u, p, _) in g.in_edges(v) {
                        if !is_alive(u) {
                            continue;
                        }
                        edges_examined += 1;
                        if !self.visited[u as usize] && rng.random::<f64>() < p {
                            self.visited[u as usize] = true;
                            out.push(u);
                            self.queue.push(u);
                        }
                    }
                }
                Model::LT => {
                    let mut r = rng.random::<f64>();
                    for (u, p, _) in g.in_edges(v) {
                        edges_examined += 1;
                        if r < p {
                            if is_alive(u) && !self.visited[u as usize] {
                                self.visited[u as usize] = true;
                                out.push(u);
                                self.queue.push(u);
                            }
                            break;
                        }
                        r -= p;
                    }
                }
            }
        }
        for &u in out.iter() {
            self.visited[u as usize] = false;
        }
        edges_examined
    }
}

/// The four weightings the equivalence runs on, over one pinned Chung–Lu
/// structure: weighted cascade (every node shares one in-probability),
/// trivalency (almost no node with two or more in-edges shares), weighted
/// cascade with every 13th edge halved (both kinds of node), and uniform
/// `p = 1` (every node shares, every coin lands).
fn equivalence_graphs() -> Vec<(&'static str, seedmin::graph::Graph)> {
    use seedmin::graph::generators::{assemble, chung_lu_directed};
    use seedmin::graph::WeightModel;

    let n = 600;
    let mut rng = SmallRng::seed_from_u64(0x5EED_0BF5);
    let pairs = chung_lu_directed(n, 2_400, 2.1, &mut rng);
    let weighted = |model, rng: &mut SmallRng| assemble(n, &pairs, true, model, rng).unwrap();
    let wc = weighted(WeightModel::WeightedCascade, &mut rng);
    let mut edge = 0usize;
    let mixed = wc.map_probabilities(|_, _, p| {
        edge += 1;
        if edge.is_multiple_of(13) {
            p / 2.0
        } else {
            p
        }
    });
    vec![
        ("trivalency", weighted(WeightModel::Trivalency, &mut rng)),
        ("uniform-1", weighted(WeightModel::Uniform(1.0), &mut rng)),
        ("wc", wc),
        ("wc-mixed", mixed),
    ]
}

/// Node counts sharing / not sharing one in-probability (in-degree ≥ 1).
fn sharing_census(g: &seedmin::graph::Graph) -> (usize, usize) {
    let with_in = (0..g.n() as u32).filter(|&v| g.in_degree(v) > 0);
    with_in.fold((0, 0), |(shared, mixed), v| match g.in_sources(v).1 {
        Some(_) => (shared + 1, mixed),
        None => (shared, mixed + 1),
    })
}

/// For every graph, both models, all nodes alive and about 10% killed:
/// 2 000 random root sets (1–4 roots, dead and repeated roots included)
/// give the reference's set, in the same order, with the same edge count,
/// and leave both RNG streams at the same position.
#[test]
fn reverse_bfs_matches_per_edge_reference() {
    use seedmin::diffusion::Model;
    use seedmin::sampling::ReverseSampler;

    for (name, g) in equivalence_graphs() {
        let n = g.n();
        let (shared, mixed) = sharing_census(&g);
        match name {
            "wc" | "uniform-1" => assert_eq!(mixed, 0, "{name}: every node shares"),
            "trivalency" => assert!(mixed > shared / 2, "{name}: {shared} shared"),
            _ => assert!(shared > 0 && mixed > 0, "{name}: {shared}/{mixed}"),
        }
        let mut mask_rng = SmallRng::seed_from_u64(0xDEAD);
        let killed: Vec<bool> = (0..n).map(|_| mask_rng.random::<f64>() >= 0.1).collect();
        for alive in [None, Some(killed.as_slice())] {
            for model in [Model::IC, Model::LT] {
                let mut sampler = ReverseSampler::new(n);
                let mut reference = ReferenceSampler::new(n);
                let mut rng = SmallRng::seed_from_u64(0xC01);
                let mut ref_rng = rng.clone();
                let mut root_rng = SmallRng::seed_from_u64(0x2007);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut total = 0usize;
                for i in 0..2_000 {
                    let k = root_rng.random_range(1..=4usize);
                    let roots: Vec<NodeId> =
                        (0..k).map(|_| root_rng.random_range(0..n as u32)).collect();
                    let edges = sampler.sample_into(&g, model, alive, &roots, &mut rng, &mut got);
                    let ref_edges =
                        reference.sample_into(&g, model, alive, &roots, &mut ref_rng, &mut want);
                    let case = format!("{name} {model} alive={} set {i}", alive.is_none());
                    assert_eq!(got, want, "{case}");
                    assert_eq!(edges, ref_edges, "{case}");
                    total += edges;
                }
                assert!(total > 2_000, "{name} {model}: the sets grew");
                assert_eq!(
                    rng.random::<u64>(),
                    ref_rng.random::<u64>(),
                    "{name} {model}"
                );
            }
        }
    }
}

/// `SketchGenPool::generate` at 1 and 3 threads on the mixed graph, with
/// about 10% of the nodes dead, reproduces the per-edge reference driven
/// through the same per-set RNG streams and root draws.
#[test]
fn sketch_pool_generation_matches_per_edge_reference() {
    use seedmin::diffusion::{DistinctDraw, Model, ResidualState};
    use seedmin::sampling::{sample_root_count, RootCountDist, SketchGenPool, SketchJob};

    let (_, g) = equivalence_graphs()
        .into_iter()
        .find(|(name, _)| *name == "wc-mixed")
        .unwrap();
    let n = g.n();
    let mut residual = ResidualState::new(n);
    for u in (0..n as u32).step_by(10) {
        residual.kill(u);
    }
    let (sets, eta, base_seed) = (1_500usize, 40usize, 0xFEED_u64);
    for model in [Model::IC, Model::LT] {
        let mut reference = ReferenceSampler::new(n);
        let mut draw = DistinctDraw::new();
        let snapshot = residual.snapshot();
        let (mut roots, mut set) = (Vec::new(), Vec::new());
        let mut want: Vec<Vec<NodeId>> = Vec::with_capacity(sets);
        let mut want_edges = 0usize;
        for i in 0..sets {
            let mut rng = SmallRng::seed_from_u64(base_seed ^ i as u64);
            let k = sample_root_count(snapshot.n_alive(), eta, RootCountDist::Randomized, &mut rng);
            draw.sample_from(&snapshot, k, &mut rng, &mut roots);
            let alive = Some(snapshot.alive_mask());
            want_edges += reference.sample_into(&g, model, alive, &roots, &mut rng, &mut set);
            want.push(set.clone());
        }
        for threads in [1usize, 3] {
            let job = SketchJob {
                graph: &g,
                model,
                snapshot: residual.snapshot(),
                eta_i: eta,
                dist: RootCountDist::Randomized,
                base_seed,
            };
            let mut pool = SketchPool::new(n);
            let stats = SketchGenPool::new(n).generate(&job, sets, threads, &mut pool);
            assert_eq!(stats.sets_generated, sets);
            assert_eq!(stats.edges_examined, want_edges, "{model} t{threads}");
            for (i, w) in want.iter().enumerate() {
                assert_eq!(pool.set(i as u32), &w[..], "{model} t{threads} set {i}");
            }
        }
    }
}

/// An RNG whose first `u64` is `first`, then a seeded stream: puts the LT
/// coin of a sample's first dequeued node exactly where a test wants it.
#[derive(Clone)]
struct FirstDraw {
    first: Option<u64>,
    rest: SmallRng,
}

impl rand::RngCore for FirstDraw {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.first.take().unwrap_or_else(|| self.rest.next_u64())
    }
}

/// Disjoint stars, each center's in-edges sharing one probability: in-degree
/// 1 000 and up (weighted cascade), in-probabilities summing to less than 1,
/// a few small in-degrees, and a probability far below any coin. Last, a
/// 2-cycle with `p = 1`, whose second pick is always already visited; a
/// dead leaf is the other pick the sampler drops.
fn lt_star_graph() -> (seedmin::graph::Graph, Vec<(NodeId, usize, f64)>) {
    use seedmin::graph::GraphBuilder;

    let stars: [(usize, f64); 9] = [
        (1_000, 1.0 / 1_000.0),
        (1_237, 1.0 / 1_237.0),
        (3_001, 1.0 / 3_001.0),
        (5_000, 1.0 / 5_000.0),
        (1_237, 0.61 / 1_237.0),
        (10, 0.05),
        (7, 1.0 / 7.0),
        (3, 1.0 / 3.0),
        (50, 1e-300),
    ];
    let n = stars.iter().map(|&(d, _)| d + 1).sum::<usize>() + 2;
    let mut b = GraphBuilder::new(n);
    let mut centers = Vec::new();
    let mut next = 0u32;
    for (d, p) in stars {
        let center = next;
        for leaf in center + 1..=center + d as u32 {
            b.add_edge_p(leaf, center, p).unwrap();
        }
        centers.push((center, d, p));
        next += d as u32 + 1;
    }
    b.add_edge_p(next, next + 1, 1.0).unwrap();
    b.add_edge_p(next + 1, next, 1.0).unwrap();
    centers.extend([(next, 1, 1.0), (next + 1, 1, 1.0)]);
    (b.build().unwrap(), centers)
}

/// LT's O(1) pick at nodes whose in-edges share `p` equals the per-edge
/// scan: set, edge count and final RNG position, with the center's coin
/// placed within a few RNG steps (2⁻⁵³) of every small multiple `k·p` and
/// of multiples near `d/3`, `d/2` and `d`, and with random coins at random
/// centers, all leaves alive or a fifth of them dead. Both reasons to drop
/// a pick occur: a dead leaf, and the 2-cycle's pick of its own root.
#[test]
fn lt_pick_matches_scan_at_hubs_and_multiples_of_p() {
    use seedmin::diffusion::Model;
    use seedmin::sampling::ReverseSampler;

    let (g, centers) = lt_star_graph();
    let n = g.n();
    for &(c, d, p) in &centers {
        assert_eq!(g.in_sources(c).1, Some(p), "center {c} shares p");
        assert_eq!(g.in_degree(c), d);
    }
    let killed: Vec<bool> = (0..n).map(|u| u % 5 != 2).collect();
    let mut sampler = ReverseSampler::new(n);
    let mut reference = ReferenceSampler::new(n);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let scale = (1u64 << 53) as f64;
    let mut check = |rng: FirstDraw, roots: &[NodeId], alive: Option<&[bool]>, case: &str| {
        let (mut rng, mut ref_rng) = (rng.clone(), rng);
        let edges = sampler.sample_into(&g, Model::LT, alive, roots, &mut rng, &mut got);
        let ref_edges = reference.sample_into(&g, Model::LT, alive, roots, &mut ref_rng, &mut want);
        assert_eq!(got, want, "{case}");
        assert_eq!(edges, ref_edges, "{case}");
        assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>(), "{case}");
        edges
    };
    let mut scripted = 0usize;
    for (ci, &(c, d, p)) in centers.iter().enumerate() {
        let near = [
            d / 3,
            d / 2,
            d.saturating_sub(2),
            d.saturating_sub(1),
            d,
            d + 1,
        ];
        for k in (0..=d.min(40)).chain(near) {
            let at = (k as f64 * p * scale).round() as i64;
            for ulps in -6i64..=6 {
                let m = at + ulps;
                if !(0..1i64 << 53).contains(&m) {
                    continue;
                }
                for alive in [None, Some(killed.as_slice())] {
                    let rng = FirstDraw {
                        first: Some((m as u64) << 11),
                        rest: SmallRng::seed_from_u64(m as u64 ^ ci as u64),
                    };
                    let case = format!("center {c} d={d} p={p:e} k={k} ulps={ulps}");
                    check(rng, &[c], alive, &case);
                    scripted += 1;
                }
            }
        }
    }
    assert!(scripted > 5_000, "{scripted} scripted coins");

    let mut root_rng = SmallRng::seed_from_u64(0x0B1);
    let mut examined = 0usize;
    for i in 0..4_000u64 {
        let k = root_rng.random_range(1..=3usize);
        let roots: Vec<NodeId> = (0..k)
            .map(|_| centers[root_rng.random_range(0..centers.len())].0)
            .collect();
        let rng = FirstDraw {
            first: None,
            rest: SmallRng::seed_from_u64(i),
        };
        let alive = (i % 2 == 0).then_some(killed.as_slice());
        examined += check(rng, &roots, alive, &format!("random draw {i}"));
    }
    assert!(examined > 4_000 * 100, "hubs were scanned deep: {examined}");
    // Both drops occurred above: the first star's center picks a dead leaf
    // on some coins (checked first, so a sampler that keeps dead picks
    // fails there), and the 2-cycle's second pick is its own root.
    assert!((1..=centers[0].1).any(|u| !killed[u]));
    let (a, b) = (centers[centers.len() - 2].0, centers[centers.len() - 1].0);
    for alive in [None, Some(killed.as_slice())] {
        let mut rng = SmallRng::seed_from_u64(0x2C);
        let edges = sampler.sample_into(&g, Model::LT, alive, &[a], &mut rng, &mut got);
        assert_eq!((edges, &got[..]), (2, &[a, b][..]), "2-cycle from {a}");
    }
}
