//! Kernel-equivalence properties: the word-parallel coverage kernels (the
//! member-column scan of a greedy run's first 8 picks, word-batched
//! `commit_pick` over the transpose built after them, unrolled candidate
//! scans, word-skipping bitset primitives) must be observationally
//! identical to the obviously-correct scalar references —
//! bit for bit, on arbitrary random inputs, including pool sizes that
//! straddle the 64-bit word boundaries of the covered mask. OPIM-C's upper
//! bound, which the greedy's candidate walks track, must equal a naive
//! recomputation and bracket the best batch found by brute force. The
//! reverse BFS behind every sketch, which reads a shared in-probability per
//! node where one exists, must likewise reproduce a plainly written
//! reference sampler set for set, edge count for edge count, draw for draw;
//! and its IC draw of a node's live in-edges by count must follow the exact
//! binomial law and agree in distribution with one coin per in-edge.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seedmin::sampling::coverage::rho_b;
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

    /// Greedy until `b` picks or `stop(covered, marginals)` says done;
    /// returns (seeds, covered, stopped_by_target). `stop` sees every
    /// prefix, the last one included.
    fn greedy(
        &self,
        b: usize,
        mut stop: impl FnMut(u32, &[u32]) -> bool,
    ) -> (Vec<NodeId>, u32, bool) {
        let mut marginal: Vec<u32> = (0..self.n)
            .map(|v| self.node_sets[v].len() as u32)
            .collect();
        let mut covered_sets = vec![false; self.sets.len()];
        let mut seeds = Vec::new();
        let mut covered = 0u32;
        loop {
            if stop(covered, &marginal) {
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

    /// OPIM-C's bound the slow way: at every greedy prefix `S_i`, `Λ(S_i)`
    /// plus the `b` largest marginals, capped at `|R|`; the smallest.
    fn upper(&self, b: usize) -> u32 {
        let mut upper = u32::MAX;
        self.greedy(b, |covered, marginal| {
            let mut sorted = marginal.to_vec();
            sorted.sort_unstable_by(|x, y| y.cmp(x));
            let top: u64 = sorted.iter().take(b).map(|&c| u64::from(c)).sum();
            let bound = (u64::from(covered) + top).min(self.sets.len() as u64);
            upper = upper.min(bound as u32);
            false
        });
        upper
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

        prop_assert_eq!(pool.argmax(), reference.argmax());

        for b in [1usize, 2, 7, 8, 9, 16, 63, 64, 65, 200] {
            let (seeds, covered, _) = reference.greedy(b, |_, _| false);
            let got = engine.select(&pool, b);
            prop_assert_eq!(&got.seeds, &seeds);
            prop_assert_eq!(got.covered, covered);
            prop_assert_eq!(got.upper, reference.upper(b));
            // every covered set the kernels marked is genuinely covered
            prop_assert_eq!(engine.covered_sets().count(), covered as usize);
        }

        for target in [0.0, 1.0, 16.0, 64.0, 1e9] {
            let (seeds, covered, reached) =
                reference.greedy(usize::MAX, |c, _| f64::from(c) >= target);
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
    use seedmin::sampling::{RootCountDist, SketchGenPool, SketchJob};

    let n = 2_000;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let pairs = chung_lu_directed(n, 8_000, 2.1, &mut rng);
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let residual = ResidualState::new(n);
    let job = SketchJob {
        graph: &g,
        model: Model::IC,
        snapshot: residual.snapshot(),
        eta_i: 100,
        dist: RootCountDist::Randomized,
        base_seed: 4,
    };
    let mut full = SketchPool::new(n);
    SketchGenPool::new(n).generate(&job, 16_384, 1, &mut full);
    let sets: Vec<Vec<NodeId>> = (0..16_384u32).map(|i| full.set(i).to_vec()).collect();

    let mut engine = CoverageEngine::new();
    for size in [1_024usize, 4_096, 16_384] {
        let sets = &sets[..size];
        let mut pool = SketchPool::new(n);
        for s in sets {
            pool.add_set(s);
        }
        let reference = ScalarGreedy::new(n, sets);
        for b in [1usize, 2, 4, 8, 9, 32, 64] {
            let (seeds, covered, _) = reference.greedy(b, |_, _| false);
            let got = engine.select(&pool, b);
            assert_eq!(got.seeds, seeds, "{size} sets, b = {b}");
            assert_eq!(got.covered, covered, "{size} sets, b = {b}");
            assert_eq!(engine.covered_sets().count(), covered as usize);
        }
    }
}

/// Strategy: pools of at most 10 nodes and 40 sets, each pool with its own
/// set density, small enough to find the best batch by brute force.
fn small_pools() -> impl Strategy<Value = (usize, Vec<Vec<NodeId>>)> {
    (1usize..11, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let density = rng.random_range(1..=6u32);
        let sets = (0..rng.random_range(0..=40usize))
            .map(|_| {
                let mut s: Vec<NodeId> = (0..n as u32)
                    .filter(|_| rng.random_range(0..10u32) < density)
                    .collect();
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// OPIM-C's bound `U` from `select`, for b ∈ 1..=4: at least the best
    /// `b` nodes' coverage (brute force over every subset); between the
    /// greedy's coverage `c` and the `b` largest counts capped at `|R|`;
    /// at most `c/ρ_b`; and equal to the naive bound. `select_while`'s
    /// bound before each pick starts at the `b` largest counts capped at
    /// `|R|`, never grows, and never drops below `c`; the call returns
    /// `None` as soon as `go` declines.
    #[test]
    fn opim_bound_brackets_the_best_batch((n, sets) in small_pools()) {
        let mut pool = SketchPool::new(n);
        for s in &sets {
            pool.add_set(s);
        }
        let masks: Vec<u16> = sets
            .iter()
            .map(|s| s.iter().fold(0u16, |m, &v| m | 1 << v))
            .collect();
        let coverage = |nodes: u16| masks.iter().filter(|&&m| m & nodes != 0).count() as u32;
        let mut counts = pool.coverage_counts().to_vec();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let reference = ScalarGreedy::new(n, &sets);
        let mut engine = CoverageEngine::new();
        for b in 1..=4usize {
            let best = (0u16..1 << n)
                .filter(|m| m.count_ones() as usize <= b)
                .map(coverage)
                .max()
                .unwrap();
            let cover = engine.select(&pool, b);
            let (c, u) = (cover.covered, cover.upper);
            let counts_bound = counts.iter().take(b).sum::<u32>().min(sets.len() as u32);
            prop_assert!(u >= best, "b = {}: U = {} < best {}", b, u, best);
            prop_assert!(c <= u && u <= counts_bound, "b = {}: {} {} {}", b, c, u, counts_bound);
            prop_assert!(rho_b(b) * f64::from(u) <= f64::from(c) + 1e-9, "b = {}: {} {}", b, c, u);
            prop_assert_eq!(u, reference.upper(b));

            let mut bounds = Vec::new();
            let again = engine.select_while(&pool, b, |bound| {
                bounds.push(bound);
                true
            });
            prop_assert_eq!(again.as_ref(), Some(&cover));
            prop_assert_eq!(bounds[0], counts_bound);
            prop_assert!(bounds.windows(2).all(|w| w[1] <= w[0]), "{:?}", bounds);
            prop_assert!(bounds.iter().all(|&bound| bound >= c), "{:?} < {}", bounds, c);
            for k in 0..bounds.len() {
                let mut asked = 0;
                let abandoned = engine.select_while(&pool, b, |_| {
                    asked += 1;
                    asked <= k
                });
                prop_assert!(abandoned.is_none());
                prop_assert_eq!(asked, k + 1);
            }
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

/// Largest shared probability `p` and mean `d·p` at which the reference
/// draws an IC node's live in-edges by count (`rr::MAX_BINOMIAL_P` and
/// `rr::MAX_BINOMIAL_MEAN`, restated).
const REFERENCE_P_CAP: f64 = 1.0 / 3.0;
const REFERENCE_MEAN_CAP: f64 = 16.0;

/// The reverse BFS written plainly, every in-edge's probability read from
/// `in_edges` and a BFS queue kept apart from the output set. LT scans the
/// in-edges; IC flips one coin per alive in-edge, except at a node whose
/// `d ≥ 1` in-edges all carry one `p` (compared bit for bit): there `p = 1`
/// keeps every source without a draw, and where `p ≤ 1/3` and `d·p ≤ 16`
/// the node draws how many in-edges are live, by inversion of the
/// Binomial(d, p) distribution function, then which ones, by Floyd's
/// algorithm over positions. `per_edge` flips coins at every IC node: the
/// plain per-edge sampler the draw must agree with in distribution.
struct ReferenceSampler {
    visited: Vec<bool>,
    queue: Vec<NodeId>,
    per_edge: bool,
}

impl ReferenceSampler {
    fn new(n: usize) -> Self {
        ReferenceSampler {
            visited: vec![false; n],
            queue: Vec::new(),
            per_edge: false,
        }
    }

    fn per_edge(n: usize) -> Self {
        ReferenceSampler {
            per_edge: true,
            ..ReferenceSampler::new(n)
        }
    }

    /// Appends `u` to the set and the queue if it is alive and new.
    fn reach(&mut self, u: NodeId, alive: bool, out: &mut Vec<NodeId>) {
        if alive && !self.visited[u as usize] {
            self.visited[u as usize] = true;
            out.push(u);
            self.queue.push(u);
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
            self.reach(r, is_alive(r), out);
        }
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let in_edges: Vec<(NodeId, f64)> = g.in_edges(v).map(|(u, p, _)| (u, p)).collect();
            let d = in_edges.len();
            let shared = in_edges.first().map(|&(_, p)| p).filter(|p| {
                !p.is_nan() && in_edges.iter().all(|&(_, q)| q.to_bits() == p.to_bits())
            });
            match (model, shared) {
                (Model::IC, Some(p)) if !self.per_edge && p == 1.0 => {
                    for &(u, _) in &in_edges {
                        self.reach(u, is_alive(u), out);
                    }
                    edges_examined += d;
                }
                (Model::IC, Some(p))
                    if !self.per_edge
                        && p <= REFERENCE_P_CAP
                        && d as f64 * p <= REFERENCE_MEAN_CAP =>
                {
                    // how many are live: the smallest c with
                    // x < P(X ≤ c), X ~ Binomial(d, p)
                    let x: f64 = rng.random();
                    let q = 1.0 - p;
                    let mut pmf = q.powi(d as i32);
                    let mut cdf = pmf;
                    let mut c = 0usize;
                    while c < d && x >= cdf {
                        pmf = pmf * p * (d - c) as f64 / ((c + 1) as f64 * q);
                        c += 1;
                        cdf += pmf;
                    }
                    // which ones: Floyd's c distinct positions of 0..d
                    let mut chosen: Vec<usize> = Vec::new();
                    for j in d - c..d {
                        let t = rng.random_range(0..=j);
                        chosen.push(if chosen.contains(&t) { j } else { t });
                    }
                    for i in chosen {
                        let u = in_edges[i].0;
                        self.reach(u, is_alive(u), out);
                    }
                    edges_examined += c;
                }
                (Model::IC, _) => {
                    for (u, p) in in_edges {
                        if !is_alive(u) {
                            continue;
                        }
                        edges_examined += 1;
                        if !self.visited[u as usize] && rng.random::<f64>() < p {
                            self.reach(u, true, out);
                        }
                    }
                }
                (Model::LT, _) => {
                    let mut r = rng.random::<f64>();
                    for (u, p) in in_edges {
                        edges_examined += 1;
                        if r < p {
                            self.reach(u, is_alive(u), out);
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
/// and leave both RNG streams at the same position. Under IC weighted
/// cascade takes the draw-free `p = 1` branch at in-degree 1, the coins at
/// in-degree 2 (`p > 1/3`) and the binomial draw above; `uniform-1`
/// takes its `p = 1` branch everywhere, trivalency mostly the coins.
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

/// `SketchGenPool::generate` at 1 and 3 threads on every equivalence
/// graph, with about 10% of the nodes dead, reproduces the reference driven
/// through the same per-set RNG streams and root draws.
#[test]
fn sketch_pool_generation_matches_per_edge_reference() {
    use seedmin::diffusion::{DistinctDraw, Model, ResidualState};
    use seedmin::sampling::{sample_root_count, RootCountDist, SketchGenPool, SketchJob};

    for (name, g) in equivalence_graphs() {
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
                let k =
                    sample_root_count(snapshot.n_alive(), eta, RootCountDist::Randomized, &mut rng);
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
                let case = format!("{name} {model} t{threads}");
                assert_eq!(stats.sets_generated, sets);
                assert_eq!(stats.edges_examined, want_edges, "{case}");
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(pool.set(i as u32), &w[..], "{case} set {i}");
                }
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

// ---------------------------------------------------------------------------
// IC's live in-edges by count: the law, and agreement with per-edge coins
// ---------------------------------------------------------------------------

/// Disjoint in-stars, one per `(d, p)`: center `c` with leaves
/// `c + 1 ..= c + d`, every leaf → center edge carrying `p`.
fn in_stars(stars: &[(usize, f64)]) -> (seedmin::graph::Graph, Vec<NodeId>) {
    use seedmin::graph::GraphBuilder;

    let n = stars.iter().map(|&(d, _)| d + 1).sum();
    let mut b = GraphBuilder::new(n);
    let mut centers = Vec::new();
    let mut next = 0u32;
    for &(d, p) in stars {
        for leaf in next + 1..=next + d as u32 {
            b.add_edge_p(leaf, next, p).unwrap();
        }
        centers.push(next);
        next += d as u32 + 1;
    }
    (b.build().unwrap(), centers)
}

/// `P(X = c)` for `X ~ Binomial(d, p)`, from the log-gamma-free product.
fn binomial_pmf(d: usize, p: f64, c: usize) -> f64 {
    let mut choose = 1.0f64;
    for i in 0..c {
        choose = choose * (d - i) as f64 / (i + 1) as f64;
    }
    choose * p.powi(c as i32) * (1.0 - p).powi((d - c) as i32)
}

/// At a center with `d` in-edges at `p = 1/d`, and at `p = 1/4` and `1/3`
/// for `d = 2` (whose `1/d` takes the coins), the number of live in-edges
/// follows Binomial(d, p) (χ² over cells of expected count ≥ 20), and each
/// leaf joins with probability `p` (|z| < 5 for every leaf). Sets are
/// `[center, live leaves…]`, the leaves distinct, and the edge count is the
/// live count where the node draws by count (`p ≤ 1/3`), `d` where it
/// flips coins.
#[test]
fn star_live_count_is_binomial_and_each_leaf_joins_with_p() {
    use seedmin::diffusion::Model;
    use seedmin::sampling::ReverseSampler;

    let mut stars: Vec<(usize, f64)> = [2usize, 3, 4, 5, 8, 13, 40]
        .iter()
        .map(|&d| (d, 1.0 / d as f64))
        .collect();
    stars.extend([(2, 0.25), (2, 1.0 / 3.0)]);
    let (g, centers) = in_stars(&stars);
    let mut sampler = ReverseSampler::new(g.n());
    let mut rng = SmallRng::seed_from_u64(0x57A2);
    let mut set = Vec::new();
    let trials = 400_000usize;
    for (&(d, p), &center) in stars.iter().zip(&centers) {
        let by_count = p <= REFERENCE_P_CAP;
        let mut counts = vec![0usize; d + 1];
        let mut joins = vec![0usize; d];
        for _ in 0..trials {
            let edges = sampler.sample_into(&g, Model::IC, None, &[center], &mut rng, &mut set);
            let live = set.len() - 1;
            let want = if by_count { live } else { d };
            assert_eq!(edges, want, "d={d} p={p}: in-edges read");
            counts[live] += 1;
            for &u in &set[1..] {
                joins[(u - center - 1) as usize] += 1;
            }
        }
        // χ² over cells of expected count ≥ 20, the upper tail pooled
        let expected: Vec<f64> = (0..=d)
            .map(|c| trials as f64 * binomial_pmf(d, p, c))
            .collect();
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let (mut obs, mut exp) = (0.0f64, 0.0f64);
        for c in 0..=d {
            obs += counts[c] as f64;
            exp += expected[c];
            if exp >= 20.0 && expected[c + 1..].iter().sum::<f64>() >= 20.0 {
                cells.push((obs, exp));
                (obs, exp) = (0.0, 0.0);
            }
        }
        cells.push((obs, exp));
        let chi2: f64 = cells.iter().map(|&(o, e)| (o - e).powi(2) / e).sum();
        let cells = cells.len();
        // 3–8 cells; 33 lies past the 1e-4 quantile of χ² on 7 degrees of
        // freedom (29.9)
        assert!(cells >= 3, "d={d} p={p}: {cells} cells");
        assert!(
            chi2 < 33.0,
            "d={d} p={p}: χ² = {chi2:.1} over {cells} cells"
        );
        let sd = (trials as f64 * p * (1.0 - p)).sqrt();
        for (leaf, &hits) in joins.iter().enumerate() {
            let z = (hits as f64 - trials as f64 * p) / sd;
            assert!(z.abs() < 5.0, "d={d} p={p} leaf {leaf}: z = {z:.2}");
        }
    }
}

/// On a 300-node Chung–Lu graph with about 10% of the nodes dead, under
/// weighted cascade, Uniform(0.3) and Uniform(0.05), every node joins the
/// sampler's sets as often as the per-edge coin sampler's, over independent
/// streams: Σz²/nodes near 1 and no |z| beyond 4.5.
#[test]
fn membership_matches_per_edge_coins() {
    use seedmin::diffusion::Model;
    use seedmin::graph::generators::{assemble, chung_lu_directed};
    use seedmin::graph::WeightModel;
    use seedmin::sampling::ReverseSampler;

    let n = 300;
    let mut rng = SmallRng::seed_from_u64(0x3E3B);
    let pairs = chung_lu_directed(n, 1_200, 2.1, &mut rng);
    let alive: Vec<bool> = (0..n).map(|_| rng.random::<f64>() >= 0.1).collect();
    let trials = 100_000usize;
    for model in [
        WeightModel::WeightedCascade,
        WeightModel::Uniform(0.3),
        WeightModel::Uniform(0.05),
    ] {
        let g = assemble(n, &pairs, true, model, &mut rng).unwrap();
        let mut sampler = ReverseSampler::new(n);
        let mut coins = ReferenceSampler::per_edge(n);
        let (mut rng_a, mut rng_b) = (SmallRng::seed_from_u64(1), SmallRng::seed_from_u64(2));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut hits_a, mut hits_b) = (vec![0usize; n], vec![0usize; n]);
        let roots = |rng: &mut SmallRng| -> Vec<NodeId> {
            let k = rng.random_range(1..=3usize);
            (0..k).map(|_| rng.random_range(0..n as u32)).collect()
        };
        let alive = Some(alive.as_slice());
        for _ in 0..trials {
            let roots_a = roots(&mut rng_a);
            sampler.sample_into(&g, Model::IC, alive, &roots_a, &mut rng_a, &mut got);
            let roots_b = roots(&mut rng_b);
            coins.sample_into(&g, Model::IC, alive, &roots_b, &mut rng_b, &mut want);
            got.iter().for_each(|&u| hits_a[u as usize] += 1);
            want.iter().for_each(|&u| hits_b[u as usize] += 1);
        }
        let (mut sum_z2, mut nodes, mut worst) = (0.0f64, 0usize, 0.0f64);
        for (&a, &b) in hits_a.iter().zip(&hits_b) {
            let (fa, fb) = (a as f64 / trials as f64, b as f64 / trials as f64);
            let var = (fa * (1.0 - fa) + fb * (1.0 - fb)) / trials as f64;
            if var == 0.0 {
                assert_eq!(a, b);
                continue;
            }
            let z = (fa - fb) / var.sqrt();
            sum_z2 += z * z;
            nodes += 1;
            worst = f64::max(worst, z.abs());
        }
        let mean_z2 = sum_z2 / nodes as f64;
        assert!(nodes > 200, "{model:?}: {nodes} nodes ever sampled");
        assert!(
            mean_z2 < 1.5,
            "{model:?}: Σz²/nodes = {mean_z2:.3} over {nodes}"
        );
        assert!(worst < 4.5, "{model:?}: worst |z| = {worst:.2}");
    }
}

/// The edges of the binomial draw. `p = 1` keeps every alive source, draws
/// nothing and counts all `d` in-edges; `p = 0` keeps none with one draw per
/// dequeued node and counts none; a node whose `p` or `d·p` passes its cap
/// flips the per-edge coins, coin for coin; a node at both caps draws by
/// count, as the reference does, and its count is not the coins' (the `c`
/// in-edges drawn, not every alive one).
#[test]
fn binomial_draw_edges() {
    use seedmin::diffusion::Model;
    use seedmin::sampling::rr::{MAX_BINOMIAL_MEAN, MAX_BINOMIAL_P};
    use seedmin::sampling::ReverseSampler;

    assert_eq!(MAX_BINOMIAL_P, REFERENCE_P_CAP);
    assert_eq!(MAX_BINOMIAL_MEAN, REFERENCE_MEAN_CAP);
    let (_, certain) = equivalence_graphs()
        .into_iter()
        .find(|(name, _)| *name == "uniform-1")
        .unwrap();
    let n = certain.n();
    let never = certain.map_probabilities(|_, _, _| 0.0);
    let killed: Vec<bool> = (0..n).map(|u| u % 7 != 3).collect();
    let mut sampler = ReverseSampler::new(n);
    let mut set = Vec::new();
    for alive in [None, Some(killed.as_slice())] {
        for root in 0..n as u32 {
            let mut rng = SmallRng::seed_from_u64(u64::from(root));
            let untouched = rng.clone();
            let edges =
                sampler.sample_into(&certain, Model::IC, alive, &[root], &mut rng, &mut set);
            let degrees: usize = set.iter().map(|&v| certain.in_degree(v)).sum();
            assert_eq!(edges, degrees, "p = 1 from {root}: every in-edge counted");
            assert_eq!(rng.random::<u64>(), untouched.clone().random::<u64>());
            let is_alive = |u: NodeId| alive.is_none_or(|a| a[u as usize]);
            for &v in &set {
                for (u, _, _) in certain.in_edges(v) {
                    assert!(!is_alive(u) || set.contains(&u), "p = 1 keeps {u}");
                }
            }

            let mut rng = SmallRng::seed_from_u64(u64::from(root));
            let mut one_draw_each = rng.clone();
            let edges = sampler.sample_into(&never, Model::IC, alive, &[root], &mut rng, &mut set);
            let roots: Vec<NodeId> = [root].into_iter().filter(|&r| is_alive(r)).collect();
            assert_eq!((edges, &set[..]), (0, &roots[..]), "p = 0 from {root}");
            for &v in &set {
                if never.in_degree(v) > 0 {
                    let _: f64 = one_draw_each.random();
                }
            }
            assert_eq!(rng.random::<u64>(), one_draw_each.random::<u64>());
        }
    }

    // p = 1/4 with d·p = 16 (at the mean cap) and d·p = 20 (past it);
    // p = 1/2 (past the probability cap) with d·p = 4; leaves 1, 6, 11, …
    // dead
    let stars = [(64usize, 0.25), (80, 0.25), (8, 0.5)];
    let (g, centers) = in_stars(&stars);
    let n = g.n();
    let mut sampler = ReverseSampler::new(n);
    let mut coins = ReferenceSampler::per_edge(n);
    let mut reference = ReferenceSampler::new(n);
    let killed: Vec<bool> = (0..n).map(|u| u % 5 != 1).collect();
    let (mut want, mut by_count) = (Vec::new(), 0usize);
    for (&(d, p), &center) in stars.iter().zip(&centers) {
        for alive in [None, Some(killed.as_slice())] {
            for seed in 0..200u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut ref_rng = rng.clone();
                let mut coin_rng = rng.clone();
                let edges =
                    sampler.sample_into(&g, Model::IC, alive, &[center], &mut rng, &mut set);
                let ref_edges =
                    reference.sample_into(&g, Model::IC, alive, &[center], &mut ref_rng, &mut want);
                let case = format!("d={d} p={p} seed {seed}");
                assert_eq!((edges, &set), (ref_edges, &want), "{case}");
                assert_eq!(
                    rng.clone().random::<u64>(),
                    ref_rng.random::<u64>(),
                    "{case}"
                );
                let coin_edges =
                    coins.sample_into(&g, Model::IC, alive, &[center], &mut coin_rng, &mut want);
                if p > MAX_BINOMIAL_P || d as f64 * p > MAX_BINOMIAL_MEAN {
                    assert_eq!((edges, &set), (coin_edges, &want), "{case}: the coins");
                    assert_eq!(rng.random::<u64>(), coin_rng.random::<u64>(), "{case}");
                } else {
                    by_count += usize::from(edges != coin_edges);
                }
            }
        }
    }
    assert!(
        by_count > 300,
        "at the cap the count is the draw's: {by_count} of 400"
    );
}
