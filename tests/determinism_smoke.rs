//! Workspace smoke test: the full ASTI pipeline is deterministic for a fixed
//! RNG seed — same graph, same realization, same seed set, across two
//! independent runs — **and across sketch-generation thread counts**: the
//! per-set counter-derived RNG streams make the generated pool bit-identical
//! whether it was produced by 1 worker or 8. This pins down the
//! reproducibility contract every figure/table bin relies on.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use seedmin::algo::trim::{trim, TrimScratch};
use seedmin::algo::trim_b::trim_b;
use seedmin::prelude::*;
use seedmin::sampling::{RootCountDist, SketchGenPool, SketchJob, SketchPool, SketchSink};

fn run_once(seed: u64) -> (usize, Vec<u32>, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = chung_lu_directed(400, 1_600, 2.1, &mut rng).unwrap();
    let g = assemble(400, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let phi = Realization::sample(&g, Model::IC, &mut rng);
    let mut oracle = RealizationOracle::new(&g, phi);
    let report = asti(
        &g,
        Model::IC,
        40,
        &AstiParams::with_eps(0.5),
        &mut oracle,
        &mut rng,
    )
    .expect("valid parameters");
    (g.m(), report.seeds.clone(), report.total_activated)
}

#[test]
fn asti_is_deterministic_for_equal_seeds() {
    let (m1, seeds1, act1) = run_once(0xA571);
    let (m2, seeds2, act2) = run_once(0xA571);
    assert_eq!(m1, m2, "graph generation must be deterministic");
    assert_eq!(seeds1, seeds2, "seed selection must be deterministic");
    assert_eq!(act1, act2, "activation accounting must be deterministic");
    assert!(act1 >= 40, "ASTI must reach the threshold");
    assert!(!seeds1.is_empty());
}

/// Shared fixture for the cross-thread tests: a mid-size Chung–Lu graph and
/// a partially killed residual, so the snapshot path is exercised off the
/// trivial all-alive state.
fn thread_fixture() -> (Graph, ResidualState) {
    let mut rng = SmallRng::seed_from_u64(0x7EAD);
    let pairs = chung_lu_directed(600, 2_400, 2.1, &mut rng).unwrap();
    let g = assemble(600, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let mut residual = ResidualState::new(600);
    residual.kill_all(&[1, 17, 99, 256, 420]);
    (g, residual)
}

fn dump_pool(pool: &SketchPool) -> Vec<Vec<u32>> {
    (0..pool.len() as u32)
        .map(|i| pool.set(i).to_vec())
        .collect()
}

/// FNV-1a over the sets in the order the sampler appends them, each in its
/// BFS order (order-sensitive), passed on to a pool. The pool itself keeps
/// a dense set as a bitmap, which reads back sorted, so the digest is taken
/// here, as the sets arrive.
struct Digested {
    digest: u64,
    pool: SketchPool,
}

impl Digested {
    fn new(n: usize) -> Self {
        Digested {
            digest: 0xcbf29ce484222325,
            pool: SketchPool::new(n),
        }
    }
}

impl SketchSink for Digested {
    fn len(&self) -> usize {
        self.pool.len()
    }

    fn add_set(&mut self, nodes: &[u32]) {
        for &v in nodes {
            self.digest ^= v as u64 + 1;
            self.digest = self.digest.wrapping_mul(0x100000001b3);
        }
        self.digest ^= 0xFFFF_FFFF;
        self.digest = self.digest.wrapping_mul(0x100000001b3);
        self.pool.add_set(nodes);
    }
}

/// TRIM keeps only its sets' coverage counts, so its tests rebuild the
/// members: the `sets` sets of the round on `residual` at shortfall
/// `eta_i` whose base seed is `base_seed`, drawn again through the same
/// sampling path into a pool, and their digest.
fn regenerate(
    g: &Graph,
    residual: &ResidualState,
    eta_i: usize,
    base_seed: u64,
    sets: usize,
    threads: usize,
) -> Digested {
    let job = SketchJob {
        graph: g,
        model: Model::IC,
        snapshot: residual.snapshot(),
        eta_i,
        dist: RootCountDist::Randomized,
        base_seed,
    };
    let mut sink = Digested::new(g.n());
    SketchGenPool::new(g.n()).generate(&job, sets, threads, &mut sink);
    sink
}

/// Golden regression: selections and pool contents captured from the
/// pre-arena (`Vec<Vec<u32>>` inverted index) implementation. The columnar
/// refactor must be bit-identical on every thread count — if a layout or
/// tie-breaking change trips this test, it changed observable behavior, not
/// just performance. The TRIM-B batch was re-captured when TRIM-B's Line 10
/// took OPIM-C's upper bound, which stops its round a doubling earlier. The
/// TRIM line was re-captured when TRIM moved to checking every ×1.25: the
/// same node, certified on a shorter prefix of the same set sequence. Both
/// lines were re-captured when IC's reverse BFS began drawing a node's live
/// in-edges by count: the same set distribution from other draws, so the
/// same set counts with other contents. TRIM keeps only its sets' coverage
/// counts, so its pool is rebuilt from the round's base seed; the rebuilt
/// pool still reads the golden digest, and its counts are TRIM's exactly.
/// Both digests hash the sets as the sampler appends them, in BFS order:
/// the pool keeps a dense set as a bitmap, which reads back sorted. So
/// TRIM-B's sets are rebuilt the same way, and must equal its pool's.
#[test]
fn selections_match_pre_refactor_goldens() {
    let (g, residual) = thread_fixture();
    for threads in [1usize, 2, 8] {
        let params = TrimParams::with_eps(0.4).with_threads(threads);
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xA57);
        let base_seed = rng.clone().next_u64();
        let out = trim(
            &g,
            Model::IC,
            &residual,
            60,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            out.seeds[0], 399,
            "trim selection drifted at {threads} threads"
        );
        assert_eq!(out.stats.coverage, 216);
        assert_eq!(out.sets_generated, 332);
        let Digested { digest, pool } =
            regenerate(&g, &residual, 60, base_seed, out.sets_generated, threads);
        assert_eq!(digest, 0x68e95bf3a5e60242);
        assert_eq!(pool.counts(), scratch.counts());

        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xB47C);
        let base_seed = rng.clone().next_u64();
        let out = trim_b(
            &g,
            Model::IC,
            &residual,
            60,
            4,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.seeds, vec![399, 212, 546, 449], "trim_b batch drifted");
        assert_eq!(out.stats.coverage, 385);
        assert_eq!(out.sets_generated, 414);
        let Digested { digest, pool } =
            regenerate(&g, &residual, 60, base_seed, out.sets_generated, threads);
        assert_eq!(digest, 0xf8f109e4c13b9d09);
        assert_eq!(dump_pool(&pool), dump_pool(scratch.pool()));
    }

    let (_, seeds, activated) = run_once(0xA571);
    assert_eq!(seeds, vec![227, 238], "full ASTI seed sequence drifted");
    assert_eq!(activated, 72);
}

/// Golden regression for the §6.1 baselines on the same fixture graph,
/// captured before TRIM and AdaptIM shared one coverage scan and ATEUC's
/// parameters became constants: AdaptIM's adaptive seed sequence and
/// ATEUC's one-shot sets under IC and LT. Both draw through TRIM's sketch
/// path and pick by the pool's coverage scan, so a change that alters a
/// draw or a tie-break shows here.
#[test]
fn baselines_match_pre_refactor_goldens() {
    let (g, _) = thread_fixture();
    let mut rng = SmallRng::seed_from_u64(0xADA);
    let phi = Realization::sample(&g, Model::IC, &mut rng);
    let mut oracle = RealizationOracle::new(&g, phi);
    let report = adapt_im(
        &g,
        Model::IC,
        300,
        &AdaptImParams::with_eps(0.5),
        &mut oracle,
        &mut rng,
    )
    .unwrap();
    assert_eq!(
        report.seeds,
        vec![399, 546, 333, 296, 526, 539, 449, 595, 287, 483, 270, 167, 191, 197, 503, 316, 181],
        "AdaptIM seed sequence drifted"
    );
    assert_eq!(report.total_activated, 301);
    assert_eq!(report.total_sets, 309_280);

    let mut rng = SmallRng::seed_from_u64(0xA7E);
    let out = ateuc(&g, Model::IC, 60, &mut rng).unwrap();
    assert_eq!(out.seeds, vec![399, 328], "ATEUC (IC) set drifted");
    assert_eq!(out.lower_candidate_size, 1);
    assert_eq!((out.sets_generated, out.doublings), (1024, 2));
    assert!(out.certified);
    let out = ateuc(&g, Model::LT, 200, &mut rng).unwrap();
    assert_eq!(
        out.seeds,
        vec![399, 521, 546, 539, 212],
        "ATEUC (LT) set drifted"
    );
    assert_eq!(out.lower_candidate_size, 3);
    assert_eq!((out.sets_generated, out.doublings), (2048, 3));
    assert!(out.certified);
}

/// TRIM's selection, counts and pool agree across thread counts. The pool
/// is rebuilt from the round's base seed (TRIM keeps only the counts): it
/// reads the golden digest, its counts are TRIM's exactly, and its sets
/// are identical at every thread count.
#[test]
fn trim_selection_and_pool_identical_across_thread_counts() {
    let (g, residual) = thread_fixture();
    let mut baseline: Option<(u32, u32, usize, Vec<Vec<u32>>)> = None;
    for threads in [1usize, 2, 8] {
        let params = TrimParams::with_eps(0.4).with_threads(threads);
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xA57);
        let base_seed = rng.clone().next_u64();
        let out = trim(
            &g,
            Model::IC,
            &residual,
            60,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        let Digested { digest, pool } =
            regenerate(&g, &residual, 60, base_seed, out.sets_generated, threads);
        assert_eq!(digest, 0x68e95bf3a5e60242, "{threads} threads");
        assert_eq!(pool.counts(), scratch.counts(), "{threads} threads");
        let state = (
            out.seeds[0],
            out.stats.coverage,
            out.sets_generated,
            dump_pool(&pool),
        );
        match &baseline {
            None => baseline = Some(state),
            Some(base) => {
                assert_eq!(state.0, base.0, "{threads} threads picked a different seed");
                assert_eq!(state.1, base.1, "{threads} threads: coverage diverged");
                assert_eq!(state.2, base.2, "{threads} threads: |R| diverged");
                assert_eq!(
                    state.3, base.3,
                    "{threads} threads: pool contents diverged from single-threaded"
                );
            }
        }
    }
    let (_, _, sets, _) = baseline.unwrap();
    assert!(sets > 0);
}

#[test]
fn trim_b_batch_identical_across_thread_counts() {
    let (g, residual) = thread_fixture();
    let mut baseline: Option<(Vec<u32>, u32, Vec<Vec<u32>>)> = None;
    for threads in [1usize, 2, 8] {
        let params = TrimParams::with_eps(0.4).with_threads(threads);
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xB47C);
        let out = trim_b(
            &g,
            Model::IC,
            &residual,
            60,
            4,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        let state = (
            out.seeds.clone(),
            out.stats.coverage,
            dump_pool(scratch.pool()),
        );
        match &baseline {
            None => baseline = Some(state),
            Some(base) => assert_eq!(&state, base, "{threads} threads diverged"),
        }
    }
}

#[test]
fn full_asti_run_identical_across_thread_counts() {
    fn run(threads: usize) -> (Vec<u32>, usize) {
        let mut rng = SmallRng::seed_from_u64(0xA571);
        let pairs = chung_lu_directed(400, 1_600, 2.1, &mut rng).unwrap();
        let g = assemble(400, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let mut params = AstiParams::with_eps(0.5);
        params.trim = params.trim.with_threads(threads);
        let report = asti(&g, Model::IC, 40, &params, &mut oracle, &mut rng).unwrap();
        (report.seeds.clone(), report.total_activated)
    }
    let (seeds1, act1) = run(1);
    for threads in [2usize, 8] {
        let (seeds, act) = run(threads);
        assert_eq!(seeds, seeds1, "{threads} threads changed the seed sequence");
        assert_eq!(act, act1, "{threads} threads changed activation accounting");
    }
    assert!(act1 >= 40);
}

#[test]
fn asti_differs_across_seeds() {
    // Not a strict requirement of the algorithm, but if two unrelated seeds
    // produce identical graphs AND identical seed sets, the RNG plumbing is
    // almost certainly broken (e.g. a hardcoded seed somewhere).
    let (m1, seeds1, _) = run_once(1);
    let (m2, seeds2, _) = run_once(2);
    assert!(
        m1 != m2 || seeds1 != seeds2,
        "independent seeds produced identical runs"
    );
}

/// FNV-1a fold of one 64-bit word.
fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// `g` under weighted cascade, and a copy where the lowest-source in-edge
/// of every third node of in-degree ≥ 2 carries half its probability: one
/// graph whose nodes all share one in-probability and one that needs
/// per-edge probabilities, both valid LT instances.
fn both_layouts(g: &Graph) -> [Graph; 2] {
    let mut rng = SmallRng::seed_from_u64(0);
    let wc = seedmin::graph::weights::apply_weights(g, WeightModel::WeightedCascade, &mut rng);
    let mut first_src = vec![u32::MAX; g.n()];
    for (u, v, _) in wc.edges() {
        first_src[v as usize] = first_src[v as usize].min(u);
    }
    let mixed = wc.map_probabilities(|u, v, p| {
        if wc.in_degree(v) >= 2 && v % 3 == 0 && u == first_src[v as usize] {
            p / 2.0
        } else {
            p
        }
    });
    assert!(mixed.edges().zip(wc.edges()).any(|(a, b)| a.2 != b.2));
    [wc, mixed]
}

/// Digests of `Realization::sample` (IC and LT, 64 worlds each, one bit per
/// forward edge), of `ForwardSim::simulate_lt` spreads (256 runs) and of
/// `exact_expected_truncated` (IC and LT on a 9-node graph), each pinned at
/// the values the build with per-slot edge ids and probabilities gave, so
/// that a realization or a spread that drifts fails here, with the layout
/// it drifted on, before it reaches a golden. The lazily drawn worlds are
/// pinned beside them, at the values the build whose `SimulationOracle`
/// memoized every IC coin and whose `simulate_lt` allocated its choices per
/// run gave: the nodes each of six `SimulationOracle::observe` calls
/// returns, in order, for 24 oracles per model (an LT node's choice must
/// persist across the calls), and 256 `ForwardSim::simulate_ic` spreads.
#[test]
fn worlds_spreads_and_exact_values_match_pinned_digests() {
    use seedmin::diffusion::exact::exact_expected_truncated;
    use seedmin::diffusion::InfluenceOracle;
    let mut rng = SmallRng::seed_from_u64(0x1A70);
    let pairs = erdos_renyi(300, 1_200, &mut rng);
    let big = assemble(300, &pairs, true, WeightModel::Uniform(1.0), &mut rng).unwrap();
    let mut b = GraphBuilder::new(9);
    for (u, v) in [
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 3),
        (4, 3),
        (3, 5),
        (2, 5),
        (6, 5),
        (5, 7),
        (6, 7),
        (1, 7),
        (7, 2),
    ] {
        b.add_edge(u, v).unwrap();
    }
    let small = b.build().unwrap();
    let mut got = Vec::new();
    for (g, tiny) in both_layouts(&big).iter().zip(both_layouts(&small).iter()) {
        let mut row = [0xcbf29ce484222325u64; 7];
        for (model, h) in [(Model::IC, 0), (Model::LT, 1)] {
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..64 {
                let phi = Realization::sample(g, model, &mut rng);
                for u in 0..g.n() as u32 {
                    for (e, v, _) in g.out_edges_indexed(u) {
                        row[h] = fnv(row[h], u64::from(phi.is_live(e, u, v)));
                    }
                }
            }
        }
        let mut sim = ForwardSim::new(g.n());
        let mut rng = SmallRng::seed_from_u64(11);
        for i in 0..256u32 {
            let seeds = [i % 300, (i * 7 + 3) % 300];
            row[2] = fnv(
                row[2],
                sim.simulate_lt(g, &seeds[..1 + i as usize % 2], &mut rng) as u64,
            );
        }
        let mut rng = SmallRng::seed_from_u64(13);
        for i in 0..256u32 {
            let seeds = [(i * 5 + 1) % 300, (i * 11 + 7) % 300];
            row[4] = fnv(
                row[4],
                sim.simulate_ic(g, &seeds[..1 + i as usize % 2], &mut rng) as u64,
            );
        }
        for (model, h) in [(Model::IC, 5), (Model::LT, 6)] {
            for k in 0..24u32 {
                let world = SmallRng::seed_from_u64(0x5EED + u64::from(k));
                let mut oracle = SimulationOracle::new(g, model, world);
                for step in 0..6u32 {
                    let seeds = [(k * 37 + step * 11) % 300, (k * 53 + step * 29 + 7) % 300];
                    let newly = oracle.observe(&seeds[..1 + step as usize % 2]);
                    row[h] = fnv(row[h], newly.len() as u64);
                    for v in newly {
                        row[h] = fnv(row[h], u64::from(v));
                    }
                }
                row[h] = fnv(row[h], oracle.num_active() as u64);
            }
        }
        for model in [Model::IC, Model::LT] {
            for seeds in [&[0u32][..], &[1, 6], &[4, 2, 6]] {
                for eta in [1, 3, 9] {
                    let x = exact_expected_truncated(tiny, model, seeds, eta);
                    row[3] = fnv(row[3], x.to_bits());
                }
            }
        }
        got.push(row.map(|h| format!("{h:016x}")));
    }
    // rows: the shared graph, then the per-edge one; columns: IC worlds,
    // LT worlds, `simulate_lt` spreads, exact values, `simulate_ic`
    // spreads, IC and LT `SimulationOracle` observations
    let want = [
        [
            "57387a9606f30404",
            "2d004b0476963f25",
            "104a285177832d91",
            "3dd1563273fa396f",
            "3daf2ed7aac5d18b",
            "23b68734cda36bc7",
            "9db47419765877f0",
        ],
        [
            "287e7919bcc12644",
            "783bc6a01a576c04",
            "a6ab1113c7588be4",
            "17851aaedf4b9ffd",
            "6dab340ad99812ab",
            "7388c9226c0b3476",
            "2b6c39c0571bbaa6",
        ],
    ];
    assert_eq!(got, want);
}
