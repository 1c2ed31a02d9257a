//! Workspace smoke test: the full ASTI pipeline is deterministic for a fixed
//! RNG seed — same graph, same realization, same seed set, across two
//! independent runs — **and across sketch-generation thread counts**: the
//! per-set counter-derived RNG streams make the generated pool bit-identical
//! whether it was produced by 1 worker or 8. This pins down the
//! reproducibility contract every figure/table bin relies on.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::algo::trim::{trim, TrimScratch};
use seedmin::algo::trim_b::trim_b;
use seedmin::prelude::*;
use seedmin::sampling::SketchPool;

fn run_once(seed: u64) -> (usize, Vec<u32>, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = chung_lu_directed(400, 1_600, 2.1, &mut rng);
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
    let pairs = chung_lu_directed(600, 2_400, 2.1, &mut rng);
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

/// FNV-1a over the pool's flattened set contents (order-sensitive).
fn pool_digest(pool: &SketchPool) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for i in 0..pool.len() as u32 {
        for &v in pool.set(i) {
            h ^= v as u64 + 1;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xFFFF_FFFF;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
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
/// same set counts with other contents.
#[test]
fn selections_match_pre_refactor_goldens() {
    let (g, residual) = thread_fixture();
    for threads in [1usize, 2, 8] {
        let params = TrimParams::with_eps(0.4).with_threads(threads);
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xA57);
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
        assert_eq!(out.node, 399, "trim selection drifted at {threads} threads");
        assert_eq!(out.coverage, 216);
        assert_eq!(out.sets_generated, 332);
        assert_eq!(pool_digest(scratch.pool()), 0x68e95bf3a5e60242);

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
        assert_eq!(out.seeds, vec![399, 212, 546, 449], "trim_b batch drifted");
        assert_eq!(out.coverage, 385);
        assert_eq!(out.sets_generated, 414);
        assert_eq!(pool_digest(scratch.pool()), 0xf8f109e4c13b9d09);
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

#[test]
fn trim_selection_and_pool_identical_across_thread_counts() {
    let (g, residual) = thread_fixture();
    let mut baseline: Option<(u32, u32, usize, Vec<Vec<u32>>)> = None;
    for threads in [1usize, 2, 8] {
        let params = TrimParams::with_eps(0.4).with_threads(threads);
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(0xA57);
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
        let state = (
            out.node,
            out.coverage,
            out.sets_generated,
            dump_pool(scratch.pool()),
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
        let state = (out.seeds.clone(), out.coverage, dump_pool(scratch.pool()));
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
        let pairs = chung_lu_directed(400, 1_600, 2.1, &mut rng);
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
