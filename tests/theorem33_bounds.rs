//! Exhaustive verification of Theorem 3.3 and the §3.3 Remark: the mRR
//! estimator `Γ̃(S) = η·1[S ∩ R ≠ ∅]` satisfies
//!
//! * randomized rounding (`E[k] = n/η`):  `(1 − 1/e)·E[Γ] ≤ E[Γ̃] ≤ E[Γ]`
//! * fixed `k = ⌊n/η⌋`:                  ratio in `[1 − 1/√e, 1]`
//! * fixed `k = ⌊n/η⌋ + 1`:              ratio in `[1 − 1/e, 2]`
//!
//! `E[Γ̃]` is computed *exactly*: enumerate every realization, compute the
//! forward reach `x = |Reach_ϕ(S)|`, and apply the hypergeometric miss
//! probability `p(x) = C(n−x, k)/C(n, k)` under the k-distribution. A
//! Monte-Carlo cross-check then confirms that the one sampling path every
//! algorithm draws through, `SketchGenPool::generate`, realizes the same
//! expectation.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::diffusion::exact::{
    exact_expected_truncated, for_each_ic_realization, for_each_lt_realization,
};
use seedmin::diffusion::{ForwardSim, Model, ResidualState};
use seedmin::graph::{generators, Graph, GraphBuilder, WeightModel};
use seedmin::sampling::{resolve_threads, RootCountDist, SketchGenPool, SketchJob, SketchPool};

/// `C(n−x, k)/C(n, k)` — probability that k uniform distinct roots all miss
/// a fixed x-subset.
fn miss_prob(n: usize, x: usize, k: usize) -> f64 {
    if k > n - x {
        return 0.0;
    }
    let mut p = 1.0f64;
    for i in 0..k {
        p *= (n - x - i) as f64 / (n - i) as f64;
    }
    p
}

/// Exact `E[Γ̃(S)]` under a root-count distribution, by realization
/// enumeration.
fn exact_estimator_expectation(g: &Graph, seeds: &[u32], eta: usize, dist: RootCountDist) -> f64 {
    exact_estimator_expectation_model(g, Model::IC, seeds, eta, dist)
}

/// Model-generic version (the live-edge argument behind Theorem 3.3 is
/// model-agnostic; we verify that concretely under LT too).
fn exact_estimator_expectation_model(
    g: &Graph,
    model: Model,
    seeds: &[u32],
    eta: usize,
    dist: RootCountDist,
) -> f64 {
    let n = g.n();
    let ratio = n as f64 / eta as f64;
    let floor = ratio.floor() as usize;
    let frac = ratio - ratio.floor();
    let ks: Vec<(usize, f64)> = match dist {
        RootCountDist::Randomized => {
            if frac > 0.0 {
                vec![
                    (floor.clamp(1, n), 1.0 - frac),
                    ((floor + 1).clamp(1, n), frac),
                ]
            } else {
                vec![(floor.clamp(1, n), 1.0)]
            }
        }
        RootCountDist::FixedFloor => vec![(floor.clamp(1, n), 1.0)],
        RootCountDist::FixedCeil => vec![((floor + 1).clamp(1, n), 1.0)],
    };

    let mut sim = ForwardSim::new(n);
    let mut total = 0.0;
    let mut visit = |phi: &seedmin::diffusion::Realization, p: f64| {
        let x = sim.spread(g, phi, seeds);
        let hit: f64 = ks
            .iter()
            .map(|&(k, w)| w * (1.0 - miss_prob(n, x, k)))
            .sum();
        total += p * eta as f64 * hit;
    };
    match model {
        Model::IC => for_each_ic_realization(g, &mut visit),
        Model::LT => for_each_lt_realization(g, &mut visit),
    }
    total
}

/// The Monte-Carlo estimate `η·Λ_R(v)/|R|` of `E[Γ̃({v})]` from `sets` mRR
/// sets on the full graph, drawn through `SketchGenPool` from base seed
/// `seed`.
fn sampled_estimate(g: &Graph, model: Model, v: u32, eta: usize, sets: usize, seed: u64) -> f64 {
    let residual = ResidualState::new(g.n());
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i: eta,
        dist: RootCountDist::Randomized,
        base_seed: seed,
    };
    let mut pool = SketchPool::new(g.n());
    SketchGenPool::new(g.n()).generate(&job, sets, resolve_threads(None), &mut pool);
    eta as f64 * f64::from(pool.coverage(v)) / sets as f64
}

fn test_graphs() -> Vec<Graph> {
    let mut graphs = Vec::new();
    // Figure 2
    let mut b = GraphBuilder::new(4);
    b.add_edge_p(0, 1, 0.5).unwrap();
    b.add_edge_p(0, 2, 0.5).unwrap();
    b.add_edge_p(1, 3, 1.0).unwrap();
    b.add_edge_p(2, 3, 1.0).unwrap();
    graphs.push(b.build().unwrap());
    // small random graphs (m ≤ 12 keeps enumeration cheap)
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = generators::erdos_renyi(7, 11, &mut rng);
        graphs.push(
            generators::assemble(7, &pairs, true, WeightModel::Uniform(0.4), &mut rng).unwrap(),
        );
    }
    graphs
}

#[test]
fn randomized_rounding_is_within_theorem_band() {
    let inv_e = 1.0 / std::f64::consts::E;
    for (gi, g) in test_graphs().iter().enumerate() {
        for eta in 1..=g.n() {
            for v in 0..g.n() as u32 {
                let exact = exact_expected_truncated(g, Model::IC, &[v], eta);
                let est = exact_estimator_expectation(g, &[v], eta, RootCountDist::Randomized);
                assert!(
                    est <= exact + 1e-9,
                    "graph {gi}, v{v}, η={eta}: E[Γ̃]={est} > E[Γ]={exact}"
                );
                assert!(
                    est >= (1.0 - inv_e) * exact - 1e-9,
                    "graph {gi}, v{v}, η={eta}: E[Γ̃]={est} < (1−1/e)·E[Γ]={}",
                    (1.0 - inv_e) * exact
                );
            }
        }
    }
}

#[test]
fn randomized_rounding_holds_for_seed_sets() {
    let g = &test_graphs()[0];
    let inv_e = 1.0 / std::f64::consts::E;
    let sets: &[&[u32]] = &[&[0, 3], &[1, 2], &[0, 1, 2, 3], &[2, 3]];
    for &seeds in sets {
        for eta in 1..=4 {
            let exact = exact_expected_truncated(g, Model::IC, seeds, eta);
            let est = exact_estimator_expectation(g, seeds, eta, RootCountDist::Randomized);
            assert!(est <= exact + 1e-9);
            assert!(est >= (1.0 - inv_e) * exact - 1e-9);
        }
    }
}

#[test]
fn fixed_floor_band_is_coarser() {
    // ratio ∈ [1 − 1/√e, 1]
    let lo = 1.0 - (-0.5f64).exp();
    for g in &test_graphs() {
        for eta in 2..=g.n() {
            for v in 0..g.n() as u32 {
                let exact = exact_expected_truncated(g, Model::IC, &[v], eta);
                let est = exact_estimator_expectation(g, &[v], eta, RootCountDist::FixedFloor);
                assert!(est <= exact + 1e-9, "fixed-floor must not exceed E[Γ]");
                assert!(
                    est >= lo * exact - 1e-9,
                    "fixed-floor ratio {} below 1−1/√e",
                    est / exact
                );
            }
        }
    }
}

#[test]
fn fixed_ceil_band_can_exceed_truth() {
    // ratio ∈ [1 − 1/e, 2]; crucially it CAN exceed 1 (over-estimation) —
    // find a witness, which is exactly why the Remark rejects this variant.
    let inv_e = 1.0 / std::f64::consts::E;
    let mut witnessed_over = false;
    for g in &test_graphs() {
        for eta in 2..=g.n() {
            for v in 0..g.n() as u32 {
                let exact = exact_expected_truncated(g, Model::IC, &[v], eta);
                let est = exact_estimator_expectation(g, &[v], eta, RootCountDist::FixedCeil);
                assert!(est >= (1.0 - inv_e) * exact - 1e-9);
                assert!(est <= 2.0 * exact + 1e-9);
                if est > exact + 1e-9 {
                    witnessed_over = true;
                }
            }
        }
    }
    assert!(
        witnessed_over,
        "expected at least one over-estimation witness for fixed-ceil"
    );
}

#[test]
fn sampler_realizes_the_exact_expectation() {
    // Monte-Carlo over the sampling path vs the closed-form expectation,
    // on Figure 2 and the four Uniform(0.4) graphs, whose nodes flip one
    // coin per in-edge (p > 1/3), and on each with every probability
    // halved: there the four graphs' nodes (p = 0.2) and Figure 2's nodes 1
    // and 2 (p = 0.25) draw their live in-edges by count.
    let eta = 2;
    let graphs = test_graphs();
    let halved = graphs
        .iter()
        .map(|g| g.map_probabilities(|_, _, p| p / 2.0));
    let graphs: Vec<Graph> = graphs.iter().cloned().chain(halved).collect();
    for (gi, g) in graphs.iter().enumerate() {
        let n = g.n();
        for v in 0..n as u32 {
            let expected = exact_estimator_expectation(g, &[v], eta, RootCountDist::Randomized);
            let seed = 777 + 100 * gi as u64 + v as u64;
            let est = sampled_estimate(g, Model::IC, v, eta, 60_000, seed);
            assert!(
                (est - expected).abs() < 0.03,
                "graph {gi}, v{v}: sampler {est} vs exact {expected}"
            );
        }
    }
}

#[test]
fn randomized_rounding_band_holds_under_lt() {
    // Build small valid LT instances (WC weights sum to 1 per node) and
    // verify the Theorem 3.3 band model-agnostically.
    let inv_e = 1.0 / std::f64::consts::E;
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = generators::erdos_renyi(6, 9, &mut rng);
        let g =
            generators::assemble(6, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        assert!(g.is_valid_lt());
        for eta in 1..=6usize {
            for v in 0..6u32 {
                let exact = exact_expected_truncated(&g, Model::LT, &[v], eta);
                let est = exact_estimator_expectation_model(
                    &g,
                    Model::LT,
                    &[v],
                    eta,
                    RootCountDist::Randomized,
                );
                assert!(
                    est <= exact + 1e-9,
                    "LT seed {seed} v{v} η={eta}: {est} > {exact}"
                );
                assert!(
                    est >= (1.0 - inv_e) * exact - 1e-9,
                    "LT seed {seed} v{v} η={eta}: {est} < (1−1/e)·{exact}"
                );
            }
        }
    }
}

#[test]
fn lt_sampler_realizes_the_exact_expectation() {
    let mut rng = SmallRng::seed_from_u64(9);
    let pairs = generators::erdos_renyi(6, 9, &mut rng);
    let g = generators::assemble(6, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
    let eta = 3;
    for v in 0..6u32 {
        let expected =
            exact_estimator_expectation_model(&g, Model::LT, &[v], eta, RootCountDist::Randomized);
        let est = sampled_estimate(&g, Model::LT, v, eta, 50_000, 333 + v as u64);
        assert!(
            (est - expected).abs() < 0.04,
            "LT v{v}: sampler {est} vs exact {expected}"
        );
    }
}

#[test]
fn miss_prob_sanity() {
    assert_eq!(miss_prob(10, 0, 3), 1.0);
    assert_eq!(miss_prob(10, 10, 1), 0.0);
    assert!((miss_prob(4, 1, 1) - 0.75).abs() < 1e-12);
    // k > n - x ⇒ must hit
    assert_eq!(miss_prob(5, 3, 4), 0.0);
}
