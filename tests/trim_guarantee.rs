//! Statistical validation of Lemma 3.6 / Lemma 4.1: the node (batch) TRIM
//! (TRIM-B) returns has exact expected truncated spread within
//! `(1 − 1/e)(1 − ε)` (resp. `ρ_b(1 − 1/e)(1 − ε)`) of the exhaustive
//! optimum, with only the advertised (tiny) failure probability. TRIM-B is
//! checked under IC and, on weighted-cascade copies, under LT.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::algo::trim::{trim, TrimScratch};
use seedmin::algo::trim_b::trim_b;
use seedmin::algo::TrimParams;
use seedmin::diffusion::exact::exact_expected_truncated;
use seedmin::diffusion::{Model, ResidualState};
use seedmin::graph::weights::apply_weights;
use seedmin::graph::{generators, Graph, WeightModel};
use seedmin::sampling::coverage::rho_b;

fn instances() -> Vec<Graph> {
    let mut out = Vec::new();
    for seed in 0..5u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = generators::erdos_renyi(8, 12, &mut rng);
        out.push(
            generators::assemble(8, &pairs, true, WeightModel::Uniform(0.45), &mut rng).unwrap(),
        );
    }
    out
}

/// The same structures under weighted cascade (`p = 1/indeg`), which is
/// LT-valid: every node's in-probabilities sum to 1.
fn lt_instances() -> Vec<Graph> {
    let mut rng = SmallRng::seed_from_u64(99);
    instances()
        .iter()
        .map(|g| apply_weights(g, WeightModel::WeightedCascade, &mut rng))
        .collect()
}

#[test]
fn trim_selection_meets_guarantee_with_margin() {
    let eps = 0.3;
    let params = TrimParams::with_eps(eps);
    let factor = (1.0 - 1.0 / std::f64::consts::E) * (1.0 - eps);
    let mut violations = 0usize;
    let mut total = 0usize;
    for (gi, g) in instances().iter().enumerate() {
        for eta in [2usize, 4, 6] {
            // exhaustive per-singleton optimum
            let exact: Vec<f64> = (0..g.n() as u32)
                .map(|v| exact_expected_truncated(g, Model::IC, &[v], eta))
                .collect();
            let opt = exact.iter().cloned().fold(f64::MIN, f64::max);
            for run in 0..6u64 {
                let residual = ResidualState::new(g.n());
                let mut scratch = TrimScratch::new(g.n());
                let mut rng = SmallRng::seed_from_u64(run * 31 + gi as u64);
                let out = trim(
                    g,
                    Model::IC,
                    &residual,
                    eta,
                    &params,
                    &mut scratch,
                    &mut rng,
                )
                .unwrap();
                total += 1;
                if exact[out.seeds[0] as usize] < factor * opt - 1e-9 {
                    violations += 1;
                }
            }
        }
    }
    // Failure probability per round is δ ≪ 1; across 90 runs even a couple
    // of violations would indicate a real bug.
    assert!(
        violations == 0,
        "{violations}/{total} TRIM selections below the (1−1/e)(1−ε) guarantee"
    );
}

/// Every `b`-subset of `0..n`, in lexicographic order.
fn batches(n: u32, b: usize) -> Vec<Vec<u32>> {
    if b == 0 {
        return vec![Vec::new()];
    }
    (0..n)
        .flat_map(|last| {
            batches(last, b - 1).into_iter().map(move |mut batch| {
                batch.push(last);
                batch
            })
        })
        .collect()
}

#[test]
fn trim_b_selection_meets_batch_guarantee() {
    let eps = 0.3;
    let params = TrimParams::with_eps(eps);
    let mut violations = 0usize;
    let mut total = 0usize;
    let lt_graphs = lt_instances();
    assert!(lt_graphs.iter().all(Graph::is_valid_lt));
    for b in [2usize, 3] {
        let factor = rho_b(b) * (1.0 - 1.0 / std::f64::consts::E) * (1.0 - eps);
        for (model, graphs) in [(Model::IC, instances()), (Model::LT, lt_graphs.clone())] {
            for (gi, g) in graphs.iter().enumerate() {
                let all = batches(g.n() as u32, b);
                for eta in [3usize, 5] {
                    // exhaustive optimum over all size-b batches
                    let opt = all
                        .iter()
                        .map(|batch| exact_expected_truncated(g, model, batch, eta))
                        .fold(f64::MIN, f64::max);
                    for run in 0..4u64 {
                        let residual = ResidualState::new(g.n());
                        let mut scratch = TrimScratch::new(g.n());
                        let mut rng = SmallRng::seed_from_u64(run * 17 + gi as u64);
                        let out =
                            trim_b(g, model, &residual, eta, b, &params, &mut scratch, &mut rng)
                                .unwrap();
                        let achieved = exact_expected_truncated(g, model, &out.seeds, eta);
                        total += 1;
                        if achieved < factor * opt - 1e-9 {
                            violations += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(total, 160);
    assert!(
        violations == 0,
        "{violations}/{total} TRIM-B selections below the ρ_b(1−1/e)(1−ε) guarantee"
    );
}

#[test]
fn trim_estimate_brackets_exact_value() {
    // The reported estimate η·Λ(v*)/|R| converges to E[Γ̃(v*)], which is
    // within [ (1−1/e)·E[Γ(v*)], E[Γ(v*)] ] — verify against the exact value
    // with sampling slack.
    let params = TrimParams::with_eps(0.1);
    for (gi, g) in instances().iter().enumerate() {
        let eta = 4;
        let residual = ResidualState::new(g.n());
        let mut scratch = TrimScratch::new(g.n());
        let mut rng = SmallRng::seed_from_u64(gi as u64);
        let out = trim(
            g,
            Model::IC,
            &residual,
            eta,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        let exact = exact_expected_truncated(g, Model::IC, &[out.seeds[0]], eta);
        assert!(
            out.est_truncated_spread <= exact * 1.15 + 0.1,
            "graph {gi}: estimate {} far above exact {exact}",
            out.est_truncated_spread
        );
        assert!(
            out.est_truncated_spread >= (1.0 - 1.0 / std::f64::consts::E) * exact * 0.85 - 0.1,
            "graph {gi}: estimate {} far below the band around {exact}",
            out.est_truncated_spread
        );
    }
}
