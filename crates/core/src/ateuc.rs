//! ATEUC — the non-adaptive seed-minimization baseline (§6.1).
//!
//! Reimplemented from the description of Han et al. 2017 ("Cost-Effective
//! Seed Selection for Online Social Networks", ref.\[22\]) given in the paper:
//! ATEUC maintains two greedy candidate sets over a pool of single-root RR
//! sets,
//!
//! * `S_u` — grown until a *lower* confidence bound on `E[I(S_u)]` reaches
//!   `η` (so `E[I(S_u)] ≥ η` w.h.p. — the returned solution), and
//! * `S_l` — grown until an *upper* confidence bound reaches `η` (an
//!   optimistic lower estimate of how many seeds are needed),
//!
//! doubling the pool until the stop condition `|S_u| ≤ 2|S_l|` holds (§6.2).
//! Two behaviours of the original are reproduced faithfully:
//!
//! * the guarantee is on the *expected* spread only — on individual
//!   realizations the returned set may miss `η` (the "N/A" rows of Table 3,
//!   Figure 8), or overshoot it wastefully;
//! * larger `η` needs more seeds, making `|S_u| ≤ 2|S_l|` easier to satisfy,
//!   so the running time *decreases* with `η` (Figure 5's inverted trend).
//!
//! The single-root RR sets are mRR sets with `η_i = n` (one root under
//! §3.3's randomized rounding): each doubling grows the pool through
//! TRIM's [`SketchGenPool`], every set on its own stream of one base seed
//! drawn per run, on `BASELINE_THREADS` threads.

use crate::error::AsmError;
use crate::trim::BASELINE_THREADS;
use rand::Rng;
use smin_diffusion::{ForwardSim, Model, Realization, ResidualState};
use smin_graph::{Graph, NodeId};
use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
use smin_sampling::{CoverageEngine, RootCountDist, SketchGenPool, SketchJob, SketchPool};

/// Initial pool size.
const THETA0: usize = 256;

/// Doublings after which the current `S_u` is returned uncertified.
const MAX_DOUBLINGS: usize = 14;

/// Result of an ATEUC run.
#[derive(Clone, Debug)]
pub struct AteucOutput {
    /// The returned seed set `S_u` (greedy order).
    pub seeds: Vec<NodeId>,
    /// Size of the optimistic candidate `S_l` at termination.
    pub lower_candidate_size: usize,
    /// Estimated expected spread `n·Λ(S_u)/θ` of the returned set.
    pub est_spread: f64,
    /// RR sets generated in the final pool.
    pub sets_generated: usize,
    /// Doublings performed.
    pub doublings: usize,
    /// Whether the greedy could certify `E[I(S_u)] ≥ η`; `false` means the
    /// pool/doubling budget ran out first (the full vertex set is returned).
    pub certified: bool,
}

/// Runs ATEUC: one-shot (non-adaptive) seed selection targeting
/// `E[I(S)] ≥ η`.
pub fn ateuc(
    g: &Graph,
    model: Model,
    eta: usize,
    rng: &mut impl Rng,
) -> Result<AteucOutput, AsmError> {
    let n = g.n();
    if n == 0 {
        return Err(AsmError::EmptyGraph);
    }
    if eta == 0 || eta > n {
        return Err(AsmError::EtaOutOfRange { eta, n });
    }

    let residual = ResidualState::new(n); // all alive: full graph
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i: n,
        dist: RootCountDist::Randomized,
        base_seed: rng.next_u64(),
    };
    let mut sketch_gen = SketchGenPool::new(n);
    let mut pool = SketchPool::new(n);
    let mut engine = CoverageEngine::new();

    // Failure budget per bound application: each candidate's bound holds
    // with probability 1 − 1/n per doubling (the recommended setting in
    // ref.\[22\]), union-bounded over the doublings.
    let a = (n.max(2) as f64).ln() + (MAX_DOUBLINGS as f64).ln() + 1.0;

    let mut theta = THETA0;
    let mut doublings = 0usize;
    loop {
        sketch_gen.generate(&job, theta, BASELINE_THREADS, &mut pool);

        let theta_f = pool.len() as f64;
        let target_cov_pess = |cov: f64| n as f64 * coverage_lower_bound(cov, a) / theta_f;
        let target_cov_opt = |cov: f64| n as f64 * coverage_upper_bound(cov, a) / theta_f;

        // Both candidate growths run through the shared coverage engine
        // (bound-driven greedy; same tie-breaking as TRIM-B's selection).
        let (upper, certified) = engine.select_until(&pool, eta as f64, target_cov_pess);
        let (lower, _) = engine.select_until(&pool, eta as f64, target_cov_opt);

        let done = certified && upper.seeds.len() <= 2 * lower.seeds.len().max(1);
        if done || doublings >= MAX_DOUBLINGS {
            let est = n as f64 * upper.covered as f64 / theta_f;
            return Ok(AteucOutput {
                seeds: upper.seeds,
                lower_candidate_size: lower.seeds.len(),
                est_spread: est,
                sets_generated: pool.len(),
                doublings,
                certified,
            });
        }
        theta *= 2;
        doublings += 1;
    }
}

/// Evaluates a fixed (non-adaptive) seed set on a batch of realizations,
/// returning the realized spread of each — the protocol behind Figure 8 and
/// the "N/A" entries of Table 3.
pub fn evaluate_on_realizations(
    g: &Graph,
    seeds: &[NodeId],
    realizations: &[Realization],
) -> Vec<usize> {
    let mut sim = ForwardSim::new(g.n());
    realizations
        .iter()
        .map(|phi| sim.spread(g, phi, seeds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::spread::mc_expected_spread;
    use smin_graph::{generators, GraphBuilder, WeightModel};

    #[test]
    fn deterministic_star_needs_one_seed() {
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6u32 {
            b.add_edge_p(0, leaf, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        // η = 5 of 6: the center alone certifiably spreads to everything.
        // (η = n can never be certified by a *strict* lower confidence bound,
        // which is itself a faithful ATEUC behavior.)
        let out = ateuc(&g, Model::IC, 5, &mut rng).unwrap();
        assert!(out.certified);
        assert_eq!(out.seeds, vec![0]);
    }

    #[test]
    fn isolated_nodes_need_eta_seeds() {
        let g = GraphBuilder::new(6).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let out = ateuc(&g, Model::IC, 3, &mut rng).unwrap();
        // Each seed only covers itself; the lower bound on coverage needs
        // slack, so ≥ 3 seeds (possibly a few more for confidence).
        assert!(out.seeds.len() >= 3, "got {}", out.seeds.len());
        assert!(out.certified);
    }

    #[test]
    fn expected_spread_of_result_meets_eta() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pairs = generators::chung_lu_directed(300, 1200, 2.1, &mut rng);
        let g = generators::assemble(300, &pairs, true, WeightModel::WeightedCascade, &mut rng)
            .unwrap();
        let eta = 60;
        let out = ateuc(&g, Model::IC, eta, &mut rng).unwrap();
        assert!(out.certified);
        let spread = mc_expected_spread(&g, Model::IC, &out.seeds, 4_000, &mut rng);
        assert!(
            spread >= eta as f64 * 0.9,
            "E[I(S)] ≈ {spread} but η = {eta}"
        );
    }

    #[test]
    fn may_miss_eta_on_individual_realizations() {
        // The defining weakness: over many realizations, a certified ATEUC
        // set should miss η on at least one (while never by construction
        // being adaptive). We use a stochastic graph where variance is high.
        let mut rng = SmallRng::seed_from_u64(4);
        let pairs = generators::chung_lu_directed(200, 600, 2.1, &mut rng);
        let g = generators::assemble(200, &pairs, true, WeightModel::WeightedCascade, &mut rng)
            .unwrap();
        let eta = 40;
        let out = ateuc(&g, Model::IC, eta, &mut rng).unwrap();
        let realizations: Vec<_> = (0..40)
            .map(|_| Realization::sample(&g, Model::IC, &mut rng))
            .collect();
        let spreads = evaluate_on_realizations(&g, &out.seeds, &realizations);
        assert_eq!(spreads.len(), 40);
        let misses = spreads.iter().filter(|&&s| s < eta).count();
        // Not guaranteed mathematically, but with WC weights the spread
        // variance makes ≥ 1 miss overwhelmingly likely; allow zero but then
        // require visible overshoot instead (both demonstrate rigidity).
        let overshoot = spreads
            .iter()
            .filter(|&&s| s as f64 > 1.5 * eta as f64)
            .count();
        assert!(
            misses > 0 || overshoot > 0,
            "non-adaptive set neither missed nor overshot on 40 realizations: {spreads:?}"
        );
    }

    #[test]
    fn evaluate_on_realizations_matches_forward_sim() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let phis = vec![
            Realization::from_ic_statuses(vec![true, true]),
            Realization::from_ic_statuses(vec![false, true]),
        ];
        assert_eq!(evaluate_on_realizations(&g, &[0], &phis), vec![3, 1]);
    }

    #[test]
    fn eta_validation() {
        let g = GraphBuilder::new(3).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(matches!(
            ateuc(&g, Model::IC, 0, &mut rng),
            Err(AsmError::EtaOutOfRange { .. })
        ));
        assert!(matches!(
            ateuc(&g, Model::IC, 4, &mut rng),
            Err(AsmError::EtaOutOfRange { .. })
        ));
    }
}
