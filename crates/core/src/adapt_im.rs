//! AdaptIM — the adaptive influence-maximization baseline (§6.1).
//!
//! Reimplemented from the paper's description of the modified AdaptIM-1 of
//! Han et al. (PVLDB'18): each round runs an OPIM-C-style non-adaptive IM
//! selection (`k = 1`) on the residual graph using *single-root* RR sets,
//! i.e. it greedily maximizes the expected marginal **vanilla** spread
//! instead of the truncated spread. Consequences reproduced here:
//!
//! * effectiveness is close to ASTI in practice (Figure 4) but carries no
//!   seed-minimization guarantee (§2.4's counterexample);
//! * the per-round sample count is `Θ(n_i ln n_i / (ε² OPT'_i))` versus
//!   TRIM's `Θ(η_i ln n_i / (ε² OPT_i))`; in late rounds
//!   `OPT'_i ≈ OPT_i ≈ η_i ≪ n_i`, which is why AdaptIM runs 10–20× slower
//!   (Figure 5, §6.2).
//!
//! A single-root RR set is an mRR set with `η_i = n_i` (one root under
//! §3.3's randomized rounding), so a round is TRIM's argmax round at
//! `η_i = n_i` (`trim::argmax_round`, through the sampling loop
//! `trim::certified_round`), doubling and certified by Lemma A.2, on
//! `BASELINE_THREADS` threads, and the rounds run ASTI's adaptive loop
//! (`asti::drive`). Like TRIM it keeps only the sets' coverage counts
//! ([`SketchCounts`](smin_sampling::SketchCounts)), so a round holds O(n)
//! bytes whatever its sample size.

use crate::asti::drive;
use crate::error::AsmError;
use crate::report::{AstiReport, Round};
use crate::trim::{argmax_round, round_job, schedule, TrimScratch, BASELINE_THREADS, DOUBLING};
use crate::trim_b;
use rand::Rng;
use smin_diffusion::{InfluenceOracle, Model, ResidualState};
use smin_graph::Graph;

/// Parameters for AdaptIM (ε plus an optional per-round sample cap).
#[derive(Clone, Copy, Debug)]
pub struct AdaptImParams {
    /// Approximation slack for the per-round IM selection.
    pub eps: f64,
    /// Optional hard cap on RR sets per round.
    pub theta_cap: Option<usize>,
}

impl AdaptImParams {
    /// Defaults matching the paper's experiments (ε = 0.5).
    pub fn with_eps(eps: f64) -> Self {
        AdaptImParams {
            eps,
            theta_cap: None,
        }
    }
}

impl Default for AdaptImParams {
    fn default() -> Self {
        AdaptImParams::with_eps(0.5)
    }
}

/// Runs the AdaptIM baseline until `eta` nodes are active. Its rounds
/// report no [`TrimStats`](crate::TrimStats).
pub fn adapt_im(
    g: &Graph,
    model: Model,
    eta: usize,
    params: &AdaptImParams,
    oracle: &mut impl InfluenceOracle,
    rng: &mut impl Rng,
) -> Result<AstiReport, AsmError> {
    if !(params.eps > 0.0 && params.eps < 1.0) {
        return Err(AsmError::InvalidEps(params.eps));
    }
    let mut scratch = TrimScratch::new(g.n());
    let mut residual = ResidualState::new(g.n());
    drive(g, model, eta, oracle, &mut residual, false, |r, _| {
        Ok(select_max_spread(g, model, r, params, &mut scratch, rng))
    })
}

/// One OPIM-C-style selection of the max expected *vanilla* marginal spread
/// on the residual graph, with single-root RR sets: TRIM's argmax round at
/// `η_i = n_i`, doubling, certified by Lemma A.2.
pub(crate) fn select_max_spread(
    g: &Graph,
    model: Model,
    residual: &ResidualState,
    params: &AdaptImParams,
    scratch: &mut TrimScratch,
    rng: &mut impl Rng,
) -> Round {
    let n_i = residual.n_alive();
    // The schedule's η_i slot is the estimator scale; for vanilla RR sets the
    // scale is n_i (E[I(v)] = n_i · Pr[v ∈ R]), hence δ is computed against
    // n_i — this is exactly the OPIM-C (k = 1) parameterization and the
    // source of AdaptIM's extra sampling cost.
    let sched = schedule(
        n_i,
        n_i,
        params.eps,
        1,
        1.0,
        (n_i as f64).ln(),
        params.theta_cap,
        DOUBLING,
    );
    // η_i = n_i makes every set single-root (module docs).
    let job = round_job(g, model, residual, n_i, rng);
    scratch.counts.reset();
    argmax_round(scratch, &job, &sched, BASELINE_THREADS, |c, _, sched| {
        trim_b::certificate(c, c, sched)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Realization, RealizationOracle};
    use smin_graph::GraphBuilder;

    /// Figure 2 graph: AdaptIM must fall into the vanilla-spread trap and
    /// pick v1 first (E[I(v1)] = 2.75 beats 2.0), unlike TRIM.
    fn figure2() -> smin_graph::Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_vanilla_optimum_first() {
        let g = figure2();
        let params = AdaptImParams::with_eps(0.2);
        let mut firsts = [0usize; 4];
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = adapt_im(&g, Model::IC, 2, &params, &mut oracle, &mut rng).unwrap();
            firsts[report.seeds[0] as usize] += 1;
            assert!(report.reached);
        }
        assert!(
            firsts[0] >= 18,
            "AdaptIM should chase E[I(v1)] = 2.75: {firsts:?}"
        );
    }

    #[test]
    fn reaches_threshold_adaptively() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pairs = smin_graph::generators::erdos_renyi(50, 120, &mut rng);
        let g = smin_graph::generators::assemble(
            50,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let params = AdaptImParams::with_eps(0.5);
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = adapt_im(&g, Model::IC, 25, &params, &mut oracle, &mut rng).unwrap();
            assert!(report.reached);
            assert!(report.total_activated >= 25);
        }
    }

    #[test]
    fn uses_more_samples_than_trim_for_small_eta() {
        // Late-round behavior: with η_i ≪ n_i TRIM needs far fewer sets.
        let mut rng = SmallRng::seed_from_u64(4);
        let pairs = smin_graph::generators::chung_lu_directed(400, 1600, 2.1, &mut rng).unwrap();
        let g = smin_graph::generators::assemble(
            400,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let eta = 8; // small relative to n = 400
        let mut rng = SmallRng::seed_from_u64(5);
        let phi = Realization::sample(&g, Model::IC, &mut rng);

        let mut o1 = RealizationOracle::new(&g, phi.clone());
        let trim_report = crate::asti(
            &g,
            Model::IC,
            eta,
            &crate::AstiParams::with_eps(0.5),
            &mut o1,
            &mut rng,
        )
        .unwrap();
        let mut o2 = RealizationOracle::new(&g, phi);
        let adapt_report = adapt_im(
            &g,
            Model::IC,
            eta,
            &AdaptImParams::with_eps(0.5),
            &mut o2,
            &mut rng,
        )
        .unwrap();
        assert!(
            adapt_report.total_sets > trim_report.total_sets,
            "AdaptIM sets = {}, ASTI sets = {}",
            adapt_report.total_sets,
            trim_report.total_sets
        );
    }

    /// AdaptIM keeps the paper's doubling: every round stops at θ◦·2^k
    /// sets, or at θ_max, of its own Line 1–5 schedule, and some rounds
    /// stop past the first check, so the growth factor shows.
    #[test]
    fn rounds_stop_on_the_doubling_walk() {
        let mut rng = SmallRng::seed_from_u64(4);
        let pairs = smin_graph::generators::chung_lu_directed(400, 1600, 2.1, &mut rng).unwrap();
        let g = smin_graph::generators::assemble(
            400,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let params = AdaptImParams::with_eps(0.5);
        let mut grown = 0;
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = adapt_im(&g, Model::IC, 40, &params, &mut oracle, &mut rng).unwrap();
            for r in &report.rounds {
                let n_i = r.n_alive;
                let sched = schedule(n_i, n_i, 0.5, 1, 1.0, (n_i as f64).ln(), None, DOUBLING);
                let on_walk = (0..sched.t_max)
                    .any(|k| (sched.theta0 << k).min(sched.theta_max) == r.sets_generated);
                assert!(
                    on_walk,
                    "seed {seed}: {} sets, θ◦ {}",
                    r.sets_generated, sched.theta0
                );
                grown += usize::from(r.sets_generated > sched.theta0);
            }
        }
        assert!(grown > 0, "every round stopped at its first check");
    }

    #[test]
    fn parameter_validation() {
        let g = figure2();
        let mut rng = SmallRng::seed_from_u64(6);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        assert!(matches!(
            adapt_im(
                &g,
                Model::IC,
                2,
                &AdaptImParams::with_eps(0.0),
                &mut oracle,
                &mut rng
            ),
            Err(AsmError::InvalidEps(_))
        ));
        assert!(matches!(
            adapt_im(
                &g,
                Model::IC,
                99,
                &AdaptImParams::default(),
                &mut oracle,
                &mut rng
            ),
            Err(AsmError::EtaOutOfRange { .. })
        ));
    }
}
