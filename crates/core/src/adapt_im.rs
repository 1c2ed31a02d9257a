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
//! §3.3's randomized rounding), so each round draws its sets through
//! TRIM's [`SketchGenPool`](smin_sampling::SketchGenPool) from one base
//! seed of the caller's RNG, each set on its own stream, on
//! `BASELINE_THREADS` threads.

use crate::error::AsmError;
use crate::report::{AstiReport, RoundReport};
use crate::trim::{schedule, TrimScratch, BASELINE_THREADS, DOUBLING};
use rand::Rng;
use smin_diffusion::{InfluenceOracle, Model, ResidualState};
use smin_graph::cast::u32_of;
use smin_graph::{Graph, NodeId};
use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
use smin_sampling::{RootCountDist, SketchJob};

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

/// Runs the AdaptIM baseline until `eta` nodes are active.
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
    let n = g.n();
    if n == 0 {
        return Err(AsmError::EmptyGraph);
    }
    if eta == 0 || eta > n {
        return Err(AsmError::EtaOutOfRange { eta, n });
    }

    let mut residual = ResidualState::new(n);
    for (u, &active) in oracle.active_mask().iter().enumerate() {
        if active {
            residual.kill(u32_of(u));
        }
    }

    let mut scratch = TrimScratch::new(n);
    let mut report = AstiReport {
        seeds: Vec::new(),
        rounds: Vec::new(),
        total_activated: oracle.num_active(),
        eta,
        reached: oracle.num_active() >= eta,
        total_select_time: std::time::Duration::ZERO,
        total_sets: 0,
    };

    while oracle.num_active() < eta && residual.n_alive() > 0 {
        let eta_i = eta - oracle.num_active();
        let n_alive = residual.n_alive();
        // smin-lint: allow(no-wall-clock) -- reported only, never branched on; selection stays bit-identical
        let started = std::time::Instant::now();
        let (node, sets_generated, est) =
            select_max_spread(g, model, &residual, params, &mut scratch, rng);
        let select_time = started.elapsed();

        let newly = oracle.observe(&[node]);
        residual.kill_all(&newly);
        residual.kill(node); // termination guard against degenerate oracles

        report.seeds.push(node);
        report.total_select_time += select_time;
        report.total_sets += sets_generated;
        report.rounds.push(RoundReport {
            seeds: vec![node],
            newly_activated: newly.len(),
            eta_i,
            n_alive,
            sets_generated,
            est_truncated_spread: est,
            select_time,
            trim: None,
        });
    }

    report.total_activated = oracle.num_active();
    report.reached = report.total_activated >= eta;
    Ok(report)
}

/// One OPIM-C-style selection of the max expected *vanilla* marginal spread
/// on the residual graph, with single-root RR sets. Returns
/// `(node, |R|, estimated spread)`.
fn select_max_spread(
    g: &Graph,
    model: Model,
    residual: &ResidualState,
    params: &AdaptImParams,
    scratch: &mut TrimScratch,
    rng: &mut impl Rng,
) -> (NodeId, usize, f64) {
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
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i: n_i,
        dist: RootCountDist::Randomized,
        base_seed: rng.next_u64(),
    };
    let TrimScratch {
        pool, sketch_gen, ..
    } = scratch;
    pool.reset();
    sketch_gen.generate(&job, sched.theta0, BASELINE_THREADS, pool);

    let mut iterations = 0;
    loop {
        iterations += 1;
        let (node, coverage) = pool.argmax().expect("roots are alive; sets are non-empty");
        let lower = coverage_lower_bound(coverage as f64, sched.a1);
        let upper = coverage_upper_bound(coverage as f64, sched.a2);
        let certificate = if upper > 0.0 { lower / upper } else { 0.0 };
        if certificate >= 1.0 - sched.eps_hat
            || iterations >= sched.t_max
            || pool.len() >= sched.theta_max
        {
            let est = n_i as f64 * coverage as f64 / pool.len() as f64;
            return (node, pool.len(), est);
        }
        sketch_gen.generate(&job, sched.next(pool.len()), BASELINE_THREADS, pool);
    }
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
        let pairs = smin_graph::generators::chung_lu_directed(400, 1600, 2.1, &mut rng);
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
        let pairs = smin_graph::generators::chung_lu_directed(400, 1600, 2.1, &mut rng);
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
