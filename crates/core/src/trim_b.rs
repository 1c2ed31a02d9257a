//! TRIM-B — batched truncated influence maximization (Algorithm 3).
//!
//! Selects a size-`b` seed set per round via greedy maximum coverage over
//! mRR sets, with approximation `ρ_b (1 − 1/e)(1 − ε)` where
//! `ρ_b = 1 − (1 − 1/b)^b` (Lemma 4.1). Differences from TRIM (§4.1):
//!
//! * `θ_max` and `θ◦` are generalized with `ρ_b`, `b` and `ln C(n_i, b)`;
//! * the upper bound on the optimum's coverage divides the greedy coverage
//!   by `ρ_b` (Line 10);
//! * the stopping ratio becomes `ρ_b (1 − ε̂)` (Line 11).

use crate::error::AsmError;
use crate::params::TrimParams;
use crate::trim::{schedule, TrimScratch};
use rand::Rng;
use smin_diffusion::{Model, ResidualState};
use smin_graph::{Graph, NodeId};
use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
use smin_sampling::coverage::rho_b;
use smin_sampling::{resolve_threads, SketchJob};

/// Outcome of one TRIM-B round.
#[derive(Clone, Debug)]
pub struct TrimBOutput {
    /// The selected batch `S_b` (size ≤ b; smaller only when the residual
    /// graph has fewer alive nodes).
    pub seeds: Vec<NodeId>,
    /// `Λ_R(S_b)` at termination.
    pub coverage: u32,
    /// `|R|` at termination.
    pub sets_generated: usize,
    /// Doubling iterations used.
    pub iterations: usize,
    /// Estimate `η_i · Λ_R(S_b)/|R|` of `E[Γ̃(S_b | S_{i−1})]`.
    pub est_truncated_spread: f64,
    /// `Λˡ(S_b)/Λᵘ(S_b◦)` at termination (target `ρ_b(1 − ε̂)`).
    pub certificate: f64,
    /// Total edges examined while sampling.
    pub edges_examined: usize,
}

/// `ln C(n, b)` computed stably as a sum of logs (b is small: 2–8 in the
/// paper's experiments).
pub(crate) fn ln_binomial(n: usize, b: usize) -> f64 {
    assert!(b <= n, "C({n}, {b}) undefined");
    let mut acc = 0.0f64;
    for i in 0..b {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// Runs one round of TRIM-B on the residual graph, selecting up to `b`
/// seeds. Sketch generation shares TRIM's deterministic parallel path: an
/// immutable residual snapshot plus counter-derived per-set RNG streams, so
/// the selected batch is identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn trim_b(
    g: &Graph,
    model: Model,
    residual: &ResidualState,
    eta_i: usize,
    b: usize,
    params: &TrimParams,
    scratch: &mut TrimScratch,
    rng: &mut impl Rng,
) -> Result<TrimBOutput, AsmError> {
    params.validate()?;
    if b == 0 {
        return Err(AsmError::InvalidBatch(0));
    }
    let n_i = residual.n_alive();
    if n_i == 0 {
        return Err(AsmError::EmptyGraph);
    }
    assert!(eta_i >= 1, "TRIM-B requires a positive shortfall");
    let b = b.min(n_i);
    let rho = rho_b(b);

    let sched = schedule(
        n_i,
        eta_i,
        params.eps,
        b,
        rho,
        ln_binomial(n_i, b),
        params.theta_cap,
    );

    let threads = resolve_threads(params.threads);
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i,
        dist: params.root_dist,
        base_seed: rng.next_u64(),
    };
    let TrimScratch {
        pool,
        sketch_gen,
        engine,
        stage,
        ..
    } = scratch;
    pool.reset();
    let mut edges_examined = 0usize;

    {
        let _span = smin_obs::Span::enter(&mut stage.sketch);
        edges_examined += sketch_gen
            .generate(&job, sched.theta0, threads, pool)
            .edges_examined;
    }

    let mut iterations = 0;
    loop {
        iterations += 1;
        // Line 8: greedy maximum coverage. The engine rebuilds its
        // node→sets transpose on every call; each call after the first
        // follows a doubling, so a kept index would be stale anyway.
        let greedy = {
            let _span = smin_obs::Span::enter(&mut stage.coverage);
            engine.select(pool, b)
        };
        let coverage = greedy.covered;
        let lower = coverage_lower_bound(coverage as f64, sched.a1);
        // Line 10: the greedy coverage divided by ρ_b upper-bounds the
        // optimal batch's coverage.
        let upper = coverage_upper_bound(coverage as f64 / rho, sched.a2);
        let certificate = if upper > 0.0 { lower / upper } else { 0.0 };
        if certificate >= rho * (1.0 - sched.eps_hat)
            || iterations >= sched.t_max
            || pool.len() >= sched.theta_max
        {
            return Ok(TrimBOutput {
                seeds: greedy.seeds,
                coverage,
                sets_generated: pool.len(),
                iterations,
                est_truncated_spread: eta_i as f64 * coverage as f64 / pool.len() as f64,
                certificate,
                edges_examined,
            });
        }
        let target = (pool.len() * 2).min(sched.theta_max);
        let _span = smin_obs::Span::enter(&mut stage.sketch);
        edges_examined += sketch_gen
            .generate(&job, target, threads, pool)
            .edges_examined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::GraphBuilder;

    /// Two independent stars: picking both centers is the unique optimal
    /// 2-batch.
    fn two_stars() -> Graph {
        let mut b = GraphBuilder::new(8);
        for leaf in [1u32, 2, 3] {
            b.add_edge_p(0, leaf, 0.9).unwrap();
        }
        for leaf in [5u32, 6, 7] {
            b.add_edge_p(4, leaf, 0.9).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn batch_of_two_picks_both_centers() {
        let g = two_stars();
        let params = TrimParams::with_eps(0.3);
        let mut hits = 0;
        for seed in 0..20u64 {
            let residual = ResidualState::new(8);
            let mut scratch = TrimScratch::new(8);
            let mut rng = SmallRng::seed_from_u64(seed);
            let out = trim_b(
                &g,
                Model::IC,
                &residual,
                6,
                2,
                &params,
                &mut scratch,
                &mut rng,
            )
            .unwrap();
            let mut s = out.seeds.clone();
            s.sort_unstable();
            if s == vec![0, 4] {
                hits += 1;
            }
        }
        assert!(hits >= 18, "centers selected only {hits}/20 times");
    }

    #[test]
    fn degenerates_to_trim_when_b_is_one() {
        let g = two_stars();
        let params = TrimParams::with_eps(0.5);
        let residual = ResidualState::new(8);
        let mut scratch = TrimScratch::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = trim_b(
            &g,
            Model::IC,
            &residual,
            4,
            1,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.seeds.len(), 1);
        assert!(out.seeds[0] == 0 || out.seeds[0] == 4);
    }

    #[test]
    fn batch_clamped_to_alive_nodes() {
        let g = two_stars();
        let params = TrimParams::with_eps(0.5);
        let mut residual = ResidualState::new(8);
        residual.kill_all(&[2, 3, 4, 5, 6, 7]);
        let mut scratch = TrimScratch::new(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = trim_b(
            &g,
            Model::IC,
            &residual,
            2,
            8,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        assert!(out.seeds.len() <= 2);
        assert!(out.seeds.iter().all(|&v| v == 0 || v == 1));
    }

    #[test]
    fn ln_binomial_matches_direct_computation() {
        // C(10, 3) = 120
        assert!((ln_binomial(10, 3) - 120.0f64.ln()).abs() < 1e-9);
        assert_eq!(ln_binomial(5, 0), 0.0);
        assert!((ln_binomial(5, 5) - 0.0).abs() < 1e-9);
        // C(1000, 8): compare against lgamma-style product
        let direct: f64 = (0..8)
            .map(|i| ((1000 - i) as f64).ln() - ((i + 1) as f64).ln())
            .sum();
        assert!((ln_binomial(1000, 8) - direct).abs() < 1e-9);
    }

    #[test]
    fn estimate_bounded_by_eta() {
        let g = two_stars();
        let params = TrimParams::with_eps(0.5);
        let residual = ResidualState::new(8);
        let mut scratch = TrimScratch::new(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = trim_b(
            &g,
            Model::IC,
            &residual,
            3,
            4,
            &params,
            &mut scratch,
            &mut rng,
        )
        .unwrap();
        assert!(out.est_truncated_spread <= 3.0 + 1e-9);
        assert!(out.est_truncated_spread > 0.0);
    }

    #[test]
    fn zero_batch_rejected() {
        let g = two_stars();
        let params = TrimParams::default();
        let residual = ResidualState::new(8);
        let mut scratch = TrimScratch::new(8);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            trim_b(
                &g,
                Model::IC,
                &residual,
                2,
                0,
                &params,
                &mut scratch,
                &mut rng
            ),
            Err(AsmError::InvalidBatch(0))
        ));
    }
}
