//! TRIM — TRuncated Influence Maximization (Algorithm 2).
//!
//! Given the residual graph `G_i` and shortfall `η_i`, TRIM returns a node
//! whose expected marginal truncated spread is a `(1 − 1/e)(1 − ε)`
//! approximation of the best possible (Lemma 3.6), using
//! `O(η_i ln n_i / (ε² OPT_i))` mRR sets in expectation (Lemma 3.9).
//!
//! Structure follows the pseudo-code line by line:
//!
//! ```text
//! 1  δ ← ε/(100(1−1/e)(1−ε)η_i),  ε̂ ← 99ε/(100−ε)
//! 2  θ_max ← 2n_i(√ln(6/δ) + √(ln n_i + ln(6/δ)))² ε̂⁻²
//! 3  θ◦ ← θ_max ε̂²/n_i
//! 4  T ← ⌈log₂(θ_max/θ◦)⌉ + 1
//! 5  a₁ ← ln(3T/δ) + ln n_i,  a₂ ← ln(3T/δ)
//! 6  generate θ◦ mRR sets
//! 7  repeat ≤ T times: take v* = argmax Λ_R, compute Λˡ(v*), Λᵘ(v◦);
//!    stop when Λˡ/Λᵘ ≥ 1 − ε̂ (or t = T), else double |R|
//! ```

use crate::error::AsmError;
use crate::params::TrimParams;
use crate::report::TrimStats;
use rand::Rng;
use smin_diffusion::{Model, ResidualState};
use smin_graph::{Graph, NodeId};
use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
use smin_sampling::{
    resolve_threads, CoverageEngine, MrrSampler, SketchGenPool, SketchJob, SketchPool,
};

/// Outcome of one TRIM round.
#[derive(Clone, Debug)]
pub struct TrimOutput {
    /// The selected seed `v*`.
    pub node: NodeId,
    /// `Λ_R(v*)` at termination.
    pub coverage: u32,
    /// `|R|` at termination.
    pub sets_generated: usize,
    /// Doubling iterations used (`≤ T`).
    pub iterations: usize,
    /// Unbiased-side estimate `η_i · Λ_R(v*)/|R|` of `E[Γ̃(v* | S_{i−1})]`.
    pub est_truncated_spread: f64,
    /// `Λˡ(v*)/Λᵘ(v◦)` at termination — the per-round certificate; ≥ 1 − ε̂
    /// unless the iteration budget (or an explicit cap) exhausted first.
    pub certificate: f64,
    /// Total edges examined while sampling (EPT accounting).
    pub edges_examined: usize,
}

impl TrimOutput {
    /// The round's statistics for [`RoundReport::trim`](crate::RoundReport).
    pub fn stats(&self) -> TrimStats {
        TrimStats {
            iterations: self.iterations,
            certificate: self.certificate,
            edges_examined: self.edges_examined,
            greedy_calls: 0,
            coverage: self.coverage,
            upper: self.coverage,
        }
    }
}

/// Cumulative per-stage wall time, in microseconds, accumulated by TRIM /
/// TRIM-B since the last [`TrimScratch::reset_stage_micros`].
///
/// Observability output only: the values feed `/metrics` histograms,
/// trace-log lines, and `X-Stage-Micros` response headers — never response
/// bodies — so selections stay bit-identical with timing on. The clock
/// reads live inside [`smin_obs::Span`], keeping this crate free of
/// wall-clock calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMicros {
    /// Time inside sketch-pool growth (`SketchGenPool::generate`).
    pub sketch: u64,
    /// Time inside coverage selection (argmax / greedy over the pool).
    pub coverage: u64,
}

/// Reusable cross-round scratch (sketch pool, single-root sampler for the
/// baselines, the parallel sketch-generation pool, and the shared coverage
/// engine behind argmax / greedy selection).
pub struct TrimScratch {
    pub(crate) pool: SketchPool,
    pub(crate) sampler: MrrSampler,
    pub(crate) sketch_gen: SketchGenPool,
    pub(crate) engine: CoverageEngine,
    pub(crate) stage: StageMicros,
}

impl TrimScratch {
    /// Scratch for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        TrimScratch {
            pool: SketchPool::new(n),
            sampler: MrrSampler::new(n),
            sketch_gen: SketchGenPool::new(n),
            engine: CoverageEngine::new(),
            stage: StageMicros::default(),
        }
    }

    /// The sketch pool as of the last round (tests inspect it to pin the
    /// cross-thread determinism contract).
    pub fn pool(&self) -> &SketchPool {
        &self.pool
    }

    /// The shared coverage engine as of the last round (tests inspect its
    /// scan-compaction counter).
    pub fn engine(&self) -> &CoverageEngine {
        &self.engine
    }

    /// Per-stage timings accumulated since the last reset.
    pub fn stage_micros(&self) -> StageMicros {
        self.stage
    }

    /// Zeroes the stage accumulators (called at the start of each run).
    pub fn reset_stage_micros(&mut self) {
        self.stage = StageMicros::default();
    }
}

/// Derived schedule shared by TRIM and TRIM-B.
pub(crate) struct Schedule {
    pub theta_max: usize,
    pub theta0: usize,
    pub t_max: usize,
    pub a1: f64,
    pub a2: f64,
    pub eps_hat: f64,
}

pub(crate) fn one_minus_inv_e() -> f64 {
    1.0 - 1.0 / std::f64::consts::E
}

/// Lines 1–5 of Algorithm 2 (with `ln_choose = ln n_i`, `b = 1`, `ρ_b = 1`)
/// and of Algorithm 3 (general values).
pub(crate) fn schedule(
    n_i: usize,
    eta_i: usize,
    eps: f64,
    b: usize,
    rho_b: f64,
    ln_choose: f64,
    theta_cap: Option<usize>,
) -> Schedule {
    let n_f = n_i as f64;
    let delta = eps / (100.0 * one_minus_inv_e() * (1.0 - eps) * eta_i as f64);
    let eps_hat = 99.0 * eps / (100.0 - eps);
    let ln6d = (6.0 / delta).ln();
    let theta_max = 2.0 * n_f * ((ln6d).sqrt() + ((ln_choose + ln6d) / rho_b).sqrt()).powi(2)
        / (b as f64 * eps_hat * eps_hat);
    let theta0 = theta_max * (b as f64) * eps_hat * eps_hat / n_f;

    let mut theta_max = theta_max.ceil() as usize;
    let mut theta0 = (theta0.ceil() as usize).max(1);
    if let Some(cap) = theta_cap {
        theta_max = theta_max.min(cap.max(1));
        theta0 = theta0.min(theta_max);
    }
    let t_max = ((theta_max as f64 / theta0 as f64).log2().ceil() as usize) + 1;
    let t_f = t_max as f64;
    Schedule {
        theta_max,
        theta0,
        t_max,
        a1: (3.0 * t_f / delta).ln() + ln_choose,
        a2: (3.0 * t_f / delta).ln(),
        eps_hat,
    }
}

/// Runs one round of TRIM on the residual graph.
///
/// The residual graph is borrowed immutably: sketch generation works off a
/// [`ResidualState::snapshot`] shared by every worker thread, and root
/// sampling draws indices instead of permuting the alive list. The caller's
/// `rng` is consumed exactly once — for the round's base seed — and each
/// sketch derives its own counter-based RNG stream, so the generated pool
/// (and hence the selection) is bit-identical for every thread count.
pub fn trim(
    g: &Graph,
    model: Model,
    residual: &ResidualState,
    eta_i: usize,
    params: &TrimParams,
    scratch: &mut TrimScratch,
    rng: &mut impl Rng,
) -> Result<TrimOutput, AsmError> {
    params.validate()?;
    let n_i = residual.n_alive();
    if n_i == 0 {
        return Err(AsmError::EmptyGraph);
    }
    assert!(eta_i >= 1, "TRIM requires a positive shortfall");

    let sched = schedule(
        n_i,
        eta_i,
        params.eps,
        1,
        1.0,
        (n_i as f64).ln(),
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
        let (node, coverage) = {
            let _span = smin_obs::Span::enter(&mut stage.coverage);
            engine
                .argmax(pool)
                .expect("pool has non-empty sets: roots are alive")
        };
        let lower = coverage_lower_bound(coverage as f64, sched.a1);
        let upper = coverage_upper_bound(coverage as f64, sched.a2);
        let certificate = if upper > 0.0 { lower / upper } else { 0.0 };
        if certificate >= 1.0 - sched.eps_hat
            || iterations >= sched.t_max
            || pool.len() >= sched.theta_max
        {
            return Ok(TrimOutput {
                node,
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

    /// Figure 2 graph of Example 2.3 (v1=0, v2=1, v3=2, v4=3).
    fn figure2() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.5).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    /// A "truncation trap": node 3 has the largest vanilla spread
    /// (E[I] = 11.1) but a tiny truncated one (E[Γ] = 1.2 at η = 3), while
    /// node 0 deterministically activates exactly η = 3 nodes. The truncated
    /// gap (3 vs 1.2) exceeds the estimator's 1 − 1/e slack, so TRIM *must*
    /// pick node 0 — whereas a vanilla-spread greedy (AdaptIM) picks node 3.
    fn trap_graph() -> Graph {
        let n = 105;
        let mut b = GraphBuilder::new(n);
        b.add_edge_p(0, 1, 1.0).unwrap();
        b.add_edge_p(0, 2, 1.0).unwrap();
        b.add_edge_p(3, 4, 0.1).unwrap();
        for leaf in 5..n as u32 {
            b.add_edge_p(4, leaf, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn picks_truncated_optimal_not_vanilla_optimal() {
        // Exact values at η = 3: Δ(0) = Δ(4) = 3 (both activate ≥ 2 others
        // deterministically), Δ(3) = 1.2 < (1−1/e)(1−ε)·3 ≈ 1.33. TRIM must
        // return one of the truncated optima and never the trap.
        let g = trap_graph();
        let params = TrimParams::with_eps(0.3);
        for seed in 0..20u64 {
            let residual = ResidualState::new(g.n());
            let mut scratch = TrimScratch::new(g.n());
            let mut rng = SmallRng::seed_from_u64(seed);
            let out = trim(&g, Model::IC, &residual, 3, &params, &mut scratch, &mut rng).unwrap();
            assert_ne!(out.node, 3, "seed {seed}: TRIM fell into the vanilla trap");
            assert!(
                out.node == 0 || out.node == 4,
                "seed {seed}: picked {} which is not a truncated optimum",
                out.node
            );
        }
    }

    #[test]
    fn figure2_selection_is_within_guarantee() {
        // On the Figure 2 example the mRR estimator may legitimately return
        // v1 (E[Γ̃(v1)] = 1.75 ≥ E[Γ̃(v2)] = 5/3 — both within Theorem 3.3's
        // band). The guarantee says Δ(v*) ≥ (1−1/e)(1−ε)·Δ(v◦): check it.
        let g = figure2();
        let eps = 0.3;
        let params = TrimParams::with_eps(eps);
        let exact = [1.75, 2.0, 2.0, 1.0]; // E[Γ(v | ∅)] at η = 2
        for seed in 0..30u64 {
            let residual = ResidualState::new(4);
            let mut scratch = TrimScratch::new(4);
            let mut rng = SmallRng::seed_from_u64(seed);
            let out = trim(&g, Model::IC, &residual, 2, &params, &mut scratch, &mut rng).unwrap();
            let guarantee = (1.0 - 1.0 / std::f64::consts::E) * (1.0 - eps) * 2.0;
            assert!(
                exact[out.node as usize] >= guarantee,
                "seed {seed}: Δ({}) = {} below guarantee {guarantee}",
                out.node,
                exact[out.node as usize]
            );
        }
    }

    #[test]
    fn certificate_meets_target_without_cap() {
        let g = figure2();
        let params = TrimParams::with_eps(0.5);
        let residual = ResidualState::new(4);
        let mut scratch = TrimScratch::new(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = trim(&g, Model::IC, &residual, 2, &params, &mut scratch, &mut rng).unwrap();
        let eps_hat = 99.0 * 0.5 / 99.5;
        assert!(
            out.certificate >= 1.0 - eps_hat || out.sets_generated >= 1,
            "certificate {} too weak",
            out.certificate
        );
        assert!(out.est_truncated_spread > 0.0);
        assert!(out.est_truncated_spread <= 2.0 + 1e-9);
    }

    #[test]
    fn estimate_close_to_exact_truncated_spread() {
        let g = figure2();
        let params = TrimParams::with_eps(0.1);
        let residual = ResidualState::new(4);
        let mut scratch = TrimScratch::new(4);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = trim(&g, Model::IC, &residual, 2, &params, &mut scratch, &mut rng).unwrap();
        // E[Γ̃(v2)] ∈ [(1−1/e)·2, 2]; the empirical estimate must land near
        // that interval.
        assert!(
            out.est_truncated_spread > 1.1 && out.est_truncated_spread < 2.1,
            "estimate = {}",
            out.est_truncated_spread
        );
    }

    #[test]
    fn respects_residual_mask() {
        // Kill v2 and v3: only v1 (spread {v1}) and v4 remain; either is
        // acceptable but dead nodes must never be returned.
        let g = figure2();
        let params = TrimParams::with_eps(0.5);
        for seed in 0..10u64 {
            let mut residual = ResidualState::new(4);
            residual.kill_all(&[1, 2]);
            let mut scratch = TrimScratch::new(4);
            let mut rng = SmallRng::seed_from_u64(seed);
            let out = trim(&g, Model::IC, &residual, 1, &params, &mut scratch, &mut rng).unwrap();
            assert!(out.node == 0 || out.node == 3);
        }
    }

    #[test]
    fn theta_cap_bounds_work() {
        let g = figure2();
        let mut params = TrimParams::with_eps(0.05);
        params.theta_cap = Some(100);
        let residual = ResidualState::new(4);
        let mut scratch = TrimScratch::new(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = trim(&g, Model::IC, &residual, 2, &params, &mut scratch, &mut rng).unwrap();
        assert!(out.sets_generated <= 100);
    }

    #[test]
    fn empty_residual_errors() {
        let g = figure2();
        let params = TrimParams::default();
        let mut residual = ResidualState::new(4);
        residual.kill_all(&[0, 1, 2, 3]);
        let mut scratch = TrimScratch::new(4);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            trim(&g, Model::IC, &residual, 1, &params, &mut scratch, &mut rng),
            Err(AsmError::EmptyGraph)
        ));
    }

    #[test]
    fn schedule_matches_paper_formulas() {
        let s = schedule(1000, 100, 0.5, 1, 1.0, (1000.0f64).ln(), None);
        let delta = 0.5 / (100.0 * one_minus_inv_e() * 0.5 * 100.0);
        let eps_hat = 99.0 * 0.5 / 99.5;
        let ln6d = (6.0 / delta).ln();
        let expected_theta_max =
            2.0 * 1000.0 * (ln6d.sqrt() + ((1000.0f64).ln() + ln6d).sqrt()).powi(2)
                / (eps_hat * eps_hat);
        assert_eq!(s.theta_max, expected_theta_max.ceil() as usize);
        assert!((s.eps_hat - eps_hat).abs() < 1e-12);
        let expected_theta0 = expected_theta_max * eps_hat * eps_hat / 1000.0;
        assert_eq!(s.theta0, expected_theta0.ceil() as usize);
        assert!(s.a1 > s.a2);
    }

    #[test]
    fn works_under_lt() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, 0.9).unwrap();
        b.add_edge_p(1, 2, 0.9).unwrap();
        let g = b.build().unwrap();
        let params = TrimParams::with_eps(0.5);
        let residual = ResidualState::new(3);
        let mut scratch = TrimScratch::new(3);
        let mut rng = SmallRng::seed_from_u64(5);
        let out = trim(&g, Model::LT, &residual, 2, &params, &mut scratch, &mut rng).unwrap();
        assert_eq!(out.node, 0, "source of the chain dominates");
    }
}
