//! TRIM — TRuncated Influence Maximization (Algorithm 2).
//!
//! Given the residual graph `G_i` and shortfall `η_i`, TRIM returns a node
//! whose expected marginal truncated spread is a `(1 − 1/e)(1 − ε)`
//! approximation of the best possible (Lemma 3.6), using
//! `O(η_i ln n_i / (ε² OPT_i))` mRR sets in expectation (Lemma 3.9).
//!
//! Lines 6–7's sampling loop is `certified_round`, which TRIM-B, AdaptIM
//! and ATEUC run too; TRIM passes it the argmax and the certificate below,
//! with the sample growing by a factor `g` between checks instead of
//! doubling:
//!
//! ```text
//! 1  δ ← ε/(100(1−1/e)(1−ε)η_i),  ε̂ ← 99ε/(100−ε)
//! 2  θ_max ← 2n_i(√ln(6/δ) + √(ln n_i + ln(6/δ)))² ε̂⁻²
//! 3  θ◦ ← θ_max ε̂²/n_i
//! 4  T ← the number of sizes in the walk θ◦, next(θ◦), …, θ_max, where
//!       next(r) = min(θ_max, max(r + 1, ⌈g·r⌉));
//!       at g = 2 this is the paper's ⌈log₂(θ_max/θ◦)⌉ + 1
//! 5  a₁ ← ln(3T/δ) + ln n_i,  a₂ ← ln(3T/δ)
//! 6  generate θ◦ mRR sets
//! 7  repeat ≤ T times: take v* = argmax Λ_R, compute Λˡ(v*), Λᵘ(v◦)
//!    (Lines 9–10, with the binomial bounds below);
//!    stop when Λˡ/Λᵘ ≥ 1 − ε̂ (or t = T), else grow |R| to next(|R|)
//! ```
//!
//! # Lines 9–10: the binomial tail
//!
//! With `c = Λ_R(v*)` and `r = |R|` at a check,
//!
//! ```text
//! Λˡ(v*) = binomial_lower_bound(c, r, a₁)
//! Λᵘ(v◦) = binomial_upper_bound(c, r, a₂)
//! ```
//!
//! the roots of `r·KL(c/r ‖ μ) = a` times `r`
//! ([`smin_sampling::bounds`]), where the paper takes Lemma A.2's closed
//! forms, which see only `c`. At each check the pool holds a number `r` of
//! sets fixed by the schedule, and each set draws from its own stream
//! `base_seed ^ index`, so a fixed node's count is a sum of `r`
//! independent Bernoullis with a common mean: exactly `Binomial(r, μ)`.
//! For a fixed `r` and a fixed node, each bound then fails with
//! probability at most `e^{−a}`, as Lemma A.2's does for the same `a`.
//! `Λᵘ` is taken of `c ≥ Λ_R(v◦)` (the argmax is exact), which is valid
//! because the upper bound never falls as `c` grows.
//!
//! So Lemma 3.6's union bound is untouched: `a₁`'s `ln n_i` covers every
//! node `v*` might be, `T` covers every check, and `θ_max` keeps its
//! `δ/3`. `T`, `a₁`, `a₂`, `θ◦`, `θ_max`, `δ`, `ε̂`, Line 11's threshold,
//! the ×1.25 walk and the `η_i = 1` path are unchanged, and Theorem 3.7's
//! ratio stands. The binomial bounds dominate Lemma A.2's for every
//! `c ≤ r` (they start from Lemma A.2's value and only tighten), and the
//! certificate rises with `Λˡ` and falls with `Λᵘ`, so on the same set
//! sequence a round stops at the same check as the paper's rule or an
//! earlier one, and Lemma 3.9's bound on the sets stands too.
//!
//! The gain grows with the coverage fraction `c/r`: Lemma A.2 charges the
//! count a variance `rμ` where the binomial has `rμ(1 − μ)`. On
//! `campaign-ic` (first-round fraction ≈ 0.18, and larger in the late
//! rounds, which cost the most per set) the certifying sample shrinks by
//! 28%: 10 617.95 → 7 596.875 sets per campaign. Newton solves each pair
//! of bounds in ~0.6 µs on a 2-vCPU x86-64 VM.
//!
//! TRIM-B, AdaptIM and ATEUC keep Lemma A.2, a constant choice per
//! algorithm:
//!
//! * TRIM-B. Run on the binomial bounds, TRIM-B cut `campaign-lt-b8`'s
//!   `p50_ms` by 20–28% over 3 pairs of runs on a 2-vCPU VM, but its
//!   `seeds_per_campaign` read 47.55 → 48.45. On the smoke figure grid,
//!   ASTI-8 on LT moved +0.21 seeds (SE 0.09) pooled over figure seeds 1
//!   and 7, and single cells read +2.8 SE (ASTI-4, IC) and +2.6 SE
//!   (ASTI-8, LT). A batch picked greedily from a smaller pool costs
//!   seeds, and that trade needs a quality judge before it is taken;
//! * AdaptIM and ATEUC are the paper's published baselines, and the
//!   figures compare against them as published.
//!
//! # Why `T` counts checks
//!
//! Lemma 3.6 bounds the failure probability by a union bound: at each of
//! the `T` checks, `Λˡ` and `Λᵘ` each fail with probability at most
//! `δ/(3T)` (that is what Line 5's `a₁` and `a₂` buy), and `θ_max` sets
//! fail with probability at most `δ/3`. The bound holds at any sample size
//! fixed before sampling starts, so it does not care how far apart the
//! checks are, only how many there are. The walk is deterministic given
//! `θ◦` and `θ_max`, and `T` counts every size on it, so the union covers
//! every check a round can make. `θ◦`, `θ_max`, `δ`, `ε̂`, Line 7's
//! threshold and Theorem 3.7's ratio are unchanged; only `a₁` and `a₂`
//! grow, by `ln` of the ratio of the two `T`s. Each set's RNG stream is
//! `base_seed ^ index`, so every schedule builds a prefix of the same set
//! sequence: `g` decides only where the certificate is checked.
//!
//! TRIM checks at `g = 1.25` (`TRIM_GROWTH`). A check is one argmax over
//! the touched nodes, far cheaper than the sets it saves: a round stops at
//! most 1.25× past the sample its certificate needed, instead of 2×. On
//! `campaign-ic`'s first round (θ◦ = 143, θ_max = 8 722 416) `T` goes
//! 17 → 51, `a₁` 25.03 → 26.13 and `a₂` 15.40 → 16.50.
//!
//! TRIM-B and AdaptIM keep doubling (`DOUBLING`):
//!
//! * a TRIM-B check is a greedy call. A prototype with TRIM-B at
//!   `g = 1.25` on `campaign-lt-b8` drew 8 397.6 sets per campaign instead
//!   of 9 602.7, but its coverage time rose 5.8 → 8.6 ms, and untraced runs
//!   read `p50_ms` +4–7% and `setup_s` +21–33%. A pair of runs with
//!   identical selections on both sides read +12.8%, so the comparison is
//!   unresolved and doubling stays;
//! * AdaptIM is the paper's published baseline, and Figs. 4–7 compare
//!   against it as published.
//!
//! # A shortfall of one
//!
//! At `η_i = 1`, [`smin_sampling::sample_root_count`] gives `k = n_i` for
//! every [`RootCountDist`], so every mRR set is the whole residual graph
//! and every alive node covers every set. The
//! argmax's tie-break then returns the smallest alive id, and so does
//! TRIM-B's greedy, which stops after that pick because nothing is left
//! uncovered. That node is an exact optimum: `Γ(v) = min(I(v), 1) = 1` for
//! every alive `v`. So both return it without sampling
//! (`shortfall_of_one`): the round reports 0 sets, 0 checks, certificate
//! 1 and estimate 1, and still draws its base seed, so the caller's RNG
//! advances as before and the selection is bit-identical to the sampled
//! one.

use crate::error::AsmError;
use crate::params::TrimParams;
use crate::report::{Round, TrimStats};
use rand::Rng;
use smin_diffusion::{Model, ResidualState};
use smin_graph::Graph;
use smin_sampling::bounds::{binomial_lower_bound, binomial_upper_bound};
use smin_sampling::{
    resolve_threads, CoverageEngine, RootCountDist, SketchCounts, SketchGenPool, SketchJob,
    SketchPool, SketchSink,
};

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

/// Reusable cross-round scratch of TRIM, TRIM-B and AdaptIM: what each
/// algorithm grows from its sets, the sketch-generation pool every set is
/// drawn through, and the coverage engine behind TRIM-B's greedy selection.
///
/// Each algorithm grows the type that holds what it reads. TRIM and AdaptIM
/// read only `argmax Λ_R` and `|R|`, so they grow the [`SketchCounts`]
/// alone: their rounds hold O(n) bytes whatever `θ` is, and never touch the
/// pool. TRIM-B's greedy reads each set's members, so it grows the
/// [`SketchPool`].
pub struct TrimScratch {
    pub(crate) counts: SketchCounts,
    pub(crate) pool: SketchPool,
    pub(crate) sketch_gen: SketchGenPool,
    pub(crate) engine: CoverageEngine,
    pub(crate) stage: StageMicros,
}

impl TrimScratch {
    /// Scratch for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        TrimScratch {
            counts: SketchCounts::new(n),
            pool: SketchPool::new(n),
            sketch_gen: SketchGenPool::new(n),
            engine: CoverageEngine::new(),
            stage: StageMicros::default(),
        }
    }

    /// TRIM's or AdaptIM's coverage counts as of its last round.
    pub fn counts(&self) -> &SketchCounts {
        &self.counts
    }

    /// TRIM-B's sketch pool as of its last round (tests inspect it to pin
    /// the cross-thread determinism contract). TRIM and AdaptIM leave it as
    /// they found it.
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

/// TRIM's sample growth between certificate checks (module docs).
pub(crate) const TRIM_GROWTH: f64 = 1.25;

/// The paper's growth between checks, kept by TRIM-B and AdaptIM (module
/// docs).
pub(crate) const DOUBLING: f64 = 2.0;

/// Sketch-generation threads of the baselines, AdaptIM and ATEUC. They draw
/// their sets through the same [`SketchGenPool`] as TRIM, with their own
/// per-set streams, on one thread: their parameters carry no thread count.
pub(crate) const BASELINE_THREADS: usize = 1;

/// Lines 1–5's schedule of TRIM, TRIM-B and AdaptIM, and the walk of
/// ATEUC's doublings.
pub(crate) struct Schedule {
    pub theta_max: usize,
    pub theta0: usize,
    pub t_max: usize,
    pub a1: f64,
    pub a2: f64,
    pub eps_hat: f64,
    pub growth: f64,
}

impl Schedule {
    /// Line 7's step: the pool size at the check after one at `len` sets.
    pub fn next(&self, len: usize) -> usize {
        grow(len, self.growth, self.theta_max)
    }
}

/// `min(θ_max, max(len + 1, ⌈g·len⌉))`.
fn grow(len: usize, growth: f64, theta_max: usize) -> usize {
    let grown = (growth * len as f64).ceil() as usize;
    grown.max(len + 1).min(theta_max)
}

pub(crate) fn one_minus_inv_e() -> f64 {
    1.0 - 1.0 / std::f64::consts::E
}

/// Lines 1–5 of Algorithm 2 (with `ln_choose = ln n_i`, `b = 1`, `ρ_b = 1`)
/// and of Algorithm 3 (general values), for checks every ×`growth`. `T` is
/// counted by walking [`Schedule::next`] from `θ◦` to `θ_max`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule(
    n_i: usize,
    eta_i: usize,
    eps: f64,
    b: usize,
    rho_b: f64,
    ln_choose: f64,
    theta_cap: Option<usize>,
    growth: f64,
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
    let (mut t_max, mut len) = (1, theta0);
    while len < theta_max {
        len = grow(len, growth, theta_max);
        t_max += 1;
    }
    let ln_3t_delta = (3.0 * t_max as f64 / delta).ln();
    Schedule {
        theta_max,
        theta0,
        t_max,
        a1: ln_3t_delta + ln_choose,
        a2: ln_3t_delta,
        eps_hat,
        growth,
    }
}

/// The `η_i = 1` round of TRIM and TRIM-B (module docs): draws the round's
/// base seed, as a sampled round would, and returns the smallest alive id,
/// which is an exact optimum. `None` when `η_i > 1`.
pub(crate) fn shortfall_of_one(
    residual: &ResidualState,
    eta_i: usize,
    rng: &mut impl Rng,
) -> Option<Round> {
    if eta_i != 1 {
        return None;
    }
    rng.next_u64();
    let node = residual.alive_nodes().iter().copied().min()?;
    Some(Round {
        seeds: vec![node],
        sets_generated: 0,
        est_truncated_spread: 1.0,
        stats: TrimStats {
            certificate: 1.0,
            ..TrimStats::default()
        },
    })
}

/// A round's sketch job on the residual graph at shortfall `eta_i`, with
/// the round's one draw from the caller's `rng`: its base seed.
pub(crate) fn round_job<'a>(
    g: &'a Graph,
    model: Model,
    residual: &'a ResidualState,
    eta_i: usize,
    rng: &mut impl Rng,
) -> SketchJob<'a> {
    SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i,
        dist: RootCountDist::Randomized,
        base_seed: rng.next_u64(),
    }
}

/// Lines 6–7 of Algorithms 2 and 3, the one sampling loop of TRIM, TRIM-B,
/// AdaptIM and ATEUC. Draws `θ◦` sets into `sink`, then, at each size of
/// the walk `θ◦`, `next(θ◦)`, …, calls `check(sink, last)` until it returns
/// the round's value. `last` is true at the `T`-th check or at `θ_max`
/// sets, and there `check` must return. Sampling time goes to
/// `sketch_micros`. Returns the value, the checks made and the edges
/// examined.
pub(crate) fn certified_round<S: SketchSink, R>(
    sketch_gen: &mut SketchGenPool,
    job: &SketchJob<'_>,
    sched: &Schedule,
    threads: usize,
    sink: &mut S,
    sketch_micros: &mut u64,
    mut check: impl FnMut(&S, bool) -> Option<R>,
) -> (R, usize, usize) {
    let (mut checks, mut edges) = (0, 0);
    let mut target = sched.theta0;
    loop {
        {
            let _span = smin_obs::Span::enter(sketch_micros);
            edges += sketch_gen
                .generate(job, target, threads, sink)
                .edges_examined;
        }
        checks += 1;
        let last = checks >= sched.t_max || sink.len() >= sched.theta_max;
        if let Some(value) = check(sink, last) {
            return (value, checks, edges);
        }
        assert!(!last, "a check must return at T checks or θ_max sets");
        target = sched.next(sink.len());
    }
}

/// The argmax round of TRIM and AdaptIM on the scratch's counts, which the
/// caller has reset: [`certified_round`] with Lines 7–11's check, which
/// takes `v* = argmax Λ_R` and stops once `certificate(Λ_R(v*), |R|)`
/// reaches `1 − ε̂`. The estimate's scale is the job's `η_i`.
pub(crate) fn argmax_round(
    scratch: &mut TrimScratch,
    job: &SketchJob<'_>,
    sched: &Schedule,
    threads: usize,
    certificate: fn(u32, usize, &Schedule) -> f64,
) -> Round {
    let TrimScratch {
        counts,
        sketch_gen,
        stage,
        ..
    } = scratch;
    let ((node, coverage, certificate), iterations, edges_examined) = certified_round(
        sketch_gen,
        job,
        sched,
        threads,
        counts,
        &mut stage.sketch,
        |counts, last| {
            let (node, coverage) = {
                let _span = smin_obs::Span::enter(&mut stage.coverage);
                counts
                    .argmax()
                    .expect("sets are non-empty: roots are alive")
            };
            let certificate = certificate(coverage, counts.len(), sched);
            (certificate >= 1.0 - sched.eps_hat || last).then_some((node, coverage, certificate))
        },
    );
    Round {
        seeds: vec![node],
        sets_generated: counts.len(),
        est_truncated_spread: job.eta_i as f64 * coverage as f64 / counts.len() as f64,
        stats: TrimStats {
            iterations,
            certificate,
            edges_examined,
            greedy_calls: 0,
            coverage,
            upper: coverage,
        },
    }
}

/// Lines 9–11's certificate `Λˡ(v*)/Λᵘ(v◦)` for the argmax's coverage `c`
/// on a pool of `r` sets, with the binomial bounds (module docs); 0 when
/// `Λᵘ` is 0.
fn certificate(c: u32, r: usize, sched: &Schedule) -> f64 {
    let (c, r) = (f64::from(c), r as f64);
    let lower = binomial_lower_bound(c, r, sched.a1);
    let upper = binomial_upper_bound(c, r, sched.a2);
    if upper > 0.0 {
        lower / upper
    } else {
        0.0
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
) -> Result<Round, AsmError> {
    trim_certified_by(g, model, residual, eta_i, params, scratch, rng, certificate)
}

/// [`trim`] with Lines 9–10's certificate passed in: the tests run the
/// same loop with Lemma A.2's bounds.
#[allow(clippy::too_many_arguments)]
fn trim_certified_by(
    g: &Graph,
    model: Model,
    residual: &ResidualState,
    eta_i: usize,
    params: &TrimParams,
    scratch: &mut TrimScratch,
    rng: &mut impl Rng,
    certificate: fn(u32, usize, &Schedule) -> f64,
) -> Result<Round, AsmError> {
    params.validate()?;
    let n_i = residual.n_alive();
    if n_i == 0 {
        return Err(AsmError::EmptyGraph);
    }
    assert!(eta_i >= 1, "TRIM requires a positive shortfall");
    scratch.counts.reset();
    if let Some(round) = shortfall_of_one(residual, eta_i, rng) {
        return Ok(round);
    }
    let sched = schedule(
        n_i,
        eta_i,
        params.eps,
        1,
        1.0,
        (n_i as f64).ln(),
        params.theta_cap,
        TRIM_GROWTH,
    );
    let job = round_job(g, model, residual, eta_i, rng);
    let threads = resolve_threads(params.threads);
    Ok(argmax_round(scratch, &job, &sched, threads, certificate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trim_b::ln_binomial;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use smin_graph::{GraphBuilder, NodeId};
    use smin_sampling::coverage::rho_b;

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
            assert_ne!(
                out.seeds[0], 3,
                "seed {seed}: TRIM fell into the vanilla trap"
            );
            assert!(
                out.seeds[0] == 0 || out.seeds[0] == 4,
                "seed {seed}: picked {} which is not a truncated optimum",
                out.seeds[0]
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
                exact[out.seeds[0] as usize] >= guarantee,
                "seed {seed}: Δ({}) = {} below guarantee {guarantee}",
                out.seeds[0],
                exact[out.seeds[0] as usize]
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
            out.stats.certificate >= 1.0 - eps_hat || out.sets_generated >= 1,
            "certificate {} too weak",
            out.stats.certificate
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
            assert!(out.seeds[0] == 0 || out.seeds[0] == 3);
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

    /// Lines 1–5 at the paper's doubling, and at TRIM's ×1.25 with `a₁`
    /// and `a₂` taken from the counted `T`. Only `T` and the `a`s differ.
    #[test]
    fn schedule_matches_paper_formulas() {
        let ln_n = (1000.0f64).ln();
        let delta = 0.5 / (100.0 * one_minus_inv_e() * 0.5 * 100.0);
        let eps_hat = 99.0 * 0.5 / 99.5;
        let ln6d = (6.0 / delta).ln();
        let expected_theta_max =
            2.0 * 1000.0 * (ln6d.sqrt() + (ln_n + ln6d).sqrt()).powi(2) / (eps_hat * eps_hat);
        let expected_theta0 = expected_theta_max * eps_hat * eps_hat / 1000.0;
        let (theta_max, theta0) = (
            expected_theta_max.ceil() as usize,
            expected_theta0.ceil() as usize,
        );
        let paper_t = (theta_max as f64 / theta0 as f64).log2().ceil() as usize + 1;
        // Walking ⌈1.25·r⌉ (or r + 1) from θ◦ until it reaches θ_max.
        let mut trim_t = 1;
        let mut r = theta0;
        while r < theta_max {
            r = (r + r.div_ceil(4)).max(r + 1).min(theta_max);
            trim_t += 1;
        }
        assert!(
            trim_t > paper_t,
            "{trim_t} checks at ×1.25, {paper_t} at ×2"
        );
        for (growth, t) in [(DOUBLING, paper_t), (TRIM_GROWTH, trim_t)] {
            let s = schedule(1000, 100, 0.5, 1, 1.0, ln_n, None, growth);
            assert_eq!(s.theta_max, theta_max);
            assert!((s.eps_hat - eps_hat).abs() < 1e-12);
            assert_eq!(s.theta0, theta0);
            assert_eq!(s.t_max, t, "g = {growth}");
            let a2 = (3.0 * t as f64 / delta).ln();
            assert!((s.a2 - a2).abs() < 1e-12, "g = {growth}");
            assert!((s.a1 - (a2 + ln_n)).abs() < 1e-12, "g = {growth}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// `T` is the number of checks Line 7 can make: walking `next` from
        /// θ◦ reaches θ_max in exactly `T − 1` steps, each step grows by at
        /// least ×g and by at least one set unless θ_max caps it, and at
        /// g = 2 `T` is Line 4's ⌈log₂(θ_max/θ◦)⌉ + 1 with Line 5's `a`s,
        /// so TRIM-B's and AdaptIM's schedules are the paper's.
        #[test]
        fn schedule_walk_makes_exactly_t_checks(
            (n_i, eta_pick, eps) in (1usize..2_000_000, 0.0f64..1.0, 1e-3f64..0.999),
            (b, cap_pick, capped, fast) in (1usize..=8, 0.0f64..1.0, 0u8..2, 0u8..2),
        ) {
            let eta_i = 1 + (eta_pick * (n_i - 1) as f64) as usize;
            let b = b.min(n_i);
            let (rho, ln_choose) = (rho_b(b), ln_binomial(n_i, b));
            let growth = if fast == 1 { TRIM_GROWTH } else { DOUBLING };
            let uncapped = schedule(n_i, eta_i, eps, b, rho, ln_choose, None, growth);
            // A cap anywhere from 1 to θ_max, below θ◦ included.
            let cap = (capped == 1).then(|| 1 + (cap_pick * uncapped.theta_max as f64) as usize);
            let s = schedule(n_i, eta_i, eps, b, rho, ln_choose, cap, growth);
            prop_assert!(1 <= s.theta0 && s.theta0 <= s.theta_max, "θ◦ {} θ_max {}", s.theta0, s.theta_max);

            let (mut len, mut steps) = (s.theta0, 0);
            while len < s.theta_max {
                let next = s.next(len);
                let grown = next as f64 >= growth * len as f64 && next > len;
                prop_assert!(grown || next == s.theta_max, "{} → {} at g = {}", len, next, growth);
                prop_assert!(next > len && next <= s.theta_max, "{} → {}", len, next);
                len = next;
                steps += 1;
            }
            prop_assert_eq!(steps + 1, s.t_max);

            if growth == DOUBLING {
                let paper_t = (s.theta_max as f64 / s.theta0 as f64).log2().ceil() as usize + 1;
                prop_assert_eq!(s.t_max, paper_t);
                let delta = eps / (100.0 * one_minus_inv_e() * (1.0 - eps) * eta_i as f64);
                let a2 = (3.0 * paper_t as f64 / delta).ln();
                prop_assert_eq!(s.a2.to_bits(), a2.to_bits());
                prop_assert_eq!(s.a1.to_bits(), (a2 + ln_choose).to_bits());
            }
        }
    }

    /// At `η_i = 1` TRIM and TRIM-B answer without sampling, and their
    /// answer is the one the sampled round gives: on a pool of θ◦ sets
    /// drawn at `η_i = 1`, every set is the alive set, and the argmax and
    /// the greedy both pick the returned node. The caller's RNG advances
    /// by exactly the base-seed draw.
    #[test]
    fn shortfall_of_one_matches_the_sampled_round() {
        use crate::trim_b::trim_b;
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 400;
        let mut rng = SmallRng::seed_from_u64(0x51);
        let pairs = chung_lu_directed(n, 1_600, 2.1, &mut rng).unwrap();
        // Weighted cascade: LT-valid.
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let mut residual = ResidualState::new(n);
        // Kill the smallest ids too, so the answer is not node 0.
        for u in (0..n as NodeId).step_by(7).chain([1, 2]) {
            residual.kill(u);
        }
        let n_i = residual.n_alive();
        let mut alive = residual.alive_nodes().to_vec();
        alive.sort_unstable();
        assert_eq!(alive[0], 3);

        let params = TrimParams::with_eps(0.5);
        let mut sketch_gen = SketchGenPool::new(n);
        let mut engine = CoverageEngine::new();
        for model in [Model::IC, Model::LT] {
            for (seed, b) in [(0u64, 1usize), (1, 2), (2, 8)] {
                let case = format!("{model} b={b}");
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut replay = rng.clone();
                let mut scratch = TrimScratch::new(n);
                let (picked, sets, checks) = if b == 1 {
                    let out =
                        trim(&g, model, &residual, 1, &params, &mut scratch, &mut rng).unwrap();
                    assert_eq!(out.stats.certificate, 1.0, "{case}");
                    assert_eq!(out.est_truncated_spread, 1.0, "{case}");
                    (vec![out.seeds[0]], out.sets_generated, out.stats.iterations)
                } else {
                    let out = trim_b(&g, model, &residual, 1, b, &params, &mut scratch, &mut rng)
                        .unwrap();
                    assert_eq!(out.stats.certificate, 1.0, "{case}");
                    assert_eq!(out.est_truncated_spread, 1.0, "{case}");
                    assert_eq!(out.stats.greedy_calls, 0, "{case}");
                    (out.seeds, out.sets_generated, out.stats.iterations)
                };
                assert_eq!((sets, checks), (0, 0), "{case}");
                assert!(scratch.counts().is_empty(), "{case}");
                assert!(scratch.pool().is_empty(), "{case}");

                // The round drew its base seed and nothing else.
                let base_seed = replay.next_u64();
                assert_eq!(rng.next_u64(), replay.next_u64(), "{case}");

                let (rho, ln_choose, growth) = if b == 1 {
                    (1.0, (n_i as f64).ln(), TRIM_GROWTH)
                } else {
                    (rho_b(b), ln_binomial(n_i, b), DOUBLING)
                };
                let sched = schedule(n_i, 1, params.eps, b, rho, ln_choose, None, growth);
                let job = SketchJob {
                    graph: &g,
                    model,
                    snapshot: residual.snapshot(),
                    eta_i: 1,
                    dist: RootCountDist::Randomized,
                    base_seed,
                };
                let mut pool = SketchPool::new(n);
                sketch_gen.generate(&job, sched.theta0, 1, &mut pool);
                assert_eq!(pool.len(), sched.theta0, "{case}");
                for i in 0..pool.len() as u32 {
                    let mut set = pool.set(i).to_vec();
                    set.sort_unstable();
                    assert_eq!(set, alive, "{case}: set {i} is not the alive set");
                }
                let sampled = if b == 1 {
                    vec![pool.argmax().unwrap().0]
                } else {
                    engine.select(&pool, b).seeds
                };
                assert_eq!(picked, sampled, "{case}");
                assert_eq!(picked, vec![3], "{case}");
            }
        }
    }

    /// Lines 9–10 as the paper states them: Lemma A.2's bounds, which see
    /// only the count.
    fn lemma_a2_certificate(c: u32, _r: usize, sched: &Schedule) -> f64 {
        use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
        let lower = coverage_lower_bound(f64::from(c), sched.a1);
        let upper = coverage_upper_bound(f64::from(c), sched.a2);
        if upper > 0.0 {
            lower / upper
        } else {
            0.0
        }
    }

    /// The binomial bounds dominate Lemma A.2's, so on the same set
    /// sequence a round stops at the same check or an earlier one: against
    /// the same loop certifying with Lemma A.2, under IC and LT, uncapped
    /// and with θ caps that end the round at `T` / `θ_max`, TRIM makes no
    /// more checks and draws no more sets, picks the same node whenever it
    /// stops at the same check, and somewhere stops strictly earlier.
    #[test]
    fn binomial_certificate_stops_no_later_than_lemma_a2() {
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 400;
        let mut rng = SmallRng::seed_from_u64(0x7B);
        let pairs = chung_lu_directed(n, 1_600, 2.1, &mut rng).unwrap();
        // Weighted cascade: LT-valid.
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let mut residual = ResidualState::new(n);
        for u in (0..n as NodeId).step_by(9) {
            residual.kill(u);
        }
        let n_i = residual.n_alive();
        let (eps, eta) = (0.3, 60);
        let sched = schedule(n_i, eta, eps, 1, 1.0, (n_i as f64).ln(), None, TRIM_GROWTH);
        let (mut cases, mut forced, mut earlier) = (0, 0, 0);
        for model in [Model::IC, Model::LT] {
            // θ◦ gives T = 1, so the first check must return; 5θ◦ + 3 ends
            // the round at T and θ_max together.
            for cap in [None, Some(sched.theta0), Some(sched.theta0 * 5 + 3)] {
                let mut params = TrimParams::with_eps(eps);
                params.theta_cap = cap;
                for seed in 0..3u64 {
                    let case = format!("{model} cap={cap:?} seed={seed}");
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut paper_rng = rng.clone();
                    let mut scratch = TrimScratch::new(n);
                    let got =
                        trim(&g, model, &residual, eta, &params, &mut scratch, &mut rng).unwrap();
                    let paper = trim_certified_by(
                        &g,
                        model,
                        &residual,
                        eta,
                        &params,
                        &mut scratch,
                        &mut paper_rng,
                        lemma_a2_certificate,
                    )
                    .unwrap();
                    assert!(got.stats.iterations <= paper.stats.iterations, "{case}");
                    assert!(got.sets_generated <= paper.sets_generated, "{case}");
                    assert!(
                        got.stats.edges_examined <= paper.stats.edges_examined,
                        "{case}"
                    );
                    if got.stats.iterations == paper.stats.iterations {
                        assert_eq!(got.seeds[0], paper.seeds[0], "{case}");
                        assert_eq!(got.stats.coverage, paper.stats.coverage, "{case}");
                        assert_eq!(got.sets_generated, paper.sets_generated, "{case}");
                        assert!(got.stats.certificate >= paper.stats.certificate, "{case}");
                    }
                    if cap == Some(sched.theta0) {
                        assert_eq!(
                            (got.stats.iterations, paper.stats.iterations),
                            (1, 1),
                            "{case}"
                        );
                    }
                    cases += 1;
                    forced += usize::from(got.stats.certificate < 1.0 - sched.eps_hat);
                    earlier += usize::from(got.stats.iterations < paper.stats.iterations);
                }
            }
        }
        assert!(
            forced > 0 && forced < cases,
            "{forced} of {cases} ended at T or θ_max"
        );
        assert!(
            earlier > 0,
            "the binomial bounds never stopped a round earlier"
        );
    }

    /// A b = 1 round holds O(n) memory whatever θ is. Capped at 10³ and at
    /// 10⁵ sets, a TRIM round and an AdaptIM round each grow only the
    /// scratch's counts, whose heap is the same at both caps and at most 12
    /// bytes per node, and leave the pool at a fresh scratch's heap.
    #[test]
    fn b1_rounds_hold_o_n_memory_whatever_theta() {
        use crate::adapt_im::{select_max_spread, AdaptImParams};
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 400;
        let mut rng = SmallRng::seed_from_u64(0x51);
        let pairs = chung_lu_directed(n, 1_600, 2.1, &mut rng).unwrap();
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let residual = ResidualState::new(n);
        let fresh_pool = TrimScratch::new(n).pool().heap_bytes();
        // At ε = 0.02 neither round certifies before its cap.
        let eps = 0.02;
        let mut counts_bytes = Vec::new();
        for cap in [1_000, 100_000] {
            let mut params = TrimParams::with_eps(eps);
            params.theta_cap = Some(cap);
            let mut scratch = TrimScratch::new(n);
            let mut rng = SmallRng::seed_from_u64(1);
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
            assert_eq!(out.sets_generated, cap);
            assert_eq!(scratch.pool().heap_bytes(), fresh_pool, "TRIM, θ = {cap}");
            let trim_bytes = scratch.counts().heap_bytes();

            let params = AdaptImParams {
                eps,
                theta_cap: Some(cap),
            };
            let mut scratch = TrimScratch::new(n);
            let mut rng = SmallRng::seed_from_u64(2);
            let sets = select_max_spread(&g, Model::IC, &residual, &params, &mut scratch, &mut rng)
                .sets_generated;
            assert_eq!(sets, cap);
            assert_eq!(
                scratch.pool().heap_bytes(),
                fresh_pool,
                "AdaptIM, θ = {cap}"
            );
            counts_bytes.push((trim_bytes, scratch.counts().heap_bytes()));
        }
        assert_eq!(counts_bytes[0], counts_bytes[1], "the counts grew with θ");
        let (trim_bytes, adapt_bytes) = counts_bytes[0];
        assert!(
            trim_bytes.max(adapt_bytes) <= 12 * n,
            "{trim_bytes} and {adapt_bytes} bytes on {n} nodes"
        );
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
        assert_eq!(out.seeds[0], 0, "source of the chain dominates");
    }

    /// The sizes of the walk `θ◦, next(θ◦), …, θ_max`.
    fn walk_sizes(sched: &Schedule) -> Vec<usize> {
        let mut sizes = vec![sched.theta0];
        while sizes[sizes.len() - 1] < sched.theta_max {
            sizes.push(sched.next(sizes[sizes.len() - 1]));
        }
        sizes
    }

    /// Runs [`certified_round`] into fresh counts at `η_i = 20` with a check
    /// that returns at its `stop_at`-th call or when `last`, and returns
    /// each call's `(|R|, last)`. The round's sets and edges must be those
    /// of one draw of as many sets.
    fn calls_of_round(g: &Graph, sched: &Schedule, stop_at: usize) -> Vec<(usize, bool)> {
        let residual = ResidualState::new(g.n());
        let job = round_job(g, Model::IC, &residual, 20, &mut SmallRng::seed_from_u64(9));
        let mut counts = SketchCounts::new(g.n());
        let mut calls = Vec::new();
        let (value, checks, edges) = certified_round(
            &mut SketchGenPool::new(g.n()),
            &job,
            sched,
            1,
            &mut counts,
            &mut 0,
            |counts, last| {
                calls.push((counts.len(), last));
                (last || calls.len() == stop_at).then_some(calls.len())
            },
        );
        assert_eq!((value, checks), (calls.len(), calls.len()));
        let mut once = SketchCounts::new(g.n());
        let drawn = SketchGenPool::new(g.n()).generate(&job, counts.len(), 1, &mut once);
        assert_eq!((counts, edges), (once, drawn.edges_examined));
        calls
    }

    /// With a check that never certifies, [`certified_round`] calls it
    /// exactly `T` times, or fewer when `θ_max` comes first; `last` is true
    /// on the final call only; and `|R|` at each call follows the walk. So
    /// at ×1.25 and ×2, uncapped and with `theta_cap` at θ◦ and mid-walk.
    /// A check that returns at call k stops the round there.
    #[test]
    fn certified_round_checks_at_each_size_of_the_walk() {
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 200;
        let mut rng = SmallRng::seed_from_u64(0x3C);
        let pairs = chung_lu_directed(n, 800, 2.1, &mut rng).unwrap();
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let ln_n = (n as f64).ln();
        let walked = |sizes: &[usize]| -> Vec<(usize, bool)> {
            let last = sizes.len() - 1;
            sizes
                .iter()
                .enumerate()
                .map(|(k, &r)| (r, k == last))
                .collect()
        };
        for growth in [TRIM_GROWTH, DOUBLING] {
            let uncapped = schedule(n, 20, 0.9, 1, 1.0, ln_n, None, growth);
            let mid = walk_sizes(&uncapped)[uncapped.t_max / 2] + 1;
            for cap in [None, Some(uncapped.theta0), Some(mid)] {
                let case = format!("g = {growth}, cap = {cap:?}");
                let sched = schedule(n, 20, 0.9, 1, 1.0, ln_n, cap, growth);
                let sizes = walk_sizes(&sched);
                assert_eq!(sizes.len(), sched.t_max, "{case}");
                assert_eq!(
                    calls_of_round(&g, &sched, usize::MAX),
                    walked(&sizes),
                    "{case}"
                );
                for k in [1, 2, sched.t_max / 2]
                    .into_iter()
                    .filter(|&k| 0 < k && k < sched.t_max)
                {
                    let mut want = walked(&sizes[..k]);
                    want[k - 1].1 = false;
                    assert_eq!(calls_of_round(&g, &sched, k), want, "{case}, stop at {k}");
                }
            }
            // A `T` past the walk: θ_max ends the round first.
            let long = Schedule {
                t_max: uncapped.t_max + 3,
                ..schedule(n, 20, 0.9, 1, 1.0, ln_n, Some(mid), growth)
            };
            let sizes = walk_sizes(&long);
            assert!(sizes.len() < long.t_max);
            assert_eq!(calls_of_round(&g, &long, usize::MAX), walked(&sizes));
            // A `T` of 2: the second check is the last, below θ_max.
            let short = Schedule {
                t_max: 2,
                ..schedule(n, 20, 0.9, 1, 1.0, ln_n, None, growth)
            };
            assert_eq!(
                calls_of_round(&g, &short, usize::MAX),
                walked(&walk_sizes(&short)[..2])
            );
        }
    }
}
