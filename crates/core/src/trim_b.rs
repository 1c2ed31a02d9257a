//! TRIM-B — batched truncated influence maximization (Algorithm 3).
//!
//! Selects a size-`b` seed set per round via greedy maximum coverage over
//! mRR sets, with approximation `ρ_b (1 − 1/e)(1 − ε)` where
//! `ρ_b = 1 − (1 − 1/b)^b` (Lemma 4.1). Differences from TRIM (§4.1):
//!
//! * `θ_max` and `θ◦` are generalized with `ρ_b`, `b` and `ln C(n_i, b)`;
//! * Line 10 needs an upper bound on the optimal batch's coverage
//!   `Λ_R(S_b◦)`;
//! * the stopping ratio becomes `ρ_b (1 − ε̂)` (Line 11).
//!
//! # Line 10: OPIM-C's bound
//!
//! The paper bounds `Λ_R(S_b◦)` by `Λ_R(S_b)/ρ_b`. This implementation uses
//! the online bound of OPIM-C (Tang, Tang, Xiao, Yuan, SIGMOD 2018), which
//! the greedy computes as it picks ([`smin_sampling::coverage`]):
//!
//! ```text
//! U = min over the greedy prefixes S_0 … S_b of
//!     min(|R|, Λ_R(S_i) + the sum of the b largest marginals given S_i)
//! ```
//!
//! * `U ≥ Λ_R(S_b◦)` on every sample: `S_b◦` adds at most its `b`
//!   marginals to any `S_i` (submodularity).
//! * `U ≤ Λ_R(S_b)/ρ_b`: the greedy's own `ρ_b` argument runs on these
//!   same prefix terms.
//!
//! Lemma 4.1 needs only an upper bound on `Λ_R(S_b◦)` that holds on the
//! sample, and `Λᵘ` is increasing, so `T`, `a₁`, `a₂`, `θ◦`, `θ_max`,
//! Line 11's threshold and Theorem 4.2's ratio are unchanged. The
//! certificate `Λˡ(S_b)/Λᵘ(U)` is never below the paper's
//! `Λˡ(S_b)/Λᵘ(Λ_R(S_b)/ρ_b)` on the same pool, so every round stops at the
//! paper's doubling or an earlier one.
//!
//! # Abandoned greedy calls
//!
//! Before pick `i + 1`, `Λ_R(S_i)` plus the `b − i` largest marginals,
//! capped at `|R|`, bounds the coverage `c` the call will end with. Since
//! `U ≥ c`, the call's certificate is at most `f(c) = Λˡ(c)/Λᵘ(c)`, and `f`
//! never falls as `c` grows (`certificate`). So once `f` of that bound
//! misses Line 11's threshold the call cannot certify, and unless `T` or
//! `θ_max` ends the round here the loop abandons it and doubles `|R|`.
//! Every output is what running the full greedy every time would give.
//!
//! # Schedule and a shortfall of one
//!
//! A round is TRIM's sampling loop (`trim::certified_round`) with Lines
//! 8–11 as its check. It keeps the paper's doubling between checks (`T`
//! and the `a`s are Line 4's and Line 5's) and Lemma A.2's bounds in Lines
//! 9–10;
//! [`mod@crate::trim`] explains why TRIM checks every ×1.25 and certifies with
//! the binomial tail, and TRIM-B does neither. At `η_i = 1` every mRR set is the whole
//! residual graph, so the greedy's first pick, the smallest alive id,
//! covers every set and it stops there. That one node is an exact optimum
//! for any `b`, since no batch exceeds `Γ = η_i = 1`; TRIM-B returns it
//! without sampling, through TRIM's path (0 sets, 0 checks, certificate 1,
//! estimate 1, one base-seed draw), and the batch is the one the sampled
//! round would select.

use crate::error::AsmError;
use crate::params::TrimParams;
use crate::report::{Round, TrimStats};
use crate::trim::{
    certified_round, round_job, schedule, shortfall_of_one, Schedule, TrimScratch, DOUBLING,
};
use rand::Rng;
use smin_diffusion::{Model, ResidualState};
use smin_graph::Graph;
use smin_sampling::bounds::{coverage_lower_bound, coverage_upper_bound};
use smin_sampling::coverage::rho_b;
use smin_sampling::resolve_threads;

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

/// The stopping certificate of Lines 9–11 for greedy coverage `c` and an
/// upper bound `u` on the optimal batch's coverage: `Λˡ(c)/Λᵘ(u)`, or 0
/// when `Λᵘ(u)` is 0. The round's stopping rule passes Line 10's `u = U`;
/// an abandoned greedy call tests `f(c) = certificate(c, c)`.
///
/// # Monotonicity
///
/// The certificate never falls as `c` grows (`Λˡ` is increasing) and never
/// rises as `u` grows (`Λᵘ` is increasing). Since `U ≤ c/ρ_b`, it is never
/// below the paper's `Λˡ(c)/Λᵘ(c/ρ_b)`.
///
/// `f(c)` never falls as `c` grows either, once positive. Write
/// `s = √(c + 2a₁/9)`, `β = √(a₁/2)`, `t = √(c + a₂/2)` and `ζ = √(a₂/2)`,
/// so that `Λˡ = (s − β)² − a₁/18` (clamped at 0) and `Λᵘ = (t + ζ)²`. For
/// `c ≥ 0`, `Λˡ` is positive only when `s > β + √(a₁/18)`, and there
///
/// ```text
/// d ln Λˡ/dc = (s − β) / (s · Λˡ) ≥ 1 / (s(s − β)),
/// d ln Λᵘ/dc = 1 / (t(t + ζ)).
/// ```
///
/// The first is at least the second: `s(s − β) = c + 2a₁/9 − βs`, and
/// `s > β` there gives `βs > β² = a₁/2 > 2a₁/9`, so
/// `s(s − β) < c ≤ t² ≤ t(t + ζ)`.
/// So `f` is 0 until `Λˡ` turns positive and non-decreasing from there on:
/// once it reaches the target `ρ_b(1 − ε̂) > 0` at some `c`, it reaches it
/// at every larger `c`. With `U ≥ c`, a call whose final coverage is at
/// most `B` ends with a certificate of at most `f(c) ≤ f(B)`.
pub(crate) fn certificate(c: u32, u: u32, sched: &Schedule) -> f64 {
    let lower = coverage_lower_bound(f64::from(c), sched.a1);
    let upper = coverage_upper_bound(f64::from(u), sched.a2);
    if upper > 0.0 {
        lower / upper
    } else {
        0.0
    }
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
) -> Result<Round, AsmError> {
    params.validate()?;
    if b == 0 {
        return Err(AsmError::InvalidBatch(0));
    }
    let n_i = residual.n_alive();
    if n_i == 0 {
        return Err(AsmError::EmptyGraph);
    }
    assert!(eta_i >= 1, "TRIM-B requires a positive shortfall");
    let TrimScratch {
        pool,
        sketch_gen,
        engine,
        stage,
        ..
    } = scratch;
    pool.reset();
    if let Some(round) = shortfall_of_one(residual, eta_i, rng) {
        return Ok(round);
    }
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
        DOUBLING,
    );
    let job = round_job(g, model, residual, eta_i, rng);
    let stop_at = rho * (1.0 - sched.eps_hat);
    // Line 8's greedy runs that made every pick; an abandoned one does not
    // count, and the last check's always completes.
    let mut greedy_calls = 0;
    let ((greedy, certificate), iterations, edges_examined) = certified_round(
        sketch_gen,
        &job,
        &sched,
        resolve_threads(params.threads),
        pool,
        &mut stage.sketch,
        |pool, last| {
            // Line 8: greedy maximum coverage, abandoned as soon as the bound
            // on its final coverage shows it cannot certify (module docs).
            // With b ≤ 8 the greedy scans the pool for each pick's sets and
            // builds no index, so nothing goes stale as the pool grows.
            let greedy = {
                let _span = smin_obs::Span::enter(&mut stage.coverage);
                engine.select_while(pool, b, |bound| {
                    last || certificate(bound, bound, &sched) >= stop_at
                })
            }?;
            greedy_calls += 1;
            // Lines 9–10, with OPIM-C's U as the optimum's coverage bound
            let certificate = certificate(greedy.covered, greedy.upper, &sched);
            (certificate >= stop_at || last).then_some((greedy, certificate))
        },
    );
    Ok(Round {
        sets_generated: pool.len(),
        est_truncated_spread: eta_i as f64 * greedy.covered as f64 / pool.len() as f64,
        stats: TrimStats {
            iterations,
            certificate,
            edges_examined,
            greedy_calls,
            coverage: greedy.covered,
            upper: greedy.upper,
        },
        seeds: greedy.seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::{GraphBuilder, NodeId};
    use smin_sampling::{GreedyCover, RootCountDist, SketchJob};

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

    /// TRIM-B running the full greedy on every iteration and certifying
    /// with `Λˡ(c)/Λᵘ(line10(cover))`: the references of
    /// `pre_check_changes_nothing_but_greedy_calls`.
    #[allow(clippy::too_many_arguments)]
    fn trim_b_greedy_every_iteration(
        g: &Graph,
        model: Model,
        residual: &ResidualState,
        eta_i: usize,
        b: usize,
        params: &TrimParams,
        scratch: &mut TrimScratch,
        rng: &mut impl Rng,
        line10: impl Fn(&GreedyCover, f64) -> f64,
    ) -> Round {
        let n_i = residual.n_alive();
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
            DOUBLING,
        );
        let threads = resolve_threads(params.threads);
        let job = SketchJob {
            graph: g,
            model,
            snapshot: residual.snapshot(),
            eta_i,
            dist: RootCountDist::Randomized,
            base_seed: rng.next_u64(),
        };
        let TrimScratch {
            pool,
            sketch_gen,
            engine,
            ..
        } = scratch;
        pool.reset();
        let mut edges_examined = sketch_gen
            .generate(&job, sched.theta0, threads, pool)
            .edges_examined;
        let mut iterations = 0;
        loop {
            iterations += 1;
            let greedy = engine.select(pool, b);
            let coverage = greedy.covered;
            let lower = coverage_lower_bound(coverage as f64, sched.a1);
            let upper = coverage_upper_bound(line10(&greedy, rho), sched.a2);
            let certificate = if upper > 0.0 { lower / upper } else { 0.0 };
            if certificate >= rho * (1.0 - sched.eps_hat)
                || iterations >= sched.t_max
                || pool.len() >= sched.theta_max
            {
                return Round {
                    seeds: greedy.seeds,
                    sets_generated: pool.len(),
                    est_truncated_spread: eta_i as f64 * coverage as f64 / pool.len() as f64,
                    stats: TrimStats {
                        iterations,
                        certificate,
                        edges_examined,
                        greedy_calls: iterations,
                        coverage,
                        upper: greedy.upper,
                    },
                };
            }
            edges_examined += sketch_gen
                .generate(&job, sched.next(pool.len()), threads, pool)
                .edges_examined;
        }
    }

    /// Every output of the loop that abandons hopeless greedy calls equals
    /// that of the loop running the full greedy every iteration under the
    /// same rule — the certificate bit for bit and the last call's scan
    /// count included — under IC and LT, for b ∈ {2, 4, 8, 16}, uncapped
    /// and with θ caps that end the round at `T` / `θ_max` instead of the
    /// certificate. Against the paper's Line 10 (`Λ_R(S_b)/ρ_b`) on the
    /// same inputs, no round takes more iterations or sets.
    #[test]
    fn pre_check_changes_nothing_but_greedy_calls() {
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 400;
        let mut rng = SmallRng::seed_from_u64(0x7B);
        let pairs = chung_lu_directed(n, 1_600, 2.1, &mut rng).unwrap();
        // Weighted cascade: LT-valid, and every node shares p = 1/indeg.
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let mut residual = ResidualState::new(n);
        for u in (0..n as NodeId).step_by(9) {
            residual.kill(u);
        }
        let n_i = residual.n_alive();
        let (eps, eta) = (0.3, 60);
        let (mut cases, mut skipped, mut forced, mut earlier) = (0, 0, 0, 0);
        for model in [Model::IC, Model::LT] {
            for b in [2usize, 4, 8, 16] {
                let rho = rho_b(b);
                let sched = schedule(n_i, eta, eps, b, rho, ln_binomial(n_i, b), None, DOUBLING);
                // θ◦ gives T = 1, so the first iteration must return; a few
                // doublings past θ◦ end the round at T and θ_max together.
                for cap in [None, Some(sched.theta0), Some(sched.theta0 * 5 + 3)] {
                    let mut params = TrimParams::with_eps(eps);
                    params.theta_cap = cap;
                    for seed in 0..3u64 {
                        let mut fast = TrimScratch::new(n);
                        let mut slow = TrimScratch::new(n);
                        let mut rng = SmallRng::seed_from_u64(seed);
                        let (mut ref_rng, mut paper_rng) = (rng.clone(), rng.clone());
                        let got =
                            trim_b(&g, model, &residual, eta, b, &params, &mut fast, &mut rng)
                                .unwrap();
                        let want = trim_b_greedy_every_iteration(
                            &g,
                            model,
                            &residual,
                            eta,
                            b,
                            &params,
                            &mut slow,
                            &mut ref_rng,
                            |greedy, _| f64::from(greedy.upper),
                        );
                        let case = format!("{model} b={b} cap={cap:?} seed={seed}");
                        assert_eq!(got.seeds, want.seeds, "{case}");
                        assert_eq!(got.stats.coverage, want.stats.coverage, "{case}");
                        assert_eq!(got.stats.upper, want.stats.upper, "{case}");
                        assert_eq!(got.sets_generated, want.sets_generated, "{case}");
                        assert_eq!(got.stats.iterations, want.stats.iterations, "{case}");
                        assert_eq!(
                            got.est_truncated_spread.to_bits(),
                            want.est_truncated_spread.to_bits(),
                            "{case}"
                        );
                        assert_eq!(
                            got.stats.certificate.to_bits(),
                            want.stats.certificate.to_bits(),
                            "{case}"
                        );
                        assert_eq!(
                            got.stats.edges_examined, want.stats.edges_examined,
                            "{case}"
                        );
                        assert_eq!(
                            fast.engine().last_scanned,
                            slow.engine().last_scanned,
                            "{case}"
                        );
                        assert!(
                            (1..=got.stats.iterations).contains(&got.stats.greedy_calls),
                            "{case}: {} greedy calls",
                            got.stats.greedy_calls
                        );
                        if cap == Some(sched.theta0) {
                            assert_eq!(got.stats.iterations, 1, "{case}");
                        }
                        let paper = trim_b_greedy_every_iteration(
                            &g,
                            model,
                            &residual,
                            eta,
                            b,
                            &params,
                            &mut slow,
                            &mut paper_rng,
                            |greedy, rho| f64::from(greedy.covered) / rho,
                        );
                        assert!(got.stats.iterations <= paper.stats.iterations, "{case}");
                        assert!(got.sets_generated <= paper.sets_generated, "{case}");
                        cases += 1;
                        skipped += usize::from(got.stats.greedy_calls < got.stats.iterations);
                        forced += usize::from(got.stats.certificate < rho * (1.0 - sched.eps_hat));
                        earlier += usize::from(got.stats.iterations < paper.stats.iterations);
                    }
                }
            }
        }
        assert!(skipped > 0, "no case abandoned a greedy call");
        assert!(forced > 0, "no case ended at T or θ_max");
        assert!(forced < cases, "no case certified");
        assert!(earlier > 0, "OPIM-C's bound never stopped a round earlier");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The certificate's monotonicity, which abandoned calls and the
        /// stopping rule rely on. With `u` fixed it never falls as `c`
        /// grows; with `c` fixed it never rises as `u` grows; for any
        /// `u ≤ c/ρ_b` it is at least the paper's `Λˡ(c)/Λᵘ(c/ρ_b)`. And in
        /// threshold form for `f(c) = certificate(c, c)`: reaching
        /// `ρ_b(1 − ε̂)` at `c` implies reaching it at every larger `c`.
        #[test]
        fn certificate_stays_certified_as_coverage_grows(
            (c, grow) in (0u32..200_000, 1u32..50_000),
            (a2, extra) in (1e-3f64..80.0, 0.0f64..400.0),
            (b, eps, slack) in (1usize..=64, 1e-3f64..0.999, 0.0f64..1.0),
        ) {
            let sched = Schedule {
                theta_max: 0,
                theta0: 0,
                t_max: 0,
                a1: a2 + extra,
                a2,
                eps_hat: 99.0 * eps / (100.0 - eps),
                growth: DOUBLING,
            };
            let rho = rho_b(b);
            // c ≤ u ≤ c/ρ_b, as for U
            let paper_u = f64::from(c) / rho;
            let widest = paper_u.floor() as u32;
            let u = c + (f64::from(widest - c) * slack) as u32;
            let cert = certificate(c, u, &sched);
            let paper = {
                let upper = coverage_upper_bound(paper_u, sched.a2);
                if upper > 0.0 { coverage_lower_bound(f64::from(c), sched.a1) / upper } else { 0.0 }
            };
            prop_assert!(cert >= paper, "U = {} gives {} < paper {}", u, cert, paper);
            for step in [1, 2, grow, u32::MAX] {
                let bigger = c.saturating_add(step);
                prop_assert!(certificate(bigger, u, &sched) >= cert, "c {} → {}", c, bigger);
                let looser = u.saturating_add(step);
                prop_assert!(certificate(c, looser, &sched) <= cert, "u {} → {}", u, looser);
            }

            let stop_at = rho * (1.0 - sched.eps_hat);
            let certified = |c: u32| certificate(c, c, &sched) >= stop_at;
            // The smallest certified coverage, found by bisection, and its
            // neighbours: the crossing is where rounding could bite.
            let (mut lo, mut hi) = (0u32, u32::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if certified(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let near = lo.saturating_sub(2)..=lo.saturating_add(2);
            let below = (0..=c).step_by(1 + c as usize / 64);
            for c in near.chain(below).chain([c]) {
                if certified(c) {
                    for step in [1, 2, grow, u32::MAX] {
                        let bigger = c.saturating_add(step);
                        prop_assert!(
                            certified(bigger),
                            "certified at {} but not at {} (a1 {}, a2 {}, rho {}, eps_hat {})",
                            c, bigger, sched.a1, sched.a2, rho, sched.eps_hat
                        );
                    }
                }
            }
        }
    }

    /// A late round, at `η_i = 2`, draws about `n_i/2` roots per mRR set,
    /// so every set holds most of the residual graph and the pool keeps it
    /// as a bitmap: beyond its O(n) counts, the pool holds at most
    /// `8⌈n/64⌉ + 16` bytes per set, twice that with Vec's doubling,
    /// where id lists would take 4 bytes per member.
    #[test]
    fn late_rounds_hold_at_most_n_over_8_bytes_per_set() {
        use smin_graph::generators::{assemble, chung_lu_directed};
        use smin_graph::WeightModel;

        let n = 2_000;
        let mut rng = SmallRng::seed_from_u64(0x2B);
        let pairs = chung_lu_directed(n, 8_000, 2.1, &mut rng).unwrap();
        let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
        let residual = ResidualState::new(n);
        for model in [Model::IC, Model::LT] {
            let mut scratch = TrimScratch::new(n);
            let params = TrimParams::with_eps(0.5);
            let out = trim_b(&g, model, &residual, 2, 2, &params, &mut scratch, &mut rng).unwrap();
            let pool = scratch.pool();
            let sets = pool.len();
            assert_eq!(sets, out.sets_generated, "{model}");
            assert!(
                pool.total_size() >= sets * n / 4,
                "{model}: the sets are large"
            );
            let held = pool.heap_bytes() - pool.counts().heap_bytes();
            let bound = 2 * sets * (8 * n.div_ceil(64) + 16);
            assert!(
                held <= bound,
                "{model}: {held} bytes for {sets} sets over {n} nodes, bound {bound}"
            );
        }
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
