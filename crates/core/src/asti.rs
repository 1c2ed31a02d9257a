//! ASTI — Adaptive Seed minimization with Truncated Influence (Algorithm 1).
//!
//! The driver loop (`drive`, which AdaptIM and the exact greedy run too):
//! each round select the (approximately) best node — or size-`b` batch — by
//! expected marginal *truncated* spread on the residual graph, observe its
//! actual influence through the oracle, remove the newly activated nodes,
//! and repeat until `η` nodes are active.
//!
//! Instantiated with TRIM (batch 1) this is the paper's headline algorithm:
//! expected approximation `(ln η + 1)²/((1 − 1/e)(1 − ε))` (Theorem 3.7) in
//! `O(η(m + n)/ε² · ln n)` expected time (Theorem 3.11). With `b > 1`
//! (TRIM-B) the ratio gains a `1/ρ_b` factor (Theorem 4.2) at the same
//! asymptotic cost (Theorem 4.4).

use crate::error::AsmError;
use crate::params::AstiParams;
use crate::report::{AstiReport, Round, RoundReport};
use crate::trim::{trim, TrimScratch};
use crate::trim_b::trim_b;
use rand::Rng;
use smin_diffusion::{InfluenceOracle, Model, ResidualState};
use smin_graph::cast::u32_of;
use smin_graph::Graph;
use std::time::Instant;

/// Reusable cross-run state for [`asti_in`]: the residual alive-mask plus
/// the full [`TrimScratch`] (TRIM's coverage counts, TRIM-B's sketch pool,
/// sketch-generation workers, and coverage engine).
///
/// A long-running service keeps one session per cached graph and recycles it
/// across requests: the counts, the sketch pool, worker buffers, and
/// coverage engine (its transpose buffers included, once a run past 8 picks
/// built them) retain the capacity learned on earlier runs, so a warm
/// request performs no cold allocations. Reuse never
/// changes results — every run resets the logical state
/// ([`ResidualState::reset`], `SketchCounts::reset`, `SketchPool::reset`)
/// before touching it, so
/// `asti_in` on a recycled session is bit-identical to [`asti`] on a fresh
/// one (pinned by tests).
pub struct AstiSession {
    n: usize,
    scratch: TrimScratch,
    residual: ResidualState,
}

impl AstiSession {
    /// A cold session for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        AstiSession {
            n,
            scratch: TrimScratch::new(n),
            residual: ResidualState::new(n),
        }
    }

    /// Node count the session was sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap bytes currently retained by the session's coverage counts,
    /// sketch pool and coverage engine (whose transpose buffers hold the
    /// inverted index of runs past 8 picks) — observability for services
    /// reporting per-graph warm-state size.
    ///
    /// TRIM (b = 1) grows only the counts, which hold O(n) bytes whatever
    /// `|R|` is, so a session that ran only b = 1 reads O(n) here: the
    /// counts plus the empty pool's per-node column. TRIM-B (b > 1) grows
    /// the pool, whose member columns grow with `|R|` by at most about
    /// `n/8` bytes per set (a set larger than that is kept as a bitmap).
    pub fn pool_heap_bytes(&self) -> usize {
        self.scratch.counts().heap_bytes()
            + self.scratch.pool().heap_bytes()
            + self.scratch.engine().heap_bytes()
    }

    /// Per-stage select timings (sketch generation vs coverage selection)
    /// accumulated by the most recent [`asti_in`] run on this session.
    /// Observability only — headers, `/metrics`, trace logs — never bodies.
    pub fn stage_micros(&self) -> crate::trim::StageMicros {
        self.scratch.stage_micros()
    }
}

/// Runs ASTI until at least `eta` nodes are active according to `oracle`.
///
/// The oracle may arrive with activations already observed (warm start);
/// those nodes are excluded from the residual graph and count toward `eta`.
///
/// # Errors
/// * [`AsmError::EtaOutOfRange`] unless `1 ≤ eta ≤ n`;
/// * [`AsmError::InvalidEps`] / [`AsmError::InvalidBatch`] for bad params;
/// * [`AsmError::InvalidLtInstance`] if `model` is LT but some node's
///   incoming probabilities exceed 1.
pub fn asti(
    g: &Graph,
    model: Model,
    eta: usize,
    params: &AstiParams,
    oracle: &mut impl InfluenceOracle,
    rng: &mut impl Rng,
) -> Result<AstiReport, AsmError> {
    let mut session = AstiSession::new(g.n());
    asti_in(g, model, eta, params, oracle, rng, &mut session)
}

/// [`asti`] on a caller-owned [`AstiSession`], recycling the session's
/// coverage counts, sketch pool, coverage engine and worker scratch instead
/// of reallocating.
/// Selections are identical whether the session is cold or warm.
///
/// Additional error: [`AsmError::SessionMismatch`] when the session was
/// sized for a different node count than `g`.
pub fn asti_in(
    g: &Graph,
    model: Model,
    eta: usize,
    params: &AstiParams,
    oracle: &mut impl InfluenceOracle,
    rng: &mut impl Rng,
    session: &mut AstiSession,
) -> Result<AstiReport, AsmError> {
    params.validate()?;
    if session.n != g.n() {
        return Err(AsmError::SessionMismatch {
            session_n: session.n,
            graph_n: g.n(),
        });
    }
    let AstiSession {
        residual, scratch, ..
    } = session;
    scratch.reset_stage_micros();
    // Line 3: (approximate) truncated-influence maximization.
    drive(g, model, eta, oracle, residual, true, |residual, eta_i| {
        let trim_params = &params.trim;
        match params.batch {
            1 => trim(g, model, residual, eta_i, trim_params, scratch, rng),
            b => trim_b(g, model, residual, eta_i, b, trim_params, scratch, rng),
        }
    })
}

/// The checks every algorithm makes of its instance: a non-empty graph,
/// `1 ≤ η ≤ n`, and under LT no node whose incoming probabilities sum
/// above 1.
pub(crate) fn check_instance(g: &Graph, model: Model, eta: usize) -> Result<(), AsmError> {
    let n = g.n();
    if n == 0 {
        return Err(AsmError::EmptyGraph);
    }
    if eta == 0 || eta > n {
        return Err(AsmError::EtaOutOfRange { eta, n });
    }
    if model == Model::LT {
        if let Some((node, mass)) = g.lt_overload() {
            return Err(AsmError::InvalidLtInstance { node, mass });
        }
    }
    Ok(())
}

/// Algorithm 1's loop, the one adaptive driver of ASTI, AdaptIM and the
/// exact greedy. After
/// [`check_instance`], it kills the nodes the oracle already reports
/// active, then, until `η` nodes are active or none is alive, selects on
/// the residual graph (`select(residual, η_i)`, timed), observes, kills the
/// newly active nodes and the seeds, and records the round; `trim_stats`
/// says whether the rows keep the rounds' [`TrimStats`](crate::TrimStats).
pub(crate) fn drive(
    g: &Graph,
    model: Model,
    eta: usize,
    oracle: &mut impl InfluenceOracle,
    residual: &mut ResidualState,
    trim_stats: bool,
    mut select: impl FnMut(&ResidualState, usize) -> Result<Round, AsmError>,
) -> Result<AstiReport, AsmError> {
    check_instance(g, model, eta)?;
    residual.reset();
    for (u, &active) in oracle.active_mask().iter().enumerate() {
        if active {
            residual.kill(u32_of(u));
        }
    }
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
        let started = Instant::now();
        let round = select(residual, eta_i)?;
        let select_time = started.elapsed();

        // Lines 4–7: observe, record, shrink the residual graph. The seeds
        // themselves are killed unconditionally: a well-behaved oracle
        // reports them among the newly activated, but guarding here makes
        // termination unconditional even against a misbehaving oracle (each
        // round strictly shrinks the residual graph).
        let newly = oracle.observe(&round.seeds);
        residual.kill_all(&newly);
        residual.kill_all(&round.seeds);

        report.seeds.extend_from_slice(&round.seeds);
        report.total_select_time += select_time;
        report.total_sets += round.sets_generated;
        report.rounds.push(RoundReport {
            seeds: round.seeds,
            newly_activated: newly.len(),
            eta_i,
            n_alive,
            sets_generated: round.sets_generated,
            est_truncated_spread: round.est_truncated_spread,
            select_time,
            trim: trim_stats.then_some(round.stats),
        });
    }

    report.total_activated = oracle.num_active();
    report.reached = report.total_activated >= eta;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Realization, RealizationOracle, SimulationOracle};
    use smin_graph::GraphBuilder;

    fn chain(n: usize, p: f64) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..(n - 1) as u32 {
            b.add_edge_p(u, u + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn reaches_threshold_on_deterministic_chain() {
        // p = 1 chain: seeding node 0 activates everything in one round.
        let g = chain(10, 1.0);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let report = asti(&g, Model::IC, 10, &params, &mut oracle, &mut rng).unwrap();
        assert!(report.reached);
        assert_eq!(report.total_activated, 10);
        assert_eq!(report.num_seeds(), 1);
        assert_eq!(report.seeds, vec![0]);
    }

    #[test]
    fn stops_as_soon_as_threshold_met() {
        let g = chain(10, 1.0);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let report = asti(&g, Model::IC, 3, &params, &mut oracle, &mut rng).unwrap();
        assert!(report.reached);
        assert_eq!(report.num_rounds(), 1);
        assert!(report.total_activated >= 3);
    }

    #[test]
    fn isolated_nodes_need_one_seed_each() {
        // No edges: every seed activates exactly itself.
        let g = GraphBuilder::new(5).build().unwrap();
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(3);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let report = asti(&g, Model::IC, 4, &params, &mut oracle, &mut rng).unwrap();
        assert!(report.reached);
        assert_eq!(report.num_seeds(), 4);
        assert_eq!(report.total_activated, 4);
    }

    #[test]
    fn always_feasible_on_every_realization() {
        // Random graph, every realization: the adaptive policy must reach η
        // exactly (the defining advantage over non-adaptive ATEUC).
        let mut rng = SmallRng::seed_from_u64(4);
        let pairs = smin_graph::generators::erdos_renyi(40, 80, &mut rng);
        let g = smin_graph::generators::assemble(
            40,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let params = AstiParams::with_eps(0.5);
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = asti(&g, Model::IC, 20, &params, &mut oracle, &mut rng).unwrap();
            assert!(report.reached, "seed {seed} failed to reach η");
            assert!(report.total_activated >= 20);
        }
    }

    #[test]
    fn batched_runs_use_fewer_rounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        let pairs = smin_graph::generators::erdos_renyi(60, 120, &mut rng);
        let g = smin_graph::generators::assemble(
            60,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let eta = 30;
        let mut seeds1 = 0usize;
        let mut rounds4 = Vec::new();
        let mut rounds1 = Vec::new();
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(100 + seed);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut o1 = RealizationOracle::new(&g, phi.clone());
            let r1 = asti(
                &g,
                Model::IC,
                eta,
                &AstiParams::with_eps(0.5),
                &mut o1,
                &mut rng,
            )
            .unwrap();
            let mut o4 = RealizationOracle::new(&g, phi);
            let r4 = asti(
                &g,
                Model::IC,
                eta,
                &AstiParams::batched(0.5, 4),
                &mut o4,
                &mut rng,
            )
            .unwrap();
            assert!(r1.reached && r4.reached);
            seeds1 += r1.num_seeds();
            rounds1.push(r1.num_rounds());
            rounds4.push(r4.num_rounds());
        }
        let sum1: usize = rounds1.iter().sum();
        let sum4: usize = rounds4.iter().sum();
        assert!(
            sum4 < sum1,
            "batch 4 should use fewer rounds ({sum4} vs {sum1})"
        );
        assert!(seeds1 > 0);
    }

    #[test]
    fn works_with_simulation_oracle() {
        let g = chain(8, 0.9);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut oracle = SimulationOracle::new(&g, Model::IC, SmallRng::seed_from_u64(7));
        let report = asti(&g, Model::IC, 6, &params, &mut oracle, &mut rng).unwrap();
        assert!(report.reached);
        assert!(report.total_activated >= 6);
    }

    #[test]
    fn warm_start_respects_prior_activations() {
        let g = chain(10, 1.0);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(8);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        // Pre-activate the tail half.
        oracle.observe(&[5]);
        assert_eq!(oracle.num_active(), 5);
        let report = asti(&g, Model::IC, 7, &params, &mut oracle, &mut rng).unwrap();
        assert!(report.reached);
        // Needed at most one more seed (node 0 activates the remaining head).
        assert!(report.num_seeds() <= 2);
    }

    #[test]
    fn eta_validation() {
        let g = chain(5, 1.0);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(9);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi.clone());
        assert!(matches!(
            asti(&g, Model::IC, 0, &params, &mut oracle, &mut rng),
            Err(AsmError::EtaOutOfRange { .. })
        ));
        let mut oracle = RealizationOracle::new(&g, phi);
        assert!(matches!(
            asti(&g, Model::IC, 6, &params, &mut oracle, &mut rng),
            Err(AsmError::EtaOutOfRange { .. })
        ));
    }

    #[test]
    fn lt_instance_validation() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 0.8).unwrap();
        b.add_edge_p(1, 0, 0.8).unwrap();
        // make node 1 oversubscribed
        let mut b2 = GraphBuilder::new(3);
        b2.add_edge_p(0, 2, 0.8).unwrap();
        b2.add_edge_p(1, 2, 0.8).unwrap();
        let g = b2.build().unwrap();
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut oracle = SimulationOracle::new(&g, Model::LT, SmallRng::seed_from_u64(11));
        assert!(matches!(
            asti(&g, Model::LT, 2, &params, &mut oracle, &mut rng),
            Err(AsmError::InvalidLtInstance { node: 2, .. })
        ));
        // AdaptIM and ATEUC reject the same instance.
        let adapt_params = crate::AdaptImParams::with_eps(0.5);
        let adapt = crate::adapt_im(&g, Model::LT, 2, &adapt_params, &mut oracle, &mut rng);
        let ateuc = crate::ateuc(&g, Model::LT, 2, &mut rng).map(|out| out.seeds);
        for result in [adapt.map(|report| report.seeds), ateuc] {
            assert!(matches!(
                result,
                Err(AsmError::InvalidLtInstance { node: 2, .. })
            ));
        }
        drop(b);
    }

    #[test]
    fn warm_session_reuse_is_bit_identical_to_fresh() {
        // The service reuse pattern: one session, many runs. Every run on
        // the warm session must match a cold `asti` on identical inputs,
        // and the warm pool must retain its buffer capacity between runs.
        let mut rng = SmallRng::seed_from_u64(31);
        let pairs = smin_graph::generators::erdos_renyi(50, 100, &mut rng);
        let g = smin_graph::generators::assemble(
            50,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let params = AstiParams::with_eps(0.5);
        let mut session = AstiSession::new(50);
        let mut warm_bytes = 0usize;
        for seed in 0..4u64 {
            let mut world_rng = SmallRng::seed_from_u64(1000 + seed);
            let phi = Realization::sample(&g, Model::IC, &mut world_rng);

            let mut oracle = RealizationOracle::new(&g, phi.clone());
            let mut rng = SmallRng::seed_from_u64(seed);
            let fresh = asti(&g, Model::IC, 25, &params, &mut oracle, &mut rng).unwrap();

            let mut oracle = RealizationOracle::new(&g, phi);
            let mut rng = SmallRng::seed_from_u64(seed);
            let warm = asti_in(
                &g,
                Model::IC,
                25,
                &params,
                &mut oracle,
                &mut rng,
                &mut session,
            )
            .unwrap();

            assert_eq!(warm.seeds, fresh.seeds, "seed {seed}: selections diverged");
            assert_eq!(warm.total_activated, fresh.total_activated);
            assert_eq!(warm.total_sets, fresh.total_sets);
            assert!(
                session.pool_heap_bytes() >= warm_bytes,
                "seed {seed}: warm pool shrank"
            );
            warm_bytes = session.pool_heap_bytes();
        }
        assert!(warm_bytes > 0, "session retained no pool capacity");
    }

    #[test]
    fn session_rejects_wrong_graph_size() {
        let g = chain(10, 1.0);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(32);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let mut session = AstiSession::new(7);
        assert!(matches!(
            asti_in(
                &g,
                Model::IC,
                5,
                &params,
                &mut oracle,
                &mut rng,
                &mut session
            ),
            Err(AsmError::SessionMismatch {
                session_n: 7,
                graph_n: 10
            })
        ));
    }

    /// ASTI-8 rounds report TRIM-B's statistics: each certificate reaches
    /// `ρ_b(1 − ε̂)` unless the round ended at `T` or `θ_max` (of the
    /// schedule with that algorithm's own growth), and `U` lies between the
    /// coverage and coverage/`ρ_b`. ASTI's TRIM rounds report `U` =
    /// coverage and no greedy call; `η_i = 1` rounds sample nothing and
    /// report certificate 1; AdaptIM's rounds report none.
    #[test]
    fn round_statistics_certify_unless_the_budget_ran_out() {
        use crate::adapt_im::{adapt_im, AdaptImParams};
        use crate::trim::{schedule, DOUBLING, TRIM_GROWTH};
        use crate::trim_b::ln_binomial;
        use smin_sampling::coverage::rho_b;

        let mut rng = SmallRng::seed_from_u64(13);
        let pairs = smin_graph::generators::chung_lu_directed(400, 1_600, 2.1, &mut rng).unwrap();
        let g = smin_graph::generators::assemble(
            400,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap();
        let (mut certified, mut batched) = (0, 0);
        for (model, batch) in [(Model::LT, 8), (Model::IC, 8), (Model::IC, 1)] {
            let params = AstiParams::batched(0.5, batch);
            let mut rng = SmallRng::seed_from_u64(14);
            let phi = Realization::sample(&g, model, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = asti(&g, model, 200, &params, &mut oracle, &mut rng).unwrap();
            assert!(report.reached);
            for (i, r) in report.rounds.iter().enumerate() {
                let case = format!("{model} b={batch} round {i}");
                let stats = r.trim.expect("every ASTI round runs TRIM or TRIM-B");
                let b = batch.min(r.n_alive);
                let rho = rho_b(b);
                if r.eta_i == 1 {
                    assert_eq!(r.sets_generated, 0, "{case}");
                    assert_eq!((stats.iterations, stats.greedy_calls), (0, 0), "{case}");
                    assert_eq!((stats.certificate, r.est_truncated_spread), (1.0, 1.0));
                    assert_eq!(r.seeds.len(), 1, "{case}");
                    continue;
                }
                let growth = if batch == 1 { TRIM_GROWTH } else { DOUBLING };
                let sched = schedule(
                    r.n_alive,
                    r.eta_i,
                    params.trim.eps,
                    b,
                    rho,
                    ln_binomial(r.n_alive, b),
                    params.trim.theta_cap,
                    growth,
                );
                if stats.certificate >= rho * (1.0 - sched.eps_hat) {
                    certified += 1;
                } else {
                    assert!(
                        stats.iterations >= sched.t_max || r.sets_generated >= sched.theta_max,
                        "{case}: {stats:?} neither certified nor ran out"
                    );
                }
                assert!(stats.coverage <= stats.upper, "{case}: {stats:?}");
                let slack = f64::from(stats.coverage) + 1e-9;
                assert!(rho * f64::from(stats.upper) <= slack, "{case}: {stats:?}");
                if batch == 1 {
                    assert_eq!((stats.greedy_calls, stats.upper), (0, stats.coverage));
                } else {
                    assert!((1..=stats.iterations).contains(&stats.greedy_calls));
                    batched += usize::from(b == batch);
                }
            }
        }
        assert!(
            certified > 0 && batched > 0,
            "{certified} certified, {batched} batched"
        );

        let mut rng = SmallRng::seed_from_u64(15);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let report = adapt_im(
            &g,
            Model::IC,
            50,
            &AdaptImParams::with_eps(0.5),
            &mut oracle,
            &mut rng,
        )
        .unwrap();
        assert!(report.rounds.iter().all(|r| r.trim.is_none()));
    }

    #[test]
    fn round_reports_are_consistent() {
        let g = chain(12, 0.7);
        let params = AstiParams::with_eps(0.5);
        let mut rng = SmallRng::seed_from_u64(12);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let report = asti(&g, Model::IC, 8, &params, &mut oracle, &mut rng).unwrap();
        let total_new: usize = report.rounds.iter().map(|r| r.newly_activated).sum();
        assert_eq!(total_new, report.total_activated);
        let total_seeds: usize = report.rounds.iter().map(|r| r.seeds.len()).sum();
        assert_eq!(total_seeds, report.num_seeds());
        // eta_i strictly decreases round over round
        for w in report.rounds.windows(2) {
            assert!(w[1].eta_i < w[0].eta_i);
            assert!(w[1].n_alive < w[0].n_alive);
        }
    }
}
