//! Cross-crate integration tests: the full adaptive seed minimization
//! pipeline against ground truth and across configurations.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::algo::greedy_oracle::exact_greedy_policy;
use seedmin::diffusion::InfluenceOracle;
use seedmin::prelude::*;
use smin_graph::generators;

fn wc_graph(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = generators::chung_lu_directed(n, m, 2.1, &mut rng).unwrap();
    generators::assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap()
}

#[test]
fn asti_reaches_eta_on_every_sampled_world_ic_and_lt() {
    let g = wc_graph(400, 1600, 1);
    for model in [Model::IC, Model::LT] {
        for world in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(world);
            let phi = Realization::sample(&g, model, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = asti(
                &g,
                model,
                60,
                &AstiParams::with_eps(0.5),
                &mut oracle,
                &mut rng,
            )
            .expect("valid parameters");
            assert!(report.reached, "{model} world {world}");
            assert!(report.total_activated >= 60);
            // every selected seed was inactive at selection time, so seeds
            // are distinct
            let mut sorted = report.seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), report.num_seeds(), "duplicate seed selected");
        }
    }
}

#[test]
fn asti_seed_count_is_near_oracle_on_tiny_graphs() {
    // Exact-greedy (the Golovin–Krause oracle policy) vs ASTI on graphs small
    // enough to enumerate: over many worlds, ASTI should use at most a
    // modest factor more seeds.
    let mut rng = SmallRng::seed_from_u64(5);
    let pairs = generators::erdos_renyi(10, 14, &mut rng);
    let g = generators::assemble(10, &pairs, true, WeightModel::Uniform(0.5), &mut rng).unwrap();
    let eta = 6;
    let worlds = 12;
    let mut oracle_total = 0usize;
    let mut asti_total = 0usize;
    for world in 0..worlds {
        let mut rng = SmallRng::seed_from_u64(100 + world);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut o1 = RealizationOracle::new(&g, phi.clone());
        let oracle_seeds = exact_greedy_policy(&g, Model::IC, eta, &mut o1, &mut rng).unwrap();
        let mut o2 = RealizationOracle::new(&g, phi);
        let report = asti(
            &g,
            Model::IC,
            eta,
            &AstiParams::with_eps(0.3),
            &mut o2,
            &mut rng,
        )
        .expect("valid parameters");
        assert!(report.reached);
        oracle_total += oracle_seeds.len();
        asti_total += report.num_seeds();
    }
    assert!(
        asti_total as f64 <= 1.6 * oracle_total as f64 + 2.0,
        "ASTI used {asti_total} seeds vs oracle {oracle_total} over {worlds} worlds"
    );
}

#[test]
fn batch_size_trades_seeds_for_rounds() {
    let g = wc_graph(600, 3000, 2);
    let eta = 120;
    let mut per_batch: Vec<(usize, f64, f64)> = Vec::new();
    for b in [1usize, 4, 8] {
        let mut seeds = 0usize;
        let mut rounds = 0usize;
        let reps = 5;
        for world in 0..reps {
            let mut rng = SmallRng::seed_from_u64(300 + world as u64);
            let phi = Realization::sample(&g, Model::IC, &mut rng);
            let mut oracle = RealizationOracle::new(&g, phi);
            let report = asti(
                &g,
                Model::IC,
                eta,
                &AstiParams::batched(0.5, b),
                &mut oracle,
                &mut rng,
            )
            .expect("valid parameters");
            assert!(report.reached);
            seeds += report.num_seeds();
            rounds += report.num_rounds();
        }
        per_batch.push((b, seeds as f64 / reps as f64, rounds as f64 / reps as f64));
    }
    // rounds must shrink as b grows
    assert!(per_batch[0].2 > per_batch[1].2);
    assert!(per_batch[1].2 >= per_batch[2].2);
    // and seeds should not shrink (adaptivity can only help)
    assert!(per_batch[2].1 >= per_batch[0].1 - 1.0);
}

#[test]
fn deterministic_given_seeds() {
    let g = wc_graph(300, 1200, 3);
    let run = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        asti(
            &g,
            Model::IC,
            50,
            &AstiParams::with_eps(0.5),
            &mut oracle,
            &mut rng,
        )
        .unwrap()
        .seeds
    };
    assert_eq!(run(9), run(9), "same seed must reproduce the exact run");
    // and (overwhelmingly) a different seed gives a different world/run
    // (not asserted strictly — just sanity that the RNG is actually used)
    let _ = run(10);
}

#[test]
fn adaptive_beats_nonadaptive_in_feasibility() {
    use seedmin::algo::{ateuc, evaluate_on_realizations};
    let g = wc_graph(500, 2000, 4);
    let eta = 50;
    let mut rng = SmallRng::seed_from_u64(11);
    let worlds: Vec<Realization> = (0..15)
        .map(|_| Realization::sample(&g, Model::IC, &mut rng))
        .collect();

    let out = ateuc(&g, Model::IC, eta, &mut rng).unwrap();
    let ateuc_spreads = evaluate_on_realizations(&g, &out.seeds, &worlds);

    let mut asti_feasible = 0;
    for phi in &worlds {
        let mut oracle = RealizationOracle::new(&g, phi.clone());
        let mut rng = SmallRng::seed_from_u64(12);
        let report = asti(
            &g,
            Model::IC,
            eta,
            &AstiParams::with_eps(0.5),
            &mut oracle,
            &mut rng,
        )
        .unwrap();
        if report.reached {
            asti_feasible += 1;
        }
    }
    assert_eq!(
        asti_feasible,
        worlds.len(),
        "ASTI is feasible by construction"
    );
    let ateuc_feasible = ateuc_spreads.iter().filter(|&&s| s >= eta).count();
    assert!(
        ateuc_feasible <= worlds.len(),
        "sanity: ATEUC feasibility {ateuc_feasible} can lag ASTI's {asti_feasible}"
    );
}

#[test]
fn adapt_im_matches_asti_effectiveness_but_costs_more_samples() {
    use seedmin::algo::{adapt_im, AdaptImParams};
    let g = wc_graph(500, 2500, 6);
    let eta = 25; // small η: the regime where TRIM's mRR advantage peaks
    let mut asti_sets = 0usize;
    let mut adapt_sets = 0usize;
    let mut asti_seeds = 0usize;
    let mut adapt_seeds = 0usize;
    for world in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(500 + world);
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
        let mut o2 = RealizationOracle::new(&g, phi);
        let r2 = adapt_im(
            &g,
            Model::IC,
            eta,
            &AdaptImParams::with_eps(0.5),
            &mut o2,
            &mut rng,
        )
        .unwrap();
        assert!(r1.reached && r2.reached);
        asti_sets += r1.total_sets;
        adapt_sets += r2.total_sets;
        asti_seeds += r1.num_seeds();
        adapt_seeds += r2.num_seeds();
    }
    assert!(
        adapt_sets > asti_sets,
        "AdaptIM should need more samples: {adapt_sets} vs {asti_sets}"
    );
    // similar effectiveness (within ~2× on these tiny instances)
    assert!(adapt_seeds as f64 <= 2.0 * asti_seeds as f64 + 2.0);
}

#[test]
fn warm_started_oracle_composes_with_asti() {
    let g = wc_graph(300, 1500, 7);
    let mut rng = SmallRng::seed_from_u64(70);
    let phi = Realization::sample(&g, Model::IC, &mut rng);
    let mut oracle = RealizationOracle::new(&g, phi);
    // phase 1: reach 30
    let r1 = asti(
        &g,
        Model::IC,
        30,
        &AstiParams::with_eps(0.5),
        &mut oracle,
        &mut rng,
    )
    .unwrap();
    assert!(r1.reached);
    let active_after_phase1 = oracle.num_active();
    // phase 2: extend the SAME oracle to 60 — previous activations count
    let r2 = asti(
        &g,
        Model::IC,
        60,
        &AstiParams::with_eps(0.5),
        &mut oracle,
        &mut rng,
    )
    .unwrap();
    assert!(r2.reached);
    assert!(oracle.num_active() >= 60);
    assert!(r2.total_activated >= active_after_phase1);
    // phase 2 must not have re-selected phase-1 seeds
    for s in &r2.seeds {
        assert!(
            !r1.seeds.contains(s),
            "seed {s} selected twice across phases"
        );
    }
}
