//! Quickstart: build a probabilistic social graph, run ASTI, inspect the
//! adaptive rounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::prelude::*;

fn main() {
    // 1. A synthetic social network: 5 000 users, 25 000 follow edges with a
    //    power-law degree profile, weighted-cascade probabilities
    //    (p(u→v) = 1/indeg(v)) as in the paper's experiments.
    let n = 5_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let pairs = chung_lu_directed(n, 25_000, 2.1, &mut rng).unwrap();
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("generator output is valid");
    println!("graph: {} nodes, {} edges", g.n(), g.m());

    // 2. The hidden ground truth. In a real campaign the oracle is the world
    //    itself; here we sample one live-edge realization up front.
    let eta = 250; // influence at least 250 users
    let phi = Realization::sample(&g, Model::IC, &mut rng);
    let mut oracle = RealizationOracle::new(&g, phi);

    // 3. Run ASTI (TRIM each round, ε = 0.5 — the paper's setting).
    let params = AstiParams::with_eps(0.5);
    let report =
        asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng).expect("parameters are valid");

    // 4. Inspect what happened.
    println!(
        "reached η = {eta}? {} — activated {} users with {} seeds in {} rounds",
        report.reached,
        report.total_activated,
        report.num_seeds(),
        report.num_rounds()
    );
    println!("selection wall-clock: {:?}", report.total_select_time);
    println!("\nround  seed   η_i   activated  mRR sets");
    for (i, r) in report.rounds.iter().enumerate() {
        println!(
            "{:>5}  {:>5}  {:>4}  {:>9}  {:>8}",
            i + 1,
            r.seeds[0],
            r.eta_i,
            r.newly_activated,
            r.sets_generated
        );
    }
}
