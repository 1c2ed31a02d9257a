//! Adaptive vs non-adaptive seed minimization — the paper's core claim
//! (§6.2, Figure 8): a non-adaptive seed set tuned for the *expected* spread
//! misses the threshold on some worlds and wastes seeds on others, while the
//! adaptive policy lands on target in every world.
//!
//! ```sh
//! cargo run --release --example adaptive_vs_nonadaptive
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::algo::{ateuc, evaluate_on_realizations};
use seedmin::prelude::*;

fn main() {
    let n = 10_000;
    let mut rng = SmallRng::seed_from_u64(5);
    let pairs = chung_lu_directed(n, 50_000, 2.1, &mut rng);
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("generator output is valid");
    let eta = n / 100;
    let worlds = 20;

    // The paper's protocol: a fixed batch of sampled realizations.
    let realizations: Vec<Realization> = (0..worlds)
        .map(|_| Realization::sample(&g, Model::IC, &mut rng))
        .collect();

    // Non-adaptive: ATEUC picks ONE set achieving E[I(S)] ≥ η.
    let out = ateuc(&g, Model::IC, eta, &mut rng).expect("parameters are valid");
    let spreads = evaluate_on_realizations(&g, &out.seeds, &realizations);

    // Adaptive: ASTI re-runs per world, observing as it goes.
    let params = AstiParams::with_eps(0.5);
    let mut asti_seeds = Vec::new();
    let mut asti_spreads = Vec::new();
    for phi in &realizations {
        let mut oracle = RealizationOracle::new(&g, phi.clone());
        let mut rng = SmallRng::seed_from_u64(17);
        let report =
            asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng).expect("valid parameters");
        asti_seeds.push(report.num_seeds());
        asti_spreads.push(report.total_activated);
    }

    println!(
        "threshold η = {eta}; ATEUC selected |S| = {} once\n",
        out.seeds.len()
    );
    println!("world  ATEUC spread  status      ASTI spread  ASTI seeds");
    let mut misses = 0;
    for i in 0..worlds {
        let status = if spreads[i] < eta {
            misses += 1;
            "MISS      "
        } else if spreads[i] > eta * 3 / 2 {
            "OVERSHOOT "
        } else {
            "ok        "
        };
        println!(
            "{:>5}  {:>12}  {}  {:>11}  {:>10}",
            i + 1,
            spreads[i],
            status,
            asti_spreads[i],
            asti_seeds[i]
        );
    }
    let mean_seeds = asti_seeds.iter().sum::<usize>() as f64 / worlds as f64;
    println!(
        "\nATEUC: {misses}/{worlds} worlds under target (spread guarantee is only in expectation)"
    );
    println!(
        "ASTI: 0/{worlds} under target, {mean_seeds:.1} seeds on average vs ATEUC's fixed {}",
        out.seeds.len()
    );
}
