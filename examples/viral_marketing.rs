//! Viral marketing scenario from the paper's introduction: an advertiser
//! hands out free product samples batch by batch, watching each batch's
//! word-of-mouth cascade before deciding who gets the next samples, until a
//! target audience size is reached.
//!
//! Compares the sequential campaign (one influencer at a time, maximum
//! adaptivity) against batched campaigns (2/4/8 samples shipped per wave —
//! cheaper logistics, slightly more samples) on the same hidden world.
//!
//! ```sh
//! cargo run --release --example viral_marketing
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::prelude::*;

fn main() {
    // A community of 20 000 users; follower counts are heavy-tailed.
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(2024);
    let pairs = chung_lu_directed(n, 120_000, 2.1, &mut rng).unwrap();
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("generator output is valid");

    // Campaign goal: 5% market penetration.
    let eta = n / 20;
    println!("campaign target: {eta} activated users out of {n}\n");

    // One hidden world shared by all strategies, so the comparison is fair.
    let phi = Realization::sample(&g, Model::IC, &mut rng);

    println!("batch  free samples used  waves  time to select");
    for b in [1usize, 2, 4, 8] {
        let mut oracle = RealizationOracle::new(&g, phi.clone());
        let mut rng = SmallRng::seed_from_u64(99);
        let params = AstiParams::batched(0.5, b);
        let report =
            asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng).expect("parameters are valid");
        assert!(report.reached, "adaptive campaigns always reach the target");
        println!(
            "{:>5}  {:>17}  {:>5}  {:>14.3?}",
            b,
            report.num_seeds(),
            report.num_rounds(),
            report.total_select_time
        );
    }

    println!("\nsmaller batches adapt more (fewer samples); larger batches decide faster.");
}
