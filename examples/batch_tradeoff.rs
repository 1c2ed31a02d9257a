//! The batch-size trade-off (§6.3): sweeping b shows seeds increasing and
//! selection time collapsing — TRIM-B trades adaptivity for throughput.
//! Also demonstrates the `SimulationOracle` (lazily sampled world), which is
//! how a deployment that can only observe real cascades would run.
//!
//! ```sh
//! cargo run --release --example batch_tradeoff
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::prelude::*;

fn main() {
    let n = 15_000;
    let mut rng = SmallRng::seed_from_u64(31);
    let pairs = chung_lu_directed(n, 60_000, 2.1, &mut rng).unwrap();
    let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("generator output is valid");
    let eta = n / 10;
    let reps = 3;

    println!("n = {n}, η = {eta}, {reps} independent worlds per batch size\n");
    println!("batch  mean seeds  mean waves  mean select time   relative time");
    let mut base_time = None;
    for b in [1usize, 2, 4, 8, 16] {
        let mut seeds = 0usize;
        let mut rounds = 0usize;
        let mut time = std::time::Duration::ZERO;
        for rep in 0..reps {
            // SimulationOracle: the world materializes only where cascades
            // actually travel.
            let world_rng = SmallRng::seed_from_u64(1000 + rep as u64);
            let mut oracle = SimulationOracle::new(&g, Model::IC, world_rng);
            let mut rng = SmallRng::seed_from_u64(2000 + rep as u64);
            let params = AstiParams::batched(0.5, b);
            let report = asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng)
                .expect("parameters are valid");
            assert!(report.reached);
            seeds += report.num_seeds();
            rounds += report.num_rounds();
            time += report.total_select_time;
        }
        let t = time.as_secs_f64() / reps as f64;
        let rel = base_time.get_or_insert(t);
        println!(
            "{:>5}  {:>10.1}  {:>10.1}  {:>15.3}s  {:>13.0}%",
            b,
            seeds as f64 / reps as f64,
            rounds as f64 / reps as f64,
            t,
            t / *rel * 100.0
        );
    }
    println!("\nthe paper reports ASTI-2/4/8 at roughly 30%/10%/5% of ASTI's time (§6.2).");
}
