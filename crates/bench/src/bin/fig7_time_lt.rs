//! Figure 7: running time vs threshold η/n under the LT model.
//!
//! Expected shape (§6.3): same conclusions as Figure 5 but uniformly faster
//! (LT mRR sets are cheaper to generate — at most one in-edge per node).

use smin_bench::figures::{run_figure, Metric};
use smin_bench::{write_json, Algo, Args};
use smin_diffusion::Model;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let results = run_figure(
        "Figure 7: running time vs threshold (LT)",
        Model::LT,
        Metric::TimeSecs,
        &args,
        &Algo::evaluation_set(),
    );
    let _ = write_json(&args.out_dir, "fig7_time_lt", &results.into());
}
