//! Figure 6: number of seed nodes vs threshold η/n under the LT model.

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
        "Figure 6: #seeds vs threshold (LT)",
        Model::LT,
        Metric::Seeds,
        &args,
        &Algo::evaluation_set(),
    );
    let _ = write_json(&args.out_dir, "fig6_seeds_lt", &results.into());
}
