//! Figure 4: number of seed nodes vs threshold η/n under the IC model,
//! for ASTI, ASTI-2/4/8, AdaptIM, and ATEUC.

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
        "Figure 4: #seeds vs threshold (IC)",
        Model::IC,
        Metric::Seeds,
        &args,
        &Algo::evaluation_set(),
    );
    let _ = write_json(&args.out_dir, "fig4_seeds_ic", &results.into());
}
