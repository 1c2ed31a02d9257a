//! Figure 5: running time vs threshold η/n under the IC model.
//!
//! Expected shape (§6.2): ASTI fastest among adaptive algorithms; ASTI-2/4/8
//! cut time to roughly 30%/10%/5% of ASTI; AdaptIM 10–20× slower than ASTI;
//! ATEUC's time *decreases* with η.

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
        "Figure 5: running time vs threshold (IC)",
        Model::IC,
        Metric::TimeSecs,
        &args,
        &Algo::evaluation_set(),
    );
    let _ = write_json(&args.out_dir, "fig5_time_ic", &results.into());
}
