//! Figure 9 (Appendix C): realized spread vs threshold under the IC model.
//!
//! Expected shape: all algorithms comparable; ASTI-8 overshoots at small η
//! (a whole batch fires even when a fraction suffices); ATEUC slightly
//! larger spread at large η (it over-selects seeds).

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
        "Figure 9: spread vs threshold (IC)",
        Model::IC,
        Metric::Spread,
        &args,
        &Algo::evaluation_set(),
    );
    let _ = write_json(&args.out_dir, "fig9_spread_vs_threshold", &results.into());
}
