//! Table 3: improvement ratio of ASTI over ATEUC on the number of seed
//! nodes, under both IC and LT, with "N/A" wherever ATEUC fails to reach the
//! threshold on some realization.

use smin_bench::figures::{sweep_dataset, table3_rows};
use smin_bench::{dataset_specs, format_table, write_json, Algo, Args};
use smin_diffusion::Model;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "== Table 3: improvement ratio of ASTI over ATEUC [{} tier, {} realizations] ==",
        args.tier,
        args.num_realizations()
    );
    let algos = [Algo::Asti { b: 1 }, Algo::Ateuc];
    let mut json = Vec::new();
    for model in [Model::IC, Model::LT] {
        let mut results = Vec::new();
        for spec in dataset_specs(args.tier) {
            if !args.selects(spec.name) {
                continue;
            }
            results.extend(sweep_dataset(&spec, model, &args, &algos));
        }
        println!("\n[{model} model] (N/A: ATEUC missed η on ≥ 1 realization)");
        println!("{}", format_table(&table3_rows(&results)));
        json.extend(results);
    }
    let _ = write_json(&args.out_dir, "table3_improvement", &json.into());
}
