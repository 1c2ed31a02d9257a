//! Reproduces every table and figure of the paper's §6 in one pass (see
//! `smin_bench::figures`): each selected stand-in is built once, and every
//! (η, algorithm) cell runs once per model. It prints Table 2 and Figure 3,
//! Figures 4, 5 and 9 from the IC grid, Figures 6 and 7 from the LT grid,
//! Table 3 and Figure 8 from both, and Figure 10 from IC ASTI at each
//! dataset's largest η. It writes `table2_datasets.json`,
//! `fig3_degree_dist.json`, `grid_ic.json` and `grid_lt.json` to `--out`.
//! `--smoke` takes seconds, `--quick` tens of minutes and `--paper` hours.

use smin_bench::figures::{
    fig3_json, render_fig10, render_fig3, render_fig8, render_figure, render_table2, render_table3,
    run_dataset, table2_json, Metric,
};
use smin_bench::{dataset_specs, write_json, Algo, Args};
use smin_diffusion::Model;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let algos = Algo::evaluation_set();
    let runs: Vec<_> = dataset_specs(args.tier)
        .iter()
        .filter(|spec| args.selects(spec.name))
        .map(|spec| run_dataset(spec, &args, &algos))
        .collect();

    let figure = |number, model, metric| render_figure(number, model, metric, &runs, &args);
    for view in [
        render_table2(&runs, &args),
        render_fig3(&runs, &args),
        figure(4, Model::IC, Metric::Seeds),
        figure(5, Model::IC, Metric::TimeSecs),
        figure(9, Model::IC, Metric::Spread),
        figure(6, Model::LT, Metric::Seeds),
        figure(7, Model::LT, Metric::TimeSecs),
        render_table3(&runs, &args),
        render_fig8(&runs, &args),
        render_fig10(&runs, &args),
    ] {
        println!("{view}");
    }

    let (table2, fig3) = (table2_json(&runs), fig3_json(&runs));
    let (ic, lt): (Vec<_>, Vec<_>) = runs.into_iter().map(|r| (r.ic, r.lt)).unzip();
    for (name, value) in [
        ("table2_datasets", table2),
        ("fig3_degree_dist", fig3),
        ("grid_ic", ic.concat().into()),
        ("grid_lt", lt.concat().into()),
    ] {
        if let Err(e) = write_json(&args.out_dir, name, &value) {
            eprintln!("error: {}/{name}.json: {e}", args.out_dir);
            std::process::exit(1);
        }
    }
}
