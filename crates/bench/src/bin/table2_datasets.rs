//! Table 2: dataset details — n, m, type, average degree, LWCC size.
//!
//! On the synthetic stand-ins this prints the *generated* statistics next to
//! the paper's published numbers so the match quality is visible.

use smin_bench::{build_dataset, dataset_specs, format_table, write_json, Args};
use smin_graph::components::weakly_connected_components;
use smin_graph::degree::average_out_degree;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    println!("== Table 2: dataset details [{} tier] ==", args.tier);
    let mut rows = vec![vec![
        "dataset".to_string(),
        "n".to_string(),
        "m (directed)".to_string(),
        "type".to_string(),
        "avg out-deg".to_string(),
        "LWCC size".to_string(),
        "LWCC frac".to_string(),
    ]];
    let mut json = Vec::new();
    for spec in dataset_specs(args.tier) {
        if !args.selects(spec.name) {
            continue;
        }
        eprintln!("building {} ...", spec.name);
        let g = build_dataset(&spec, &args);
        let wcc = weakly_connected_components(&g);
        let avg = average_out_degree(&g);
        rows.push(vec![
            spec.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            if spec.directed {
                "directed"
            } else {
                "undirected"
            }
            .to_string(),
            format!("{avg:.2}"),
            wcc.largest.to_string(),
            format!("{:.3}", wcc.largest as f64 / g.n() as f64),
        ]);
        json.push(serde_json::json!({
            "dataset": spec.name,
            "n": g.n(),
            "m": g.m(),
            "directed": spec.directed,
            "avg_out_degree": avg,
            "lwcc": wcc.largest,
            "wcc_count": wcc.count,
        }));
    }
    println!("{}", format_table(&rows));
    println!("paper (Table 2): NetHEPT 15.2K/31.4K undirected avg 4.18 LWCC 6.80K;");
    println!("Epinions 132K/841K directed avg 13.4 LWCC 119K; Youtube 1.13M/2.99M");
    println!(
        "undirected avg 5.29 LWCC 1.13M; LiveJournal 4.85M/69.0M directed avg 28.5 LWCC 4.84M."
    );
    let _ = write_json(&args.out_dir, "table2_datasets", &json.into());
}
