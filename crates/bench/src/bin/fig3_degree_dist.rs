//! Figure 3: degree distribution (log-log `degree → fraction of nodes`).
//!
//! Prints log-binned series per dataset plus the fitted log-log slope —
//! the stand-ins must show the same power-law decay as the SNAP originals.

use smin_bench::{build_dataset, dataset_specs, format_table, write_json, Args};
use smin_graph::degree::{degree_distribution, degree_fractions, log_log_slope, DegreeKind};

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    println!("== Figure 3: degree distributions [{} tier] ==", args.tier);
    let mut json = Vec::new();
    for spec in dataset_specs(args.tier) {
        if !args.selects(spec.name) {
            continue;
        }
        eprintln!("building {} ...", spec.name);
        let g = build_dataset(&spec, &args);
        let fracs = degree_fractions(&g, DegreeKind::Total);
        let dist = degree_distribution(&g, DegreeKind::Total);
        let slope = log_log_slope(&dist);

        // log-2 binning for a compact printout
        let mut rows = vec![vec![
            "degree bin".to_string(),
            "fraction of nodes".to_string(),
        ]];
        let mut bin_start = 1usize;
        while bin_start <= fracs.last().map(|&(d, _)| d).unwrap_or(0) {
            let bin_end = bin_start * 2;
            let f: f64 = fracs
                .iter()
                .filter(|&&(d, _)| d >= bin_start && d < bin_end)
                .map(|&(_, f)| f)
                .sum();
            if f > 0.0 {
                rows.push(vec![format!("[{bin_start}, {bin_end})"), format!("{f:.6}")]);
            }
            bin_start = bin_end;
        }
        println!(
            "\n[{}] log-log slope ≈ {:.2} (power-law decay)",
            spec.name,
            slope.unwrap_or(f64::NAN)
        );
        println!("{}", format_table(&rows));
        json.push(serde_json::json!({
            "dataset": spec.name,
            "slope": slope,
            "series": fracs.iter().map(|&(d, f)| serde_json::json!([d, f])).collect::<Vec<_>>(),
        }));
    }
    let _ = write_json(&args.out_dir, "fig3_degree_dist", &json.into());
}
