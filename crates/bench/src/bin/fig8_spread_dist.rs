//! Figure 8: spread achieved on each of the sampled realizations by ASTI vs
//! ATEUC on NetHEPT (η/n = 0.01 → η = 153 at paper scale), under IC and LT.
//!
//! Expected shape: ASTI lands on-or-just-above the threshold on *every*
//! realization; ATEUC under-shoots some and over-shoots others.

use smin_bench::figures::sweep_dataset;
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
        "== Figure 8: per-realization spread, ASTI vs ATEUC (NetHEPT-like) [{} tier] ==",
        args.tier
    );
    let mut spec = dataset_specs(args.tier)
        .into_iter()
        .find(|s| s.name == "nethept-like")
        .expect("nethept-like always present");
    spec.eta_fracs = &[0.01];
    let eta = ((spec.n as f64) * 0.01).round() as usize;
    let algos = [Algo::Asti { b: 1 }, Algo::Ateuc];

    let mut json = Vec::new();
    for model in [Model::IC, Model::LT] {
        let results = sweep_dataset(&spec, model, &args, &algos);
        println!("\n[{model} model] threshold η = {eta}");
        let mut rows = vec![vec![
            "realization".to_string(),
            "ASTI spread".to_string(),
            "ATEUC spread".to_string(),
            "ATEUC status".to_string(),
        ]];
        let asti = &results[0];
        let ateuc = &results[1];
        for i in 0..asti.per_realization.len() {
            let a = asti.per_realization[i].spread;
            let t = ateuc.per_realization[i].spread;
            let status = if t < eta {
                "MISS"
            } else if t as f64 > 1.5 * eta as f64 {
                "OVER (>150%)"
            } else {
                "ok"
            };
            rows.push(vec![
                (i + 1).to_string(),
                a.to_string(),
                t.to_string(),
                status.to_string(),
            ]);
        }
        println!("{}", format_table(&rows));
        let misses = ateuc
            .per_realization
            .iter()
            .filter(|r| r.spread < eta)
            .count();
        println!(
            "ATEUC missed η on {misses}/{} realizations; ASTI on {}/{} (always 0 by construction).",
            ateuc.runs,
            asti.runs - asti.feasible,
            asti.runs
        );
        json.extend(results);
    }
    let _ = write_json(&args.out_dir, "fig8_spread_dist", &json.into());
}
