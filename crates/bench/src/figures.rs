//! Shared figure-generation logic: the η-sweep grid behind Figures 4–7 and
//! 9, and the specialized protocols of Table 3, Figure 8, and Figure 10.

use crate::args::Args;
use crate::datasets::{build_dataset, dataset_specs, DatasetSpec};
use crate::harness::{run_algo, sample_realizations, Algo, RunResult, FIGURE_THREADS};
use crate::table::{format_table, na_or};
use smin_diffusion::Model;

/// Which metric a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Figures 4 / 6: mean number of seeds.
    Seeds,
    /// Figures 5 / 7: mean selection time (seconds).
    TimeSecs,
    /// Figure 9: mean realized spread.
    Spread,
}

impl Metric {
    fn extract(&self, r: &RunResult) -> f64 {
        match self {
            Metric::Seeds => r.seeds_mean,
            Metric::TimeSecs => r.time_mean_s,
            Metric::Spread => r.spread_mean,
        }
    }

    fn decimals(&self) -> usize {
        match self {
            Metric::Seeds => 1,
            Metric::TimeSecs => 3,
            Metric::Spread => 1,
        }
    }
}

/// Runs the full η-sweep for one dataset under `model` and returns the raw
/// results (algorithms × thresholds).
pub fn sweep_dataset(
    spec: &DatasetSpec,
    model: Model,
    args: &Args,
    algos: &[Algo],
) -> Vec<RunResult> {
    let g = build_dataset(spec, args);
    let reps = args.num_realizations();
    let phis = sample_realizations(&g, model, reps, args.seed);
    let mut out = Vec::new();
    for &frac in spec.eta_fracs {
        let eta = ((spec.n as f64) * frac).round().max(1.0) as usize;
        for &algo in algos {
            eprintln!(
                "  {} | {} | η/n = {frac} (η = {eta}) | {} ...",
                spec.name,
                model,
                algo.name()
            );
            out.push(run_algo(
                &g, model, eta, frac, algo, &phis, spec.name, args.eps, args.seed,
            ));
        }
    }
    out
}

/// Renders one dataset's sweep as the paper's figure series: one row per
/// η/n, one column per algorithm.
pub fn render_series(results: &[RunResult], metric: Metric) -> String {
    let mut algos: Vec<String> = Vec::new();
    for r in results {
        if !algos.contains(&r.algo) {
            algos.push(r.algo.clone());
        }
    }
    let mut fracs: Vec<f64> = Vec::new();
    for r in results {
        if !fracs.contains(&r.eta_frac) {
            fracs.push(r.eta_frac);
        }
    }
    let mut rows = Vec::new();
    let mut header = vec!["eta/n".to_string()];
    header.extend(algos.iter().cloned());
    rows.push(header);
    for &frac in &fracs {
        let mut row = vec![format!("{frac}")];
        for algo in &algos {
            let cell = results
                .iter()
                .find(|r| r.eta_frac == frac && &r.algo == algo)
                .map(|r| {
                    let v = metric.extract(r);
                    // Figures mark infeasible non-adaptive points; we keep
                    // the number but annotate with '*'.
                    if r.always_feasible() {
                        format!("{v:.prec$}", prec = metric.decimals())
                    } else {
                        format!("{v:.prec$}*", prec = metric.decimals())
                    }
                })
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        rows.push(row);
    }
    format_table(&rows)
}

/// Full figure: sweep every selected dataset, print the series, return all
/// results for JSON dumping.
pub fn run_figure(
    title: &str,
    model: Model,
    metric: Metric,
    args: &Args,
    algos: &[Algo],
) -> Vec<RunResult> {
    println!(
        "== {title} [{} tier, {} realizations, ε = {}, threads = {FIGURE_THREADS}] ==",
        args.tier,
        args.num_realizations(),
        args.eps
    );
    let mut all = Vec::new();
    for spec in dataset_specs(args.tier) {
        if !args.selects(spec.name) {
            continue;
        }
        let results = sweep_dataset(&spec, model, args, algos);
        println!("\n[{} | {model}]", spec.name);
        println!("{}", render_series(&results, metric));
        if metric == Metric::Seeds {
            println!("(* = failed to reach η on ≥ 1 realization — non-adaptive only)");
        }
        all.extend(results);
    }
    all
}

/// Table 3: improvement ratio of ASTI over ATEUC on seeds, with N/A when
/// ATEUC misses the threshold on any realization.
pub fn table3_rows(results: &[RunResult]) -> Vec<Vec<String>> {
    let mut fracs: Vec<f64> = Vec::new();
    for r in results {
        if !fracs.contains(&r.eta_frac) {
            fracs.push(r.eta_frac);
        }
    }
    let mut datasets: Vec<String> = Vec::new();
    for r in results {
        if !datasets.contains(&r.dataset) {
            datasets.push(r.dataset.clone());
        }
    }
    let mut rows = Vec::new();
    let mut header = vec!["dataset".to_string()];
    header.extend(fracs.iter().map(|f| format!("η/n={f}")));
    rows.push(header);
    for ds in &datasets {
        let mut row = vec![ds.clone()];
        for &frac in &fracs {
            let asti = results
                .iter()
                .find(|r| &r.dataset == ds && r.eta_frac == frac && r.algo == "ASTI");
            let ateuc = results
                .iter()
                .find(|r| &r.dataset == ds && r.eta_frac == frac && r.algo == "ATEUC");
            let cell = match (asti, ateuc) {
                (Some(a), Some(t)) => {
                    let improvement = (t.seeds_mean - a.seeds_mean) / a.seeds_mean.max(1.0) * 100.0;
                    na_or(improvement, t.always_feasible(), 1)
                }
                _ => "-".to_string(),
            };
            row.push(cell);
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Tier;

    fn fake(
        algo: &str,
        ds: &str,
        frac: f64,
        seeds: f64,
        feasible: usize,
        runs: usize,
    ) -> RunResult {
        RunResult {
            algo: algo.to_string(),
            dataset: ds.to_string(),
            model: "IC".to_string(),
            eta: 10,
            eta_frac: frac,
            seeds_mean: seeds,
            time_mean_s: 0.5,
            time_p50_s: 0.5,
            time_p95_s: 0.5,
            spread_mean: 12.0,
            feasible,
            runs,
            per_realization: Vec::new(),
        }
    }

    #[test]
    fn render_series_layout() {
        let results = vec![
            fake("ASTI", "d", 0.01, 3.0, 2, 2),
            fake("ATEUC", "d", 0.01, 5.0, 1, 2),
            fake("ASTI", "d", 0.05, 9.0, 2, 2),
            fake("ATEUC", "d", 0.05, 13.0, 2, 2),
        ];
        let s = render_series(&results, Metric::Seeds);
        assert!(s.contains("eta/n"));
        assert!(s.contains("ASTI"));
        assert!(s.contains("5.0*"), "infeasible point must be starred: {s}");
        assert!(s.contains("13.0"));
    }

    #[test]
    fn table3_improvement_and_na() {
        let results = vec![
            fake("ASTI", "d", 0.01, 10.0, 2, 2),
            fake("ATEUC", "d", 0.01, 14.0, 2, 2),
            fake("ASTI", "d", 0.05, 10.0, 2, 2),
            fake("ATEUC", "d", 0.05, 14.0, 1, 2),
        ];
        let rows = table3_rows(&results);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], "40.0"); // (14-10)/10
        assert_eq!(rows[1][2], "N/A");
    }

    #[test]
    fn smoke_sweep_single_point() {
        // End-to-end smoke: one tiny dataset, one eta, two algorithms.
        let args = Args {
            tier: Tier::Smoke,
            realizations: Some(1),
            ..Args::default()
        };
        let mut spec = dataset_specs(Tier::Smoke)[0].clone();
        spec.eta_fracs = &[0.05];
        let results = sweep_dataset(&spec, Model::IC, &args, &[Algo::Asti { b: 1 }]);
        assert_eq!(results.len(), 1);
        assert!(results[0].always_feasible());
    }
}
