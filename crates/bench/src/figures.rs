//! The §6 evaluation in one pass, and its tables and figures as views.
//!
//! The paper draws one realization batch per dataset and model and runs
//! every algorithm on it, so Figures 4–10 and Table 3 all read one IC grid
//! and one LT grid. [`run_dataset`] builds a stand-in once, reads Table 2's
//! row and Figure 3's series off the graph, then runs every (η, algorithm)
//! cell once per model. The IC batch is dropped before the LT batch is
//! sampled, so memory peaks at one graph plus one batch. The `render_*`
//! functions turn the finished runs into the printed views.

use crate::args::Args;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::harness::{mean, run_algo, sample_realizations, Algo, RunResult, FIGURE_THREADS};
use crate::table::{format_table, na_or};
use serde_json::{json, Value};
use smin_core::eta_of_fraction;
use smin_diffusion::Model;
use smin_graph::components::{weakly_connected_components, WccSummary};
use smin_graph::degree::{
    average_out_degree, degree_distribution, degree_fractions, log_log_slope, DegreeKind,
};

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

    fn label(&self) -> &'static str {
        match self {
            Metric::Seeds => "#seeds",
            Metric::TimeSecs => "running time",
            Metric::Spread => "spread",
        }
    }
}

/// One dataset's share of the pass: its stand-in's statistics and both
/// grids.
#[derive(Clone, Debug)]
pub struct DatasetRun {
    pub spec: DatasetSpec,
    /// Nodes and directed edges of the graph actually built (a `--snap`
    /// graph need not match the spec).
    pub n: usize,
    pub m: usize,
    pub avg_out_degree: f64,
    pub wcc: WccSummary,
    /// Figure 3: `(total degree, fraction of nodes)` and its log-log slope.
    pub degree_fracs: Vec<(usize, f64)>,
    pub slope: Option<f64>,
    /// Every (η, algorithm) cell, η-major, under IC and under LT.
    pub ic: Vec<RunResult>,
    pub lt: Vec<RunResult>,
}

impl DatasetRun {
    /// The grid of `model`.
    pub fn grid(&self, model: Model) -> &[RunResult] {
        match model {
            Model::IC => &self.ic,
            Model::LT => &self.lt,
        }
    }
}

/// Builds `spec`'s stand-in once, then runs every (η, algorithm) cell
/// under each model, all on that model's one realization batch.
pub fn run_dataset(spec: &DatasetSpec, args: &Args, algos: &[Algo]) -> DatasetRun {
    eprintln!("building {} ...", spec.name);
    let g = build_dataset(spec, args);
    let sweep = |model| {
        let phis = sample_realizations(&g, model, args.num_realizations(), args.seed);
        let mut out = Vec::new();
        for &frac in spec.eta_fracs {
            let eta = eta_of_fraction(spec.n, frac).expect("sweep fractions lie in (0, 1]");
            for &algo in algos {
                eprintln!(
                    "  {} | {model} | η/n = {frac} (η = {eta}) | {} ...",
                    spec.name,
                    algo.name()
                );
                out.push(run_algo(
                    &g, model, eta, frac, algo, &phis, spec.name, args.eps, args.seed,
                ));
            }
        }
        out
    };
    DatasetRun {
        spec: spec.clone(),
        n: g.n(),
        m: g.m(),
        avg_out_degree: average_out_degree(&g),
        wcc: weakly_connected_components(&g),
        degree_fracs: degree_fractions(&g, DegreeKind::Total),
        slope: log_log_slope(&degree_distribution(&g, DegreeKind::Total)),
        // The IC batch is dropped before the LT batch is sampled.
        ic: sweep(Model::IC),
        lt: sweep(Model::LT),
    }
}

/// Table 2: each stand-in's statistics, beside the paper's numbers.
pub fn render_table2(runs: &[DatasetRun], args: &Args) -> String {
    let mut rows = vec![vec![
        "dataset".to_string(),
        "n".to_string(),
        "m (directed)".to_string(),
        "type".to_string(),
        "avg out-deg".to_string(),
        "LWCC size".to_string(),
        "LWCC frac".to_string(),
    ]];
    for r in runs {
        rows.push(vec![
            r.spec.name.to_string(),
            r.n.to_string(),
            r.m.to_string(),
            if r.spec.directed {
                "directed"
            } else {
                "undirected"
            }
            .to_string(),
            format!("{:.2}", r.avg_out_degree),
            r.wcc.largest.to_string(),
            format!("{:.3}", r.wcc.largest as f64 / r.n as f64),
        ]);
    }
    format!(
        "== Table 2: dataset details [{} tier] ==\n{}\n\
         paper (Table 2): NetHEPT 15.2K/31.4K undirected avg 4.18 LWCC 6.80K;\n\
         Epinions 132K/841K directed avg 13.4 LWCC 119K; Youtube 1.13M/2.99M\n\
         undirected avg 5.29 LWCC 1.13M; LiveJournal 4.85M/69.0M directed avg 28.5 LWCC 4.84M.\n",
        args.tier,
        format_table(&rows)
    )
}

/// Table 2's JSON: one object per dataset.
pub fn table2_json(runs: &[DatasetRun]) -> Value {
    runs.iter()
        .map(|r| {
            json!({
                "dataset": r.spec.name,
                "n": r.n,
                "m": r.m,
                "directed": r.spec.directed,
                "avg_out_degree": r.avg_out_degree,
                "lwcc": r.wcc.largest,
                "wcc_count": r.wcc.count,
            })
        })
        .collect::<Vec<_>>()
        .into()
}

/// Figure 3: each stand-in's degree distribution in log-2 bins, with the
/// fitted log-log slope (the power-law decay the SNAP originals show).
pub fn render_fig3(runs: &[DatasetRun], args: &Args) -> String {
    let mut out = format!(
        "== Figure 3: degree distributions [{} tier] ==\n",
        args.tier
    );
    for r in runs {
        let mut rows = vec![vec![
            "degree bin".to_string(),
            "fraction of nodes".to_string(),
        ]];
        let mut bin_start = 1usize;
        while bin_start <= r.degree_fracs.last().map(|&(d, _)| d).unwrap_or(0) {
            let bin_end = bin_start * 2;
            let f: f64 = r
                .degree_fracs
                .iter()
                .filter(|&&(d, _)| d >= bin_start && d < bin_end)
                .map(|&(_, f)| f)
                .sum();
            if f > 0.0 {
                rows.push(vec![format!("[{bin_start}, {bin_end})"), format!("{f:.6}")]);
            }
            bin_start = bin_end;
        }
        out.push_str(&format!(
            "\n[{}] log-log slope ≈ {:.2} (power-law decay)\n{}\n",
            r.spec.name,
            r.slope.unwrap_or(f64::NAN),
            format_table(&rows)
        ));
    }
    out
}

/// Figure 3's JSON: slope and `[degree, fraction]` series per dataset.
pub fn fig3_json(runs: &[DatasetRun]) -> Value {
    runs.iter()
        .map(|r| {
            json!({
                "dataset": r.spec.name,
                "slope": r.slope,
                "series": r.degree_fracs.iter().map(|&(d, f)| json!([d, f])).collect::<Vec<_>>(),
            })
        })
        .collect::<Vec<_>>()
        .into()
}

/// Figure `number` (4–7 or 9): `metric` of `model`'s grid, one series per
/// dataset.
pub fn render_figure(
    number: usize,
    model: Model,
    metric: Metric,
    runs: &[DatasetRun],
    args: &Args,
) -> String {
    let mut out = format!(
        "== Figure {number}: {} vs threshold ({model}) [{} tier, {} realizations, ε = {}, threads = {FIGURE_THREADS}] ==\n",
        metric.label(),
        args.tier,
        args.num_realizations(),
        args.eps
    );
    for r in runs {
        out.push_str(&format!(
            "\n[{} | {model}]\n{}\n",
            r.spec.name,
            render_series(r.grid(model), metric)
        ));
        if metric == Metric::Seeds {
            out.push_str("(* = failed to reach η on ≥ 1 realization — non-adaptive only)\n");
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

/// Table 3: ASTI's improvement over ATEUC in seeds, under IC and LT.
pub fn render_table3(runs: &[DatasetRun], args: &Args) -> String {
    let mut out = format!(
        "== Table 3: improvement ratio of ASTI over ATEUC [{} tier, {} realizations] ==\n",
        args.tier,
        args.num_realizations()
    );
    for model in [Model::IC, Model::LT] {
        let results: Vec<RunResult> = runs
            .iter()
            .flat_map(|r| r.grid(model).iter().cloned())
            .collect();
        out.push_str(&format!(
            "\n[{model} model] (N/A: ATEUC missed η on ≥ 1 realization)\n{}\n",
            format_table(&table3_rows(&results))
        ));
    }
    out
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

/// Figure 8: ASTI's and ATEUC's spread on each realization of NetHEPT at
/// η/n = 0.01, under IC and LT. ASTI lands on or just above η every time;
/// ATEUC misses some realizations and overshoots others.
pub fn render_fig8(runs: &[DatasetRun], args: &Args) -> String {
    let mut out = format!(
        "== Figure 8: per-realization spread, ASTI vs ATEUC (NetHEPT-like) [{} tier] ==\n",
        args.tier
    );
    let Some(nethept) = runs.iter().find(|r| r.spec.name == "nethept-like") else {
        out.push_str("(nethept-like is not among the selected datasets)\n");
        return out;
    };
    for model in [Model::IC, Model::LT] {
        let cell = |algo: &str| {
            nethept
                .grid(model)
                .iter()
                .find(|r| r.eta_frac == 0.01 && r.algo == algo)
                .expect("the grid runs ASTI and ATEUC at η/n = 0.01")
        };
        let (asti, ateuc) = (cell("ASTI"), cell("ATEUC"));
        let eta = asti.eta;
        let mut rows = vec![vec![
            "realization".to_string(),
            "ASTI spread".to_string(),
            "ATEUC spread".to_string(),
            "ATEUC status".to_string(),
        ]];
        for (i, (a, t)) in asti
            .per_realization
            .iter()
            .zip(&ateuc.per_realization)
            .enumerate()
        {
            let status = if t.spread < eta {
                "MISS"
            } else if t.spread as f64 > 1.5 * eta as f64 {
                "OVER (>150%)"
            } else {
                "ok"
            };
            rows.push(vec![
                (i + 1).to_string(),
                a.spread.to_string(),
                t.spread.to_string(),
                status.to_string(),
            ]);
        }
        out.push_str(&format!(
            "\n[{model} model] threshold η = {eta}\n{}\n\
             ATEUC missed η on {}/{} realizations; ASTI on {}/{} (always 0 by construction).\n",
            format_table(&rows),
            ateuc.runs - ateuc.feasible,
            ateuc.runs,
            asti.runs - asti.feasible,
            asti.runs
        ));
    }
    out
}

/// Figure 10: the marginal spread of each ASTI seed against its index, per
/// IC realization, at each dataset's largest η. It should fall with the
/// index (adaptive submodularity), up to realization noise.
pub fn render_fig10(runs: &[DatasetRun], args: &Args) -> String {
    let mut out = format!(
        "== Figure 10: marginal spread vs seed index (IC) [{} tier] ==\n",
        args.tier
    );
    for r in runs {
        let Some(res) = r.ic.iter().rev().find(|c| c.algo == "ASTI") else {
            continue;
        };
        out.push_str(&format!(
            "\n[{} | η/n = {} (η = {})]\n",
            r.spec.name, res.eta_frac, res.eta
        ));
        let longest = res
            .per_realization
            .iter()
            .map(|r| r.marginal_spreads.len())
            .max()
            .unwrap_or(0);
        let mut header = vec!["seed idx".to_string()];
        header.extend((1..=res.runs).map(|r| format!("real.{r}")));
        header.push("mean".to_string());
        let mut rows = vec![header];
        // print a subsampled set of indices to keep the table readable
        for idx in (0..longest).step_by((longest / 20).max(1)) {
            let column = res
                .per_realization
                .iter()
                .map(|r| r.marginal_spreads.get(idx));
            let mut row = vec![(idx + 1).to_string()];
            row.extend(
                column
                    .clone()
                    .map(|m| m.map_or("-".to_string(), |m| m.to_string())),
            );
            row.push(format!("{:.1}", mean(column.flatten().map(|&m| m as f64))));
            rows.push(row);
        }
        out.push_str(&format!("{}\n", format_table(&rows)));

        // diminishing-returns check: mean of first third vs last third
        let (mut first, mut last) = (Vec::new(), Vec::new());
        for r in &res.per_realization {
            let m = &r.marginal_spreads;
            let third = m.len() / 3;
            if third > 0 {
                first.extend(m[..third].iter().map(|&x| x as f64));
                last.extend(m[m.len() - third..].iter().map(|&x| x as f64));
            }
        }
        if !first.is_empty() {
            let (mf, ml) = (mean(first.into_iter()), mean(last.into_iter()));
            out.push_str(&format!(
                "mean marginal spread: first third = {mf:.1}, last third = {ml:.1} (diminishing ✓)\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Tier;
    use crate::datasets::dataset_specs;

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

    /// End to end on one tiny dataset at one η: one graph, both grids, and
    /// every view renders from them.
    #[test]
    fn smoke_sweep_single_point() {
        let args = Args {
            tier: Tier::Smoke,
            realizations: Some(1),
            ..Args::default()
        };
        let mut spec = dataset_specs(Tier::Smoke)[0].clone();
        spec.eta_fracs = &[0.01];
        let runs = [run_dataset(
            &spec,
            &args,
            &[Algo::Asti { b: 1 }, Algo::Ateuc],
        )];
        let run = &runs[0];
        assert_eq!((run.n, run.wcc.largest <= run.n), (1_520, true));
        for model in [Model::IC, Model::LT] {
            let grid = run.grid(model);
            assert_eq!(grid.len(), 2);
            assert_eq!(grid[0].model, model.to_string());
            assert!(grid[0].always_feasible());
        }
        let views = [
            render_table2(&runs, &args),
            render_fig3(&runs, &args),
            render_figure(4, Model::IC, Metric::Seeds, &runs, &args),
            render_table3(&runs, &args),
            render_fig8(&runs, &args),
            render_fig10(&runs, &args),
        ];
        for view in &views {
            assert!(
                view.contains("nethept-like") || view.contains("threshold η = 15"),
                "{view}"
            );
        }
    }
}
