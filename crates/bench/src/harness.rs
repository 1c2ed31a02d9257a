//! Algorithm runner implementing the paper's evaluation protocol (§6):
//! sample a fixed batch of realizations per dataset, run every algorithm on
//! each, and report means.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use smin_core::{adapt_im, asti, ateuc, evaluate_on_realizations, AdaptImParams, AstiParams};
use smin_diffusion::{Model, Realization, RealizationOracle};
use smin_graph::Graph;
use std::time::Instant;

/// Algorithms of §6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// ASTI with batch size `b` (`b = 1` is plain ASTI/TRIM; 2/4/8 are
    /// ASTI-2/4/8 via TRIM-B).
    Asti { b: usize },
    /// AdaptIM baseline (adaptive, vanilla marginal spread).
    AdaptIm,
    /// ATEUC baseline (non-adaptive).
    Ateuc,
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Algo::Asti { b: 1 } => "ASTI".to_string(),
            Algo::Asti { b } => format!("ASTI-{b}"),
            Algo::AdaptIm => "AdaptIM".to_string(),
            Algo::Ateuc => "ATEUC".to_string(),
        }
    }

    /// The six algorithms evaluated in Figures 4–7.
    pub fn evaluation_set() -> Vec<Algo> {
        vec![
            Algo::Asti { b: 1 },
            Algo::Asti { b: 2 },
            Algo::Asti { b: 4 },
            Algo::Asti { b: 8 },
            Algo::AdaptIm,
            Algo::Ateuc,
        ]
    }
}

/// Outcome on one realization.
#[derive(Clone, Debug, Serialize)]
pub struct RealizationResult {
    /// Seeds used (adaptive: actually selected; ATEUC: the fixed set size).
    pub seeds: usize,
    /// Selection wall-clock seconds (ATEUC: amortized over realizations is
    /// *not* done — the one-shot cost is repeated so means stay comparable).
    pub time_s: f64,
    /// Nodes actually activated on this realization.
    pub spread: usize,
    /// Whether the spread reached η on this realization.
    pub reached: bool,
    /// Newly activated nodes per round, in order (Figure 10's series).
    pub marginal_spreads: Vec<usize>,
}

/// Aggregate over the realization batch.
#[derive(Clone, Debug, Serialize)]
pub struct RunResult {
    pub algo: String,
    pub dataset: String,
    pub model: String,
    pub eta: usize,
    pub eta_frac: f64,
    pub seeds_mean: f64,
    pub time_mean_s: f64,
    /// Median and tail selection latency over the realization batch
    /// (nearest-rank, [`crate::stats`]); 0 when the batch is empty.
    pub time_p50_s: f64,
    pub time_p95_s: f64,
    pub spread_mean: f64,
    /// Realizations on which the spread reached η; `< runs` flags the
    /// Table 3 "N/A" condition.
    pub feasible: usize,
    pub runs: usize,
    pub per_realization: Vec<RealizationResult>,
}

impl RunResult {
    /// `true` when every realization reached η (adaptive algorithms, by
    /// construction).
    pub fn always_feasible(&self) -> bool {
        self.feasible == self.runs
    }
}

/// Samples the fixed realization batch for a dataset (§6: "we first randomly
/// generate 20 possible realizations for each dataset").
pub fn sample_realizations(
    g: &Graph,
    model: Model,
    count: usize,
    base_seed: u64,
) -> Vec<Realization> {
    (0..count)
        .map(|r| {
            let mut rng = SmallRng::seed_from_u64(base_seed.wrapping_add(1000 + r as u64));
            Realization::sample(g, model, &mut rng)
        })
        .collect()
}

/// Sketch-generation threads of every ASTI run here. AdaptIM and ATEUC
/// draw their sets through the same `SketchGenPool` on one thread, so the
/// running-time figures (5 and 7) compare every algorithm on one sampling
/// path at this one count. ASTI's seeds are the same for every thread
/// count.
pub const FIGURE_THREADS: usize = 1;

/// ASTI-`b`'s parameters in the figures: `ε`, batch `b`, and
/// [`FIGURE_THREADS`] sketch threads.
fn asti_params(eps: f64, b: usize) -> AstiParams {
    let mut params = AstiParams::batched(eps, b);
    params.trim.threads = Some(FIGURE_THREADS);
    params
}

/// Runs one algorithm at one threshold over the realization batch.
#[allow(clippy::too_many_arguments)]
pub fn run_algo(
    g: &Graph,
    model: Model,
    eta: usize,
    eta_frac: f64,
    algo: Algo,
    realizations: &[Realization],
    dataset: &str,
    eps: f64,
    seed: u64,
) -> RunResult {
    let mut per = Vec::with_capacity(realizations.len());
    match algo {
        Algo::Asti { b } => {
            let params = asti_params(eps, b);
            for (r, phi) in realizations.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(77 * r as u64 + 1));
                let mut oracle = RealizationOracle::new(g, phi.clone());
                let started = Instant::now();
                let report =
                    asti(g, model, eta, &params, &mut oracle, &mut rng).expect("valid parameters");
                per.push(RealizationResult {
                    seeds: report.num_seeds(),
                    time_s: started.elapsed().as_secs_f64(),
                    spread: report.total_activated,
                    reached: report.reached,
                    marginal_spreads: report.marginal_spreads(),
                });
            }
        }
        Algo::AdaptIm => {
            let params = AdaptImParams {
                eps,
                theta_cap: Some(4_000_000),
            };
            for (r, phi) in realizations.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(77 * r as u64 + 1));
                let mut oracle = RealizationOracle::new(g, phi.clone());
                let started = Instant::now();
                let report = adapt_im(g, model, eta, &params, &mut oracle, &mut rng)
                    .expect("valid parameters");
                per.push(RealizationResult {
                    seeds: report.num_seeds(),
                    time_s: started.elapsed().as_secs_f64(),
                    spread: report.total_activated,
                    reached: report.reached,
                    marginal_spreads: report.marginal_spreads(),
                });
            }
        }
        Algo::Ateuc => {
            // Non-adaptive: one selection, evaluated on every realization.
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(13));
            let started = Instant::now();
            let out = ateuc(g, model, eta, &mut rng).expect("valid parameters");
            let select_time = started.elapsed().as_secs_f64();
            let spreads = evaluate_on_realizations(g, &out.seeds, realizations);
            for spread in spreads {
                per.push(RealizationResult {
                    seeds: out.seeds.len(),
                    time_s: select_time,
                    spread,
                    reached: spread >= eta,
                    marginal_spreads: Vec::new(),
                });
            }
        }
    }

    let runs = per.len();
    let feasible = per.iter().filter(|r| r.reached).count();
    let times: Vec<f64> = per.iter().map(|r| r.time_s).collect();
    let time_summary = crate::stats::summarize(&times);
    RunResult {
        algo: algo.name(),
        dataset: dataset.to_string(),
        model: model.to_string(),
        eta,
        eta_frac,
        seeds_mean: mean(per.iter().map(|r| r.seeds as f64)),
        time_mean_s: time_summary.map_or(0.0, |s| s.mean),
        time_p50_s: time_summary.map_or(0.0, |s| s.p50),
        time_p95_s: time_summary.map_or(0.0, |s| s.p95),
        spread_mean: mean(per.iter().map(|r| r.spread as f64)),
        feasible,
        runs,
        per_realization: per,
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for x in it {
        sum += x;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smin_graph::generators::{assemble, chung_lu_directed};
    use smin_graph::WeightModel;

    fn tiny_graph() -> Graph {
        let mut rng = SmallRng::seed_from_u64(5);
        let pairs = chung_lu_directed(300, 1500, 2.1, &mut rng);
        assemble(300, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap()
    }

    /// ASTI runs on the baselines' one thread, whatever `SMIN_THREADS` or
    /// the core count say.
    #[test]
    fn asti_runs_on_one_stated_thread() {
        assert_eq!(FIGURE_THREADS, 1);
        for b in [1, 2, 4, 8] {
            let params = asti_params(0.5, b);
            assert_eq!(params.trim.threads, Some(FIGURE_THREADS), "b = {b}");
            assert_eq!(params.batch, b);
        }
    }

    #[test]
    fn algo_names_match_paper() {
        assert_eq!(Algo::Asti { b: 1 }.name(), "ASTI");
        assert_eq!(Algo::Asti { b: 8 }.name(), "ASTI-8");
        assert_eq!(Algo::AdaptIm.name(), "AdaptIM");
        assert_eq!(Algo::Ateuc.name(), "ATEUC");
        assert_eq!(Algo::evaluation_set().len(), 6);
    }

    #[test]
    fn asti_run_is_always_feasible() {
        let g = tiny_graph();
        let phis = sample_realizations(&g, Model::IC, 3, 42);
        let res = run_algo(
            &g,
            Model::IC,
            30,
            0.1,
            Algo::Asti { b: 1 },
            &phis,
            "tiny",
            0.5,
            42,
        );
        assert_eq!(res.runs, 3);
        assert!(res.always_feasible());
        assert!(res.seeds_mean >= 1.0);
        assert!(res.spread_mean >= 30.0);
    }

    #[test]
    fn ateuc_run_reports_feasibility_per_realization() {
        let g = tiny_graph();
        let phis = sample_realizations(&g, Model::IC, 4, 42);
        let res = run_algo(&g, Model::IC, 30, 0.1, Algo::Ateuc, &phis, "tiny", 0.5, 42);
        assert_eq!(res.runs, 4);
        assert!(res.feasible <= res.runs);
        // non-adaptive: same seed count on every realization
        let first = res.per_realization[0].seeds;
        assert!(res.per_realization.iter().all(|r| r.seeds == first));
    }

    #[test]
    fn realization_batch_is_deterministic() {
        let g = tiny_graph();
        let a = sample_realizations(&g, Model::IC, 2, 7);
        let b = sample_realizations(&g, Model::IC, 2, 7);
        assert_eq!(a[0].live_edge_count(), b[0].live_edge_count());
        assert_eq!(a[1].live_edge_count(), b[1].live_edge_count());
        // different indices -> different worlds (overwhelmingly)
        assert_ne!(a[0].live_edge_count(), a[1].live_edge_count());
    }

    #[test]
    fn batched_asti_uses_multiples_of_b_seeds() {
        let g = tiny_graph();
        let phis = sample_realizations(&g, Model::IC, 2, 42);
        let res = run_algo(
            &g,
            Model::IC,
            40,
            0.13,
            Algo::Asti { b: 4 },
            &phis,
            "tiny",
            0.5,
            42,
        );
        for r in &res.per_realization {
            assert_eq!(r.seeds % 4, 0, "TRIM-B selects whole batches");
        }
    }
}
