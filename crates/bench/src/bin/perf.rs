//! `perf` — the coverage/selection kernel harness behind the recorded perf
//! trajectory.
//!
//! Builds mRR sketch pools at pinned seeds (the `coverage_greedy` bench
//! fixture: Chung–Lu 2k/8k WC graph, `MrrSampler` at η = 100) for pool
//! sizes 1k/4k/16k, times the coverage kernels on each, and emits two
//! hand-formatted trajectory artifacts in the `BENCH_graph_load.json`
//! style:
//!
//! * `BENCH_coverage.json` — the per-pick kernels: the argmax candidate
//!   scan and the b = 8 greedy selection (the compacted eager scan, each
//!   pick's sets found by scanning the pool), plus `SketchPool::heap_bytes()`
//!   plus the engine's retained bytes per pool size. Also folds in the two
//!   Criterion-only fixtures so their medians ride the recorded
//!   trajectory: `trim_round` (Algorithms 2/3 across thread counts, the
//!   `trim_round` bench fixture, with TRIM-B also under LT) and `rounding`
//!   (the §3.3 root-count rounding ablation, the `ablation_rounding` bench
//!   fixture). Its
//!   `sampling` rows time single mRR sets, the reverse BFS that dominates
//!   every campaign (the `mrr_generation` fixture);
//! * `BENCH_select.json` — deep selections (b = 64): 8 scanned picks, then
//!   one transpose of the uncovered sets and word-batched `commit_pick`.
//!
//! ```text
//! perf [--smoke] [--iters K] [--out-dir DIR]
//! ```
//!
//! `--smoke` drops to 5 iterations per measurement (CI's quick mode); the
//! pool sizes stay identical so `asm bench-check` can compare a smoke run
//! against the committed full-run baselines. The bin records — the
//! regression *gate* is `asm bench-check` downstream.

use smin_bench::stats;
use std::time::Instant;

/// Pool sizes swept by both artifacts. Fixed: `asm bench-check` compares
/// runs structurally, so every run must sweep the same sizes.
const POOL_SIZES: [usize; 3] = [1_024, 4_096, 16_384];

struct PerfArgs {
    iters: usize,
    smoke: bool,
    out_dir: String,
}

const USAGE: &str = "\
perf — coverage/selection kernel benchmark harness

USAGE:
  perf [--smoke] [--iters K] [--out-dir DIR]

Defaults: --iters 9 (5 with --smoke) --out-dir .
Writes BENCH_coverage.json and BENCH_select.json into --out-dir.";

fn parse_args() -> Result<PerfArgs, String> {
    let mut out = PerfArgs {
        iters: 0, // resolved after --smoke is known
        smoke: false,
        out_dir: ".".to_string(),
    };
    let mut iters: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--iters" => {
                iters = Some(
                    value("--iters")?
                        .parse()
                        .map_err(|e| format!("bad value for --iters: {e}"))?,
                )
            }
            "--out-dir" => out.out_dir = value("--out-dir")?.clone(),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    out.iters = iters.unwrap_or(if out.smoke { 5 } else { 9 });
    if out.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    Ok(out)
}

/// One timed metric: ascending-sorted per-iteration microseconds.
struct Dist {
    sorted_us: Vec<f64>,
}

impl Dist {
    fn median(&self) -> f64 {
        stats::percentile(&self.sorted_us, 0.50).expect("non-empty sample")
    }

    /// `{ "median": m, "min": a, "max": b }` — the trajectory leaf format
    /// `asm bench-check` consumes.
    fn json(&self) -> String {
        format!(
            "{{ \"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3} }}",
            self.median(),
            self.sorted_us[0],
            self.sorted_us[self.sorted_us.len() - 1],
        )
    }
}

/// Times `iters` measurements of `reps` back-to-back runs of `f`,
/// reporting per-run microseconds. `reps > 1` keeps sub-microsecond
/// kernels (argmax) above timer resolution.
fn time_us(iters: usize, reps: usize, mut f: impl FnMut()) -> Dist {
    let mut sorted_us: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    sorted_us.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Dist { sorted_us }
}

/// The shared bench graph (the Criterion `common::bench_graph` fixture):
/// a pinned 2k/8k Chung–Lu WC graph.
fn bench_graph() -> smin_graph::Graph {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_graph::generators::{assemble, chung_lu_directed};
    use smin_graph::WeightModel;

    let n = 2_000;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let pairs = chung_lu_directed(n, 8_000, 2.1, &mut rng);
    assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("valid generator output")
}

/// The `coverage_greedy` bench fixture, reproduced without Criterion: the
/// pinned bench graph and an mRR pool of exactly `sets` sketches.
fn build_pool(sets: usize) -> smin_sampling::SketchPool {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Model, ResidualState};
    use smin_sampling::{MrrSampler, RootCountDist, SketchPool};

    let g = bench_graph();
    let n = g.n();
    let residual = ResidualState::new(n);
    let mut sampler = MrrSampler::new(n);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut pool = SketchPool::new(n);
    let mut out = Vec::new();
    for _ in 0..sets {
        sampler.sample_into(
            &g,
            Model::IC,
            &residual,
            100,
            RootCountDist::Randomized,
            &mut rng,
            &mut out,
        );
        pool.add_set(&out);
    }
    pool
}

fn run(args: &PerfArgs) -> Result<(), String> {
    use smin_sampling::CoverageEngine;

    let mut coverage_rows = Vec::new();
    let mut select_rows = Vec::new();

    for &sets in &POOL_SIZES {
        eprintln!("building pool: {sets} sets ...");
        let pool = build_pool(sets);
        let mut engine = CoverageEngine::new();

        // Per-pick kernels: the argmax candidate scan (averaged over 64
        // back-to-back runs — single runs sit at timer resolution) and the
        // b = 8 greedy selection.
        let argmax = time_us(args.iters, 64, || {
            std::hint::black_box(engine.argmax(&pool));
        });
        let eager_b8 = time_us(args.iters, 1, || {
            std::hint::black_box(engine.select(&pool, 8).covered);
        });

        // Deep selections: commit_pick dominates.
        let eager_b64 = time_us(args.iters, 1, || {
            std::hint::black_box(engine.select(&pool, 64).covered);
        });

        // The pool plus everything the engine keeps between calls, the
        // b = 64 run's transpose included: all memory a warm selection
        // retains.
        let heap = pool.heap_bytes() + engine.heap_bytes();
        println!(
            "pool {sets:>6}: argmax {:9.1} us | b8 {:9.1} us | b64 {:9.1} us | heap {heap} B",
            argmax.median(),
            eager_b8.median(),
            eager_b64.median(),
        );

        coverage_rows.push(format!(
            "    {{\n      \
               \"sets\": {sets},\n      \
               \"heap_bytes\": {heap},\n      \
               \"argmax_us\": {argmax},\n      \
               \"eager_b8_us\": {eager}\n    }}",
            argmax = argmax.json(),
            eager = eager_b8.json(),
        ));
        select_rows.push(format!(
            "    {{\n      \
               \"sets\": {sets},\n      \
               \"eager_b64_us\": {eager}\n    }}",
            eager = eager_b64.json(),
        ));
    }

    let trim_rows = time_trim_rounds(args.iters);
    let rounding_rows = time_rounding(args.iters);
    let sampling_rows = time_sampling(args.iters);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create --out-dir {}: {e}", args.out_dir))?;
    let write = |name: &str, bench: &str, rows: &[String], extra: &str| -> Result<(), String> {
        let path = std::path::Path::new(&args.out_dir).join(name);
        let json = format!(
            "{{\n  \
               \"bench\": \"{bench}\",\n  \
               \"iters\": {iters},\n  \
               \"smoke\": {smoke},\n  \
               \"pools\": [\n{rows}\n  ]{extra}\n}}\n",
            iters = args.iters,
            smoke = args.smoke,
            rows = rows.join(",\n"),
        );
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    let coverage_extra = format!(
        ",\n  \"trim_round\": [\n{}\n  ],\n  \"rounding\": [\n{}\n  ],\n  \"sampling\": [\n{}\n  ]",
        trim_rows.join(",\n"),
        rounding_rows.join(",\n"),
        sampling_rows.join(",\n"),
    );
    write(
        "BENCH_coverage.json",
        "coverage",
        &coverage_rows,
        &coverage_extra,
    )?;
    write("BENCH_select.json", "select", &select_rows, "")?;
    Ok(())
}

/// The `trim_round` Criterion fixture without Criterion: one full TRIM
/// round (Algorithm 2) and one TRIM-B round (Algorithm 3, b ∈ {2, 8}) under
/// IC, plus the TRIM-B rounds under LT, on the bench graph, across
/// sketch-generation thread counts.
fn time_trim_rounds(iters: usize) -> Vec<String> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_core::trim::{trim, TrimScratch};
    use smin_core::trim_b::trim_b;
    use smin_core::TrimParams;
    use smin_diffusion::{Model, ResidualState};

    let g = bench_graph();
    let n = g.n();
    let mut rows = Vec::new();
    for &threads in &[1usize, 4] {
        let params = TrimParams::with_eps(0.5).with_threads(threads);
        for &eta in &[100usize, 400] {
            eprintln!("timing trim rounds: threads={threads} eta={eta} ...");
            let mut scratch = TrimScratch::new(n);
            let mut rng = SmallRng::seed_from_u64(3);
            let trim_d = time_us(iters, 1, || {
                let residual = ResidualState::new(n);
                let out = trim(
                    &g,
                    Model::IC,
                    &residual,
                    eta,
                    &params,
                    &mut scratch,
                    &mut rng,
                )
                .expect("valid");
                std::hint::black_box(out.node);
            });
            // TRIM-B under IC, then under LT (the weighted-cascade bench
            // graph is LT-valid), at b = 2 and b = 8.
            let mut b_dists = Vec::new();
            for model in [Model::IC, Model::LT] {
                for &b in &[2usize, 8] {
                    let mut scratch = TrimScratch::new(n);
                    let mut rng = SmallRng::seed_from_u64(3);
                    b_dists.push(time_us(iters, 1, || {
                        let residual = ResidualState::new(n);
                        let out = trim_b(
                            &g,
                            model,
                            &residual,
                            eta,
                            b,
                            &params,
                            &mut scratch,
                            &mut rng,
                        )
                        .expect("valid");
                        std::hint::black_box(out.seeds.len());
                    }));
                }
            }
            println!(
                "trim t{threads} eta {eta:>3}: trim {:9.1} us | b2 {:9.1} us | b8 {:9.1} us \
                 | lt b2 {:9.1} us | lt b8 {:9.1} us",
                trim_d.median(),
                b_dists[0].median(),
                b_dists[1].median(),
                b_dists[2].median(),
                b_dists[3].median(),
            );
            rows.push(format!(
                "    {{\n      \
                   \"threads\": {threads},\n      \
                   \"eta\": {eta},\n      \
                   \"trim_us\": {trim},\n      \
                   \"trim_b2_us\": {b2},\n      \
                   \"trim_b8_us\": {b8},\n      \
                   \"trim_lt_b2_us\": {lt_b2},\n      \
                   \"trim_lt_b8_us\": {lt_b8}\n    }}",
                trim = trim_d.json(),
                b2 = b_dists[0].json(),
                b8 = b_dists[1].json(),
                lt_b2 = b_dists[2].json(),
                lt_b8 = b_dists[3].json(),
            ));
        }
    }
    rows
}

/// The `ablation_rounding` Criterion fixture without Criterion: mRR
/// sampling time under the three §3.3 root-count rounding variants.
fn time_rounding(iters: usize) -> Vec<String> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Model, ResidualState};
    use smin_sampling::{MrrSampler, RootCountDist};

    let g = bench_graph();
    let n = g.n();
    let mut rows = Vec::new();
    for (name, dist) in [
        ("randomized", RootCountDist::Randomized),
        ("fixed_floor", RootCountDist::FixedFloor),
        ("fixed_ceil", RootCountDist::FixedCeil),
    ] {
        for &eta in &[30usize, 300] {
            let residual = ResidualState::new(n);
            let mut sampler = MrrSampler::new(n);
            let mut rng = SmallRng::seed_from_u64(9);
            let mut out = Vec::new();
            let d = time_us(iters, 1, || {
                sampler.sample_into(&g, Model::IC, &residual, eta, dist, &mut rng, &mut out);
                std::hint::black_box(out.len());
            });
            println!("rounding {name:>11} eta {eta:>3}: {:9.1} us", d.median());
            rows.push(format!(
                "    {{ \"dist\": \"{name}\", \"eta\": {eta}, \"sample_us\": {} }}",
                d.json(),
            ));
        }
    }
    rows
}

/// Sets per `sampling` measurement: single sets take 1–50 µs, so each
/// measurement averages a run of them.
const SAMPLE_REPS: usize = 256;

/// The `mrr_generation` single-set fixture without Criterion: one mRR set
/// through `MrrSampler::sample_into` on the bench graph, for IC and LT at
/// η ∈ {20, 100, 400}, plus one IC row on a trivalency copy of the graph.
/// Every node of the weighted-cascade graph shares one in-probability, so
/// its rows run the reverse BFS's shared-probability loop; the trivalency
/// row runs its per-edge loop.
fn time_sampling(iters: usize) -> Vec<String> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Model, ResidualState};
    use smin_graph::weights::apply_weights;
    use smin_graph::WeightModel;
    use smin_sampling::{MrrSampler, RootCountDist};

    let wc = bench_graph();
    let mut rng = SmallRng::seed_from_u64(0x7121);
    let trivalency = apply_weights(&wc, WeightModel::Trivalency, &mut rng);
    let mut cases = Vec::new();
    for eta in [20usize, 100, 400] {
        for model in [Model::IC, Model::LT] {
            cases.push(("wc", &wc, model, eta));
        }
    }
    cases.push(("trivalency", &trivalency, Model::IC, 20));

    let mut rows = Vec::new();
    for (weights, g, model, eta) in cases {
        let n = g.n();
        // The reverse CSR is built lazily: build it outside the timed runs.
        std::hint::black_box(g.in_degree(0));
        let residual = ResidualState::new(n);
        let mut sampler = MrrSampler::new(n);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        let d = time_us(iters, SAMPLE_REPS, || {
            sampler.sample_into(
                g,
                model,
                &residual,
                eta,
                RootCountDist::Randomized,
                &mut rng,
                &mut out,
            );
            std::hint::black_box(out.len());
        });
        println!(
            "sampling {model} {weights:>10} eta {eta:>3}: {:9.2} us/set",
            d.median()
        );
        rows.push(format!(
            "    {{ \"model\": \"{model}\", \"weights\": \"{weights}\", \"eta\": {eta}, \"sample_us\": {} }}",
            d.json(),
        ));
    }
    rows
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perf error: {e}");
        std::process::exit(1);
    }
}
