//! `perf` — the microbenchmark harness behind the recorded perf trajectory.
//!
//! Every kernel group runs at pinned seeds on one fixture, the bench graph
//! (a 2k-node / 8k-edge Chung–Lu graph with weighted-cascade
//! probabilities), and the harness writes three hand-formatted artifacts:
//!
//! * `BENCH_coverage.json` — `pools`: for mRR pools (η = 100) of 1k/4k/16k
//!   sets, the argmax candidate scan, the b = 8 greedy selection (the
//!   compacted eager scan, each pick's sets found by scanning the pool),
//!   and the pool's plus the engine's retained heap bytes. Then one array
//!   per group:
//!   - `trim_round`: one TRIM round (Algorithm 2) and one TRIM-B round
//!     (Algorithm 3, b ∈ {2, 8}, under IC and LT) at t ∈ {1, 2, 4}
//!     sketch-generation threads;
//!   - `rounding`: mRR sampling under the three §3.3 root-count roundings;
//!   - `sampling`: single mRR sets, IC and LT at η ∈ {20, 100, 400}, plus
//!     one IC row on a trivalency copy of the graph;
//!   - `sketch_gen`: one 4 096-set `SketchGenPool` batch at
//!     t ∈ {1, 2, 4, 8} × η ∈ {20, 100}. Sketch generation is the dominant
//!     cost of every campaign (Lemma 3.8's EPT), and the batch is
//!     bit-identical across t, so the thread axis is pure speedup;
//!   - `rr`: single-root RR sets (`η_i = n`, the sets AdaptIM and ATEUC
//!     draw) against η = 100 mRR sets, IC and LT;
//!   - `forward`: realization sampling, a 16-seed realization spread and a
//!     fresh-coin simulation (the observe step), IC and LT;
//!   - `graph_gen`: Chung–Lu, ER and BA generation and weighted-cascade CSR
//!     assembly at 2k/8k and 10k/40k.
//!
//!   The pools are drawn, and the `rounding`, `sampling` and `rr` rows time
//!   one set per call, through `SketchGenPool::generate` on one thread, the
//!   path every algorithm draws its sets through: those rows read µs per
//!   set, the set's stream seeding and pool append included;
//! * `BENCH_select.json` — deep selections (b = 64) on the same pools: 8
//!   scanned picks, then one transpose of the uncovered sets and
//!   word-batched `commit_pick`;
//! * `BENCH_graph_load.json` — the text-parse vs `.smg`-snapshot load gap
//!   on a 200k-node / 1M-edge Chung–Lu graph, both files written to a
//!   temporary directory and every load checked against the generated
//!   graph's edge count.
//!
//! ```text
//! perf [--smoke] [--iters K] [--out-dir DIR]
//! ```
//!
//! `--smoke` drops to 5 iterations per measurement (CI's quick mode); every
//! sweep stays identical so `asm bench-check` can compare a smoke run
//! against the committed full-run baselines. The bin records — the
//! regression *gate* is `asm bench-check` downstream.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_bench::stats;
use smin_diffusion::{Model, ResidualState};
use smin_graph::{Graph, WeightModel};
use smin_sampling::{RootCountDist, SketchGenPool, SketchJob, SketchPool};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Pool sizes swept by `pools` and `BENCH_select.json`. Fixed:
/// `asm bench-check` compares runs structurally, so every run must sweep
/// the same sizes.
const POOL_SIZES: [usize; 3] = [1_024, 4_096, 16_384];

struct PerfArgs {
    iters: usize,
    smoke: bool,
    out_dir: String,
}

const USAGE: &str = "\
perf — microbenchmark harness for the recorded perf trajectory

USAGE:
  perf [--smoke] [--iters K] [--out-dir DIR]

Defaults: --iters 9 (5 with --smoke) --out-dir .
Writes BENCH_coverage.json, BENCH_select.json and BENCH_graph_load.json
into --out-dir.";

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

/// One timed metric: ascending-sorted per-iteration times.
struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    fn median(&self) -> f64 {
        stats::percentile(&self.sorted, 0.50).expect("non-empty sample")
    }

    /// The same times in milliseconds, for a distribution measured in µs.
    fn into_ms(self) -> Dist {
        Dist {
            sorted: self.sorted.into_iter().map(|us| us / 1e3).collect(),
        }
    }

    /// `{ "median": m, "min": a, "max": b }` — the trajectory leaf format
    /// `asm bench-check` consumes.
    fn json(&self) -> String {
        format!(
            "{{ \"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3} }}",
            self.median(),
            self.sorted[0],
            self.sorted[self.sorted.len() - 1],
        )
    }
}

/// Shortest measurement. On a shared host one preemption can cost a
/// millisecond, so a kernel shorter than this repeats until a measurement
/// lasts this long: one hiccup then moves a measurement by a fifth at most,
/// and the sub-microsecond kernels (argmax) sit well above timer
/// resolution.
const MIN_MEASUREMENT: Duration = Duration::from_millis(5);

/// Times `iters` measurements of `f`, reporting per-call microseconds. A
/// warm-up first calls `f` until `MIN_MEASUREMENT` has passed (at least
/// once), which fills caches and finishes lazy set-up; every measurement
/// then makes as many calls as the warm-up did.
fn time_us(iters: usize, mut f: impl FnMut()) -> Dist {
    let warm_up = Instant::now();
    let mut reps = 0usize;
    while reps == 0 || warm_up.elapsed() < MIN_MEASUREMENT {
        f();
        reps += 1;
    }
    let mut sorted: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Dist { sorted }
}

/// A one-line JSON row: `labels` as pre-rendered JSON values (numbers, or
/// quoted names), then one `{ median, min, max }` leaf per metric.
fn json_row(labels: &[(&str, String)], metrics: &[(&str, &Dist)]) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .chain(
            metrics
                .iter()
                .map(|(key, dist)| format!("\"{key}\": {}", dist.json())),
        )
        .collect();
    format!("    {{ {} }}", fields.join(", "))
}

/// A JSON string value.
fn quoted(name: impl std::fmt::Display) -> String {
    format!("\"{name}\"")
}

/// The shared bench graph: a pinned Chung–Lu WC graph of `n` nodes and `m`
/// directed edges.
fn bench_graph(n: usize, m: usize, seed: u64) -> Graph {
    use smin_graph::generators::{assemble, chung_lu_directed};

    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = chung_lu_directed(n, m, 2.1, &mut rng);
    assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
        .expect("valid generator output")
}

/// An mRR pool of exactly `sets` sketches (IC, η = 100) on `g`. Set `i`
/// draws from its own stream, so pools of different sizes share their
/// prefix.
fn build_pool(g: &Graph, sets: usize) -> SketchPool {
    let n = g.n();
    let residual = ResidualState::new(n);
    let job = SketchJob {
        graph: g,
        model: Model::IC,
        snapshot: residual.snapshot(),
        eta_i: 100,
        dist: RootCountDist::Randomized,
        base_seed: 4,
    };
    let mut pool = SketchPool::new(n);
    SketchGenPool::new(n).generate(&job, sets, 1, &mut pool);
    pool
}

/// Times one set per call through `SketchGenPool::generate` on one
/// thread: each call appends `job`'s next set to a pool, which starts over
/// under the next base seed every `GEN_BATCH` sets, so memory stays
/// bounded and no set repeats.
fn time_sets(mut job: SketchJob<'_>, iters: usize) -> Dist {
    let n = job.graph.n();
    let mut gen = SketchGenPool::new(n);
    let mut pool = SketchPool::new(n);
    time_us(iters, || {
        if pool.len() == GEN_BATCH {
            pool.reset();
            job.base_seed = job.base_seed.wrapping_add(GEN_BATCH as u64);
        }
        black_box(gen.generate(&job, pool.len() + 1, 1, &mut pool));
    })
}

fn run(args: &PerfArgs) -> Result<(), String> {
    use smin_sampling::CoverageEngine;

    let g = bench_graph(2_000, 8_000, 0xBEEF);
    let mut coverage_rows = Vec::new();
    let mut select_rows = Vec::new();

    for &sets in &POOL_SIZES {
        eprintln!("building pool: {sets} sets ...");
        let pool = build_pool(&g, sets);
        let mut engine = CoverageEngine::new();

        // Per-pick kernels: the argmax candidate scan and the b = 8 greedy
        // selection.
        let argmax = time_us(args.iters, || {
            black_box(pool.argmax());
        });
        let eager_b8 = time_us(args.iters, || {
            black_box(engine.select(&pool, 8).covered);
        });

        // Deep selections: commit_pick dominates.
        let eager_b64 = time_us(args.iters, || {
            black_box(engine.select(&pool, 64).covered);
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

    let groups = [
        ("trim_round", time_trim_rounds(&g, args.iters)),
        ("rounding", time_rounding(&g, args.iters)),
        ("sampling", time_sampling(&g, args.iters)),
        ("sketch_gen", time_sketch_gen(&g, args.iters)),
        ("rr", time_rr(&g, args.iters)),
        ("forward", time_forward(&g, args.iters)),
        ("graph_gen", time_graph_gen(args.iters)),
    ];
    let graph_load = time_graph_load(args.iters)?;

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create --out-dir {}: {e}", args.out_dir))?;
    let write = |name: &str, json: &str| -> Result<(), String> {
        let path = std::path::Path::new(&args.out_dir).join(name);
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    let pools_artifact = |bench: &str, rows: &[String], extra: &str| {
        format!(
            "{{\n  \
               \"bench\": \"{bench}\",\n  \
               \"iters\": {iters},\n  \
               \"smoke\": {smoke},\n  \
               \"pools\": [\n{rows}\n  ]{extra}\n}}\n",
            iters = args.iters,
            smoke = args.smoke,
            rows = rows.join(",\n"),
        )
    };
    let coverage_extra: String = groups
        .iter()
        .map(|(name, rows)| format!(",\n  \"{name}\": [\n{}\n  ]", rows.join(",\n")))
        .collect();
    write(
        "BENCH_coverage.json",
        &pools_artifact("coverage", &coverage_rows, &coverage_extra),
    )?;
    write(
        "BENCH_select.json",
        &pools_artifact("select", &select_rows, ""),
    )?;
    write("BENCH_graph_load.json", &graph_load)?;
    Ok(())
}

/// One full TRIM round (Algorithm 2) and one TRIM-B round (Algorithm 3,
/// b ∈ {2, 8}) under IC, plus the TRIM-B rounds under LT, on the bench
/// graph, across sketch-generation thread counts. Every iteration reseeds,
/// so it repeats the same round: how many checks a round takes depends
/// on its draws, and a run continuing one stream would time a different
/// mix of rounds at 5 iterations than at 9. Selections are bit-identical
/// across the sweep, so the thread axis isolates wall-clock speedup.
fn time_trim_rounds(g: &Graph, iters: usize) -> Vec<String> {
    use smin_core::trim::{trim, TrimScratch};
    use smin_core::trim_b::trim_b;
    use smin_core::TrimParams;

    let n = g.n();
    let mut rows = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let params = TrimParams::with_eps(0.5).with_threads(threads);
        for &eta in &[100usize, 400] {
            eprintln!("timing trim rounds: threads={threads} eta={eta} ...");
            let mut scratch = TrimScratch::new(n);
            let trim_d = time_us(iters, || {
                let residual = ResidualState::new(n);
                let mut rng = SmallRng::seed_from_u64(3);
                let out = trim(
                    g,
                    Model::IC,
                    &residual,
                    eta,
                    &params,
                    &mut scratch,
                    &mut rng,
                )
                .expect("valid");
                black_box(out.node);
            });
            // TRIM-B under IC, then under LT (the weighted-cascade bench
            // graph is LT-valid), at b = 2 and b = 8.
            let mut b_dists = Vec::new();
            for model in [Model::IC, Model::LT] {
                for &b in &[2usize, 8] {
                    let mut scratch = TrimScratch::new(n);
                    b_dists.push(time_us(iters, || {
                        let residual = ResidualState::new(n);
                        let mut rng = SmallRng::seed_from_u64(3);
                        let out =
                            trim_b(g, model, &residual, eta, b, &params, &mut scratch, &mut rng)
                                .expect("valid");
                        black_box(out.seeds.len());
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

/// mRR sampling time under the three §3.3 root-count rounding variants.
/// What the Remark is about is estimator accuracy
/// (`tests/theorem33_bounds.rs`); these rows show the accuracy is not paid
/// for in sampling time.
fn time_rounding(g: &Graph, iters: usize) -> Vec<String> {
    let residual = ResidualState::new(g.n());
    let mut rows = Vec::new();
    for (name, dist) in [
        ("randomized", RootCountDist::Randomized),
        ("fixed_floor", RootCountDist::FixedFloor),
        ("fixed_ceil", RootCountDist::FixedCeil),
    ] {
        for &eta in &[30usize, 300] {
            let d = time_sets(
                SketchJob {
                    graph: g,
                    model: Model::IC,
                    snapshot: residual.snapshot(),
                    eta_i: eta,
                    dist,
                    base_seed: 9,
                },
                iters,
            );
            println!("rounding {name:>11} eta {eta:>3}: {:9.1} us", d.median());
            rows.push(json_row(
                &[("dist", quoted(name)), ("eta", eta.to_string())],
                &[("sample_us", &d)],
            ));
        }
    }
    rows
}

/// One mRR set per call on the bench graph, for IC and LT at
/// η ∈ {20, 100, 400}, plus one IC row on a trivalency copy of the graph.
/// Every node of the weighted-cascade graph shares one in-probability, so
/// its rows run the reverse BFS's shared-probability loop; the trivalency
/// row runs its per-edge loop.
fn time_sampling(wc: &Graph, iters: usize) -> Vec<String> {
    use smin_graph::weights::apply_weights;

    let mut rng = SmallRng::seed_from_u64(0x7121);
    let trivalency = apply_weights(wc, WeightModel::Trivalency, &mut rng);
    let mut cases = Vec::new();
    for eta in [20usize, 100, 400] {
        for model in [Model::IC, Model::LT] {
            cases.push(("wc", wc, model, eta));
        }
    }
    cases.push(("trivalency", &trivalency, Model::IC, 20));

    let mut rows = Vec::new();
    for (weights, g, model, eta) in cases {
        let residual = ResidualState::new(g.n());
        let d = time_sets(
            SketchJob {
                graph: g,
                model,
                snapshot: residual.snapshot(),
                eta_i: eta,
                dist: RootCountDist::Randomized,
                base_seed: 1,
            },
            iters,
        );
        println!(
            "sampling {model} {weights:>10} eta {eta:>3}: {:9.2} us/set",
            d.median()
        );
        rows.push(json_row(
            &[
                ("model", quoted(model)),
                ("weights", quoted(weights)),
                ("eta", eta.to_string()),
            ],
            &[("sample_us", &d)],
        ));
    }
    rows
}

/// Sets per `sketch_gen` batch: a mid-round growth step's worth.
const GEN_BATCH: usize = 4_096;

/// One `GEN_BATCH`-set IC batch through the `SketchGenPool` worker pool,
/// swept over worker threads and η (the root count `E[k] = n/η` shrinks
/// as η grows — Lemma 3.8's EPT trade-off).
fn time_sketch_gen(g: &Graph, iters: usize) -> Vec<String> {
    let n = g.n();
    let residual = ResidualState::new(n);
    let mut gen = SketchGenPool::new(n);
    let mut pool = SketchPool::new(n);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for eta in [20usize, 100] {
            let job = SketchJob {
                graph: g,
                model: Model::IC,
                snapshot: residual.snapshot(),
                eta_i: eta,
                dist: RootCountDist::Randomized,
                base_seed: 0xBADC_AB1E,
            };
            let d = time_us(iters, || {
                pool.reset();
                black_box(
                    gen.generate(&job, GEN_BATCH, threads, &mut pool)
                        .edges_examined,
                );
            });
            println!(
                "sketch_gen t{threads} eta {eta:>3}: {:9.1} us / {GEN_BATCH} sets",
                d.median()
            );
            rows.push(json_row(
                &[("threads", threads.to_string()), ("eta", eta.to_string())],
                &[("batch_us", &d)],
            ));
        }
    }
    rows
}

/// Single-root RR sets (`η_i = n`: one root under randomized rounding,
/// the sets AdaptIM and ATEUC draw) against η = 100 mRR sets on the same
/// graph: the per-sample cost the mRR estimator pays for its accuracy.
fn time_rr(g: &Graph, iters: usize) -> Vec<String> {
    let n = g.n();
    let residual = ResidualState::new(n);
    let mut rows = Vec::new();
    for model in [Model::IC, Model::LT] {
        let job = |eta_i| SketchJob {
            graph: g,
            model,
            snapshot: residual.snapshot(),
            eta_i,
            dist: RootCountDist::Randomized,
            base_seed: 2,
        };
        let single = time_sets(job(n), iters);
        let multi = time_sets(job(100), iters);
        println!(
            "rr {model}: single root {:7.2} us/set | mRR eta 100 {:7.2} us/set",
            single.median(),
            multi.median()
        );
        rows.push(json_row(
            &[("model", quoted(model))],
            &[
                ("single_root_us", &single),
                ("multi_root_eta100_us", &multi),
            ],
        ));
    }
    rows
}

/// Forward propagation on the bench graph: sampling a live-edge
/// realization, the spread of 16 fixed seeds in a sampled realization, and
/// a fresh-coin simulation from the same seeds (the observe step's cost).
fn time_forward(g: &Graph, iters: usize) -> Vec<String> {
    use smin_diffusion::{ForwardSim, Realization};

    let n = g.n();
    let seeds: Vec<u32> = (0..16).map(|i| i * 37 % n as u32).collect();
    let mut sim = ForwardSim::new(n);
    let mut rows = Vec::new();
    for model in [Model::IC, Model::LT] {
        let mut rng = SmallRng::seed_from_u64(5);
        let realization = time_us(iters, || {
            black_box(Realization::sample(g, model, &mut rng).live_edge_count());
        });
        let phi = Realization::sample(g, model, &mut SmallRng::seed_from_u64(6));
        let spread = time_us(iters, || {
            black_box(sim.spread(g, &phi, &seeds));
        });
        let mut rng = SmallRng::seed_from_u64(7);
        let fresh = time_us(iters, || {
            black_box(sim.simulate(g, model, &seeds, &mut rng));
        });
        println!(
            "forward {model}: realization {:8.2} us | spread16 {:7.2} us | fresh coin {:7.2} us",
            realization.median(),
            spread.median(),
            fresh.median()
        );
        rows.push(json_row(
            &[("model", quoted(model))],
            &[
                ("realization_us", &realization),
                ("spread16_us", &spread),
                ("fresh_coin_us", &fresh),
            ],
        ));
    }
    rows
}

/// Synthetic graph generation (Chung–Lu, ER, BA with 4 edges per new node)
/// and the weighted-cascade CSR assembly of a Chung–Lu edge list.
fn time_graph_gen(iters: usize) -> Vec<String> {
    use smin_graph::generators::{assemble, barabasi_albert, chung_lu_directed, erdos_renyi};

    let mut rows = Vec::new();
    for (n, m) in [(2_000usize, 8_000usize), (10_000, 40_000)] {
        let mut rng = SmallRng::seed_from_u64(8);
        let chung_lu = time_us(iters, || {
            black_box(chung_lu_directed(n, m, 2.1, &mut rng).len());
        });
        let mut rng = SmallRng::seed_from_u64(8);
        let er = time_us(iters, || {
            black_box(erdos_renyi(n, m, &mut rng).len());
        });
        let mut rng = SmallRng::seed_from_u64(8);
        let ba = time_us(iters, || {
            black_box(barabasi_albert(n, 4, &mut rng).len());
        });
        let mut rng = SmallRng::seed_from_u64(8);
        let pairs = chung_lu_directed(n, m, 2.1, &mut rng);
        let assemble_wc = time_us(iters, || {
            let g = assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
                .expect("valid generator output");
            black_box(g.m());
        });
        println!(
            "graph_gen {n:>6}/{m:<6}: chung-lu {:8.1} us | er {:8.1} us | ba {:8.1} us \
             | assemble wc {:8.1} us",
            chung_lu.median(),
            er.median(),
            ba.median(),
            assemble_wc.median()
        );
        rows.push(json_row(
            &[("n", n.to_string()), ("m", m.to_string())],
            &[
                ("chung_lu_us", &chung_lu),
                ("erdos_renyi_us", &er),
                ("barabasi_albert_us", &ba),
                ("assemble_wc_us", &assemble_wc),
            ],
        ));
    }
    rows
}

/// Size and seed of the load-gap graph. Fixed, like the pool sizes.
const LOAD_N: usize = 200_000;
const LOAD_M: usize = 1_000_000;
const LOAD_SEED: u64 = 42;

/// The text-parse vs `.smg`-snapshot load gap: writes the generated graph
/// both ways into a temporary directory, times `iters` full loads of each,
/// and returns the `BENCH_graph_load.json` document. Every load must
/// reproduce the generated edge count (the node count may shrink: the text
/// format drops isolated nodes on relabeling, the snapshot keeps them).
fn time_graph_load(iters: usize) -> Result<String, String> {
    use smin_graph::{io, store};

    eprintln!("generating load graph: n = {LOAD_N}, m = {LOAD_M}, seed = {LOAD_SEED} ...");
    let g = bench_graph(LOAD_N, LOAD_M, LOAD_SEED);
    let dir = std::env::temp_dir().join(format!("smin_perf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let txt = dir.join("graph.txt");
    let smg = dir.join("graph.smg");
    let (txt_bytes, smg_bytes) = write_load_files(&g, &txt, &smg).inspect_err(|_| {
        std::fs::remove_dir_all(&dir).ok();
    })?;

    let check = |loaded: Graph| {
        assert_eq!(loaded.m(), g.m(), "loaded graph must match");
        assert!(loaded.n() <= g.n(), "loaded graph must match");
        black_box(loaded);
    };
    let text = time_us(iters, || {
        check(
            io::read_edge_list_path(&txt)
                .expect("read text edge list")
                .into_graph(true, 1.0)
                .expect("build graph from text"),
        );
    })
    .into_ms();
    let binary = time_us(iters, || {
        check(store::read_smg_path(&smg).expect("read snapshot"));
    })
    .into_ms();
    std::fs::remove_dir_all(&dir).ok();

    let speedup = text.median() / binary.median().max(1e-9);
    println!(
        "graph_load: text parse {:.1} ms | .smg load {:.1} ms | {speedup:.1}x",
        text.median(),
        binary.median()
    );
    Ok(format!(
        "{{\n  \
           \"bench\": \"graph_load\",\n  \
           \"n\": {LOAD_N},\n  \
           \"m\": {LOAD_M},\n  \
           \"seed\": {LOAD_SEED},\n  \
           \"iters\": {iters},\n  \
           \"text_bytes\": {txt_bytes},\n  \
           \"smg_bytes\": {smg_bytes},\n  \
           \"text_parse_ms\": {text},\n  \
           \"binary_load_ms\": {binary},\n  \
           \"speedup_median\": {speedup:.1}\n}}\n",
        text = text.json(),
        binary = binary.json(),
    ))
}

/// Writes `g` as a text edge list to `txt` and as a `.smg` snapshot to
/// `smg`, returning both file sizes in bytes.
fn write_load_files(g: &Graph, txt: &Path, smg: &Path) -> Result<(u64, u64), String> {
    use smin_graph::{io, store};

    let file = std::fs::File::create(txt).map_err(|e| format!("{}: {e}", txt.display()))?;
    io::write_edge_list(g, std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", txt.display()))?;
    store::write_smg_path(g, smg).map_err(|e| format!("{}: {e}", smg.display()))?;
    let len = |p: &Path| {
        std::fs::metadata(p)
            .map(|m| m.len())
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok((len(txt)?, len(smg)?))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perf error: {e}");
        std::process::exit(1);
    }
}
