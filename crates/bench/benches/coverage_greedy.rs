//! Microbench: argmax + greedy maximum coverage over a sketch pool (TRIM
//! Line 7 / TRIM-B Line 8) across batch sizes and pool sizes.
//!
//! Two contenders per configuration:
//!
//! * `naive` — the pre-refactor baseline reconstructed here: `Vec<Vec<u32>>`
//!   inverted index, full rescans (no exhausted-node compaction);
//! * `eager` — the columnar pool + the engine's compacted-scan greedy: its
//!   first 8 picks scan the pool for their sets, and a longer run builds
//!   the node→sets transpose of the uncovered sets once, inside the timing.
//!
//! The pool-size sweep also reports the pool's and a used engine's heap
//! bytes next to the naive layout's footprint, so both the speed and the
//! memory side of the layout stay visible in CI's bench smoke run.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_diffusion::{Model, ResidualState};
use smin_sampling::{greedy_max_coverage, CoverageEngine, MrrSampler, RootCountDist, SketchPool};
use std::hint::black_box;

/// Pre-refactor pool layout and greedy, kept verbatim as the regression
/// baseline the coverage engine is measured against.
struct NaivePool {
    node_sets: Vec<Vec<u32>>,
    sets: Vec<Vec<u32>>,
    coverage: Vec<u32>,
    touched: Vec<u32>,
}

impl NaivePool {
    fn new(n: usize) -> Self {
        NaivePool {
            node_sets: vec![Vec::new(); n],
            sets: Vec::new(),
            coverage: vec![0; n],
            touched: Vec::new(),
        }
    }

    fn add_set(&mut self, nodes: &[u32]) {
        let id = self.sets.len() as u32;
        for &v in nodes {
            self.node_sets[v as usize].push(id);
            if self.coverage[v as usize] == 0 {
                self.touched.push(v);
            }
            self.coverage[v as usize] += 1;
        }
        self.sets.push(nodes.to_vec());
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_vec = size_of::<Vec<u32>>();
        self.node_sets.capacity() * per_vec
            + self
                .node_sets
                .iter()
                .map(|v| v.capacity() * 4)
                .sum::<usize>()
            + self.sets.capacity() * per_vec
            + self.sets.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + self.coverage.capacity() * 4
            + self.touched.capacity() * 4
    }

    /// The seed repo's `greedy_max_coverage`: rescans every touched node on
    /// every pick, `Vec<bool>` covered mask.
    fn greedy(&self, b: usize) -> u32 {
        let mut marginal = self.coverage.clone();
        let mut set_covered = vec![false; self.sets.len()];
        let mut covered = 0u32;
        for _ in 0..b {
            let mut best: Option<(u32, u32)> = None;
            for &v in &self.touched {
                let c = marginal[v as usize];
                if c > 0 && best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
                    best = Some((v, c));
                }
            }
            let Some((v, gain)) = best else { break };
            covered += gain;
            for &s in &self.node_sets[v as usize] {
                if !set_covered[s as usize] {
                    set_covered[s as usize] = true;
                    for &u in &self.sets[s as usize] {
                        marginal[u as usize] -= 1;
                    }
                }
            }
        }
        covered
    }
}

fn build_pools(sets: usize) -> (SketchPool, NaivePool) {
    let g = common::bench_graph();
    let n = g.n();
    let residual = ResidualState::new(n);
    let mut sampler = MrrSampler::new(n);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut pool = SketchPool::new(n);
    let mut naive = NaivePool::new(n);
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
        naive.add_set(&out);
    }
    (pool, naive)
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_greedy");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);

    // Pool-size sweep at a fixed mid batch, reporting memory footprints.
    for &sets in &[1_024usize, 4_096, 16_384] {
        let (pool, naive) = build_pools(sets);
        let mut engine = CoverageEngine::new();
        // engine vs naive must agree before we time anything
        assert_eq!(engine.select(&pool, 8).covered, naive.greedy(8));
        println!(
            "pool {sets:>6} sets: pool heap = {:>9} B, engine heap = {:>9} B, naive heap = {:>9} B",
            pool.heap_bytes(),
            engine.heap_bytes(),
            naive.heap_bytes()
        );
        group.bench_with_input(BenchmarkId::new("naive/b8", sets), &sets, |bench, _| {
            bench.iter(|| black_box(naive.greedy(8)))
        });
        group.bench_with_input(BenchmarkId::new("eager/b8", sets), &sets, |bench, _| {
            bench.iter(|| black_box(greedy_max_coverage(&pool, 8).covered))
        });
    }

    // Batch sweep on the standard pool: argmax + both contenders, the
    // engine reused across iterations the way TrimScratch holds it.
    let (pool, naive) = build_pools(4_096);
    let mut engine = CoverageEngine::new();
    group.bench_function("argmax", |bench| {
        bench.iter(|| black_box(engine.argmax(&pool)))
    });
    for &b in &[1usize, 2, 4, 8, 32] {
        assert_eq!(greedy_max_coverage(&pool, b).covered, naive.greedy(b));
        group.bench_with_input(BenchmarkId::new("naive", b), &b, |bench, &b| {
            bench.iter(|| black_box(naive.greedy(b)));
        });
        group.bench_with_input(BenchmarkId::new("eager", b), &b, |bench, &b| {
            bench.iter(|| black_box(engine.select(&pool, b).covered));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy);
criterion_main!(benches);
