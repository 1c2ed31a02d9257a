//! Microbench: mRR-set generation cost of a TRIM-doubling-sized batch
//! through [`SketchGenPool`], swept over worker thread counts and η (root
//! count `E[k] = n/η` shrinks as η grows — Lemma 3.8's EPT trade-off). The
//! generated pool is bit-identical across the sweep, so the thread axis
//! shows pure speedup. Single-set cost per model and η is a gated median in
//! `BENCH_coverage.json` (`perf`'s `sampling` rows).

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smin_diffusion::{Model, ResidualState};
use smin_sampling::{RootCountDist, SketchGenPool, SketchJob, SketchPool};
use std::hint::black_box;

fn bench_mrr(c: &mut Criterion) {
    let g = common::bench_graph();
    let n = g.n();

    // One TRIM doubling's worth of sets, generated by the worker pool.
    const BATCH: usize = 4_096;
    let mut group = c.benchmark_group("mrr_generation_batch");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH as u64));
    for &threads in &[1usize, 2, 4, 8] {
        for &eta in &[20usize, 100] {
            group.bench_with_input(
                BenchmarkId::new(format!("ic/t{threads}"), eta),
                &eta,
                |bench, &eta| {
                    let residual = ResidualState::new(n);
                    let mut gen = SketchGenPool::new(n);
                    let mut pool = SketchPool::new(n);
                    bench.iter(|| {
                        pool.reset();
                        let job = SketchJob {
                            graph: &g,
                            model: Model::IC,
                            snapshot: residual.snapshot(),
                            eta_i: eta,
                            dist: RootCountDist::Randomized,
                            base_seed: 0xBADC_AB1E,
                        };
                        let stats = gen.generate(&job, BATCH, threads, &mut pool);
                        black_box(stats.edges_examined)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mrr);
criterion_main!(benches);
