//! Deterministic parallel (m)RR sketch generation.
//!
//! TRIM spends nearly all of its time on Algorithm 2 line 6 and the
//! growth steps of line 7 — generating mRR sets — and §3.3's sampling is
//! independent per set, so the work is embarrassingly parallel. With no
//! external thread-pool crates available offline, [`SketchGenPool`] runs
//! one loop over blocks of set indices on `std::thread` scoped threads, and
//! the calling thread is worker 0:
//!
//! * a block is `t` consecutive shares of at most `CHUNK` (1 024) sets each;
//! * the caller samples the block's first share straight into its
//!   [`SketchSink`] (a [`SketchCounts`](crate::SketchCounts) or a
//!   [`SketchPool`](crate::SketchPool));
//! * meanwhile `t − 1` scoped helpers each sample one of the following
//!   shares into a node column and an offset column of their own scratch;
//! * once the helpers join, the caller appends their sets in index order
//!   and starts the next block.
//!
//! At `t = 1`, or for a call of fewer than `MIN_PARALLEL_SETS` sets, there
//! are no helpers and no thread starts: the caller samples every set into
//! the sink.
//!
//! # Determinism
//!
//! Every sketch draws from its **own counter-derived RNG stream**:
//! set index `i` in a generation round is sampled with
//! `SmallRng::seed_from_u64(base_seed ^ i)` (the SplitMix64 finalizer inside
//! `seed_from_u64` decorrelates adjacent streams). Share boundaries and
//! thread scheduling therefore affect only *when* a set is sampled, never
//! *what* is sampled, and every set is appended in index order — the
//! generated sets, and hence every downstream seed selection, are
//! bit-identical for any thread count.
//!
//! # Memory
//!
//! The caller samples each set into one reused buffer and hands it straight
//! to the sink, so its shares allocate nothing per set: at `t = 1`, into a
//! [`SketchCounts`](crate::SketchCounts), a round holds O(n) bytes whatever
//! its target. A helper buffers one share, at most `CHUNK` sets, in
//! columns it reuses across blocks and calls, so a call holds at most
//! `(t − 1)·CHUNK` sets besides its sink, whatever its target. There is no
//! channel, cursor or reorder buffer.

use crate::mrr::{sample_root_count, RootCountDist};
use crate::pool::SketchSink;
use crate::rr::ReverseSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_diffusion::{DistinctDraw, Model, ResidualSnapshot};
pub use smin_graph::{resolve_threads, THREADS_ENV};
use smin_graph::{Graph, NodeId};
use std::ops::Range;

/// Below this many sets the thread start-up outweighs the parallelism and
/// the caller samples the whole call alone. Purely a performance knob: the
/// output is identical either way.
const MIN_PARALLEL_SETS: usize = 128;

/// Most sets in one worker's share of a block: the bound on what a helper
/// buffers before the caller appends it.
const CHUNK: usize = 1024;

/// Everything a worker needs to sample one sketch, borrowed immutably so
/// the whole job is `Sync` and shareable across the scope.
#[derive(Clone, Copy)]
pub struct SketchJob<'a> {
    /// The base graph.
    pub graph: &'a Graph,
    /// Diffusion model.
    pub model: Model,
    /// Immutable view of the residual graph `G_i`.
    pub snapshot: ResidualSnapshot<'a>,
    /// Current shortfall `η_i` (drives the root-count draw).
    pub eta_i: usize,
    /// Root-count distribution (§3.3 randomized rounding by default).
    pub dist: RootCountDist,
    /// Base seed of the round; set `i` uses the stream `base_seed ^ i`.
    pub base_seed: u64,
}

impl SketchJob<'_> {
    /// The RNG stream for sketch index `idx`.
    #[inline]
    fn rng_for(&self, idx: usize) -> SmallRng {
        SmallRng::seed_from_u64(self.base_seed ^ idx as u64)
    }
}

/// Per-worker scratch: reverse-BFS state, root-draw stamps, the set buffer,
/// and a helper's share columns. Reused across blocks and generation calls
/// so the hot path stays allocation-free.
struct WorkerScratch {
    reverse: ReverseSampler,
    draw: DistinctDraw,
    roots: Vec<NodeId>,
    set_buf: Vec<NodeId>,
    /// The share's sets, flattened: set `j` spans `nodes[offs[j]..offs[j + 1]]`.
    nodes: Vec<NodeId>,
    offs: Vec<usize>,
    /// Edges the share's sets examined.
    edges: usize,
}

impl WorkerScratch {
    fn new(n: usize) -> Self {
        WorkerScratch {
            reverse: ReverseSampler::new(n),
            draw: DistinctDraw::new(),
            roots: Vec::new(),
            set_buf: Vec::new(),
            nodes: Vec::new(),
            offs: Vec::new(),
            edges: 0,
        }
    }

    /// Samples sketch `idx` into `self.set_buf`; returns edges examined.
    /// Fully monomorphized over [`SmallRng`] — no dynamic dispatch anywhere
    /// in the innermost sampling loop.
    fn sample_one(&mut self, job: &SketchJob<'_>, idx: usize) -> usize {
        let mut rng = job.rng_for(idx);
        let k = sample_root_count(job.snapshot.n_alive(), job.eta_i, job.dist, &mut rng);
        self.draw
            .sample_from(&job.snapshot, k, &mut rng, &mut self.roots);
        self.reverse.sample_into(
            job.graph,
            job.model,
            Some(job.snapshot.alive_mask()),
            &self.roots,
            &mut rng,
            &mut self.set_buf,
        )
    }

    /// The caller's share: samples sets `range` straight into `sink`;
    /// returns edges examined.
    fn sample_to(
        &mut self,
        job: &SketchJob<'_>,
        range: Range<usize>,
        sink: &mut impl SketchSink,
    ) -> usize {
        let mut edges = 0;
        for idx in range {
            edges += self.sample_one(job, idx);
            sink.add_set(&self.set_buf);
        }
        edges
    }

    /// A helper's share: samples sets `range` into the share columns,
    /// replacing what they held. The offset column is sized exactly, so its
    /// capacity is the largest share this worker ever buffered.
    fn sample_share(&mut self, job: &SketchJob<'_>, range: Range<usize>) {
        self.nodes.clear();
        self.offs.clear();
        self.offs.reserve_exact(range.len() + 1);
        self.offs.push(0);
        self.edges = 0;
        for idx in range {
            self.edges += self.sample_one(job, idx);
            self.nodes.extend_from_slice(&self.set_buf);
            self.offs.push(self.nodes.len());
        }
    }
}

/// Accounting for one generation call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Sets appended to the pool.
    pub sets_generated: usize,
    /// Total edges examined across all sets (EPT accounting, Lemma 3.8;
    /// what the reverse BFS counts is in the [`rr`](crate::rr) module docs).
    pub edges_examined: usize,
}

/// Reusable sketch-generation pool: owns one `WorkerScratch` per worker
/// (grown lazily to the most workers a block has used) and runs the block
/// loop of the module docs, the caller as worker 0 and `t − 1` scoped
/// helpers per block. Besides its sink, a call holds at most
/// `(t − 1)·CHUNK` sets, one share per helper.
pub struct SketchGenPool {
    n: usize,
    workers: Vec<WorkerScratch>,
}

impl SketchGenPool {
    /// Generation pool for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        SketchGenPool {
            n,
            workers: Vec::new(),
        }
    }

    /// Grows `pool` from `pool.len()` to `target` sets (no-op if already
    /// there), sampling each set from its counter-derived RNG stream and
    /// appending in index order. `pool` is a
    /// [`SketchCounts`](crate::SketchCounts) for a reader of the counts
    /// alone, a [`SketchPool`](crate::SketchPool) for one that reads members.
    /// `threads` is the worker count to use (see [`resolve_threads`]); the
    /// result is identical for every value.
    pub fn generate(
        &mut self,
        job: &SketchJob<'_>,
        target: usize,
        threads: usize,
        pool: &mut impl SketchSink,
    ) -> GenStats {
        let from = pool.len();
        if target <= from {
            return GenStats::default();
        }
        let threads = if target - from < MIN_PARALLEL_SETS {
            1
        } else {
            threads.max(1)
        };
        let mut edges_examined = 0;
        let mut start = from;
        while start < target {
            // Worker w samples share w of the block, in index order.
            let share = (target - start).div_ceil(threads).min(CHUNK);
            let end = (start + threads * share).min(target);
            let mid = start + share;
            let helpers = (end - mid).div_ceil(share);
            // Scratch grows only to the workers a block uses: each carries
            // node-count-sized buffers, so over-provisioning is real memory.
            self.ensure_workers(1 + helpers);
            let (caller, helpers) = self.workers[..=helpers]
                .split_first_mut()
                .expect("at least the caller's scratch");
            if helpers.is_empty() {
                // No scope either: TRIM's first steps and `perf`'s per-set
                // rows draw a few sets per call, and pay for no threads.
                edges_examined += caller.sample_to(job, start..mid, pool);
            } else {
                std::thread::scope(|scope| {
                    for (h, w) in helpers.iter_mut().enumerate() {
                        let lo = mid + h * share;
                        let hi = (lo + share).min(end);
                        scope.spawn(move || w.sample_share(job, lo..hi));
                    }
                    edges_examined += caller.sample_to(job, start..mid, pool);
                });
                for w in helpers.iter() {
                    for s in w.offs.windows(2) {
                        pool.add_set(&w.nodes[s[0]..s[1]]);
                    }
                    edges_examined += w.edges;
                }
            }
            start = end;
        }
        GenStats {
            sets_generated: target - from,
            edges_examined,
        }
    }

    fn ensure_workers(&mut self, count: usize) {
        while self.workers.len() < count {
            self.workers.push(WorkerScratch::new(self.n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SketchPool;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::ResidualState;

    fn test_graph(n: usize) -> Graph {
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        let pairs = smin_graph::generators::chung_lu_directed(n, n * 4, 2.1, &mut rng).unwrap();
        smin_graph::generators::assemble(
            n,
            &pairs,
            true,
            smin_graph::WeightModel::WeightedCascade,
            &mut rng,
        )
        .unwrap()
    }

    fn dump(pool: &SketchPool) -> Vec<Vec<NodeId>> {
        (0..pool.len() as u32)
            .map(|i| pool.set(i).to_vec())
            .collect()
    }

    fn generate_with(threads: usize, target: usize) -> (Vec<Vec<NodeId>>, GenStats) {
        let g = test_graph(300);
        let mut residual = ResidualState::new(300);
        residual.kill_all(&[0, 7, 42]);
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: 25,
            dist: RootCountDist::Randomized,
            base_seed: 0xDEAD_BEEF,
        };
        let mut gen = SketchGenPool::new(300);
        let mut pool = SketchPool::new(300);
        let stats = gen.generate(&job, target, threads, &mut pool);
        (dump(&pool), stats)
    }

    #[test]
    fn identical_output_across_thread_counts() {
        // 600 sets clears MIN_PARALLEL_SETS so threads > 1 really run the
        // chunked path; the pool must be bit-identical regardless.
        let (base, base_stats) = generate_with(1, 600);
        assert_eq!(base.len(), 600);
        for threads in [2, 3, 8] {
            let (out, stats) = generate_with(threads, 600);
            assert_eq!(out, base, "{threads} threads diverged from sequential");
            assert_eq!(
                stats, base_stats,
                "accounting diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn incremental_growth_matches_one_shot() {
        // grow_to(θ◦) then repeated doubling must equal a single generate
        // to the same target — set identity depends only on the index.
        let g = test_graph(200);
        let residual = ResidualState::new(200);
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: 10,
            dist: RootCountDist::Randomized,
            base_seed: 99,
        };
        let mut gen = SketchGenPool::new(200);
        let mut stepped = SketchPool::new(200);
        for target in [5usize, 10, 20, 40, 200, 400] {
            gen.generate(&job, target, 4, &mut stepped);
        }
        let mut oneshot = SketchPool::new(200);
        gen.generate(&job, 400, 2, &mut oneshot);
        assert_eq!(dump(&stepped), dump(&oneshot));

        // TRIM's walk, `max(len + 1, ⌈1.25·len⌉)`, whose steps past 524
        // sets clear MIN_PARALLEL_SETS and so run with helpers.
        let mut oneshot = SketchPool::new(200);
        gen.generate(&job, 2_000, 1, &mut oneshot);
        for threads in [2, 3] {
            let mut walked = SketchPool::new(200);
            let mut len = 5usize;
            while len < 2_000 {
                len = (len + 1).max((5 * len).div_ceil(4)).min(2_000);
                gen.generate(&job, len, threads, &mut walked);
            }
            assert_eq!(dump(&walked), dump(&oneshot), "{threads} threads");
        }
    }

    /// A job on `n` nodes of [`test_graph`] with a few nodes dead.
    fn with_job<T>(n: usize, f: impl FnOnce(&SketchJob<'_>) -> T) -> T {
        let g = test_graph(n);
        let mut residual = ResidualState::new(n);
        residual.kill_all(&[1, 4, 9]);
        f(&SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: 40,
            dist: RootCountDist::Randomized,
            base_seed: 0x0B10_C0DE,
        })
    }

    #[test]
    fn calls_spanning_several_blocks_match_one_thread() {
        // From an index no block starts at, past t·CHUNK sets: full blocks,
        // then a last one split into shorter shares.
        let (from, target) = (37, 37 + 3 * CHUNK + 500);
        with_job(300, |job| {
            let run = |threads| {
                let mut gen = SketchGenPool::new(300);
                let mut pool = SketchPool::new(300);
                gen.generate(job, from, 1, &mut pool);
                let stats = gen.generate(job, target, threads, &mut pool);
                (dump(&pool), stats)
            };
            let (base, base_stats) = run(1);
            assert_eq!(base_stats.sets_generated, target - from);
            for threads in [2, 3] {
                let (out, stats) = run(threads);
                assert_eq!(out, base, "{threads} threads diverged from one");
                assert_eq!(stats, base_stats, "accounting at {threads} threads");
            }
        });
    }

    #[test]
    fn a_helper_buffers_at_most_one_chunk() {
        with_job(300, |job| {
            let mut gen = SketchGenPool::new(300);
            let mut counts = crate::SketchCounts::new(300);
            for target in [700, 700 + 3 * CHUNK + 1, 2 * (700 + 3 * CHUNK)] {
                gen.generate(job, target, 3, &mut counts);
                assert_eq!(gen.workers.len(), 3);
                for w in &gen.workers[1..] {
                    // `sample_share` sizes the column exactly, so its
                    // capacity is the largest share ever buffered.
                    assert!(w.offs.len() <= CHUNK + 1);
                    assert!(w.offs.capacity() <= CHUNK + 1, "{}", w.offs.capacity());
                }
            }
            assert_eq!(gen.workers[1].offs.capacity(), CHUNK + 1);
        });
    }

    #[test]
    fn small_calls_grow_no_helper_scratch() {
        with_job(100, |job| {
            let mut gen = SketchGenPool::new(100);
            let mut counts = crate::SketchCounts::new(100);
            gen.generate(job, MIN_PARALLEL_SETS - 1, 8, &mut counts);
            gen.generate(job, 2 * MIN_PARALLEL_SETS - 2, 8, &mut counts);
            assert_eq!(counts.len(), 2 * MIN_PARALLEL_SETS - 2);
            assert_eq!(gen.workers.len(), 1, "only the caller's scratch");
        });
    }

    #[test]
    fn sets_contain_only_alive_nodes() {
        let g = test_graph(150);
        let mut residual = ResidualState::new(150);
        residual.kill_all(&[3, 5, 8, 13, 21, 34, 55, 89]);
        let job = SketchJob {
            graph: &g,
            model: Model::LT,
            snapshot: residual.snapshot(),
            eta_i: 12,
            dist: RootCountDist::Randomized,
            base_seed: 7,
        };
        let mut gen = SketchGenPool::new(150);
        let mut pool = SketchPool::new(150);
        gen.generate(&job, 300, 4, &mut pool);
        assert_eq!(pool.len(), 300);
        for id in 0..300u32 {
            assert!(
                pool.set(id).iter().all(|&u| residual.is_alive(u)),
                "set {id} contains a dead node"
            );
            assert!(
                !pool.set(id).is_empty(),
                "roots are alive so sets are non-empty"
            );
        }
    }

    /// At `η_i = n_alive` every set is single-root, the baselines' RR set:
    /// on an edgeless graph each set is its root alone, never a dead node,
    /// and the roots are uniform over the alive nodes.
    #[test]
    fn single_root_jobs_draw_uniform_alive_roots() {
        let n = 10;
        let g = smin_graph::GraphBuilder::new(n).build().unwrap();
        let mut residual = ResidualState::new(n);
        residual.kill_all(&[2, 5, 7]);
        let alive = residual.n_alive();
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: alive,
            dist: RootCountDist::Randomized,
            base_seed: 0x51_4E_61_E5,
        };
        let sets = 70_000;
        let mut pool = SketchPool::new(n);
        SketchGenPool::new(n).generate(&job, sets, 2, &mut pool);
        for id in 0..sets as u32 {
            assert_eq!(pool.set(id).len(), 1, "set {id} has more than its root");
        }
        // Each alive node roots Binomial(sets, 1/alive) sets.
        let q = 1.0 / alive as f64;
        let (mean, sd) = (sets as f64 * q, (sets as f64 * q * (1.0 - q)).sqrt());
        for v in 0..n as NodeId {
            let count = f64::from(pool.coverage(v));
            if !residual.is_alive(v) {
                assert_eq!(count, 0.0, "dead node {v} rooted a set");
                continue;
            }
            let z = (count - mean) / sd;
            assert!(z.abs() < 4.5, "node {v}: {count} roots, z = {z:.2}");
        }
    }

    #[test]
    fn generate_is_idempotent_at_target() {
        let g = test_graph(100);
        let residual = ResidualState::new(100);
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: 5,
            dist: RootCountDist::Randomized,
            base_seed: 1,
        };
        let mut gen = SketchGenPool::new(100);
        let mut pool = SketchPool::new(100);
        gen.generate(&job, 50, 2, &mut pool);
        let stats = gen.generate(&job, 50, 2, &mut pool);
        assert_eq!(stats, GenStats::default());
        assert_eq!(pool.len(), 50);
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit zero clamps to one");
        assert!(resolve_threads(None) >= 1);
    }
}
