//! Deterministic parallel (m)RR sketch generation.
//!
//! TRIM spends nearly all of its time on Algorithm 2 line 6 and the
//! growth steps of line 7 — generating mRR sets — and §3.3's sampling is
//! independent per set, so the work is embarrassingly parallel. With no
//! external thread-pool crates available offline, this module builds one
//! from `std::thread` scoped workers plus `mpsc` channels:
//!
//! * the target range of set indices is split into chunks, and workers
//!   *steal* chunks from a shared atomic cursor (dynamic scheduling — a
//!   worker stuck on an expensive chunk never blocks the others);
//! * each finished chunk is shipped to the caller's thread over a channel
//!   as a flattened node buffer (one allocation per chunk, not per set);
//! * the caller appends chunks to its [`SketchSink`] (a
//!   [`SketchCounts`](crate::SketchCounts) or a
//!   [`SketchPool`](crate::SketchPool)) strictly in index order, streaming
//!   as soon as the next-needed chunk lands.
//!
//! # Determinism
//!
//! Every sketch draws from its **own counter-derived RNG stream**:
//! set index `i` in a generation round is sampled with
//! `SmallRng::seed_from_u64(base_seed ^ i)` (the SplitMix64 finalizer inside
//! `seed_from_u64` decorrelates adjacent streams). Chunk boundaries and
//! thread scheduling therefore affect only *when* a set is sampled, never
//! *what* is sampled — the generated sets, and hence every downstream seed
//! selection, are bit-identical for any thread count, including the
//! sequential fast path.
//!
//! # Memory
//!
//! The sequential path samples each set into one reused worker buffer and
//! hands it straight to the sink, so it allocates nothing per set: into a
//! [`SketchCounts`](crate::SketchCounts), a round holds O(n) bytes whatever
//! its target. The parallel path holds each chunk's sets (at most 1 024)
//! until the caller's thread appends them, and one reorder slot per chunk.

use crate::mrr::{sample_root_count, RootCountDist};
use crate::pool::SketchSink;
use crate::rr::ReverseSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_diffusion::{DistinctDraw, Model, ResidualSnapshot};
use smin_graph::{Graph, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable overriding the default worker count (used by CI to
/// exercise both the sequential and the parallel path).
pub const THREADS_ENV: &str = "SMIN_THREADS";

/// Below this many sets the scheduling overhead outweighs the parallelism
/// and generation runs inline on the caller's thread. Purely a performance
/// knob: the output is identical either way.
const MIN_PARALLEL_SETS: usize = 128;

/// Resolves the worker count: an explicit request wins, then the
/// [`THREADS_ENV`] override, then [`std::thread::available_parallelism`].
/// Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

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

/// Per-worker scratch: reverse-BFS state, root-draw stamps, and buffers.
/// Reused across generation calls so the hot path stays allocation-free.
struct WorkerScratch {
    reverse: ReverseSampler,
    draw: DistinctDraw,
    roots: Vec<NodeId>,
    set_buf: Vec<NodeId>,
}

impl WorkerScratch {
    fn new(n: usize) -> Self {
        WorkerScratch {
            reverse: ReverseSampler::new(n),
            draw: DistinctDraw::new(),
            roots: Vec::new(),
            set_buf: Vec::new(),
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
}

/// One finished chunk of sketches, flattened: set `j` of the chunk spans
/// `nodes[offs[j]..offs[j + 1]]`.
struct SketchChunk {
    ordinal: usize,
    nodes: Vec<NodeId>,
    offs: Vec<usize>,
    edges_examined: usize,
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
/// (grown lazily to the largest thread count seen) and schedules chunked
/// generation over scoped `std::thread` workers.
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
        let total = target - from;
        let threads = threads.max(1);
        // Scratch is grown to the count actually used (1 here, the post-chunk
        // worker count in `generate_parallel`): each WorkerScratch carries
        // node-count-sized buffers, so over-provisioning is real memory.
        self.ensure_workers(1);

        if threads == 1 || total < MIN_PARALLEL_SETS {
            return self.generate_sequential(job, from, target, pool);
        }
        self.generate_parallel(job, from, target, threads, pool)
    }

    fn ensure_workers(&mut self, count: usize) {
        while self.workers.len() < count {
            self.workers.push(WorkerScratch::new(self.n));
        }
    }

    /// Inline fast path: same per-set RNG streams, no thread machinery.
    fn generate_sequential(
        &mut self,
        job: &SketchJob<'_>,
        from: usize,
        target: usize,
        pool: &mut impl SketchSink,
    ) -> GenStats {
        let w = &mut self.workers[0];
        let mut stats = GenStats::default();
        for idx in from..target {
            stats.edges_examined += w.sample_one(job, idx);
            pool.add_set(&w.set_buf);
            stats.sets_generated += 1;
        }
        stats
    }

    /// Scoped workers steal fixed-size chunks from an atomic cursor and ship
    /// flattened results home over a channel; the caller's thread appends
    /// them to the pool in chunk order as they complete.
    fn generate_parallel(
        &mut self,
        job: &SketchJob<'_>,
        from: usize,
        target: usize,
        threads: usize,
        pool: &mut impl SketchSink,
    ) -> GenStats {
        let total = target - from;
        // ~4 chunks per worker balances stealing granularity against
        // per-chunk channel traffic; clamped so tiny chunks never dominate.
        let chunk = (total / (threads * 4)).clamp(16, 1024);
        let n_chunks = total.div_ceil(chunk);
        let threads = threads.min(n_chunks);
        self.ensure_workers(threads);

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<SketchChunk>();
        let mut stats = GenStats::default();

        std::thread::scope(|scope| {
            for w in self.workers[..threads].iter_mut() {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    loop {
                        let ordinal = cursor.fetch_add(1, Ordering::Relaxed);
                        if ordinal >= n_chunks {
                            break;
                        }
                        let start = from + ordinal * chunk;
                        let end = (start + chunk).min(target);
                        let mut nodes = Vec::new();
                        let mut offs = Vec::with_capacity(end - start + 1);
                        offs.push(0);
                        let mut edges_examined = 0;
                        for idx in start..end {
                            edges_examined += w.sample_one(job, idx);
                            nodes.extend_from_slice(&w.set_buf);
                            offs.push(nodes.len());
                        }
                        if tx
                            .send(SketchChunk {
                                ordinal,
                                nodes,
                                offs,
                                edges_examined,
                            })
                            .is_err()
                        {
                            break; // receiver gone: the caller is unwinding
                        }
                    }
                });
            }
            drop(tx);

            // Stream chunks into the pool in index order.
            let mut pending: Vec<Option<SketchChunk>> = (0..n_chunks).map(|_| None).collect();
            let mut next = 0usize;
            for done in rx {
                let ordinal = done.ordinal;
                pending[ordinal] = Some(done);
                while next < n_chunks {
                    let Some(ch) = pending[next].take() else {
                        break;
                    };
                    for w in ch.offs.windows(2) {
                        pool.add_set(&ch.nodes[w[0]..w[1]]);
                        stats.sets_generated += 1;
                    }
                    stats.edges_examined += ch.edges_examined;
                    next += 1;
                }
            }
        });
        debug_assert_eq!(pool.len(), target, "all chunks must have arrived");
        stats
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
