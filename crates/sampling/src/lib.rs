//! # smin-sampling
//!
//! Reverse-reachable set machinery (§3.2–3.3 of the paper):
//!
//! * [`rr`] — classic single-root RR sets (Borgs et al.), used by the
//!   AdaptIM and ATEUC baselines;
//! * [`mrr`] — the paper's multi-root RR sets with randomized rounding of
//!   the root count (`E[k] = n_i/η_i`), the sampler that makes *truncated*
//!   spread estimation accurate (Theorem 3.3);
//! * [`pool`] — a columnar sketch pool (flat CSR sets) with incremental
//!   coverage counts, answering TRIM's argmax directly;
//! * [`coverage`] — the shared [`CoverageEngine`](coverage::CoverageEngine):
//!   one greedy loop behind TRIM's argmax, TRIM-B's batch selection, and the
//!   bound-driven greedy of the non-adaptive baselines, with the
//!   `ρ_b = 1 − (1−1/b)^b` guarantee and OPIM-C's online upper bound on
//!   the best batch's coverage. A greedy run's first 8 picks scan
//!   the pool for their sets; a longer run builds the node→sets inverted
//!   index of the uncovered sets once, as a CSR transpose;
//! * [`bounds`] — the concentration bounds that drive the stopping rules:
//!   Appendix A's martingale bounds (Lemma A.2), and the exact binomial
//!   tail in KL form that TRIM certifies with;
//! * [`parallel`] — deterministic multi-threaded sketch generation
//!   (`std::thread` scoped workers + channels, chunked work-stealing) with
//!   counter-derived per-set RNG streams, so the pool is bit-identical for
//!   any thread count.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod coverage;
pub mod mrr;
pub mod parallel;
pub mod pool;
pub mod rr;

pub use coverage::{greedy_max_coverage, CoverageEngine, GreedyCover};
pub use mrr::{sample_root_count, MrrSampler, RootCountDist};
pub use parallel::{resolve_threads, GenStats, SketchGenPool, SketchJob};
pub use pool::SketchPool;
pub use rr::ReverseSampler;
