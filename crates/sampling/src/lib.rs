//! # smin-sampling
//!
//! Reverse-reachable set machinery (§3.2–3.3 of the paper):
//!
//! * [`rr`] — the reverse BFS from a given set of roots (Borgs et al.'s RR
//!   sets; §3.3's consistent multi-root search);
//! * [`mrr`] — the paper's randomized rounding of the root count
//!   (`E[k] = n_i/η_i`), which makes *truncated* spread estimation
//!   accurate (Theorem 3.3); at `η_i = n_i` it gives `k = 1`, a classic
//!   single-root RR set;
//! * [`pool`] — a columnar sketch pool (flat CSR sets) with incremental
//!   coverage counts, answering TRIM's argmax directly;
//! * [`coverage`] — the shared [`CoverageEngine`]: one greedy loop behind
//!   TRIM-B's batch selection and ATEUC's bound-driven greedy, with the
//!   `ρ_b = 1 − (1−1/b)^b` guarantee and OPIM-C's online upper bound on the
//!   best batch's coverage. A greedy run's first 8 picks scan the pool for
//!   their sets; a longer run builds the node→sets inverted index of the
//!   uncovered sets once, as a CSR transpose;
//! * [`bounds`] — the concentration bounds that drive the stopping rules:
//!   Appendix A's martingale bounds (Lemma A.2), and the exact binomial
//!   tail in KL form that TRIM certifies with;
//! * [`parallel`] — deterministic multi-threaded sketch generation
//!   (`std::thread` scoped workers + channels, chunked work-stealing) with
//!   counter-derived per-set RNG streams, so the pool is bit-identical for
//!   any thread count. It is the one sampling path: TRIM, TRIM-B, AdaptIM
//!   and ATEUC draw every set through it.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod coverage;
pub mod mrr;
pub mod parallel;
pub mod pool;
pub mod rr;

pub use coverage::{greedy_max_coverage, CoverageEngine, GreedyCover};
pub use mrr::{sample_root_count, RootCountDist};
pub use parallel::{resolve_threads, GenStats, SketchGenPool, SketchJob};
pub use pool::SketchPool;
pub use rr::ReverseSampler;
