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
//! * [`pool`] — what the selections read of the sampled sets:
//!   [`SketchCounts`] (the incremental coverage counts and `|R|`, answering
//!   TRIM's and AdaptIM's argmax in O(n) bytes whatever `|R|` is) and
//!   [`SketchPool`] (those counts plus the members, for greedy coverage,
//!   each set as a flat id list or, when that is smaller, a bitmap over
//!   the nodes);
//! * [`coverage`] — the shared [`CoverageEngine`]: one greedy loop behind
//!   TRIM-B's batch selection and ATEUC's bound-driven greedy, with the
//!   `ρ_b = 1 − (1−1/b)^b` guarantee and OPIM-C's online upper bound on the
//!   best batch's coverage. A greedy run walks its candidates once and
//!   then picks from a short list of the best, refilled by a full walk only
//!   when it can no longer vouch for the pick. Its first 8 picks scan the
//!   pool for their sets; a longer run builds the node→sets inverted index
//!   of the uncovered sets once, as a CSR transpose;
//! * [`bounds`] — the concentration bounds that drive the stopping rules:
//!   Appendix A's martingale bounds (Lemma A.2), and the exact binomial
//!   tail in KL form that TRIM certifies with;
//! * [`parallel`] — deterministic multi-threaded sketch generation: one
//!   loop over blocks of set indices, in which the caller samples the first
//!   share into the sink while `t − 1` scoped helpers each buffer one
//!   bounded share for it to append in index order. Counter-derived per-set
//!   RNG streams make the sets bit-identical for any thread count. It is
//!   the one sampling path: TRIM, TRIM-B, AdaptIM and ATEUC draw every set
//!   through it.

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
pub use pool::{SketchCounts, SketchPool, SketchSink};
pub use rr::ReverseSampler;
