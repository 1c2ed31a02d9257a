//! # smin-core
//!
//! The paper's algorithms:
//!
//! * [`trim()`](trim::trim) — TRIM (Algorithm 2): `(1 − 1/e)(1 − ε)`-approximate truncated
//!   influence maximization via mRR sets, checking its certificate as the
//!   sample grows ×1.25 (the paper doubles);
//! * [`trim_b()`](trim_b::trim_b) — TRIM-B (Algorithm 3): the batched variant selecting `b`
//!   seeds per round via greedy maximum coverage
//!   (`ρ_b (1 − 1/e)(1 − ε)`-approximate);
//! * [`asti()`](asti::asti) — ASTI (Algorithm 1): the adaptive select→observe driver, which
//!   instantiated with TRIM gives the paper's
//!   `(ln η + 1)² / ((1 − 1/e)(1 − ε))` expected approximation for adaptive
//!   seed minimization in `O(η·(m + n)/ε² · ln n)` expected time;
//! * [`adapt_im()`](adapt_im::adapt_im) — the AdaptIM baseline (§6.1): adaptive greedy by *vanilla*
//!   marginal spread with single-root RR sets;
//! * [`ateuc()`](ateuc::ateuc) — the ATEUC baseline (§6.1): non-adaptive seed minimization
//!   with an `|S_u| ≤ 2|S_l|` stopping rule (reimplemented from the
//!   description in Han et al. 2017);
//! * [`greedy_oracle`] — exact adaptive greedy by exhaustive enumeration,
//!   the ground-truth comparator for tiny graphs.

#![forbid(unsafe_code)]

pub mod adapt_im;
pub mod asti;
pub mod ateuc;
pub mod error;
pub mod greedy_oracle;
pub mod params;
pub mod report;
pub mod trim;
pub mod trim_b;

pub use adapt_im::{adapt_im, AdaptImParams};
pub use asti::{asti, asti_in, AstiSession};
pub use ateuc::{ateuc, evaluate_on_realizations, AteucOutput};
pub use error::AsmError;
pub use params::{eta_of_fraction, AstiParams, TrimParams};
pub use report::{AstiReport, Round, RoundReport, TrimStats};
pub use trim::{trim, StageMicros};
pub use trim_b::trim_b;
