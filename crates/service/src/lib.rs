//! # smin-service
//!
//! The long-running seed-selection server: the ROADMAP's "service front
//! end". A resident process amortizes the two costs every CLI run pays from
//! scratch — graph construction and sketch-pool warm-up — across an entire
//! stream of requests:
//!
//! * **Cached-graph registry** ([`registry`]): graphs are loaded or
//!   generated once (`POST /v1/graphs`) and served until deleted; every
//!   `/v1/select` runs against the in-memory CSR, never a file.
//! * **Warm sketch-pool sessions**: each graph shelves reusable
//!   [`AstiSession`](smin_core::AstiSession)s, so the columnar sketch pool,
//!   worker scratch, and coverage engine keep their learned capacity
//!   between requests (`SketchPool::reset` recycling).
//! * **Deterministic responses** ([`routes`]): the same request body returns
//!   byte-identical JSON across restarts and thread counts, which makes the
//!   bounded response cache ([`cache`]) sound — a repeated request is a
//!   memory read, answered on the poll thread without a dispatch handoff.
//! * **Std-only HTTP/1.1** ([`http`], [`server`]): hand-rolled incremental
//!   framing over `std::net`, keep-alive by default, served by an epoll
//!   readiness event loop (`event_loop` over raw syscall shims in
//!   [`platform`]) that multiplexes every connection on one poll thread.
//! * **Request-level protections**: `X-Deadline-Millis` budgets (504),
//!   admission control at a pending-dispatch high-water mark (429), and
//!   batched selection (`POST /v1/select-batch`) amortizing graph
//!   resolution and session checkout across items.
//! * **Observability** ([`metrics`], [`trace`]): a lock-free metric
//!   registry ([`smin_obs`]) fed by the event loop, the session layer, and
//!   the registry/cache, exposed at `GET /metrics` in the Prometheus text
//!   format; optional per-request JSON trace lines via `--trace-log`.
//!   Timing travels in headers and logs only — response bodies stay
//!   byte-identical with instrumentation on.
//!
//! Per-request `threads` (capped at the dispatch worker count), or the
//! `SMIN_THREADS` env var resolved at request time, picks the
//! sketch-generation worker count; it never changes results. Structured
//! JSON errors carry stable `code`s mapped from
//! `smin-core::error` ([`error`]).
//!
//! The CLI front end is `asm serve`; `svc_load` (in `smin-bench`) is the
//! matching load generator.

// Unsafe code is denied everywhere except the epoll syscall shims in
// `platform::sys`, which carry their own `#[allow]` and SAFETY comments.
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod error;
#[cfg(unix)]
pub(crate) mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod platform;
pub mod registry;
pub mod routes;
pub mod server;
pub mod trace;

pub use client::{Client, ClientResponse};
pub use error::ServiceError;
pub use metrics::ServiceMetrics;
pub use routes::ServiceState;
pub use server::{Server, ServerConfig, ServerHandle, Transport};
pub use trace::TraceLog;
