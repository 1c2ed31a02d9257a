//! # smin-graph
//!
//! Directed probabilistic graph substrate for the adaptive seed minimization
//! stack. A [`Graph`] is an immutable compressed-sparse-row structure holding
//! both forward and reverse adjacency, where every edge `⟨u, v⟩` carries a
//! propagation probability `p(u, v) ∈ (0, 1]` (§2.1 of the paper).
//!
//! The crate also provides:
//!
//! * [`GraphBuilder`] — mutable edge accumulator with deduplication policies;
//! * [`weights`] — the paper's weighted-cascade model (`p = 1/indeg`) plus
//!   uniform and trivalency alternatives, parsed from `wc`, `uniform:P` and
//!   `tri`;
//! * [`generators`] — synthetic social-network generators (directed
//!   Chung–Lu power law, Barabási–Albert, Erdős–Rényi, Watts–Strogatz) used as
//!   stand-ins for the SNAP datasets of the evaluation, and
//!   [`GeneratorSpec`](generators::GeneratorSpec), which checks their
//!   preconditions for the CLI and the service alike;
//! * [`io`] — SNAP-compatible edge-list reading/writing plus format-sniffing
//!   [`io::load_auto`];
//! * [`store`] — the versioned `.smg` binary CSR snapshot format (checksummed
//!   sections, deterministic encode, millisecond loads);
//! * [`components`] / [`degree`] — the statistics reported in Table 2 and
//!   Figure 3;
//! * [`stamp`] / [`bitset`] — reusable membership scratch shared by the
//!   sampling hot paths: generation stamps (O(1) reset, sparse queries) and
//!   word-packed bitsets (persistent masks, word-at-a-time clear, batched
//!   insert and count).

#![forbid(unsafe_code)]

pub mod bitset;
pub mod builder;
pub mod cast;
pub mod components;
pub mod csr;
pub mod degree;
pub mod error;
pub mod generators;
pub mod io;
pub mod stamp;
pub mod store;
pub mod weights;

pub use bitset::{FixedBitSet, Ones};
pub use builder::{DedupPolicy, GraphBuilder};
pub use cast::u32_of;
pub use csr::{resolve_threads, Graph, NodeId, THREADS_ENV};
pub use error::{GraphError, StoreError};
pub use stamp::GenStamp;
pub use weights::WeightModel;
