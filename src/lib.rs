//! # seedmin — Adaptive Seed Minimization
//!
//! Facade crate re-exporting the full stack of the SIGMOD'19 reproduction
//! *Efficient Approximation Algorithms for Adaptive Seed Minimization*
//! (Tang, Huang, Xiao, Lakshmanan, Tang, Sun, Lim):
//!
//! * [`graph`] — probabilistic social graphs, generators, I/O;
//! * [`diffusion`] — IC/LT models, realizations, residual state, oracles;
//! * [`sampling`] — RR / multi-root-RR set sampling and concentration bounds;
//! * [`algo`] — ASTI, TRIM, TRIM-B and the AdaptIM / ATEUC baselines.
//!
//! ## Quickstart
//!
//! ```
//! use seedmin::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // A small power-law graph with weighted-cascade probabilities.
//! let mut rng = SmallRng::seed_from_u64(7);
//! let pairs = chung_lu_directed(500, 2_000, 2.1, &mut rng);
//! let g = assemble(500, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap();
//!
//! // Hidden ground truth: one sampled realization the policy will observe.
//! let phi = Realization::sample(&g, Model::IC, &mut rng);
//! let mut oracle = RealizationOracle::new(&g, phi);
//!
//! // Run ASTI with TRIM until 50 nodes are activated.
//! let report = asti(&g, Model::IC, 50, &AstiParams::with_eps(0.5), &mut oracle, &mut rng).unwrap();
//! assert!(report.total_activated >= 50);
//! ```

#![forbid(unsafe_code)]

pub use smin_core as algo;
pub use smin_diffusion as diffusion;
pub use smin_graph as graph;
pub use smin_sampling as sampling;

/// Convenient glob import covering the common workflow.
pub mod prelude {
    pub use smin_core::{
        adapt_im, asti, ateuc, trim, trim_b, AdaptImParams, AstiParams, AstiReport, TrimParams,
    };
    pub use smin_diffusion::{
        ForwardSim, Model, Realization, RealizationOracle, ResidualState, SimulationOracle,
    };
    pub use smin_graph::generators::{assemble, barabasi_albert, chung_lu_directed, erdos_renyi};
    pub use smin_graph::{Graph, GraphBuilder, WeightModel};
}
