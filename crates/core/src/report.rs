//! Run reports: what an adaptive policy did, round by round.

use smin_graph::NodeId;
use std::time::Duration;

/// One adaptive round (Lines 3–7 of Algorithm 1).
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Seeds selected this round (1 for TRIM, ≤ b for TRIM-B).
    pub seeds: Vec<NodeId>,
    /// Nodes newly activated when the seeds were observed (seeds included).
    pub newly_activated: usize,
    /// Shortfall `η_i` at the start of the round.
    pub eta_i: usize,
    /// Alive nodes `n_i` at the start of the round.
    pub n_alive: usize,
    /// (m)RR sets generated this round.
    pub sets_generated: usize,
    /// Estimated truncated marginal spread of the selection.
    pub est_truncated_spread: f64,
    /// Wall-clock time of the selection step (excludes the observe step,
    /// which in a real deployment is the campaign itself).
    pub select_time: Duration,
    /// What TRIM or TRIM-B did to select the round's seeds; `None` for a
    /// policy that runs neither (AdaptIM, the exact greedy).
    pub trim: Option<TrimStats>,
}

/// One round's selection: what [`trim()`](crate::trim()),
/// [`trim_b()`](crate::trim_b()) and AdaptIM's selection return, and what
/// Algorithm 1's loop turns into a [`RoundReport`] row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// The selected seeds: TRIM's `v*`, or TRIM-B's batch `S_b` (size ≤ b;
    /// smaller only when the residual graph has fewer alive nodes).
    pub seeds: Vec<NodeId>,
    /// `|R|` at termination.
    pub sets_generated: usize,
    /// Estimate `η_i · Λ_R/|R|` of the seeds' expected marginal truncated
    /// spread (AdaptIM's scale is `n_i`, for the vanilla spread).
    pub est_truncated_spread: f64,
    /// How the round's certificate ended it.
    pub stats: TrimStats,
}

/// One TRIM (Algorithm 2) or TRIM-B (Algorithm 3) round's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrimStats {
    /// Certificate checks made (`≤ T`); 0 on the `η_i = 1` path, which
    /// answers without sampling.
    pub iterations: usize,
    /// `Λˡ/Λᵘ` at termination: at least the target (`1 − ε̂` for TRIM,
    /// `ρ_b(1 − ε̂)` for TRIM-B) unless the round ended at `T` or `θ_max`.
    /// TRIM takes `Λˡ` and `Λᵘ` from the binomial tail on `coverage` and
    /// the round's sets; TRIM-B from Lemma A.2 on `coverage` and `upper`.
    pub certificate: f64,
    /// Edges examined while sampling (what counts is in
    /// `smin_sampling::rr`'s module docs).
    pub edges_examined: usize,
    /// TRIM-B's greedy calls that made every pick; 0 for TRIM, whose
    /// argmax runs no greedy.
    pub greedy_calls: usize,
    /// Coverage `Λ_R` of the selection at termination.
    pub coverage: u32,
    /// The bound on the optimum's coverage that `Λᵘ` was taken of:
    /// OPIM-C's `U` for TRIM-B, and `coverage` itself for TRIM, whose
    /// argmax is exact.
    pub upper: u32,
}

/// Full adaptive run.
#[derive(Clone, Debug)]
pub struct AstiReport {
    /// All seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Per-round details.
    pub rounds: Vec<RoundReport>,
    /// Total nodes active at termination.
    pub total_activated: usize,
    /// The requested threshold `η`.
    pub eta: usize,
    /// Whether `η` was reached (always true unless the graph ran out of
    /// nodes first, which can only happen when `η > n`—rejected up front—or
    /// the oracle double-counts).
    pub reached: bool,
    /// Total selection wall-clock time.
    pub total_select_time: Duration,
    /// Total (m)RR sets across rounds.
    pub total_sets: usize,
}

impl AstiReport {
    /// Number of seeds selected.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Realized marginal spread per seed index (Figure 10's series): for
    /// batched runs the batch's activation count is attributed to the batch.
    pub fn marginal_spreads(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.newly_activated).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let report = AstiReport {
            seeds: vec![3, 1, 4],
            rounds: vec![
                RoundReport {
                    seeds: vec![3],
                    newly_activated: 10,
                    eta_i: 20,
                    n_alive: 100,
                    sets_generated: 64,
                    est_truncated_spread: 9.5,
                    select_time: Duration::from_millis(5),
                    trim: None,
                },
                RoundReport {
                    seeds: vec![1, 4],
                    newly_activated: 12,
                    eta_i: 10,
                    n_alive: 90,
                    sets_generated: 32,
                    est_truncated_spread: 8.0,
                    select_time: Duration::from_millis(3),
                    trim: None,
                },
            ],
            total_activated: 22,
            eta: 20,
            reached: true,
            total_select_time: Duration::from_millis(8),
            total_sets: 96,
        };
        assert_eq!(report.num_seeds(), 3);
        assert_eq!(report.num_rounds(), 2);
        assert_eq!(report.marginal_spreads(), vec![10, 12]);
    }
}
