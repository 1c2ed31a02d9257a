//! Multi-root RR sets with randomized rounding of the root count (§3.3).
//!
//! The estimator `Γ̃(S) = η_i · 1[S ∩ R ≠ ∅]` built on these sets satisfies
//! `(1 − 1/e) E[Γ(S)] ≤ E[Γ̃(S)] ≤ E[Γ(S)]` (Theorem 3.3 / Corollary 3.4)
//! *provided* the root count is drawn as
//!
//! ```text
//! k = ⌊n_i/η_i⌋ + 1  with probability  n_i/η_i − ⌊n_i/η_i⌋
//! k = ⌊n_i/η_i⌋      otherwise
//! ```
//!
//! independently per set, so that `E[k] = n_i/η_i`. The paper's §3.3 Remark
//! shows that fixing `k` at either bound gives strictly worse estimator
//! ranges (`[1 − 1/√e, 1]` and `[1 − 1/e, 2]`) — the fixed variants are kept
//! here behind [`RootCountDist`] for the ablation bench.
//!
//! Sets are drawn by [`SketchGenPool`](crate::parallel::SketchGenPool): `k`
//! from [`sample_root_count`], then `k` distinct alive roots, then the
//! reverse BFS of [`rr`](crate::rr). A classic single-root RR set, which
//! the AdaptIM and ATEUC baselines sample, is the case `η_i = n_i`: the
//! ratio is 1, so [`RootCountDist::Randomized`] gives `k = 1`
//! ([`RootCountDist::FixedCeil`] would give 2).

use rand::Rng;

/// How to pick the number of roots `k` for each mRR set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootCountDist {
    /// The paper's randomized rounding with `E[k] = n_i/η_i` (default).
    Randomized,
    /// Ablation: always `⌊n_i/η_i⌋` (estimator range `[1 − 1/√e, 1]`).
    FixedFloor,
    /// Ablation: always `⌊n_i/η_i⌋ + 1` (estimator range `[1 − 1/e, 2]`).
    FixedCeil,
}

/// Draws the root count for one mRR set over `n_alive` nodes and shortfall
/// `eta_i`, clamped to `[1, n_alive]`.
///
/// # Relation to the §3.3 guarantee
///
/// Theorem 3.3 needs `E[k] = n_i/η_i` exactly. The clamp does **not** disturb
/// that expectation as long as the caller maintains ASTI's loop invariant
/// `η_i ≤ n_i`. The driver validates `η ≤ n` up front and kills each selected
/// seed in the residual *unconditionally*, so the invariant holds whenever
/// the oracle is consistent — i.e. reports every selected seed among the
/// activated nodes, making each round shrink `η_i` at least as fast as `n_i`:
///
/// * lower clamp: `η_i ≤ n_i` gives `ratio ≥ 1`, hence `⌊ratio⌋ ≥ 1` and the
///   clamp to `1` never binds;
/// * upper clamp: `⌊ratio⌋ + 1 > n_i` requires `⌊ratio⌋ = n_i`, which forces
///   `η_i = 1` and an integral `ratio = n_i` — and then the fractional part is
///   `0`, so [`RootCountDist::Randomized`] draws `⌊ratio⌋ + 1` with
///   probability zero. Only the [`RootCountDist::FixedCeil`] ablation ever
///   hits this clamp, and its estimator range is off the paper's optimum by
///   design.
///
/// Outside the invariant (`η_i > n_i`, i.e. the shortfall cannot be met even
/// by activating every alive node), `ratio < 1` and the draw saturates at
/// `k = 1`, so `E[k] = 1 > n_i/η_i` and Theorem 3.3's premise no longer
/// holds. This regime is reachable on purpose: ASTI tolerates degenerate
/// oracles that report no activations (each round still removes the selected
/// seed from the residual, so `n_i` can sink below a stuck `η_i` before the
/// loop runs out of nodes and reports `reached = false`). Saturating keeps
/// the sampler total and the run terminating; the estimator merely loses its
/// approximation guarantee — which is vacuous there anyway, since even exact
/// coverage cannot reach `η_i > n_i`.
///
/// # Panics
/// Panics if `eta_i == 0` or `n_alive == 0` (the adaptive loop must have
/// stopped before this point).
pub fn sample_root_count(
    n_alive: usize,
    eta_i: usize,
    dist: RootCountDist,
    rng: &mut impl Rng,
) -> usize {
    assert!(
        eta_i > 0,
        "shortfall must be positive while selecting seeds"
    );
    assert!(n_alive > 0, "residual graph must be non-empty");
    let ratio = n_alive as f64 / eta_i as f64;
    let floor = ratio.floor() as usize;
    let frac = ratio - ratio.floor();
    let k = match dist {
        RootCountDist::Randomized => {
            if rng.random::<f64>() < frac {
                floor + 1
            } else {
                floor
            }
        }
        RootCountDist::FixedFloor => floor,
        RootCountDist::FixedCeil => floor + 1,
    };
    k.clamp(1, n_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SketchGenPool, SketchJob, SketchPool};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::{Model, ResidualState};
    use smin_graph::{Graph, GraphBuilder};

    /// `sets` IC mRR sets at shortfall `eta_i` over the alive nodes of
    /// `residual`, drawn by [`SketchGenPool`] under base seed `seed`.
    fn draw(
        g: &Graph,
        residual: &ResidualState,
        eta_i: usize,
        sets: usize,
        seed: u64,
    ) -> SketchPool {
        let job = SketchJob {
            graph: g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i,
            dist: RootCountDist::Randomized,
            base_seed: seed,
        };
        let mut pool = SketchPool::new(g.n());
        SketchGenPool::new(g.n()).generate(&job, sets, 1, &mut pool);
        pool
    }

    #[test]
    fn root_count_expectation_matches_ratio() {
        let mut rng = SmallRng::seed_from_u64(1);
        // n = 10, eta = 3 -> ratio 3.333..: k ∈ {3, 4}, E[k] = 10/3
        let trials = 60_000;
        let total: usize = (0..trials)
            .map(|_| sample_root_count(10, 3, RootCountDist::Randomized, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 10.0 / 3.0).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn root_count_only_two_values() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let k = sample_root_count(10, 3, RootCountDist::Randomized, &mut rng);
            assert!(k == 3 || k == 4, "k = {k}");
        }
    }

    #[test]
    fn integer_ratio_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(
                sample_root_count(10, 5, RootCountDist::Randomized, &mut rng),
                2
            );
        }
    }

    #[test]
    fn expectation_exact_at_invariant_boundaries() {
        let mut rng = SmallRng::seed_from_u64(11);
        // eta_i = n_alive (ratio = 1): k must be exactly 1, never clamped up.
        for _ in 0..200 {
            assert_eq!(
                sample_root_count(7, 7, RootCountDist::Randomized, &mut rng),
                1
            );
        }
        // eta_i = 1 (ratio = n, integral): k must be exactly n — the upper
        // clamp exists but Randomized reaches floor+1 with probability 0.
        for _ in 0..200 {
            assert_eq!(
                sample_root_count(7, 1, RootCountDist::Randomized, &mut rng),
                7
            );
        }
    }

    #[test]
    fn shortfall_above_alive_count_saturates_at_one_root() {
        // eta_i > n_alive (reachable only with degenerate oracles): ratio < 1
        // and the draw saturates at k = 1. E[k] = n_i/eta_i no longer holds —
        // Theorem 3.3's premise is void here — but the sampler stays total.
        let mut rng = SmallRng::seed_from_u64(12);
        for dist in [
            RootCountDist::Randomized,
            RootCountDist::FixedFloor,
            RootCountDist::FixedCeil,
        ] {
            for _ in 0..100 {
                assert_eq!(sample_root_count(3, 5, dist, &mut rng), 1);
            }
        }
    }

    #[test]
    fn fixed_variants() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(
            sample_root_count(10, 3, RootCountDist::FixedFloor, &mut rng),
            3
        );
        assert_eq!(
            sample_root_count(10, 3, RootCountDist::FixedCeil, &mut rng),
            4
        );
    }

    #[test]
    fn clamped_to_alive_count() {
        let mut rng = SmallRng::seed_from_u64(5);
        // eta = 1 -> ratio = n; ceil would exceed n, must clamp
        assert_eq!(
            sample_root_count(4, 1, RootCountDist::FixedCeil, &mut rng),
            4
        );
        assert_eq!(
            sample_root_count(1, 1, RootCountDist::Randomized, &mut rng),
            1
        );
    }

    #[test]
    #[should_panic(expected = "shortfall must be positive")]
    fn zero_eta_panics() {
        let mut rng = SmallRng::seed_from_u64(6);
        let _ = sample_root_count(5, 0, RootCountDist::Randomized, &mut rng);
    }

    #[test]
    fn mrr_sets_contain_only_alive_nodes() {
        let mut b = GraphBuilder::new(6);
        for u in 0..5u32 {
            b.add_edge_p(u, u + 1, 0.8).unwrap();
        }
        let g = b.build().unwrap();
        let mut res = ResidualState::new(6);
        res.kill_all(&[0, 3]);
        let pool = draw(&g, &res, 2, 200, 7);
        assert_eq!(pool.len(), 200);
        for id in 0..200u32 {
            let set = pool.set(id);
            assert!(!set.is_empty(), "roots are alive so the set is non-empty");
            assert!(set.iter().all(|&u| res.is_alive(u)));
        }
    }

    #[test]
    fn estimator_is_binary_eta_indicator() {
        // Estimator semantics: Γ̃(S) = η·1[S ∩ R ≠ ∅]; verified here via the
        // hit-rate of a singleton on the full graph with p = 1: every set
        // contains the whole ancestor closure of its roots, so a universal
        // source node is always hit.
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 1.0).unwrap();
        b.add_edge_p(0, 2, 1.0).unwrap();
        b.add_edge_p(0, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let pool = draw(&g, &ResidualState::new(4), 2, 100, 8);
        assert_eq!(pool.len(), 100);
        for id in 0..100u32 {
            assert!(pool.set(id).contains(&0), "node 0 reaches every root");
        }
    }
}
