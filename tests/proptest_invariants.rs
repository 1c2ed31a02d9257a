//! Property-based invariants spanning the whole stack.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::diffusion::{ForwardSim, Model, Realization, RealizationOracle, ResidualState};
use seedmin::graph::{generators, Graph, GraphBuilder, WeightModel};
use seedmin::prelude::{asti, AstiParams};
use seedmin::sampling::{ReverseSampler, RootCountDist, SketchGenPool, SketchJob, SketchPool};

/// Strategy: a random small directed graph with uniform probabilities.
fn small_graph() -> impl Strategy<Value = (Graph, u64)> {
    (3usize..20, 0u64..1000, 1u32..100).prop_map(|(n, seed, p_pct)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let m = (n + seed as usize % (max_m.max(1))).min(max_m).max(1);
        let pairs = generators::erdos_renyi(n, m, &mut rng);
        let p = p_pct as f64 / 100.0;
        let g = generators::assemble(n, &pairs, true, WeightModel::Uniform(p), &mut rng).unwrap();
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_roundtrip_counts((g, seed) in small_graph()) {
        // every forward edge appears exactly once in reverse adjacency
        let fwd: usize = (0..g.n() as u32).map(|u| g.out_degree(u)).sum();
        let rev: usize = (0..g.n() as u32).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(fwd, g.m());
        prop_assert_eq!(rev, g.m());
        for (u, v, p) in g.edges() {
            prop_assert!(g.in_edges(v).any(|(src, q, _)| src == u && q == p));
        }
        // `in_sources` lists the in-edges' sources in order, with Some(p)
        // iff every in-edge carries p (so None at zero in-degree); halving
        // a seed-dependent third of the edges gives nodes of both kinds
        let mixed = g.map_probabilities(|u, v, p| {
            if (u64::from(u) + 2 * u64::from(v) + seed).is_multiple_of(3) { p / 2.0 } else { p }
        });
        for h in [&g, &mixed] {
            for v in 0..h.n() as u32 {
                let in_edges: Vec<(u32, f64, u32)> = h.in_edges(v).collect();
                let (srcs, shared) = h.in_sources(v);
                let want_srcs: Vec<u32> = in_edges.iter().map(|e| e.0).collect();
                prop_assert_eq!(srcs, &want_srcs[..]);
                let carried = in_edges
                    .first()
                    .map(|e| e.1)
                    .filter(|&p| in_edges.iter().all(|e| e.1 == p));
                prop_assert_eq!(shared, carried);
            }
        }
    }

    #[test]
    fn wc_weights_always_form_valid_lt((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let wc = smin_graph::weights::apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        prop_assert!(wc.is_valid_lt());
        for v in 0..wc.n() as u32 {
            if wc.in_degree(v) > 0 {
                prop_assert!((wc.in_prob_sum(v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn realization_spread_monotone_in_seeds((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut sim = ForwardSim::new(g.n());
        let s1 = sim.spread(&g, &phi, &[0]);
        let s2 = sim.spread(&g, &phi, &[0, (g.n() - 1) as u32]);
        prop_assert!(s2 >= s1, "adding a seed cannot shrink the spread");
        prop_assert!(s2 <= g.n());
        prop_assert!(s1 >= 1);
    }

    #[test]
    fn rr_set_contains_root_and_only_alive((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sampler = ReverseSampler::new(g.n());
        let mut residual = ResidualState::new(g.n());
        // kill a couple of nodes (never the root)
        let root = (g.n() - 1) as u32;
        residual.kill(0);
        let set = sampler.sample(&g, Model::IC, Some(residual.alive_mask()), &[root], &mut rng);
        prop_assert!(set.contains(&root));
        for &u in &set {
            prop_assert!(residual.is_alive(u));
        }
        // no duplicates
        let mut s = set.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), set.len());
    }

    #[test]
    fn mrr_root_count_within_bounds((g, seed) in small_graph()) {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        for eta in 1..=n {
            let k = seedmin::sampling::sample_root_count(n, eta, RootCountDist::Randomized, &mut rng);
            let ratio = n as f64 / eta as f64;
            prop_assert!(k >= 1 && k <= n);
            prop_assert!((k as f64) >= ratio.floor().min(n as f64) - 1e-9);
            prop_assert!((k as f64) <= ratio.floor() + 1.0 + 1e-9);
        }
    }

    #[test]
    fn mrr_sets_nonempty_and_alive((g, seed) in small_graph()) {
        let n = g.n();
        let mut residual = ResidualState::new(n);
        if n > 4 {
            residual.kill_all(&[1, 3]);
        }
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: (n / 2).max(1),
            dist: RootCountDist::Randomized,
            base_seed: seed,
        };
        let mut pool = SketchPool::new(n);
        SketchGenPool::new(n).generate(&job, 16, 1, &mut pool);
        for id in 0..16u32 {
            let set = pool.set(id);
            prop_assert!(!set.is_empty());
            prop_assert!(set.iter().all(|&u| residual.is_alive(u)));
        }
    }

    #[test]
    fn asti_terminates_feasibly_on_random_graphs((g, seed) in small_graph()) {
        let n = g.n();
        let eta = (n / 2).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let mut params = AstiParams::with_eps(0.5);
        params.trim.theta_cap = Some(2_000); // keep property runs fast
        let report = asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng).unwrap();
        prop_assert!(report.reached);
        prop_assert!(report.total_activated >= eta);
        prop_assert!(report.num_seeds() <= n);
        // the adaptive policy never selects an already-active node, so the
        // seed list is duplicate-free
        let mut s = report.seeds.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), report.num_seeds());
    }

    #[test]
    fn truncated_spread_bounded(eta in 1usize..10, seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = generators::erdos_renyi(8, 12, &mut rng);
        let g = generators::assemble(8, &pairs, true, WeightModel::Uniform(0.5), &mut rng).unwrap();
        let eta = eta.min(8);
        let exact = seedmin::diffusion::exact::exact_expected_truncated(&g, Model::IC, &[0], eta);
        let vanilla = seedmin::diffusion::exact::exact_expected_spread(&g, Model::IC, &[0]);
        prop_assert!(exact <= eta as f64 + 1e-9);
        prop_assert!(exact <= vanilla + 1e-9);
        prop_assert!(exact >= 1.0 - 1e-9, "a seed always activates itself");
    }

    #[test]
    fn lt_realizations_in_degree_at_most_one((g, seed) in small_graph()) {
        // rescale to a valid LT instance first
        let mut rng = SmallRng::seed_from_u64(seed);
        let lt = smin_graph::weights::apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        let phi = Realization::sample(&lt, Model::LT, &mut rng);
        // each node has at most one live in-edge
        for v in 0..lt.n() as u32 {
            let live_in = lt.in_edges(v).filter(|&(_, _, e)| phi.is_live(e, v)).count();
            prop_assert!(live_in <= 1, "node {} kept {} live in-edges", v, live_in);
        }
    }

    #[test]
    fn builder_rejects_invalid_inputs(n in 1usize..10, u in 0u32..20, v in 0u32..20, p in -1.0f64..2.0) {
        let mut b = GraphBuilder::new(n);
        let r = b.add_edge_p(u, v, p);
        let valid = (u as usize) < n && (v as usize) < n && p > 0.0 && p <= 1.0;
        prop_assert_eq!(r.is_ok(), valid);
    }
}
